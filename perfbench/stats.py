"""Order statistics with an explicit sample-size rule."""

from __future__ import annotations

import math
import statistics

#: a tail percentile is reported only when at least this many samples
#: lie beyond it; fewer would let one or two outliers set the number
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values``.

    ``q == 50`` is the interpolated median and needs one sample.  An
    upper-tail percentile (``q > 50``) is the nearest-rank value and
    is refused with :class:`TooFewSamples` unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie strictly beyond its rank --
    e.g. ``p90`` needs 100 samples.
    """
    data = sorted(values)
    if not data:
        raise TooFewSamples("no samples")
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    if q == 50:
        return statistics.median(data)
    if q < 50:
        raise ValueError("only the median and upper-tail percentiles")
    rank = math.ceil(q * len(data) / 100)
    beyond = len(data) - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q:g} of {len(data)} samples leaves {beyond} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return data[rank - 1]


def relative_iqr(values) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
