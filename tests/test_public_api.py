"""API-stability tests: the documented public surface must stay
importable from the documented locations."""

import importlib

import pytest

import repro


TOP_LEVEL = [
    "AVERAGE", "MAX", "MEDIAN", "MIN", "PRODUCT", "SUM",
    "AggregationFunction", "make_aggregation",
    "ApproximateThresholdAlgorithm", "CombinedAlgorithm", "FaginAlgorithm",
    "IntermittentAlgorithm", "MaxAlgorithm", "NaiveAlgorithm",
    "NoRandomAccessAlgorithm", "QuickCombine", "RestrictedSortedAccessTA",
    "StreamCombine", "ThresholdAlgorithm", "TopKResult",
    "AccessSession", "CostModel", "Database", "GradedSource",
    "ListCapabilities", "ShardedDatabase", "assemble_database",
    "MutableDatabase", "MutableColumnarDatabase", "MutableShardedDatabase",
    "MutationEvent", "LiveView", "ViewEvent",
    "QueryService", "QueryServiceClient", "QuerySpec",
]

#: names the top level once re-exported from repro.services; they
#: live only there now
REMOVED_TOP_LEVEL = [
    "AsyncAccessSession", "LatencyModel", "SimulatedListService",
    "assemble_remote_database", "services_for_database",
    "services_for_sources",
]

SUBMODULE_NAMES = {
    "repro.core": [
        "anytime_topk", "AnytimeView", "sorted_topk_without_grades",
        "TopKBuffer", "CandidateStore", "HaltReason", "RankedItem",
        "EarlyStopView", "QueryError",
    ],
    "repro.middleware": [
        "MutableDatabase", "MutableColumnarDatabase",
        "MutableShardedDatabase", "MutationEvent", "UnknownViewError",
        "WildGuessError", "CapabilityError", "DatabaseError",
        "AccessTrace", "ScoredCollection", "ShardedDatabase",
        "ListMergeCursor", "shard_bounds_for",
        "WireFormatError", "connection_error_to_service_error",
        "encode_message", "decode_message", "encode_frame",
        "decode_frame", "QueryBudget", "ListLostError",
        "ReplicaGroupExhaustedError",
    ],
    "repro.resilience": [
        "BreakerState", "CircuitBreaker", "CircuitBreakerPolicy",
        "ReplicaFleet", "ReplicatedGradedSource", "QueryBudget",
        "DegradedResult", "certify", "complete_with_sorted_only",
        "degrade_result", "finalize_certificates", "verify_against_oracle",
    ],
    "repro.services": [
        "RemoteGradedSource", "SortedPage", "AsyncAccessSession",
        "LatencyModel", "FailureModel", "RetryPolicy",
        "SimulatedListService", "ShardRunService",
        "services_for_database", "services_for_sources",
        "shard_run_services", "drain_columns",
        "assemble_remote_database", "fetch_merged_orders",
        "network_client", "network_services", "network_shard_runs",
    ],
    "repro.transport": [
        "GradedSourceServer", "serve_sources", "TransportClient",
        "NetworkGradedSource", "NetworkRunSource", "ServerProcess",
    ],
    "repro.server": [
        "Scheduler", "ScanCache", "QueryService", "QuerySpec",
        "QueryHandle", "QueryServer", "QueryServiceClient",
        "QueryOutcome", "ViewSnapshot", "PROTOCOL_VERSION",
        "encode_result", "decode_result",
    ],
    "repro.store": [
        "save_store", "open_store", "StoreWriter", "StoreReader",
        "StoreBackedDatabase", "StoreBackedShardedDatabase",
        "LRUPageCache",
    ],
    "repro.views": [
        "LiveView", "ViewEvent",
    ],
    "repro.datagen": [
        "uniform", "permutations", "correlated", "anticorrelated",
        "zipf_skewed", "plateau", "ratings_like", "search_scores_like",
        "sensor_like", "example_6_3", "example_6_8", "example_7_3",
        "example_8_3", "figure_5", "theorem_9_1_family",
        "theorem_9_2_family", "theorem_9_5_family", "AdversarialInstance",
        "sharded_blocks", "sharded_uniform",
    ],
    "repro.analysis": [
        "minimal_certificate", "Certificate", "measured_optimality_ratio",
        "is_correct_topk", "is_theta_approximation", "assert_result_correct",
        "table_1", "format_table_1", "ta_upper_bound", "nra_upper_bound",
        "run_algorithms", "format_table", "fit_power_law",
        "optimality_sweep", "threshold_trajectory", "bound_trajectory",
        "sparkline", "bar_chart", "render_trajectory",
    ],
    "repro.aggregation": [
        "WeightedSum", "KthLargest", "Constant", "LukasiewiczTNorm",
        "MinOfSumFirstTwo", "Example73Aggregation", "FunctionAdapter",
        "ArityError",
    ],
}


@pytest.mark.parametrize("name", TOP_LEVEL)
def test_top_level_export(name):
    assert hasattr(repro, name), name
    assert name in repro.__all__


@pytest.mark.parametrize(
    "module,name",
    [(mod, name) for mod, names in SUBMODULE_NAMES.items() for name in names],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_submodule_export(module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name), f"{module}.{name}"
    assert name in mod.__all__, f"{module}.__all__ missing {name}"


def test_unknown_top_level_attribute_still_raises():
    import repro.services

    with pytest.raises(AttributeError):
        repro.definitely_not_a_symbol
    for name in REMOVED_TOP_LEVEL:
        with pytest.raises(AttributeError):
            getattr(repro, name)
        assert hasattr(repro.services, name), name


def test_middleware_exports_no_database_writers():
    import repro.middleware
    import repro.middleware.serialization as serialization

    for name in ("save_json", "load_json", "save_npz", "load_npz"):
        assert not hasattr(repro.middleware, name), name
        assert not hasattr(serialization, name), name


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_py_typed_marker_ships():
    from pathlib import Path

    assert (Path(repro.__file__).parent / "py.typed").exists()
