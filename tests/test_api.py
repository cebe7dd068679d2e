import inspect

import idindex
import idindex.cli
import idindex.constructions
import idindex.families
import idindex.graphs
import idindex.solvers
import idindex.strings_codes
import idindex.structure

# test-only oracles and removed wrappers, kept in tests/corpus.py or deleted
NOT_EXPORTED = [
    "id_index_oracle",
    "geometric_pool",
    "restricted_growth_strings",
    "TooLargeError",
    "NoDistinguishingAssignmentError",
    "PairProfile",
    "pair_profiles",
    "is_id_coloring",
    "SearchLimits",
    "DistanceProfile",
    "idi_lower_bound",
    "partition_of_ranks",
    "RankAssignment",
    "RedWhiteColoring",
    "IdNumberResult",
    "VertexLayout",
    "coloring_to_ranks",
    "affine_transform",
    "normalize_two_valued",
    "ranks_to_coloring",
    "ZeroScaleError",
    "NotZeroOneError",
    "partition_distinguishes",
    "multipartite_binomial_bound",
    "InvalidMultiplicitiesError",
    "_PRECOMPUTE_MAX_FIELD_BYTES",
]


def test_every_exported_name_resolves():
    for name in idindex.__all__:
        assert getattr(idindex, name) is not None, name
    assert len(set(idindex.__all__)) == len(idindex.__all__)


def test_test_only_names_are_not_in_the_library():
    for name in NOT_EXPORTED:
        assert name not in idindex.__all__
        modules = (
            idindex,
            idindex.constructions,
            idindex.families,
            idindex.graphs,
            idindex.solvers,
            idindex.strings_codes,
            idindex.structure,
        )
        for module in modules:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_search_limits_has_one_knob():
    # the node budget bounds both exact searches; the table limit is fixed
    for search in (idindex.id_index_exact, idindex.id_number_exact):
        params = inspect.signature(search).parameters
        assert list(params) == ["g", "max_nodes"]
        assert params["max_nodes"].default == idindex.solvers.DEFAULT_MAX_NODES


def test_graph_has_no_test_only_helpers():
    # tests read len(g.adj[v]) and len(list(g.edges())) instead
    assert not hasattr(idindex.Graph, "degree")
    assert not hasattr(idindex.Graph, "edge_count")


def test_random_graphs_take_no_edge_probability():
    # sweeps sample G(n, 1/2), the p the CLI documents
    params = inspect.signature(idindex.families.random_connected_graph).parameters
    assert list(params) == ["n", "rng"]


def test_tuplet_classes_have_no_second_index():
    # the watcher indexes the twin classes while it walks them
    assert not hasattr(idindex.TupletClasses, "class_index")


def test_every_input_error_is_a_value_error():
    # the CLI maps ValueError and OSError to exit 2; only the budget (exit 3)
    # and invariant (exit 4) errors stand outside that base
    outside = {idindex.solvers.BudgetExceededError, idindex.solvers.InternalInvariantError}
    modules = (
        idindex.cli,
        idindex.constructions,
        idindex.families,
        idindex.graphs,
        idindex.solvers,
        idindex.strings_codes,
        idindex.structure,
    )
    errors = [
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    ]
    assert outside | {idindex.graphs.GraphError, idindex.cli._UsageError} <= set(errors)
    for error in set(errors) - outside:
        assert issubclass(error, ValueError), error.__qualname__
