import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_import_loads_no_heavy_module():
    # -S, since a site module may preload typing and pathlib itself; records
    # are named tuples, so no dataclass generates code at import
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import idindex.cli, sys; "
        "print(*[m for m in ('dataclasses', 'typing', 'inspect', 'pathlib') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == []


def _records():
    """One instance of every public record, all from one cycle."""
    spec = idindex.parse_family_spec("cycle:5")
    g, _ = idindex.generate(spec)
    cert = idindex.id_index_exact(g)
    tc = idindex.tuplet_classes(g)
    dm = idindex.all_pairs_distances(g)
    return [g, dm, tc.classes[0], tc, cert.partition, cert.infeasibility, cert, spec]


def test_records_are_immutable():
    records = _records()
    assert sorted(type(r).__name__ for r in records) == sorted(
        ["Graph", "DistanceMatrix", "TupletClass", "TupletClasses", "Partition",
         "InfeasibilityWitness", "IdIndexCertificate", "FamilySpec"]
    )
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 0


def test_graph_equality_is_class_strict():
    g, _ = idindex.generate(idindex.parse_family_spec("cycle:5"))
    for other in (tuple(g), g[:2], list(g)):
        assert g != other and other != g
        assert not (g == other or other == g)
    assert g == idindex.Graph(g.n, g.adj) and not g != idindex.Graph(g.n, g.adj)


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pickled_family_graph_keeps_its_automorphisms(protocol):
    g, _ = idindex.generate(idindex.parse_family_spec("cycle:5"))
    back = pickle.loads(pickle.dumps(g, protocol))
    assert type(back) is idindex.Graph and back == g
    assert back.automorphisms == g.automorphisms != ()


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_family_spec_is_checked_when_unpickled(monkeypatch, protocol):
    data = pickle.dumps(idindex.FamilySpec("path", (50,)), protocol)
    assert pickle.loads(data) == idindex.FamilySpec("path", (50,))
    monkeypatch.setattr(idindex.graphs, "MAX_VERTICES", 10)
    with pytest.raises(idindex.graphs.GraphError, match="limit 10"):
        pickle.loads(data)


def test_no_validated_record_is_built_around_its_checks():
    # _make and _replace build a named tuple without calling __new__
    modules = (
        idindex.cli,
        idindex.constructions,
        idindex.families,
        idindex.graphs,
        idindex.solvers,
        idindex.strings_codes,
        idindex.structure,
    )
    for module in modules:
        source = inspect.getsource(module)
        assert "._make(" not in source and "._replace(" not in source, module.__name__
