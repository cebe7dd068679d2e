"""The benchmark's certificate checker accepts real answers and rejects
corrupted ones."""

import io
import json
from contextlib import redirect_stdout

import pytest

from perfbench import checker
from perfbench.worker import import_program

cli = import_program()


def compute(spec, *flags):
    from idindex.families import generate, parse_family_spec

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.run(["compute", "--family", spec, *flags]) == 0
    g, _ = generate(parse_family_spec(spec))
    return g.adj, json.loads(buf.getvalue())


def test_distances_reject_disconnected_graph():
    with pytest.raises(ValueError):
        checker.distances(((1,), (0,), ()))


def test_sphere_sums_by_hand():
    # path 0-1-2 with weights 1, 10, 100
    dist = checker.distances(((1,), (0, 2), (1,)))
    assert checker.sphere_sums(dist, [1, 10, 100]) == [(10, 100), (101, 0), (10, 1)]


@pytest.mark.parametrize("spec", ["petersen", "grid:3x4", "path:7"])
def test_exact_certificate_passes(spec):
    adj, out = compute(spec)
    ref = {"k": out["k"], "partition": out["partition"]}
    assert checker.check_exact(adj, out, ref) == []


def test_swapped_ranks_are_rejected():
    adj, out = compute("grid:3x4")
    ranks = out["ranks"]
    u = 0
    v = next(w for w in range(len(ranks)) if ranks[w] != ranks[u])
    ranks[u], ranks[v] = ranks[v], ranks[u]
    problems = checker.check_exact(adj, out, None)
    assert any("recomputed" in p for p in problems)


def test_wrong_k_is_rejected():
    adj, out = compute("petersen")
    out["k"] += 1
    assert any("distinct ranks" in p for p in checker.check_exact(adj, out, None))


def test_reference_mismatch_is_rejected():
    adj, out = compute("path:7")
    assert checker.check_exact(adj, out, {"k": out["k"] + 1, "partition": []})
    other = list(reversed(out["partition"]))
    assert checker.check_exact(adj, out, {"k": out["k"], "partition": other})


def test_heuristic_certificate_and_bound():
    adj, out = compute("cycle:12", "--heuristic")
    assert checker.check_heuristic(adj, out, exact_k=2) == []
    assert checker.check_heuristic(adj, out, exact_k=out["k_upper"] + 1)


def test_red_set_passes_and_dropped_red_vertex_is_rejected():
    adj, out = compute("cycle:20", "--id-number")
    ref = {key: out[key] for key in ("is_id_graph", "id_number", "red")}
    assert checker.check_id_number(adj, out, ref) == []
    out["red"] = out["red"][:-1]
    problems = checker.check_id_number(adj, out, None)
    assert any("id_number" in p for p in problems)
    out["id_number"] -= 1
    assert any("share a code" in p for p in checker.check_id_number(adj, out, None))


def test_not_an_id_graph_claims_are_checked():
    adj, out = compute("petersen", "--id-number")
    ref = {key: out[key] for key in ("is_id_graph", "id_number", "red")}
    assert checker.check_id_number(adj, out, ref) == []
    assert checker.check_id_number(adj, dict(out, red=[0]), None)
    claimed = {"is_id_graph": True, "id_number": 3, "red": [0, 1, 2]}
    assert checker.check_id_number(adj, claimed, ref)
