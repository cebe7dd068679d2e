import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idindex.cli as cli
import idindex.families as families
import idindex.solvers as solvers
from idindex.graphs import Graph

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def module_command(*argv):
    """``python -m idindex.cli`` and an environment in which a child process
    finds ``src`` whether or not the package is installed."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return [sys.executable, "-m", "idindex.cli", *argv], env


def run_module(*argv):
    command, env = module_command(*argv)
    return subprocess.run(command, capture_output=True, text=True, env=env)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def json_value(value):
    """A report value with a ``cli._Decimal`` row or table replaced by the
    lists of decimal strings it stands for."""
    if not isinstance(value, cli._Decimal):
        return value
    if value and type(value[0]) is not int:
        return [[str(x) for x in row] for row in value]
    return [str(x) for x in value]


def dumped(obj):
    """What ``json.dump(report, fh, indent=2)`` plus a newline writes."""
    return json.dumps({key: json_value(v) for key, v in obj.items()}, indent=2) + "\n"


def record_reports(monkeypatch):
    """Record, for every report the CLI emits, the ``json.dump`` bytes."""
    expected = []
    emit = cli._emit

    def recording(obj, path):
        expected.append(dumped(obj))  # inside cli.run, past the digit limit
        emit(obj, path)

    monkeypatch.setattr(cli, "_emit", recording)
    return expected


def count_bfs_and_twins(monkeypatch):
    """Count the BFS and twin passes the CLI and the solvers make."""
    calls = {"bfs": 0, "twins": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module in (cli, solvers):
        for attr, name in (("all_pairs_distances", "bfs"), ("tuplet_classes", "twins")):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    return calls


class TestCompute:
    def test_petersen(self, capsys):
        obj = run_json(capsys, "compute", "--family", "petersen")
        assert obj["k"] == 3
        assert len(obj["partition"]) == 10
        assert all(isinstance(r, str) for r in obj["ranks"])
        assert obj["exhausted_k_minus_1"] is True
        assert obj["nodes_searched"] > 0

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a path on three vertices\n0 1\n1 2\n")
        obj = run_json(capsys, "compute", "--input", str(path))
        assert obj["k"] == 2

    def test_disconnected_input_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# n=4\n0 1\n2 3\n")
        code, out, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == 2
        assert "error:" in err

    def test_missing_source(self, capsys):
        code, _, err = run_cli(capsys, "compute")
        assert code == 2 and "need --family or --input" in err

    def test_bad_family(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--family", "torus:4")
        assert code == 2

    def test_family_and_input_conflict(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "--family", "path:3", "--input", "/nonexistent"
        )
        assert (code, out) == (2, "")
        assert "argument --input: not allowed with argument --family" in err

    def test_id_number_and_heuristic_conflict(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "--family", "path:3", "--heuristic", "--id-number"
        )
        assert (code, out) == (2, "")
        assert "argument --id-number: not allowed with argument --heuristic" in err

    def test_id_number(self, capsys):
        obj = run_json(capsys, "compute", "--family", "path:3", "--id-number")
        assert obj == {"is_id_graph": True, "id_number": 1, "red": [0]}

    def test_id_number_negative_case(self, capsys):
        obj = run_json(capsys, "compute", "--family", "cycle:4", "--id-number")
        assert obj == {"is_id_graph": False, "id_number": None, "red": None}

    def test_heuristic(self, capsys):
        obj = run_json(capsys, "compute", "--family", "prism:6", "--heuristic",
                       "--seed", "4")
        assert obj["k_upper"] >= obj["lower_bound"]
        assert len(obj["ranks"]) == 12

    @pytest.mark.parametrize(
        "name,source,seed",
        [
            (f"{name}_seed{seed}", ("--family", spec), seed)
            for name, spec in [
                ("prism6", "prism:6"),
                ("petersen", "petersen"),
                ("grid4x5", "grid:4x5"),
                ("caterpillar", "caterpillar:2,4,2,2,4,2"),
            ]
            for seed in ("0", "3")
        ]
        + [("random12_seed3", ("--input", str(GOLDEN / "random12_seed3.txt")), "3")],
    )
    def test_heuristic_matches_golden(self, capsys, name, source, seed):
        # golden files hold the output of the per-class count implementation
        code, out, err = run_cli(capsys, "compute", *source, "--heuristic",
                                 "--seed", seed)
        assert code == 0, err
        assert out == (GOLDEN / f"heuristic_{name}.json").read_text()

    # golden files hold the output of the recursive partition search and of
    # the red-set search over itertools.combinations with full code tables;
    # the exact ones pin nodes_searched and the witness
    @pytest.mark.parametrize(
        "name,spec",
        [
            ("petersen", "petersen"),
            ("k4xk4", "product:(complete:4)x(complete:4)"),
            ("cube5", "product:(product:(product:(product:(path:2)x(path:2))"
                      "x(path:2))x(path:2))x(path:2)"),
            ("prism6", "prism:6"),
            ("grid4x5", "grid:4x5"),
        ],
    )
    def test_exact_matches_golden(self, capsys, name, spec):
        code, out, err = run_cli(capsys, "compute", "--family", spec)
        assert code == 0, err
        assert out == (GOLDEN / f"exact_{name}.json").read_text()

    @pytest.mark.parametrize(
        "name,spec",
        [
            ("k4xk4", "product:(complete:4)x(complete:4)"),
            ("prism8", "prism:8"),
            ("grid45", "grid:4x5"),
            ("cycle20", "cycle:20"),
            ("petersen", "petersen"),
            ("path6", "path:6"),
            ("multipartite112", "multipartite:1,1,2"),
        ],
    )
    def test_id_number_matches_golden(self, capsys, name, spec):
        code, out, err = run_cli(capsys, "compute", "--family", spec, "--id-number")
        assert code == 0, err
        assert out == (GOLDEN / f"id_number_{name}.json").read_text()

    def test_json_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, out, _ = run_cli(
            capsys, "compute", "--family", "path:4", "--json", str(out_path)
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["k"] == 2

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--family", "prism:5", "--budget-nodes", "5"
        )
        assert code == 3 and "budget:" in err

    def test_budget_bracket_reuses_distances_and_twins(self, capsys, monkeypatch):
        calls = count_bfs_and_twins(monkeypatch)
        code, _, err = run_cli(
            capsys, "compute", "--family", "prism:5", "--budget-nodes", "5"
        )
        assert code == 3 and "answer in [2, 4]" in err
        assert calls == {"bfs": 1, "twins": 1}

    @pytest.mark.parametrize("budget", ["0", "-5", "many"])
    def test_budget_below_one_is_a_usage_error(self, capsys, budget):
        code, out, err = run_cli(
            capsys, "compute", "--family", "petersen", "--budget-nodes", budget
        )
        assert code == 2 and out == ""
        assert "--budget-nodes" in err

    @pytest.mark.parametrize("budget", ["1_0", "+3", " 5", "\u0665"])
    def test_budget_outside_the_grammar_exits_2(self, capsys, budget):
        code, out, err = run_cli(
            capsys, "compute", "--family", "petersen", "--budget-nodes", budget
        )
        assert (code, out) == (2, "")
        assert f"--budget-nodes: expected an integer >= 1, got {budget!r}\n" in err

    @pytest.mark.parametrize("seed", ["+3", "1_0", " \u0663"])
    def test_seed_outside_the_grammar_exits_2(self, capsys, seed):
        code, out, err = run_cli(
            capsys, "compute", "--family", "path:4", "--heuristic", "--seed", seed
        )
        assert (code, out) == (2, "")
        assert f"--seed: expected an integer, got {seed!r}\n" in err

    @pytest.mark.parametrize("seed", ["0", "3", "-1", "007", "-012", "9" * 40])
    def test_seed_in_the_grammar(self, capsys, seed):
        code, out, err = run_cli(
            capsys, "compute", "--family", "path:4", "--heuristic", "--seed", seed
        )
        assert code == 0, err
        assert cli._parser().parse_args(["compute", "--seed", seed]).seed == int(seed)

    def test_deep_search_prints_no_traceback(self, capsys):
        # a search deeper than the interpreter's recursion limit
        code, out, err = run_cli(capsys, "compute", "--family", "path:1100")
        assert code == 0, err
        assert json.loads(out)["k"] == 2

    def test_stray_solver_error_is_internal(self, capsys, monkeypatch):
        def broken(g, max_nodes):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "id_index_exact", broken)
        code, out, err = run_cli(capsys, "compute", "--family", "path:3")
        assert code == 4 and out == ""
        assert err == "internal error: RuntimeError: boom\n"

    def test_invariant_violation_exits_4(self, capsys, monkeypatch):
        def broken(g, max_nodes):
            raise solvers.InternalInvariantError("witness fails re-verification")

        monkeypatch.setattr(cli, "id_index_exact", broken)
        code, out, err = run_cli(capsys, "compute", "--family", "path:3")
        assert code == 4 and out == ""
        assert err == "internal invariant violated: witness fails re-verification\n"

    def test_builder_with_a_non_automorphism_exits_4(self, capsys, monkeypatch):
        # cycle:120 takes the shift kernel, which checks every generator first
        kind = families._KINDS["cycle"]

        def swapped(n):
            g, roles = kind.build(n)
            r = tuple(range(n))
            return Graph(g.n, g.adj, (r[1:2] + r[:1] + r[2:],)), roles

        monkeypatch.setitem(families._KINDS, "cycle", kind._replace(build=swapped))
        code, out, err = run_cli(capsys, "compute", "--family", "cycle:120")
        assert (code, out) == (4, "")
        assert err == "internal error: AssertionError: a graph generator is not an automorphism\n"

    def test_id_number_size_budget(self, capsys):
        # all 79,800 pairs of 400 vertices are watched: refused before building
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "compute", "--family", "grid:20x20",
                                 "--id-number")
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == ""
        assert "budget:" in err

    def test_id_number_node_budget(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "--family", "prism:8", "--id-number",
            "--budget-nodes", "1",
        )
        assert code == 3 and out == ""
        assert err == "budget: node budget 1 exhausted at red-set size 1\n"
        # the counting bound settles K4xK4 before any red set is tried
        code, out, err = run_cli(
            capsys, "compute", "--family", "product:(complete:4)x(complete:4)",
            "--id-number", "--budget-nodes", "1",
        )
        assert code == 0, err
        assert json.loads(out)["is_id_graph"] is False

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--heuristic", "--budget-nodes", "1"],
             "--budget-nodes does not apply to --heuristic"),
            (["--id-number", "--seed", "5"], "--seed applies only to --heuristic"),
            (["--seed", "0"], "--seed applies only to --heuristic"),
        ],
        ids=["heuristic-budget", "id-number-seed", "exact-seed"],
    )
    def test_refuses_a_flag_the_mode_ignores(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "compute", "--family", "prism:8", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["compute", "verify", "analyze"])
    def test_deterministic_is_a_sweep_flag(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--family", "path:3",
                                 "--deterministic=false")
        assert code == 2 and out == ""
        assert "--deterministic" in err


class TestVerify:
    def test_construction(self, capsys):
        obj = run_json(
            capsys, "verify", "--family", "multipartite:1,2", "--construct"
        )
        assert obj["distinguishing"] is True
        assert obj["collision"] is None
        assert obj["ranks"] == ["1", "1", "2"]

    def test_construction_builds_one_graph(self, capsys, monkeypatch):
        # every build of a caterpillar goes through its record's builder,
        # however generate was imported
        built = []
        kind = families._KINDS["caterpillar"]

        def counting_build(*counts):
            built.append(counts)
            return kind.build(*counts)

        monkeypatch.setitem(families._KINDS, "caterpillar", kind._replace(build=counting_build))
        obj = run_json(
            capsys, "verify", "--family", "caterpillar:2,4,2,2,4,2", "--construct"
        )
        assert obj["distinguishing"] is True
        assert len(built) == 1

    @pytest.mark.parametrize(
        "name,argv,payload",
        [
            # the red set that compute --id-number writes, read back
            (
                "verify_coloring_prism8",
                ("--family", "prism:8", "--coloring", str(GOLDEN / "id_number_prism8.json")),
                None,
            ),
            ("verify_coloring_path3", ("--family", "path:3", "--coloring"), '{"red": [1]}'),
            ("verify_construct_multipartite22", ("--family", "multipartite:2,2", "--construct"), None),
            ("verify_ranks_cycle6", ("--family", "cycle:6", "--ranks"), '{"ranks": [1, 1, 1, 1, 1, 2]}'),
        ],
    )
    def test_matches_golden(self, capsys, tmp_path, name, argv, payload):
        if payload is not None:
            path = tmp_path / "input.json"
            path.write_text(payload)
            argv = (*argv, str(path))
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (0, (GOLDEN / f"{name}.json").read_text(), "")

    def test_construct_needs_family(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        code, _, err = run_cli(
            capsys, "verify", "--input", str(path), "--construct"
        )
        assert code == 2 and "--construct needs --family" in err

    def test_construct_mismatch_is_input_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--family", "caterpillar:1,2", "--construct"
        )
        assert code == 2

    def test_ranks_file(self, capsys, tmp_path):
        path = tmp_path / "ranks.json"
        path.write_text(json.dumps({"ranks": ["1", "1"]}))
        obj = run_json(capsys, "verify", "--family", "path:2", "--ranks", str(path))
        assert obj["distinguishing"] is False
        assert obj["collision"] == [0, 1]
        # plain JSON integers are read too
        path.write_text(json.dumps({"ranks": [1, -2]}))
        obj = run_json(capsys, "verify", "--family", "path:2", "--ranks", str(path))
        assert obj["ranks"] == ["1", "-2"]
        assert obj["distinguishing"] is True

    def test_ranks_past_the_int_str_digit_limit(self, capsys, tmp_path):
        # CPython refuses int/str conversions past 4,300 digits by default
        limit = sys.get_int_max_str_digits()
        long_rank = "1" + "0" * 5000
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"ranks": ["1", "2", long_rank]}))
        obj = run_json(capsys, "verify", "--family", "path:3", "--ranks", str(path))
        assert obj["ranks"] == ["1", "2", long_rank]
        assert obj["distinguishing"] is True
        # path:3 sums two ranks at distance 1 from the middle vertex
        path = tmp_path / "nines.json"
        path.write_text(json.dumps({"ranks": ["9" * 4300] * 3}))
        obj = run_json(capsys, "verify", "--family", "path:3", "--ranks", str(path))
        assert obj["strings"][1] == ["1" + "9" * 4299 + "8", "0"]
        assert obj["strings"][0] == ["9" * 4300] * 2
        assert sys.get_int_max_str_digits() == limit

    def test_coloring_file(self, capsys, tmp_path):
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps({"red": [0]}))
        obj = run_json(
            capsys, "verify", "--family", "path:3", "--coloring", str(path)
        )
        assert obj["id_coloring"] is True
        assert obj["codes"] == [["0", "0"], ["1", "0"], ["0", "1"]]

    @pytest.mark.parametrize(
        "payload",
        [{"red": [9]}, {"red": [0.9]}, {"red": [True]}, {"red": "0"}],
    )
    def test_coloring_with_bad_vertex(self, capsys, tmp_path, payload):
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, "verify", "--family", "path:3", "--coloring", str(path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["1_0", "+3", " 4", "\u0665"])
    @pytest.mark.parametrize(
        "flag,key,usage",
        [
            ("--ranks", "ranks", "expected {'ranks': [<decimal string>, ...]}"),
            ("--coloring", "red", "coloring file must look like {'red': [ids]}"),
        ],
        ids=["ranks", "coloring"],
    )
    def test_decimal_string_outside_the_grammar_exits_2(
        self, capsys, tmp_path, flag, key, usage, value
    ):
        path = tmp_path / "values.json"
        path.write_text(json.dumps({key: ["1", value]}))
        code, out, err = run_cli(capsys, "verify", "--family", "path:3", flag, str(path))
        assert (code, out, err) == (2, "", f"error: {usage}\n")

    @pytest.mark.parametrize(
        "flag,usage",
        [
            ("--ranks", "expected {'ranks': [<decimal string>, ...]}"),
            ("--coloring", "coloring file must look like {'red': [ids]}"),
        ],
    )
    def test_json_nested_past_the_recursion_limit(self, capsys, tmp_path, flag, usage):
        # the JSON decoder raises RecursionError, which is not a ValueError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "verify", "--family", "path:3", flag, str(path))
        assert (code, out, err) == (2, "", f"error: {usage}\n")

    @pytest.mark.parametrize("flag", ["--ranks", "--coloring", None])
    def test_inputs_checked_before_distances(self, capsys, monkeypatch, tmp_path, flag):
        def unreachable(g):
            raise AssertionError("distances computed before the inputs were checked")

        monkeypatch.setattr(cli, "all_pairs_distances", unreachable)
        missing = str(tmp_path / "missing.json")
        argv = ["verify", "--family", "path:2000"] + ([flag, missing] if flag else [])
        code, out, err = run_cli(capsys, *argv)
        if flag:
            message = f"[Errno 2] No such file or directory: {missing!r}"
        else:
            message = "need one of --ranks, --coloring, --construct"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_needs_some_input(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "path:3")
        assert code == 2 and "need one of" in err

    @pytest.mark.parametrize(
        "first, second",
        [
            (["--construct"], ["--ranks", "/nonexistent"]),
            (["--ranks", "/nonexistent"], ["--coloring", "/nonexistent"]),
            (["--coloring", "/nonexistent"], ["--construct"]),
        ],
    )
    def test_one_of_ranks_coloring_construct(self, capsys, first, second):
        code, out, err = run_cli(capsys, "verify", "--family", "path:3", *first, *second)
        assert (code, out) == (2, "")
        assert f"argument {second[0]}: not allowed with argument {first[0]}" in err


class TestAnalyze:
    def test_petersen(self, capsys):
        obj = run_json(capsys, "analyze", "--family", "petersen")
        assert obj["n"] == 10
        assert obj["diameter"] == 2
        assert obj["T"] == 1
        assert obj["idi_lower_bound"] == 3  # the counting bound
        assert obj["distance_profile"] == [3, 6]
        assert all(c["kind"] is None for c in obj["tuplet_classes"])

    def test_twin_kinds(self, capsys):
        obj = run_json(capsys, "analyze", "--family", "multipartite:1,1,2")
        classes = {tuple(c["members"]): c["kind"] for c in obj["tuplet_classes"]}
        assert classes == {(0, 1): "clique", (2, 3): "independent"}
        assert obj["T"] == 2

    def test_no_profile(self, capsys):
        obj = run_json(capsys, "analyze", "--family", "path:4")
        assert obj["distance_profile"] is None

    # both golden files hold the output of the all-one string table's
    # sphere counts, from before the distance kernel counted them
    @pytest.mark.parametrize(
        "name,source",
        [
            ("prism8", ("--family", "prism:8")),  # has a distance profile
            ("random12_seed3", ("--input", str(GOLDEN / "random12_seed3.txt"))),
        ],
    )
    def test_matches_golden(self, capsys, name, source):
        code, out, err = run_cli(capsys, "analyze", *source)
        assert (code, out, err) == (0, (GOLDEN / f"analyze_{name}.json").read_text(), "")

    @pytest.mark.parametrize(
        "spec", ["path:1_0", "path:+3", "path:\u0663", "grid:3x+4", "path: 4", "multipartite:1, 2"]
    )
    def test_parameter_outside_the_grammar_exits_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "analyze", "--family", spec)
        assert (code, out, err) == (2, "", f"error: non-integer parameter in {spec!r}\n")

    @pytest.mark.parametrize("depth,code", [(64, 0), (65, 2), (495, 2)])
    def test_product_nesting_limit(self, capsys, depth, code):
        spec = "path:1"
        for _ in range(depth):
            spec = f"product:({spec})x(path:1)"
        got, out, err = run_cli(capsys, "analyze", "--family", spec)
        assert got == code, err
        if code:
            assert out == "" and err == "error: products nest at most 64 deep\n"
        else:
            assert json.loads(out)["n"] == 1


# leaf specs with parameters up to 6, some with malformed separators
_ATOMS = st.builds(
    lambda kind, sep, joiner, params: kind + sep + joiner.join(map(str, params)),
    st.sampled_from([
        "path", "cycle", "complete", "multipartite", "grid", "prism",
        "petersen", "caterpillar", "product", "", "torus", "Path", "(path",
    ]),
    st.sampled_from([":", "", "::", " : "]),
    st.sampled_from([",", "x", ", ", ";", ")x("]),
    st.lists(st.integers(min_value=-1, max_value=6), max_size=3),
)


# how one level of product nesting wraps the spec so far and its sibling
_WELL_FORMED = "product:({a})x({b})"
_MALFORMED = [
    "product:({b})x({a}",
    "product:{a}x{b}",
    "product:({a})({b})",
    "product:({a})x({b})x(path:1)",
    "product(({a})x({b}))",
    "product:(({a})x({b})",
    "product:({a}))x(({b})",
    "product:()x({a})",
]


@st.composite
def _family_specs(draw):
    """Product chains nested up to 600 deep around small atoms.

    At most two factors are drawn atoms (every other sibling is path:1), so
    a well-formed spec has at most 36 * 36 vertices.
    """
    # deep chains get their own branch: past a few hundred levels is where
    # recursion would give out
    depth = draw(st.integers(0, 600) | st.integers(400, 600))
    levels = st.integers(min_value=0, max_value=max(depth - 1, 0))
    sibling = draw(st.just({}) | st.dictionaries(levels, _ATOMS, max_size=1))
    broken = draw(
        st.just({}) | st.dictionaries(levels, st.sampled_from(_MALFORMED), max_size=2)
    )
    spec = draw(_ATOMS)
    for level in range(depth):
        template = broken.get(level, _WELL_FORMED)
        spec = template.format(a=spec, b=sibling.get(level, "path:1"))
    return spec


class TestFamilySpecFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_family_specs())
    def test_analyze_exits_cleanly(self, spec):
        # hypothesis raises the recursion limit while it runs a test; the
        # command line runs under the interpreter's default of 1000
        limit = sys.getrecursionlimit()
        out, err = io.StringIO(), io.StringIO()
        try:
            sys.setrecursionlimit(1000)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(["analyze", "--family", spec])
        finally:
            sys.setrecursionlimit(limit)
        assert code in (0, 2), (spec, err.getvalue())
        assert "internal error" not in err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestVertexLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--family", "path:100000000"),
            ("analyze", "--family", "grid:100000x100000"),
            ("analyze", "--family", "multipartite:100000,100000"),
            ("analyze", "--family", "product:(path:100000)x(path:100000)"),
            ("analyze", "--input", "{d}/header.txt"),
            ("analyze", "--input", "{d}/edge.txt"),
            ("sweep", "--random", "n=100000,count=1"),
        ],
    )
    def test_refused_before_any_work(self, capsys, tmp_path, argv):
        (tmp_path / "header.txt").write_text("# n=100000000\n0 1\n")
        (tmp_path / "edge.txt").write_text("0 100000000\n")
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *(a.replace("{d}", str(tmp_path)) for a in argv))
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert err.startswith("error: graph needs ") and err.endswith(", limit 2000\n")
        assert err.count("\n") == 1


# argv fuzz pieces: (valid, malformed) values of each flag that takes one.
# Family specs have at most 12 vertices, but for two above the vertex limit;
# sweep ranges cover at most 4 sizes (0..3), so grids stay at 3x3.  {d} is
# the example's temporary directory.
_PATHS = (["{d}/a", "{d}/b", "{d}/c"], ["{d}", "{d}/none/x"])
_VALUES = {
    "--family": (
        [
            "path:4", "cycle:5", "complete:3", "multipartite:1,2,3", "multipartite:2,2",
            "grid:2x3", "prism:3", "petersen", "caterpillar:1,2,1", "path:1",
            "product:(path:2)x(cycle:3)",
        ],
        [
            "path:0", "path:-1", "path", "grid:3x", "product:(path:2)x(", "petersen:1",
            "multipartite:1", "multipartite:2,2,2", "caterpillar:2,1", "torus:3", " ",
            "", "path:2001", "product:(path:50)x(path:50)",
        ],
    ),
    "--input": _PATHS,
    "--ranks": _PATHS,
    "--coloring": _PATHS,
    "--json": _PATHS,
    "--csv": _PATHS,
    "--seed": (["0", "3", "-1"], ["x", ""]),
    "--budget-nodes": (["1", "50"], ["-1", "0", "x"]),
    "--from": (["1", "2", "3"], ["-1", "0", "x"]),
    "--to": (["1", "2", "3"], ["0", "x"]),
    "--random": (
        ["n=5,count=2", "n=12,count=1,seed=3", "n=1,count=1", "seed=-1,count=1,n=8"],
        ["n=0,count=2", "n=x,count=1", "n=5", "n", "n=5,count=1,extra=1", ""],
    ),
    "--deterministic": (["true", "false"], ["maybe"]),
}
_SWEEP_KINDS = (["path", "cycle", "complete", "prism", "grid"], ["petersen", "path:4"])
_JUNK = ["--bogus", "-x", "--", "bogus", "compute", "--family=path:3", "--budget", "--help"]

# file a holds an edge list, b a rank or coloring file, and c either, or an
# empty file, JSON nested past any recursion limit or bytes that are not
# UTF-8; any of the three may be read as any kind of file
_EDGE_LISTS = st.sampled_from([
    "0 1\n1 2\n2 3\n", "# n=5\n0 1\n1 2\n2 3\n3 4\n", "0 1\n1 2\n2 0\n2 3\n",
    "0 1\n2 3\n", "0 0\n", "0 1\n1 0\n", "# n=100000000\n0 1\n", "0 100000000\n",
    "x y\n",
])
_JSON_FILES = st.sampled_from([
    '{"ranks": [1, "2", 3, 4]}', '{"ranks": [1, 2, 3, 4, 5, 6]}', '{"red": [0, "2"]}',
    '{"red": [1]}', '{"ranks": [1, 2.0]}', '{"ranks": [true]}', '{"ranks": "1"}',
    '{"ranks": ["1x"]}', '{"red": []}', '{"red": [9]}', '{"red": ["-1"]}',
    '{"red": [false]}', "[1, 2]", "null", "{",
])
_ODD_FILES = st.sampled_from(["[" * 100_000 + "]" * 100_000, b"\xff\xfe", ""])
_FILES = st.tuples(_EDGE_LISTS, _JSON_FILES, _EDGE_LISTS | _JSON_FILES | _ODD_FILES)


def _subcommand_flags():
    """Each subcommand's long options but --help, read from the parser."""
    (sub,) = (a for a in cli.build_parser()._actions if a.choices and a.dest == "command")
    return {
        name: [
            s for a in p._actions for s in a.option_strings if s[:2] == "--" and s != "--help"
        ]
        for name, p in sub.choices.items()
    }


@st.composite
def _argvs(draw):
    """A subcommand, --family and any other flags of its parser, each with
    a valid value, then at most one defect: a junk token (an unknown
    subcommand or flag, a stray one, or --help), a malformed value or a
    missing one."""
    flags = _subcommand_flags()
    command = draw(st.sampled_from(sorted(flags)))
    argv = [command]
    valued = []  # (index in argv, malformed values) of each drawn value
    for flag in flags[command]:
        if flag == "--family" or draw(st.booleans()):
            argv.append(flag)
            if flag in _VALUES:
                sweep_kind = command == "sweep" and flag == "--family"
                good, bad = _SWEEP_KINDS if sweep_kind else _VALUES[flag]
                valued.append((len(argv), bad))
                argv.append(draw(st.sampled_from(good)))
    defect = draw(st.sampled_from(["none", "junk", "value", "drop"]))
    if defect == "junk":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_JUNK)))
    elif defect != "none" and valued:
        i, bad = draw(st.sampled_from(valued))
        if defect == "value":
            argv[i] = draw(st.sampled_from(bad))
        else:
            del argv[i]
    return argv


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_argvs(), _FILES)
    def test_run_exits_cleanly(self, argv, contents):
        with tempfile.TemporaryDirectory() as d:
            for name, content in zip("abc", contents):
                data = content if isinstance(content, bytes) else content.encode()
                Path(d, name).write_bytes(data)
            argv = [token.replace("{d}", d) for token in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        assert code in (0, 2, 3), (argv, contents, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()


class TestConstruct:
    def test_balanced_bipartite(self, capsys):
        obj = run_json(capsys, "construct", "--family", "multipartite:2,2")
        assert obj == {"ranks": ["1", "2", "2", "3"]}

    def test_mismatch(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "--family", "caterpillar:2,1")
        assert code == 2


class TestSweep:
    def test_cycle_range(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "cycle", "--from", "3", "--to", "12"
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == (
            "family,params,n,diameter,T,lower_bound,idi,expected,match,"
            "nodes_searched,millis"
        )
        assert len(lines) == 11
        idi = [row.split(",")[6] for row in lines[1:]]
        assert idi == ["3", "3", "3", "2", "2", "2", "2", "2", "2", "2"]
        assert all(row.split(",")[8] == "yes" for row in lines[1:])
        assert all(row.split(",")[10] == "0" for row in lines[1:])
        assert out == (GOLDEN / "sweep_cycle_3_12.csv").read_text()

    def test_grid_range_covers_all_pairs(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "grid", "--from", "1", "--to", "2"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[1] for r in rows] == ["1x1", "1x2", "2x1", "2x2"]
        # 1x1 has no expected value; the others match
        assert rows[0][7] == "" and rows[0][8] == ""
        assert all(r[8] == "yes" for r in rows[1:])

    def test_random_batch_echoes_seed(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--random", "n=6,count=3,seed=5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# seed=5"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        assert [r[0] for r in rows] == ["random"] * 3
        assert [r[1] for r in rows] == ["n=6;i=0", "n=6;i=1", "n=6;i=2"]
        assert all(r[7] == "" and r[8] == "" for r in rows)

    def test_random_batch_default_seed(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--random", "n=5,count=1")
        assert code == 0
        assert out.splitlines()[0] == "# seed=0"

    def test_csv_file_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, out, _ = run_cli(
                capsys,
                "sweep", "--family", "prism", "--from", "3", "--to", "7",
                "--csv", str(target),
            )
            assert code == 0 and out == ""
        assert a.read_bytes() == b.read_bytes()

    def test_one_bfs_and_one_twin_pass_per_row(self, capsys, monkeypatch):
        calls = count_bfs_and_twins(monkeypatch)
        code, out, err = run_cli(
            capsys, "sweep", "--family", "cycle", "--from", "3", "--to", "12"
        )
        assert code == 0, err
        assert calls == {"bfs": 10, "twins": 10}

    def test_wall_clock_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--family", "path", "--from", "2", "--to", "4",
            "--deterministic=false",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(r[10].isdigit() for r in rows)

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "expected_id_index", lambda spec: 99)
        code, out, err = run_cli(
            capsys, "sweep", "--family", "cycle", "--from", "3", "--to", "3"
        )
        assert code == 5
        assert "disagreed" in err
        assert out.strip().splitlines()[1].split(",")[8] == "no"

    def test_budget_exit_code(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "sweep", "--family", "prism", "--from", "5", "--to", "5",
            "--budget-nodes", "5",
        )
        assert code == 3

    @pytest.mark.parametrize("to_csv", [False, True])
    def test_budget_exit_keeps_finished_rows(self, capsys, tmp_path, to_csv):
        # cycle:3 and cycle:4 take 3 and 11 nodes, cycle:5 runs out at 31
        target = tmp_path / "rows.csv"
        code, out, err = run_cli(
            capsys,
            "sweep", "--family", "cycle", "--from", "3", "--to", "8",
            "--budget-nodes", "30", *(["--csv", str(target)] if to_csv else []),
        )
        assert code == 3
        assert err == "budget: cycle:5: node budget 30 exhausted; answer in [3, 3]\n"
        if to_csv:
            assert out == ""
            out = target.read_text()
        golden = (GOLDEN / "sweep_cycle_3_12.csv").read_text().splitlines(keepends=True)
        assert out == "".join(golden[:3])

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_a_usage_error(self, capsys, budget):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--family", "cycle", "--from", "3", "--to", "4",
            "--budget-nodes", budget,
        )
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep",),
            ("sweep", "--family", "petersen"),
            ("sweep", "--family", "cycle", "--from", "3"),
            ("sweep", "--family", "cycle", "--from", "5", "--to", "3"),
            ("sweep", "--random", "n=5"),
            ("sweep", "--random", "n=5,count=0"),
            ("sweep", "--random", "n=5,count=2,extra=1"),
            ("sweep", "--random", "n=five,count=2"),
            ("sweep", "--random", "n=3,count=2,seed=1,seed=2"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2

    def test_family_and_random_conflict(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "cycle", "--from", "3", "--to", "4",
            "--random", "n=5,count=2",
        )
        assert (code, out) == (2, "")
        assert "argument --random: not allowed with argument --family" in err

    @pytest.mark.parametrize(
        "flags", [["--from", "3", "--to", "9"], ["--from", "3"], ["--to", "9"]]
    )
    def test_random_refuses_a_range(self, capsys, flags):
        code, out, err = run_cli(capsys, "sweep", "--random", "n=5,count=2", *flags)
        assert (code, out, err) == (2, "", "error: --from and --to apply only to --family\n")

    def test_random_item_without_value(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--random", "n5,count=2")
        assert code == 2 and out == ""
        assert err == "error: bad --random item 'n5'\n"

    @pytest.mark.parametrize("value", ["1_0", "+3", " 4", "\u0665"])
    def test_random_value_outside_the_grammar_exits_2(self, capsys, value):
        code, out, err = run_cli(capsys, "sweep", "--random", f"n=3,count={value}")
        assert (code, out, err) == (2, "", f"error: bad --random value {value!r}\n")

    @pytest.mark.parametrize("flag", ["--from", "--to"])
    @pytest.mark.parametrize("value", ["+3", "1_0", " \u0663"])
    def test_range_outside_the_grammar_exits_2(self, capsys, flag, value):
        argv = ["sweep", "--family", "cycle", "--from", "3", "--to", "5"]
        argv[argv.index(flag) + 1] = value
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"{flag}: expected an integer, got {value!r}\n" in err

    @pytest.mark.parametrize("start, stop", [("03", "4"), ("3", "0004")])
    def test_range_in_the_grammar(self, capsys, start, stop):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "cycle", "--from", start, "--to", stop
        )
        assert code == 0, err
        rows = [row.split(",")[:2] for row in out.splitlines()[1:]]
        assert rows == [["cycle", "3"], ["cycle", "4"]]

    @pytest.mark.parametrize("value", ["0", "-1", "-0", "012", "9" * 40])
    def test_range_values_in_the_grammar_parse(self, value):
        args = cli._parser().parse_args(["sweep", "--from", value, "--to", value])
        assert args.from_ == args.to == int(value)

    def test_random_key_given_twice(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--random", "n=3,count=2,seed=1, seed=2")
        assert (code, out, err) == (2, "", "error: repeated --random key 'seed'\n")

    def test_bad_csv_path_exits_before_any_solve(self, capsys, monkeypatch, tmp_path):
        def no_solve(*args):
            raise AssertionError("solved before the CSV was opened")

        monkeypatch.setattr(cli, "id_index_exact", no_solve)
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--family", "cycle", "--from", "3", "--to", "5",
            "--csv", str(target),
        )
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "cycle", "--from", "3", "--to", "6"),
            ("--random", "n=6,count=4,seed=2"),
        ],
    )
    def test_one_graph_at_a_time(self, capsys, monkeypatch, argv):
        events = []

        def spy(name, event):
            def call(*args, **kwargs):
                events.append(event)
                return real(*args, **kwargs)

            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, call)

        spy("generate", "build")
        spy("random_connected_graph", "build")
        spy("id_index_exact", "solve")
        code, _, err = run_cli(capsys, "sweep", *argv)
        assert code == 0, err
        assert events == ["build", "solve"] * 4

    def test_vertex_limit_refused_before_any_graph(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "generate", built.append)
        code, out, err = run_cli(capsys, "sweep", "--family", "grid", "--from", "44", "--to", "46")
        assert (code, out, built) == (2, "", [])
        assert err == "error: graph needs 2024 vertices, limit 2000\n"


class _ReaderLeavesAfterOneWrite(io.StringIO):
    """A stdout whose reader leaves after the first write: every later write
    raises, as a pipe's does once ``head`` has exited."""

    def write(self, text):
        if self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


class TestClosedPipe:
    """A reader that leaves early ends the command quietly, with exit 0."""

    def test_sweep_stops_at_the_next_row(self, capsys, monkeypatch):
        solved = []
        solve = cli.id_index_exact

        def counting_solve(*args):
            solved.append(args[0].n)
            return solve(*args)

        monkeypatch.setattr(cli, "id_index_exact", counting_solve)
        stdout = _ReaderLeavesAfterOneWrite()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.run(["sweep", "--family", "cycle", "--from", "3", "--to", "40"])
        assert (code, capsys.readouterr().err) == (0, "")
        assert stdout.getvalue().startswith("family,params,")
        # the head went out; the first row's write failed, and nothing after
        # it was solved
        assert solved == [3]

    def test_report(self, capsys, monkeypatch):
        stdout = _ReaderLeavesAfterOneWrite()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.run(["compute", "--family", "grid:12x12"])
        assert (code, capsys.readouterr().err) == (0, "")
        assert stdout.getvalue() == '{\n  "k": '

    @pytest.mark.parametrize(
        "argv",
        [
            # each writes megabytes, far more than a pipe holds, so the
            # child is still writing when the reader closes its end
            ("sweep", "--random", "n=6,count=100000"),
            ("compute", "--family", "path:600"),
        ],
    )
    def test_real_pipe(self, argv):
        command, env = module_command(*argv)
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (0, b"")


class TestClosedStdout:
    """A command started with stdout closed exits 2 before it writes, unless
    its output goes to a ``--json`` or ``--csv`` file."""

    def test_report_refuses_before_any_work(self, capsys, monkeypatch):
        solved, measured = [], []
        monkeypatch.setattr(cli, "id_index_exact", solved.append)
        monkeypatch.setattr(cli, "all_pairs_distances", measured.append)
        monkeypatch.setattr(sys, "stdout", None)
        for argv in (
            ["compute", "--family", "grid:12x12"],
            ["verify", "--family", "path:3", "--construct"],
            ["analyze", "--family", "path:3"],
            ["construct", "--family", "path:3"],
        ):
            code = cli.run(argv)
            assert (code, capsys.readouterr().err) == (2, "error: stdout is closed\n"), argv
        assert (solved, measured) == ([], [])

    def test_sweep_refuses_before_any_solve(self, capsys, monkeypatch):
        solved = []
        monkeypatch.setattr(cli, "id_index_exact", solved.append)
        monkeypatch.setattr(sys, "stdout", None)
        code = cli.run(["sweep", "--family", "cycle", "--from", "3", "--to", "4"])
        assert (code, capsys.readouterr().err, solved) == (2, "error: stdout is closed\n", [])

    def test_files_still_written(self, capsys, monkeypatch, tmp_path):
        expected = record_reports(monkeypatch)
        monkeypatch.setattr(sys, "stdout", None)
        report, table = tmp_path / "report.json", tmp_path / "table.csv"
        assert cli.run(["compute", "--family", "path:3", "--json", str(report)]) == 0
        sweep = ["sweep", "--family", "cycle", "--from", "3", "--to", "12"]
        assert cli.run([*sweep, "--csv", str(table)]) == 0
        assert capsys.readouterr().err == ""
        assert [report.read_text()] == expected
        assert table.read_text() == (GOLDEN / "sweep_cycle_3_12.csv").read_text()

    def test_real_closed_descriptor(self):
        # the child starts with fd 1 closed, so Python sets sys.stdout to None
        command, env = module_command("compute", "--family", "path:3")
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", *command], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stderr) == (2, "error: stdout is closed\n")


json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
decimal_rows = st.lists(st.integers(), max_size=6).map(cli._Decimal)
decimal_tables = st.lists(st.lists(st.integers(), max_size=6).map(tuple), max_size=6).map(
    cli._Decimal
)


class TestJsonTarget:
    """``run`` opens the ``--json`` file, in append mode, before the command
    runs, so an unusable path exits 2 before any BFS or search."""

    @pytest.mark.parametrize("missing", [True, False])
    def test_unusable_path_refused_before_any_work(self, capsys, monkeypatch, tmp_path, missing):
        calls = []
        for module in (cli, solvers):
            for name in ("all_pairs_distances", "id_index_exact", "id_number_exact"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        # a file in a directory that does not exist, or a directory
        target = tmp_path / "missing" / "x.json" if missing else tmp_path
        reason = "[Errno 2] No such file or directory" if missing else "[Errno 21] Is a directory"
        for argv in (
            ["compute", "--family", "grid:12x12"],
            ["compute", "--family", "grid:12x12", "--heuristic"],
            ["compute", "--family", "grid:12x12", "--id-number"],
            ["verify", "--family", "path:3", "--construct"],
            ["analyze", "--family", "path:3"],
            ["construct", "--family", "path:3"],
        ):
            code, out, err = run_cli(capsys, *argv, "--json", str(target))
            assert (code, out, err) == (2, "", f"error: {reason}: {str(target)!r}\n"), argv
        assert calls == []

    def test_ranks_file_read_before_it_is_written(self, capsys, tmp_path):
        path = tmp_path / "ranks.json"
        path.write_text('{"ranks": [1, 1, 1, 1, 1, 2]}')
        argv = ["verify", "--family", "cycle:6", "--ranks", str(path)]
        assert run_cli(capsys, *argv, "--json", str(path)) == (0, "", "")
        assert path.read_text() == (GOLDEN / "verify_ranks_cycle6.json").read_text()

    def test_failed_command_leaves_an_empty_file(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "compute", "--family", "torus:3", "--json", str(path))
        assert (code, out, err) == (2, "", "error: unknown family kind 'torus'\n")
        assert path.read_text() == ""


class TestReportWriter:
    """``cli._emit`` writes the bytes ``json.dump(report, fh, indent=2)``
    would, with every ``_Decimal`` as lists of decimal strings."""

    FILES = {
        "NEGATIVE": {"ranks": ["-3", "5", "-7"]},
        "LONG": {"ranks": ["1", "2", "1" + "0" * 5000]},
        "NINES": {"ranks": ["9" * 4300] * 3},  # a string entry of 4,301 digits
        "RED": {"red": [0]},
        "COLLIDING": {"red": [1]},
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--family", "petersen"),
            ("compute", "--family", "path:1"),  # strings [[]] and a note
            ("compute", "--family", "grid:4x5", "--heuristic", "--seed", "3"),
            ("compute", "--family", "path:1", "--heuristic"),
            ("compute", "--family", "petersen", "--id-number"),
            ("compute", "--family", "cycle:4", "--id-number"),  # None values
            ("verify", "--family", "path:3", "--ranks", "NEGATIVE"),
            ("verify", "--family", "path:3", "--ranks", "LONG"),
            ("verify", "--family", "path:3", "--ranks", "NINES"),
            ("verify", "--family", "path:3", "--coloring", "RED"),
            ("verify", "--family", "path:3", "--coloring", "COLLIDING"),
            ("verify", "--family", "caterpillar:2,4,2,2,4,2", "--construct"),
            ("analyze", "--family", "multipartite:1,1,2"),
            ("analyze", "--family", "path:4"),  # no distance profile
            ("analyze", "--family", "path:1"),  # an empty one
            ("construct", "--family", "multipartite:2,2"),
        ],
    )
    def test_every_report_shape(self, capsys, monkeypatch, tmp_path, argv):
        for name, payload in self.FILES.items():
            (tmp_path / name).write_text(json.dumps(payload))
        argv = [str(tmp_path / a) if a in self.FILES else a for a in argv]
        expected = record_reports(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert [out] == expected

    def test_json_file_target(self, capsys, monkeypatch, tmp_path):
        expected = record_reports(monkeypatch)
        target = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "compute", "--family", "grid:4x5", "--json", str(target)
        )
        assert code == 0 and out == "", err
        assert [target.read_text()] == expected

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(), json_values | decimal_rows | decimal_tables, max_size=6))
    def test_drawn_reports(self, report):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli._emit(report, None)
        assert buffer.getvalue() == dumped(report)

    @pytest.mark.parametrize(
        "value",
        [[True, 1], [1, [2]], [], 2**200, -5, 1.0, True, None, [-3, 0, 2**70], "é\n"],
    )
    def test_values_near_the_direct_paths(self, value):
        # lists of ints skip the encoder and other non-containers its
        # pure-Python path; the lists that mix bools in, nest or hold floats
        # take that path
        report = {"a": value, "b": cli._Decimal([value] if type(value) is int else [])}
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli._emit(report, None)
        assert buffer.getvalue() == dumped(report)

    def test_table_that_clears_the_memo(self, capsys, monkeypatch):
        # path:300's construction has distinct ranks, so its string table
        # overflows the memo's bound after its first row
        cleared = []
        clear = cli._Texts.clear
        monkeypatch.setattr(cli._Texts, "clear", lambda texts: cleared.append(clear(texts)))
        expected = record_reports(monkeypatch)
        code, out, err = run_cli(capsys, "verify", "--family", "path:300", "--construct")
        assert code == 0, err
        assert [out] == expected
        assert cleared

    def test_memo_stays_bounded(self, capsys, monkeypatch):
        reports = []
        monkeypatch.setattr(cli, "_emit", lambda obj, path: reports.append(obj))
        assert cli.run(["verify", "--family", "path:400", "--construct"]) == 0
        monkeypatch.undo()
        # 400 ranks of about 121 digits, and 159,600 string entries that are
        # nearly all distinct: a memo of every text would hold megabytes
        tracemalloc.start()
        try:
            cli._emit(reports[0], os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_large_diameter_rows(self, capsys):
        # path:600 streams 600 rows of 599 entries each, in both searches
        for flags in ((), ("--heuristic",)):
            code, out, err = run_cli(capsys, "compute", "--family", "path:600", *flags)
            assert code == 0, err
            assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert cli.run([]) == 2
        capsys.readouterr()

    def test_bad_format_choice(self, capsys):
        code, _, _ = run_cli(
            capsys, "compute", "--family", "path:3", "--format", "jsonl"
        )
        assert code == 2

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        assert cli.run(["compute", "--budget-nodes", "0"]) == 2
        first = len(built)
        assert first > 0
        assert cli.run(["compute", "--family", "path:3"]) == 0
        assert cli.run(["analyze", "--family", "cycle:5"]) == 0
        assert len(built) == first
        capsys.readouterr()
        # later tests get a parser built from the real class
        cli._parser.cache_clear()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_cyclic_collector_paused_for_the_call(self, capsys, monkeypatch, enabled):
        during = []
        kind = families._KINDS["cycle"]

        def recording(n):
            during.append(gc.isenabled())
            g, roles = kind.build(n)
            # the shift kernel of cycle:120 refuses a map that is no permutation
            return Graph(g.n, g.adj, ((0,) * n,) if n == 120 else g.automorphisms), roles

        monkeypatch.setitem(families._KINDS, "cycle", kind._replace(build=recording))
        cases = [
            (0, ["compute", "--family", "cycle:5"]),
            (2, ["compute", "--family", "cycle:2"]),
            (3, ["compute", "--family", "cycle:7", "--budget-nodes", "4"]),
            (4, ["compute", "--family", "cycle:120"]),
        ]
        if not enabled:
            gc.disable()
        try:
            for code, argv in cases:
                assert cli.run(argv) == code
                assert gc.isenabled() is enabled
        finally:
            gc.enable()
        capsys.readouterr()
        assert during == [False] * 3  # cycle:2 is refused before it is built

    def test_second_sweep_leaves_no_cyclic_garbage(self, capsys):
        # the collector is off throughout, so that none runs between the
        # command and the count
        argv = ["sweep", "--random", "n=30,count=60"]
        gc.disable()
        try:
            assert cli.run(argv) == 0  # the first leaves what it builds once
            gc.collect()
            assert cli.run(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()

    def test_module_entry_point(self):
        proc = run_module("compute", "--family", "path:3")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["k"] == 2

    def test_module_entry_point_matches_golden(self):
        proc = run_module("compute", "--family", "petersen")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "exact_petersen.json").read_text()

    def test_module_entry_point_input_error(self):
        proc = run_module("analyze", "--family", "path:0")
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr
