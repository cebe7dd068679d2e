"""The random generator is deterministic, each workload passes a one-graph
smoke run, and the benchmark refuses to run without a program."""

import json
import random
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

from perfbench import checker, workloads
from perfbench.worker import ROOT, import_program, load_reference, measure

cli = import_program()


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_random_graphs_are_deterministic_and_connected(seed):
    first = [workloads.random_connected_edges(30, 0.25, random.Random(seed)) for _ in range(2)]
    assert first[0] == first[1]
    rng = random.Random(seed)
    for _ in range(20):
        edges = workloads.random_connected_edges(30, 0.25, rng)
        assert len(set(edges)) == len(edges)
        assert all(0 <= u < v < 30 for u, v in edges)
        checker.distances(workloads.adjacency(30, edges))  # raises if disconnected


def test_random_batch_depends_on_seed_only(tmp_path):
    a = workloads.build("random_batch", 3, tmp_path / "a")
    b = workloads.build("random_batch", 3, tmp_path / "b")
    c = workloads.build("random_batch", 4, tmp_path / "c")
    assert len(a) == workloads.RANDOM_COUNT
    assert [i.adj for i in a] == [i.adj for i in b]
    assert [i.adj for i in a] != [i.adj for i in c]
    assert [i.input[1] for i in a] == [i.input[1] for i in b]
    workloads.write_inputs(a[:1])
    assert (tmp_path / "a" / "g000.txt").read_text() == a[0].input[1]


SMOKE = {
    "exhaust": ["exact petersen"],
    "large_sparse": ["exact grid:12x12", "heuristic grid:12x12"],
    "red_set": ["id_number cycle:20"],
    "random_batch": ["exact random(seed=0,i=0)"],
}


def per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_graph_smoke_run(workload, tmp_path):
    workdir = tmp_path / "work"
    chosen = [
        i for i in workloads.build(workload, 0, workdir) if i.label in SMOKE[workload]
    ]
    assert len(chosen) == len(SMOKE[workload])
    workloads.write_inputs(chosen)
    args = Namespace(workload=workload, seed=0, seconds=0, trace=1)
    result = measure(cli, chosen, load_reference(), args, workdir)
    assert result["problems"] == [] and result["drift"] == []
    assert (result["attempted"], result["failed"]) == (2 * len(chosen), 0)
    assert set(result["layers"]) == per_layer_names()
    assert (tmp_path / f"trace-{workload}-seed0.jsonl").is_file()


def test_wrong_reference_answer_counts_as_failure(tmp_path):
    chosen = [i for i in workloads.build("exhaust", 0, tmp_path) if i.label == "exact petersen"]
    reference = load_reference()
    reference["answers"]["exact petersen"] = {"k": 1, "partition": [0] * 10}
    args = Namespace(workload="exhaust", seed=0, seconds=0, trace=0)
    result = measure(cli, chosen, reference, args, tmp_path)
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exhaust", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
