"""Run one workload in this process and print its measurements as one JSON line.

``run.py`` starts this module as a child process per workload, so the peak
resident memory it reports is the workload's own.  With ``--setup-only`` it
only imports idindex and builds the inputs, and reports how long that took.

Usage: python3 -m perfbench.worker --workload NAME --seed N --seconds S
       --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from perfbench import checker, hostspeed, workloads
from perfbench.tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # host speed samples taken right after set-up


@dataclass(frozen=True)
class Outcome:
    rc: object  # exit code, or the repr of an exception the CLI let escape
    stdout: str
    stderr: str


def import_program():
    """Import ``idindex.cli`` from this checkout's ``src``, never from an
    installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import idindex.cli

    if Path(idindex.cli.__file__).resolve().parents[1] != src:
        raise ImportError(f"idindex imported from {idindex.cli.__file__}, not {src}")
    return idindex.cli


def run_pass(cli, instances, tracer=None, probe=None):
    """Call the CLI once per instance; returns (seconds per call, outcomes).
    The time an active ``hostspeed.Probe`` takes is left out of each call's."""
    outcomes = []
    times = []
    for inst in instances:
        out, err = io.StringIO(), io.StringIO()
        scope = tracer.instance(inst.label) if tracer else nullcontext()
        stolen = probe.stolen if probe else 0.0
        started = time.perf_counter()
        try:
            with scope, redirect_stdout(out), redirect_stderr(err):
                rc = cli.run(list(inst.argv))
        except Exception as exc:  # an escaped error fails this instance only
            rc = repr(exc)
        elapsed = time.perf_counter() - started
        times.append(elapsed - (probe.stolen - stolen if probe else 0.0))
        outcomes.append(Outcome(rc, out.getvalue(), err.getvalue()))
    return times, outcomes


def check_outcomes(instances, outcomes, reference) -> dict[int, str]:
    """Full certificate check of one pass; maps instance index to problem."""
    bad = {}
    parsed = {}
    for i, (inst, oc) in enumerate(zip(instances, outcomes)):
        if oc.rc != 0:
            bad[i] = f"exit {oc.rc}: {oc.stderr.strip()[-200:]}"
            continue
        try:
            parsed[i] = json.loads(oc.stdout)
        except ValueError:
            bad[i] = "output is not JSON"
    exact_k = {
        inst.graph: parsed[i].get("k")
        for i, inst in enumerate(instances)
        if inst.mode == "exact" and i in parsed
    }
    answers = reference["answers"]
    for i, out in parsed.items():
        inst = instances[i]
        if inst.mode == "exact":
            problems = checker.check_exact(inst.adj, out, answers.get(inst.label))
        elif inst.mode == "heuristic":
            problems = checker.check_heuristic(inst.adj, out, exact_k.get(inst.graph))
        else:
            problems = checker.check_id_number(inst.adj, out, answers.get(inst.label))
        if problems:
            bad[i] = "; ".join(problems)
    return bad


class Tally:
    """Counts attempted and failed calls.  The first pass is checked in
    full; later passes must repeat its output byte for byte."""

    def __init__(self, instances, reference):
        self.instances = instances
        self.reference = reference
        self.first = None
        self.first_bad: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, outcomes) -> None:
        if self.first is None:
            self.first = outcomes
            self.first_bad = check_outcomes(self.instances, outcomes, self.reference)
            bad = dict(self.first_bad)
        else:
            bad = {
                i: self.first_bad.get(i, "output differs from the first pass")
                for i, (a, b) in enumerate(zip(self.first, outcomes))
                if i in self.first_bad or (a.rc, a.stdout) != (b.rc, b.stdout)
            }
        self.attempted += len(outcomes)
        self.failed += len(bad)
        for i, text in sorted(bad.items()):
            if len(self.problems) < 10:
                self.problems.append(f"{self.instances[i].label}: {text}")


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_passes(cli, instances, tally, seconds):
    """Repeat whole passes while the next one is expected to end within
    ``seconds``; at least one pass.  Returns, per pass, its time, the host
    speed samples taken during it and the peak resident memory so far."""
    passes = []
    started = time.perf_counter()
    with hostspeed.Probe() as probe:
        while True:
            times, outcomes = run_pass(cli, instances, probe=probe)
            tally.record(outcomes)
            passes.append((sum(times), probe.take(), peak_rss_mb()))
            taken = time.perf_counter() - started
            if taken + taken / len(passes) > seconds:
                return passes


def greedy_gap(instances, outcomes) -> int:
    """Sum over graphs of greedy k_upper minus exact k."""
    exact, greedy = {}, {}
    for inst, oc in zip(instances, outcomes):
        try:
            out = json.loads(oc.stdout) if oc.rc == 0 else {}
        except ValueError:  # counted as failed by the tally
            continue
        if inst.mode == "exact":
            exact[inst.graph] = out.get("k")
        elif inst.mode == "heuristic":
            greedy[inst.graph] = out.get("k_upper")
    return sum(
        greedy[g] - exact[g]
        for g in greedy
        if isinstance(greedy[g], int) and isinstance(exact.get(g), int)
    )


def fingerprint_drift(tracer, reference) -> list[str]:
    """Exact-search calls whose node counts moved from the frozen ones."""
    frozen = reference["fingerprints"]
    return [
        f"{label}: nodes={n} nodes_km1={km1}, frozen {frozen[label]}"
        for label, n, km1 in tracer.exact_counts
        if label in frozen and frozen[label] != {"nodes": n, "nodes_km1": km1}
    ]


def layer_metrics(tracer, instances, outcomes, drift, traced_wall, untraced_wall):
    total, own, calls = tracer.totals()
    nodes = sum(n for _, n, _ in tracer.exact_counts)
    exact_self = own["solvers.exact"]
    return {
        "solvers.exact_s": (total["solvers.exact"], "s"),
        "solvers.exact_self_s": (exact_self, "s"),
        "solvers.nodes": (nodes, "count"),
        "solvers.nodes_km1": (sum(k for _, _, k in tracer.exact_counts), "count"),
        "solvers.nodes_per_s": (nodes / exact_self if exact_self else 0.0, "1/s"),
        "solvers.fingerprint_drift": (len(drift), "count"),
        "solvers.greedy_s": (total["solvers.greedy"], "s"),
        "solvers.greedy_gap": (greedy_gap(instances, outcomes), "count"),
        "solvers.id_number_s": (total["solvers.id_number"], "s"),
        "strings_codes.code_table_s": (total["strings_codes.code_table"], "s"),
        "strings_codes.code_table_calls": (calls["strings_codes.code_table"], "count"),
        "strings_codes.collision_checks": (calls["strings_codes.collision_check"], "count"),
        "strings_codes.string_table_s": (total["strings_codes.string_table"], "s"),
        "graphs.bfs_s": (total["graphs.bfs"], "s"),
        "graphs.bfs_calls": (calls["graphs.bfs"], "count"),
        "graphs.parse_s": (total["graphs.parse"], "s"),
        "structure.twins_s": (total["structure.twins"], "s"),
        "structure.twins_calls": (calls["structure.twins"], "count"),
        "cli.self_s": (own["cli.run"], "s"),
        "families.generate_s": (total["families.generate"], "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }


def measure(cli, instances, reference, args, workdir: Path) -> dict:
    """Timed passes, then with ``args.trace`` one traced pass whose spans
    are written next to ``workdir``."""
    tally = Tally(instances, reference)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = timed_passes(cli, instances, tally, budget)
    walls = [wall for wall, _, _ in passes]
    result = {
        "walls": walls,
        "wall_ref_s": statistics.median(hostspeed.scaled(w, s) for w, s, _ in passes),
        "kernel_s": statistics.fmean(x for _, s, _ in passes for x in s),
        # after the first pass: the peak grows with the number of passes,
        # which depends on host speed
        "peak_rss_mb": passes[0][2],
    }
    if args.trace:
        tracer = Tracer()
        speed = [hostspeed.sample() for _ in range(SETUP_SAMPLES)]
        tracer.install()
        try:
            with tracer.instance("setup"):
                workloads.build(args.workload, args.seed, workdir)
            times, outcomes = run_pass(cli, instances, tracer)
        finally:
            tracer.uninstall()
        speed += [hostspeed.sample() for _ in range(SETUP_SAMPLES)]
        tally.record(outcomes)
        result["drift"] = fingerprint_drift(tracer, reference)
        # the untraced time at the host speed of the traced pass, which
        # takes no samples so that no span holds one
        untraced = result["wall_ref_s"] * statistics.fmean(speed) / hostspeed.REF_KERNEL_S
        result["layers"] = layer_metrics(
            tracer, instances, outcomes, result["drift"], sum(times), untraced
        )
        tracer.dump(workdir.parent / f"trace-{args.workload}-seed{args.seed}.jsonl")
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    return result


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    reference = load_reference()
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        started = time.perf_counter()
        cli = import_program()
        instances = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - started
        speed = [hostspeed.sample() for _ in range(SETUP_SAMPLES + 2)][2:]  # 2 warm-up
        result = {"setup_s": hostspeed.scaled(setup_s, speed), "setup_raw_s": setup_s}
        if not args.setup_only:
            # Outside set-up time: writing hundreds of small files takes a
            # time set by the host's disk, which varied 3x between runs.
            workloads.write_inputs(instances)
            result.update(measure(cli, instances, reference, args, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
