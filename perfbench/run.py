"""idindex benchmark: time the ``compute`` command on fixed instance sets.

Usage, from the repository root:

    python3 perfbench/run.py --workload {exhaust,random_batch,large_sparse,red_set,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own child process (``perfbench.worker``), calling
``idindex.cli.run`` in-process once per instance, sequentially, for whole
passes over the instance set until ``--seconds`` is used up.  Times are
scaled to a reference host speed (``perfbench.hostspeed``): ``wall_ref_s``
is the median scaled pass time.  Every answer is checked
by ``perfbench.checker``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it adds one traced pass and reports
the per-layer metrics in their place.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
answer passed its check, 1 when one did not or a run broke, and 2 when the
checkout holds no ``src/idindex`` to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 10  # extra set-up-only child processes per untraced run
RUN_LIMIT_S = 170  # a run of one workload must end within 180 s


class RunError(Exception):
    pass


def run_worker(workload: str, seed: int, extra: list[str], timeout: float) -> dict:
    """Run one worker child to completion; returns its JSON report."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(
            cmd + extra, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1)
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload}: worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, args) -> tuple[dict, dict]:
    """Returns (metrics as name -> (value, unit), worker report)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    run_args = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        report = run_worker(workload, args.seed, run_args, deadline - time.monotonic())
        return dict(report["layers"]), report
    setups = [
        run_worker(workload, args.seed, ["--setup-only"], deadline - time.monotonic())
        for _ in range(SETUP_PROBES)
    ]
    report = run_worker(workload, args.seed, run_args, deadline - time.monotonic())
    setups.append(report)
    report["setup_raw_s"] = statistics.median(r["setup_raw_s"] for r in setups)
    metrics = {
        "wall_ref_s": (report["wall_ref_s"], "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for random_batch inputs")
    parser.add_argument("--seconds", type=float, default=20, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "idindex" / "__init__.py").is_file():
        print(f"perfbench: no idindex package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged: dict = {}
    attempted = failed = 0
    for name in names:
        try:
            metrics, report = measure(name, args)
        except RunError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        attempted += report["attempted"]
        failed += report["failed"]
        for problem in report["problems"] + report.get("drift", []):
            print(f"{name}: {problem}", file=sys.stderr)
        walls = report["walls"]
        print(f"{name} untraced passes {len(walls)}, median pass {statistics.median(walls):.6g} s "
              f"unscaled, speed kernel mean {report['kernel_s']:.6g} s")
        if "setup_raw_s" in report:
            print(f"{name} setup unscaled {report['setup_raw_s']:.6g} s")
        print(f"{name} fail_ratio {report['failed'] / report['attempted']:.6g} "
              f"({report['failed']} of {report['attempted']} calls)")
        for metric, (value, unit) in metrics.items():
            print(f"{name} {metric} {value:.6g} {unit}")
            key = f"{name}.{metric}" if args.workload == "all" else metric
            merged[key] = {"value": value, "unit": unit}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
