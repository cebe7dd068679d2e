"""Regenerate ``perfbench/reference.json`` from the current program.

The reference holds, per instance, the answer every later run must repeat
(``k`` and the lex-least partition, or the red-set answer) and the exact
search's node counts (the search-tree fingerprint, whose drift is reported
but does not fail a run).  Regenerate it only when an instance is added or
an answer changes on purpose, and review the diff.  Every certificate must
pass the checker before it is frozen.

Usage, from the repository root: python3 -m perfbench.freeze
"""

from __future__ import annotations

import json
import shutil
import sys

from perfbench import workloads
from perfbench.tracing import Tracer
from perfbench.worker import HERE, OUT_DIR, check_outcomes, import_program, run_pass


def _entries(mapping: dict) -> str:
    return ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(mapping.items()))


def main() -> int:
    cli = import_program()
    answers, fingerprints = {}, {}
    for name in workloads.WORKLOADS:
        workdir = OUT_DIR / f"freeze-{name}"
        tracer = Tracer()
        try:
            instances = workloads.build(name, workloads.DEFAULT_SEED, workdir)
            workloads.write_inputs(instances)
            tracer.install()
            try:
                _, outcomes = run_pass(cli, instances, tracer)
            finally:
                tracer.uninstall()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        bad = check_outcomes(instances, outcomes, {"answers": {}})
        if bad:
            for i, problem in bad.items():
                print(f"{instances[i].label}: {problem}", file=sys.stderr)
            return 1
        for inst, oc in zip(instances, outcomes):
            out = json.loads(oc.stdout)
            if inst.mode == "exact":
                answers[inst.label] = {"k": out["k"], "partition": out["partition"]}
            elif inst.mode == "id_number":
                answers[inst.label] = {key: out[key] for key in ("is_id_graph", "id_number", "red")}
        for label, nodes, km1 in tracer.exact_counts:
            fingerprints[label] = {"nodes": nodes, "nodes_km1": km1}
    text = (
        f'{{\n "seed": {workloads.DEFAULT_SEED},\n'
        f' "answers": {{\n{_entries(answers)}\n }},\n'
        f' "fingerprints": {{\n{_entries(fingerprints)}\n }}\n}}\n'
    )
    (HERE / "reference.json").write_text(text)
    print(f"froze {len(answers)} answers and {len(fingerprints)} fingerprints")
    return 0


if __name__ == "__main__":
    sys.exit(main())
