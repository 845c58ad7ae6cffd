"""Self-check of the benchmark itself, at a tiny size.

    python3 perfbench/selfcheck.py

For every workload it runs one round of tasks untraced and one traced, and
asserts that the result carries exactly the metrics BENCHMARK.json names,
with their units, and that no task failed.  Then it plants a wrong answer
(a certificate with one factor's sign flipped) into a prove task and asserts
that the run counts it as failed.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import signal
import sys

import run
from tracer import Tracer


def expected_metrics(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def units(metrics: dict) -> dict[str, str]:
    return {name: unit for name, (_, unit) in metrics.items()}


def corrupt(fp, task):
    """Make a semidecide task return a certificate with one sign flipped."""
    P = fp.presentations
    honest = task.run

    def planted():
        result = honest()
        factors = list(result.certificate.factors)
        c, i, e = factors[0]
        factors[0] = P.CertFactor(c, i, -e)
        return P.ProvedTrivial(P.TrivialityCertificate(tuple(factors)), result.steps)

    task.run = planted


def main() -> int:
    signal.signal(signal.SIGALRM, run._alarm)
    end_to_end, per_layer = expected_metrics("end_to_end"), expected_metrics("per_layer")
    problems = []
    for workload in sorted(run.workloads.WORKLOADS):
        fp, tasks, setup_s = run.setup(workload, seed=0, rounds=1)
        outcomes = [run.run_task(task) for task in tasks]
        metrics = run.end_to_end(run.per_task([outcomes]), setup_s)
        if units(metrics) != end_to_end:
            problems.append(f"{workload}: end-to-end metrics {units(metrics)} != {end_to_end}")
        tracer = Tracer()
        tracer.install(fp)
        try:
            traced = [run.run_task(task, tracer) for task in tasks]
        finally:
            tracer.uninstall()
        layers = tracer.metrics(1.0)
        if units(layers) != per_layer:
            problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
        failed = [o for o in outcomes + traced if o.status == "failed"]
        if failed:
            problems.append(f"{workload}: {len(failed)} tasks failed, first: {failed[0].kind}: {failed[0].reason}")
        print(f"{workload}: {len(tasks)} tasks, {len(metrics)} end-to-end and {len(layers)} per-layer metrics")

    fp, tasks, setup_s = run.setup("prove", seed=0, rounds=1)
    corrupt(fp, next(t for t in tasks if t.kind.startswith("semidecide.")))
    outcomes = [run.run_task(task) for task in tasks]
    metrics = run.end_to_end(run.per_task([outcomes]), setup_s)
    failed = [o for o in outcomes if o.status == "failed"]
    if len(failed) != 1 or metrics["done_ratio"][0] >= 1:
        problems.append("a planted corrupted certificate was not counted as failed")
    else:
        print(f"planted corrupted certificate counted as failed: {failed[0].reason}")

    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
