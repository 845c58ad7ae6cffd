"""Benchmark for fpw: two closed-loop workloads, one client, one thread.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; ``fpw`` is imported from its
``src/`` directory and nowhere else.  The seed makes the inputs; the program
receives only those.  A run makes passes over the seeded task list until
``--seconds`` have passed.  Each pass sets up afresh (imports ``fpw`` anew,
generates the inputs, builds the presentations), so no state of the program
carries over from one pass to the next, then runs the tasks in order.  The
same seed gives the same inputs in every pass.  A task's latency is the
fastest of its runs: the machine is shared, and contention from other
processes only ever adds time.  Every run of every task is checked by code
the task did not run (see workloads.py), and every run has a deadline,
enforced in this process with SIGALRM: a run that misses it is abandoned.

With ``--trace 0`` the last stdout line is the end-to-end result.  With
``--trace 1`` the run instead makes one pass untraced, then one on a fresh
set-up with every public ``fpw`` function wrapped (tracer.py), and reports
per-layer metrics from the spans of the second pass; the ratio of the two
passes' task time is the tracing overhead.
Results and spans are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import workloads
from tracer import Tracer


class DeadlineExceeded(BaseException):
    """Raised into a task by SIGALRM.  A BaseException, so that no
    ``except Exception`` in the code under test can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Outcome:
    kind: str
    seconds: float
    status: str  # "ok", "failed" (wrong output or error) or "missed" (deadline)
    reason: str | None = None


def import_fpw():
    """Import ``fpw`` afresh from this checkout's ``src``; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "fpw" / "__init__.py").is_file():
        raise SystemExit(f"error: no fpw sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "fpw" or m.startswith("fpw.")]:
        del sys.modules[name]
    fp = importlib.import_module("fpw")
    for sub in ("words", "presentations", "bs", "search", "tietze", "harness", "cli"):
        importlib.import_module(f"fpw.{sub}")
    if Path(fp.__file__).resolve().parent != (src / "fpw").resolve():
        raise SystemExit(f"error: imported fpw from {fp.__file__}, not from {src}")
    return fp


def setup(workload: str, seed: int, rounds: int | None = None):
    """Import fpw and build the task list; returns (fpw, tasks, seconds taken)."""
    start = time.perf_counter()
    fp = import_fpw()
    tasks = workloads.build(fp, workload, seed, rounds)
    return fp, tasks, time.perf_counter() - start


def run_task(task, tracer: Tracer | None = None) -> Outcome:
    if tracer is not None:
        tracer.task_boundary()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, task.deadline_s)
        try:
            result = task.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    except DeadlineExceeded:
        return Outcome(task.kind, time.perf_counter() - start, "missed", f"deadline {task.deadline_s} s")
    except Exception as e:  # the run goes on; the task counts as failed
        return Outcome(task.kind, time.perf_counter() - start, "failed", f"{type(e).__name__}: {e}")
    try:
        reason = task.check(result)
    except Exception as e:
        reason = f"check raised {type(e).__name__}: {e}"
    return Outcome(task.kind, elapsed, "ok" if reason is None else "failed", reason)


def run_passes(workload: str, seed: int, seconds: float) -> tuple[list[list[Outcome]], list[float]]:
    """Closed loop: passes over a freshly set-up task list until ``seconds``
    pass; the first pass always runs to its end.  Returns the outcomes of
    each pass and the set-up time of each."""
    passes, setups = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        _, tasks, setup_s = setup(workload, seed)
        setups.append(setup_s)
        outcomes = []
        for task in tasks:
            if passes and time.perf_counter() - start >= seconds:
                break
            outcomes.append(run_task(task))
        passes.append(outcomes)
    return passes, setups


@dataclass
class TaskResult:
    """All runs of one task of the list: its fastest run, and whether it is done
    (no run gave a wrong output or an error, and one met its deadline)."""

    kind: str
    seconds: float
    done: bool


def per_task(passes: list[list[Outcome]]) -> list[TaskResult]:
    results = []
    for runs in itertools.zip_longest(*passes):
        runs = [o for o in runs if o is not None]
        done = all(o.status != "failed" for o in runs) and any(o.status == "ok" for o in runs)
        results.append(TaskResult(runs[0].kind, min(o.seconds for o in runs), done))
    return results


def end_to_end(results: list[TaskResult], setup_s: float) -> dict[str, tuple[float, str]]:
    times = [r.seconds for r in results]
    done = sum(1 for r in results if r.done)
    deciles = statistics.quantiles(times, n=10)
    return {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (done / sum(times), "1/s"),
        "task_ms.p50": (statistics.median(times) * 1000, "ms"),
        "task_ms.p90": (deciles[8] * 1000, "ms"),
        "done_ratio": (done / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamp(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def summarize(outcomes: list[Outcome]) -> None:
    by_kind: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_kind.setdefault(o.kind, []).append(o)
    for kind, group in sorted(by_kind.items()):
        missed = sum(1 for o in group if o.status == "missed")
        failed = [o for o in group if o.status == "failed"]
        ms = statistics.median(o.seconds for o in group) * 1000
        print(f"  {kind:34s} n={len(group):4d} median={ms:9.2f} ms missed={missed} failed={len(failed)}")
        for o in failed[:3]:
            print(f"    failed: {o.reason}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_fpw()  # fail before printing anything when the sources are absent
    signal.signal(signal.SIGALRM, _alarm)
    info = stamp(args.workload, args.seed, args.trace)
    print("stamp: " + json.dumps(info, sort_keys=True))

    if args.trace:
        # each pass on a fresh set-up, so the traced pass finds no state the
        # untraced one left behind
        _, tasks, _ = setup(args.workload, args.seed)
        untraced = [run_task(task) for task in tasks]
        fp, tasks, _ = setup(args.workload, args.seed)
        tracer = Tracer()
        tracer.install(fp)
        try:
            traced = [run_task(task, tracer) for task in tasks]
        finally:
            tracer.uninstall()
        overhead = sum(o.seconds for o in traced) / sum(o.seconds for o in untraced)
        metrics = tracer.metrics(overhead)
        outcomes = untraced + traced
    else:
        passes, setups = run_passes(args.workload, args.seed, args.seconds)
        results = per_task(passes)
        metrics = end_to_end(results, statistics.median(setups))
        outcomes = [o for p in passes for o in p]
        tracer = None
        print(f"passes: {len(passes)}, set-up {min(setups):.3f} to {max(setups):.3f} s")
        print(f"samples: {len(results)} tasks, each timed by the fastest of its runs")

    failed = sum(1 for o in outcomes if o.status == "failed")
    missed = sum(1 for o in outcomes if o.status == "missed")
    print(f"tasks: {len(outcomes)} attempted, {failed} failed, {missed} missed their deadline")
    summarize(outcomes)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6f} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    base = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base.with_suffix(".json").write_text(json.dumps({"stamp": info, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(base.with_suffix(".spans.jsonl"), info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
