"""Benchmark driver for gaugetorsion.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of decide-warm, verify-poly, matrix-order; README.md in this
directory says what each one stresses and why. With ``--trace 0`` the
run measures the end-to-end metrics, tracing off. With ``--trace 1`` it
alternates untraced and traced passes of the same seed, reports the
per-layer metrics, and fails if any operation fails or the work counts of
the traced passes differ. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a provenance record
of the run goes to ``perfbench/out/``.

The driver is stdlib only and runs the library from ``src/``. It is one
closed-loop client: every child process runs alone and is waited for, and no
thread is started. Every answer is checked against ``oracle.py``; a wrong
answer, an exception, a nonzero exit or a timeout counts as a failed
operation.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = ROOT / "tests" / "golden" / "sweep_n8.csv"
RUN_BUDGET_S = 170.0  # a run must end within 180 s, children included

# Per workload: the task fields its worker reads, and how many worker
# processes share a timed run (each launch is one set-up sample).
SIZES = {
    "full": {
        "decide-warm": {"n_max": 40, "per_n": 30, "launches": 4},
        "verify-poly": {"lift": (5, 5), "milnor_cases": 60, "launches": 8},
        "matrix-order": {"orders": (6, 14), "launches": 8},
    },
    "smoke": {
        "decide-warm": {"n_max": 12, "per_n": 9, "launches": 2},
        "verify-poly": {"lift": (3, 4), "milnor_cases": 12, "launches": 2},
        "matrix-order": {"orders": (4, 8), "launches": 2},
    },
}

ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
ENV.pop("GAUGETORSION_FORMAT", None)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Child:
    ok: bool  # exited 0 before the deadline
    out: str  # stdout after the ready line
    ready_s: float | None  # launch to "ready"; None if no ready line was read
    wall_s: float  # launch to exit
    rss_mb: float  # ru_maxrss of the child


def run_child(argv: list, deadline: float, reply: str | None = None) -> Child:
    """Run argv to its exit and reap it with wait4 for its peak RSS.

    With ``reply``, the child is a worker: read its ready line, then send
    ``reply``. A child still running at ``deadline`` (time.monotonic) is killed.
    """
    timed_out = False
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=ENV,
        stdin=subprocess.PIPE if reply else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )

    def on_alarm(signum, frame):
        nonlocal timed_out
        timed_out = True
        proc.kill()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(0.01, deadline - time.monotonic()))
    ready_s = None
    try:
        if reply:
            line = proc.stdout.readline()
            try:
                if line.strip() == "ready":
                    ready_s = time.perf_counter() - t0
                    proc.stdin.write(reply + "\n")
                proc.stdin.close()
            except BrokenPipeError:
                pass
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0 and not timed_out
    return Child(ok, out, ready_s, wall_s, usage.ru_maxrss / 1024)


def run_worker(task: dict, deadline: float, reply: str = "go") -> tuple[Child, dict | None]:
    if task.get("spans"):
        Path(task["spans"]).unlink(missing_ok=True)
    child = run_child([sys.executable, str(HERE / "worker.py"), json.dumps(task)], deadline, reply)
    result = None
    if child.ok and reply == "go":
        lines = child.out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            child.ok = False
    return child, result


@dataclass
class Pass:
    """One worker process: its set-up, then its replay of the operations."""

    child: Child
    result: dict | None
    spans: str | None = None

    @property
    def attempted(self) -> int:
        return self.result["ops"] if self.result else 1

    @property
    def failed(self) -> int:
        return self.result["failed"] if self.result else 1


def run_pass(name: str, cfg: dict, seed: int, seconds: float, deadline: float, spans=None) -> Pass:
    task = {
        "workload": name,
        **{key: value for key, value in cfg[name].items() if key != "launches"},
        "seed": seed,
        "seconds": seconds,
        "trace": bool(spans),
        "spans": spans,
    }
    return Pass(*run_worker(task, deadline), spans)


def measure(name, cfg, seed, seconds, deadline) -> tuple[dict, dict, int, int]:
    """End-to-end metrics, tracing off; returns (metrics, samples, attempted, failed).

    The run's time is shared between ``launches`` worker processes, one after
    the other, so set-up is sampled all through the run and a slow spell of
    the machine does not fall on all of it. Each operation's time is its
    fastest repetition over every process; README.md says why.
    """
    launches = cfg[name]["launches"]
    end = time.perf_counter() + seconds
    passes: list[Pass] = []
    for i in range(launches):
        setups = [p.child.ready_s for p in passes if p.child.ready_s is not None]
        share = (end - time.perf_counter()) / (launches - i)
        passes.append(run_pass(name, cfg, seed, max(0.0, share - statistics.median(setups or [0.0])), deadline))
    setups = [p.child.ready_s for p in passes if p.child.ready_s is not None]
    runs = [p.result["latencies_s"] for p in passes if p.result]
    fastest = [min(times) for times in zip(*runs)]
    latency = latency_summary(fastest)
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": sum(fastest),
        "latency_p50_ms": latency["p50_ms"],
        "latency_p99_ms": latency["p99_ms"],
        "peak_rss_mb": max(p.child.rss_mb for p in passes),
    }
    samples = {
        "launches": launches,
        "setup_s": setups,
        "process_wall_s": [p.child.wall_s for p in passes],
        "ops_per_process": [p.result["ops"] if p.result else None for p in passes],
        "latency_samples": latency["count"],
        "latencies_s": runs,
        "peak_rss_mb": [p.child.rss_mb for p in passes],
    }
    return metrics, samples, sum(p.attempted for p in passes), sum(p.failed for p in passes)


def latency_summary(latencies_s: list) -> dict:
    """Median and 99th percentile (nearest rank) in ms, with the sample count."""
    ordered = sorted(latencies_s)
    if not ordered:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "count": 0}
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "p99_ms": ordered[math.ceil(0.99 * len(ordered)) - 1] * 1e3,
        "count": len(ordered),
    }


def pass_layer_metrics(run: Pass) -> dict:
    """Per-layer metrics of one traced pass, from the span file it wrote."""
    with open(run.spans) as handle:
        doc = json.load(handle)
    spans, loop_start = doc["spans"], doc["loop_start"]
    before = doc["caches_before"].get("polyring.elementary_sym", [0, 0])
    after = doc["caches_after"].get("polyring.elementary_sym", [0, 0])
    hits, lookups = after[0] - before[0], after[0] - before[0] + after[1] - before[1]
    return tracer.layer_metrics(
        tracer.summarize(spans, loop_start),
        tracer.summarize(spans, 0, loop_start),
        tracer.setup_ratio(tracer.summarize(spans)),
        hits / lookups if lookups else 0.0,
    )


def measure_traced(name, cfg, seed, seconds, deadline) -> tuple[dict, dict, int, int]:
    """Per-layer metrics from the traced passes; exits if their counts differ.

    Untraced and traced passes, each one process that replays its operations
    once after set-up, alternate for ``seconds``, at least two of each. The
    tracing overhead compares the fastest measured phase of each kind, as the
    workers time it before any spans are written.
    """
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    untraced, runs = [], []
    start = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        untraced.append(run_pass(name, cfg, seed, 0.0, deadline))
        path = str(OUT / "spans" / f"{name}-{len(runs)}.json")
        runs.append(run_pass(name, cfg, seed, 0.0, deadline, spans=path))
        if time.monotonic() + time.perf_counter() - t0 > deadline:
            break
    passes = [*untraced, *runs]
    attempted, failed = sum(p.attempted for p in passes), sum(p.failed for p in passes)
    if failed:
        raise SystemExit(f"error: {failed} of {attempted} operations failed in the traced run of seed {seed}")
    per_run = [pass_layer_metrics(run) for run in runs]
    differ = {
        m: [r[m] for r in per_run] for m in tracer.COUNT_METRICS if any(r[m] != per_run[0][m] for r in per_run)
    }
    if differ:
        raise SystemExit(f"error: count metrics differ between traced runs of seed {seed}: {differ}")
    metrics = {
        m: per_run[0][m] if m in tracer.COUNT_METRICS else statistics.mean(r[m] for r in per_run)
        for m in per_run[0]
    }
    metrics["trace.overhead_ratio"] = min(r.result["elapsed_s"] for r in runs) / min(
        u.result["elapsed_s"] for u in untraced
    )
    samples = {
        "traced_runs": per_run,
        "traced_elapsed_s": [r.result["elapsed_s"] for r in runs],
        "untraced_elapsed_s": [u.result["elapsed_s"] for u in untraced],
    }
    return metrics, samples, attempted, failed


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; do not let git find an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def preflight() -> str | None:
    if not (SRC / "gaugetorsion" / "__init__.py").is_file():
        return f"no gaugetorsion package under {SRC}"
    if not GOLDEN.is_file():
        return f"missing {GOLDEN}"
    if oracle.sweep_csv(8) != GOLDEN.read_text():
        return f"the oracle's sweep table disagrees with {GOLDEN}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full", help="smoke is for the self-test")
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    cfg = SIZES[args.size]
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    load = os.getloadavg()
    if args.trace:
        values, samples, attempted, failed = measure_traced(args.workload, cfg, args.seed, args.seconds, deadline)
        units = tracer.UNITS
    else:
        values, samples, attempted, failed = measure(args.workload, cfg, args.seed, args.seconds, deadline)
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "started_utc": started,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load,
        "error_rate": failed / attempted,
        "samples": samples,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"error_rate={failed}/{attempted} record={path.relative_to(ROOT)}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
