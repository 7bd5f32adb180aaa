"""One benchmark child process.

Usage: ``python3 perfbench/worker.py '<task json>'`` with ``src/`` on
PYTHONPATH. The worker imports gaugetorsion and does the workload's set-up:
the workload's own preparation, then one untimed pass over its operations,
each answer checked. It prints ``ready`` and waits for one line on stdin. On
``go`` it replays the same operations, round after round, for the task's
``seconds`` (one round when that is 0), and prints one JSON line with its
operation count, failures, each operation's fastest time and ``elapsed_s``,
the time of the whole measured phase. On anything else it exits, so a launch
can also serve as a set-up sample alone. With ``"trace": true`` the layers
are traced from before set-up, and the spans are written to the task's
``spans`` path before the result line.

Every answer is checked against ``oracle``; the checks run outside the timed
calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
from functools import partial

import oracle

# Milnor checks cycle through these (p, level) pairs; each case is a random
# polynomial of a fixed shape, so the seed changes values and not the amount
# of work.
MILNOR_LEVELS = ((2, 3), (3, 2), (5, 2), (2, 2), (3, 1), (5, 1))
MILNOR_SHAPE = (3, 10, 8)  # variables, degree of every term, terms


def milnor_poly(rng: random.Random, p: int) -> dict:
    n_vars, degree, n_terms = MILNOR_SHAPE
    terms: dict = {}
    while len(terms) < n_terms:
        mono = [0] * n_vars
        for _ in range(degree):
            mono[rng.randrange(n_vars)] += 1
        terms[tuple(mono)] = rng.randint(1, p - 1) if p > 2 else 1
    return terms


def sweep_ok(gt, n_max: int) -> bool:
    """Run the CLI sweep in this process and check its table byte for byte."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gt.cli.main(["sweep", "--n-max", str(n_max), "--format", "csv"])
    return code == 0 and buf.getvalue() == oracle.sweep_csv(n_max)


def warm_cases(gt, task: dict):
    """The seeded batch: every n in 2..n_max equally often, k and order random.

    Fixing the mix of n keeps the latency percentiles from moving with the
    seed, since the cost of a call depends on how many primes divide n.
    """
    rng = random.Random(task["seed"])
    calls = [(n, rng.randrange(n)) for n in range(2, task["n_max"] + 1) for _ in range(task["per_n"])]
    rng.shuffle(calls)
    for n, k in calls:
        yield (
            f"decide_global n={n} k={k}",
            partial(gt.decide_global, n, k),
            lambda out, n=n, k=k: oracle.global_ok(out.to_dict(), n, k),
        )


def lift_round_trip(gt, m, n, P):
    lhs = gt.iota_star(gt.lift_power_sum(m, n, P))
    return lhs, lhs == gt.power_sum(n, m, P)


def milnor_both(gt, level, f):
    return gt.milnor_q_closed(level, f), gt.milnor_q_recursive(level, f)


def verify_cases(gt, task: dict):
    """Identity checks on sparse polynomials; the seed draws the Milnor inputs."""
    n_max, m_max = task["lift"]
    for p in (2, 3, 5):
        P = gt.Prime(p)
        for n in range(1, n_max + 1):
            for m in range(1, m_max + 1):
                want = oracle.power_sum_terms(n, m)
                yield (
                    f"lift p={p} n={n} m={m}",
                    partial(lift_round_trip, gt, m, n, P),
                    lambda out, want=want: out[1] and out[0].terms == want,
                )
        for n in range(2, 7):
            for i in range(7):
                yield (
                    f"newton p={p} n={n} i={i}",
                    partial(gt.verify_newton, n, i, P),
                    lambda out: out[0] and out[1].is_zero(),
                )
        for n in range(2, 6):
            for level in (1, 2):
                if p**level + 1 <= 26:
                    want = oracle.milnor_c2_terms(n, p**level)
                    yield (
                        f"milnor-c2 p={p} n={n} level={level}",
                        partial(gt.check_milnor_on_c2, n, P, level),
                        lambda out, want=want: out[0] and out[1].terms == want,
                    )
    rng = random.Random(task["seed"])
    for case in range(task["milnor_cases"]):
        p, level = MILNOR_LEVELS[case % len(MILNOR_LEVELS)]
        terms = milnor_poly(rng, p)
        want = oracle.milnor_derivation_terms(terms, p, level)
        yield (
            f"milnor-random p={p} level={level} case={case}",
            partial(milnor_both, gt, level, gt.MultiPoly(MILNOR_SHAPE[0], gt.Prime(p), terms)),
            lambda out, want=want: out[0] == out[1] and out[0].terms == want,
        )


def order_cases(gt, task: dict):
    """Companion-matrix orders mod p for every n in the range, in seeded order."""
    n_min, n_max = task["orders"]
    inputs = [(n, p) for n in range(n_min, n_max + 1) for p in (2, 3, 5)]
    random.Random(task["seed"]).shuffle(inputs)
    for n, p in inputs:
        yield (
            f"order n={n} p={p}",
            partial(gt.verify_p_power_order, n, gt.Prime(p)),
            lambda out, n=n, p=p: out == (True, oracle.p_power_ceil(n, p)),
        )


CASES = {
    "decide-warm": warm_cases,
    "verify-poly": verify_cases,
    "matrix-order": order_cases,
}


def attempt(label: str, call, check) -> tuple[int, bool]:
    """Time one operation; returns (ns, answer was right). Only the call is timed."""
    t0 = time.perf_counter_ns()
    try:
        out = call()
    except Exception as exc:
        elapsed = time.perf_counter_ns() - t0
        print(f"{label} raised {exc!r}", file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter_ns() - t0
    if not check(out):
        print(f"{label} is wrong", file=sys.stderr)
        return elapsed, False
    return elapsed, True


def setup(task: dict):
    """Import, prepare and make one checked pass; returns (gt, cases, attempted, failed)."""
    import gaugetorsion as gt

    attempted = failed = 0
    if task["workload"] == "decide-warm":
        import gaugetorsion.cli

        # The user-facing table, which also fills every memo table the loop reads.
        attempted, failed = 1, int(not sweep_ok(gt, task["n_max"]))
    cases = list(CASES[task["workload"]](gt, task))
    for case in cases:
        failed += not attempt(*case)[1]
    return gt, cases, attempted + len(cases), failed


def replay(cases: list, seconds: float) -> dict:
    """Replay every case, round after round, until ``seconds`` pass.

    The loop stops at the first round boundary after ``seconds``, so
    ``seconds`` 0 runs one round. Each operation's latency is its fastest
    repetition, as everywhere in the benchmark (see README.md).
    """
    best = [math.inf] * len(cases)
    rounds = failed = 0
    stop = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < stop:
        for i, case in enumerate(cases):
            elapsed, ok = attempt(*case)
            best[i] = min(best[i], elapsed)
            failed += not ok
        rounds += 1
    return {"ops": rounds * len(cases), "failed": failed, "latencies_s": [t / 1e9 for t in best]}


def main() -> int:
    task = json.loads(sys.argv[1])
    tracer = None
    if task.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    gt, cases, setup_ops, setup_failed = setup(task)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    loop_start = len(tracer.spans) if tracer else 0
    caches_before = tracer.cache_counts() if tracer else {}
    t0 = time.perf_counter()
    result = replay(cases, task["seconds"])
    result["elapsed_s"] = time.perf_counter() - t0
    result["ops"] += setup_ops
    result["failed"] += setup_failed
    if tracer:
        tracer.uninstall()
        tracer.dump(
            task["spans"],
            loop_start=loop_start,
            caches_before=caches_before,
            caches_after=tracer.cache_counts(),
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
