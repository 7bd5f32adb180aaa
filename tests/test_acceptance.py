"""Acceptance suite: one test per release criterion, all exact, desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with case counts and timing against the stated budget.
"""

import random
import subprocess
import sys
import time
from math import gcd

from gaugetorsion import (
    Prime,
    binom_int,
    check_milnor_on_c2,
    companion_matrix,
    derive_recurrence,
    jordan_transpose,
    milnor_q_closed,
    milnor_q_recursive,
    order_brute,
    order_mod_p,
    p_power_ceil,
    padic_val,
    pascal_matrix,
    solve_alpha_p,
    unitriangular_inverse,
    verify_newton,
    verify_p_power_order,
)
from gaugetorsion.torsion import TorsionKind, decide_global, decide_p
from tests.conftest import random_multipoly

PRIMES_235 = (Prime(2), Prime(3), Prime(5))


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.cases = 0

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(
                f"ACCEPTANCE {self.name}: PASS "
                f"({self.cases} cases, {elapsed:.2f}s < {self.seconds:g}s)"
            )
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its time budget: {elapsed:.2f}s"
            )
        else:
            print(f"ACCEPTANCE {self.name}: FAIL after {elapsed:.2f}s")
        return False


def test_01_newton_identity_exact():
    with _Budget("newton-identity", 5.0) as budget:
        for p in PRIMES_235:
            for n in range(2, 7):
                for i in range(0, 7):
                    ok, residual = verify_newton(n, i, p)
                    assert ok and residual.is_zero(), (n, i, p.value)
                    budget.cases += 1
        assert budget.cases == 105


def test_02_milnor_identity_and_equivalence():
    with _Budget("milnor-identity", 30.0) as budget:
        for p in PRIMES_235:
            for n in range(2, 6):
                for level in (1, 2):
                    if p.value**level + 1 > 26:
                        continue
                    ok, lhs, rhs, _ = check_milnor_on_c2(n, p, level)
                    assert ok, (n, p.value, level, lhs.render(), rhs.render())
                    budget.cases += 1
        for p in PRIMES_235:
            rng = random.Random(p.value * 1009)
            for _ in range(500):
                n = rng.randint(1, 3)
                f = random_multipoly(rng, n, p, max_exp=2, max_terms=4)
                level = rng.randint(1, 2)
                assert milnor_q_closed(level, f) == milnor_q_recursive(level, f)
                budget.cases += 1


def test_03_conjugation_integral():
    with _Budget("conjugation", 10.0) as budget:
        for n in range(2, 41):
            b, a, d = companion_matrix(n), pascal_matrix(n), jordan_transpose(n)
            ba = b * a
            assert ba == a * d, f"products differ at n={n}"
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert ba.entry(i, j) == binom_int(n - i + 1, n - j), (n, i, j)
            assert unitriangular_inverse(a) * b * a == d, f"conjugate differs at n={n}"
            budget.cases += 1


def test_04_p_power_orders():
    with _Budget("matrix-order", 60.0) as budget:
        for q in (2, 3, 5, 7, 11):
            p = Prime(q)
            for n in range(2, 51):
                ok, order = verify_p_power_order(n, p)
                assert q ** padic_val(order, p) == order, (n, q, order)
                assert order == p_power_ceil(n, p), (n, q, order)
                assert ok
                budget.cases += 1
        # brute-force oracle confirms the fast search on the feasible range
        for q in (2, 3, 5):
            p = Prime(q)
            for n in range(2, 17):
                m = companion_matrix(n).reduce(p)
                bound = p_power_ceil(n, p) * q
                assert order_mod_p(m, bound) == order_brute(m, bound), (n, q)
                budget.cases += 1


def test_05_recurrence_mechanization():
    with _Budget("alpha-recurrence", 30.0) as budget:
        for p in PRIMES_235:
            q = p.value
            for n in range(2, 21):
                if n % q:
                    continue
                assert derive_recurrence(n, p) == companion_matrix(n).reduce(p), (n, q)
                budget.cases += 1
                for k in range(n):
                    sol = solve_alpha_p(n, p, k)
                    assert sol.value.residue == k % q, (n, q, k)
                    assert {j for j, _ in sol.assigned} == {2}, (n, q, k)
                    budget.cases += 1


def test_06_per_prime_truth_table():
    with _Budget("per-prime-verdicts", 60.0) as budget:
        primes = [Prime(q) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)]
        for n in range(2, 61):
            for k in range(n):
                for p in primes:
                    q = p.value
                    cert = decide_p(n, k, p)
                    table = n % q == 0 and k % q == 0
                    assert (cert.verdict.kind is TorsionKind.TORSION) == table, (n, k, q)
                    mech = cert.phi_c1 == 0 and cert.alpha_p == 0
                    assert mech == table, (n, k, q)
                    if n % q == 0:
                        assert cert.alpha_p == k % q
                        assert cert.recurrence_check is True
                        assert q ** padic_val(cert.matrix_order, p) == cert.matrix_order
                    budget.cases += 1


def test_07_global_gcd_criterion():
    with _Budget("global-verdicts", 10.0) as budget:
        for n in range(2, 61):
            for k in range(n):
                result = decide_global(n, k)
                assert result.torsion_free == (gcd(n, k) == 1), (n, k)
                budget.cases += 1
            assert decide_global(n, 1).torsion_free, n


def test_08_sweep_determinism():
    with _Budget("sweep-determinism", 120.0) as budget:
        cmd = [
            sys.executable,
            "-m",
            "gaugetorsion",
            "sweep",
            "--n-max",
            "30",
            "--format",
            "csv",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"n,k,torsion_free,witness_prime")
        budget.cases = 2
