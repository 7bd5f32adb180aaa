import os
import random
import resource
import subprocess
import sys
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugetorsion import (
    MultiPoly,
    Prime,
    check_milnor_on_c2,
    elementary_sym,
    milnor_q_closed,
    milnor_q_recursive,
    power_sum,
    reduced_power,
)
from gaugetorsion import steenrod
from gaugetorsion.fp import _lucas
from gaugetorsion.steenrod import _lucas_row
from tests.conftest import PRIMES_235, random_multipoly
from tests.test_polyring import st_poly


def t(n: int, p: Prime, i: int = 1) -> MultiPoly:
    return MultiPoly.variable(n, p, i)


# -- reduced powers ---------------------------------------------------------


def test_reduced_power_identity_at_zero():
    p = Prime(3)
    f = random_multipoly(random.Random(1), 2, p)
    assert reduced_power(0, f) == f


def test_reduced_power_on_generator():
    # R^1 raises a degree-one generator to the p-th power
    assert reduced_power(1, t(1, Prime(3))) == t(1, Prime(3)) ** 3
    assert reduced_power(1, t(1, Prime(2))) == t(1, Prime(2)) ** 2


def test_reduced_power_cartan_example():
    # frozen from the two-factor Cartan split: R^1(t1 t2) at p = 2
    p = Prime(2)
    f = t(2, p, 1) * t(2, p, 2)
    expected = MultiPoly(2, p, {(2, 1): 1, (1, 2): 1})
    assert reduced_power(1, f) == expected


def test_reduced_power_square_example():
    # R^2(t^2) = binom(2,2) t^4 at p = 2
    p = Prime(2)
    assert reduced_power(2, t(1, p) ** 2) == t(1, p) ** 4


def cartan_by_brute_force(f: MultiPoly) -> dict[int, MultiPoly]:
    """R^i(f) for every i, by the Cartan sum over all exponent splits of each monomial."""
    p = f.p.value
    by_i: dict[int, dict] = {}
    for mono, c in f.terms.items():
        for split in product(*(range(e + 1) for e in mono)):
            coeff = c
            for e, a in zip(mono, split):
                coeff *= comb(e, a) % p
            target = tuple(e + a * (p - 1) for e, a in zip(mono, split))
            terms = by_i.setdefault(sum(split), {})
            terms[target] = terms.get(target, 0) + coeff
    return {i: MultiPoly(f.n, f.p, terms) for i, terms in by_i.items()}


@pytest.mark.parametrize("p", [Prime(2), Prime(3), Prime(5), Prime(7)])
def test_reduced_power_matches_brute_force_cartan_sum(p):
    rng = random.Random(p.value)
    for n in (3, 4):
        for _ in range(3):
            f = random_multipoly(rng, n, p, max_exp=9, max_terms=5)
            expected = cartan_by_brute_force(f)
            for i in range(13):
                assert reduced_power(i, f) == expected.get(i, MultiPoly.zero(n, p)), (f, i)
    # wide sparse monomials: up to 8 slots, mostly zero, so the walk skips most
    # of them; a constant term, which every R^i with i > 0 sends to 0; and an
    # i one past the largest total degree, which no split reaches
    for n in (5, 6, 8):
        for _ in range(3):
            terms = {(0,) * n: rng.randrange(1, p.value) if p.value > 2 else 1}
            while len(terms) < 5:
                mono = [0] * n
                for k in rng.sample(range(n), rng.randint(1, 3)):
                    mono[k] = rng.randint(1, 9)
                terms[tuple(mono)] = rng.randrange(1, p.value) if p.value > 2 else 1
            f = MultiPoly(n, p, terms)
            expected = cartan_by_brute_force(f)
            for i in range(f.total_degree() + 2):
                assert reduced_power(i, f) == expected.get(i, MultiPoly.zero(n, p)), (f, i)
            assert reduced_power(f.total_degree() + 1, f).is_zero()
    constant = MultiPoly.constant(8, p, 1)
    assert reduced_power(0, constant) == constant and reduced_power(1, constant).is_zero()
    # a dense monomial: 8 slots of exponent e = p^2 - 1, whose every binom(e, a) is
    # a unit, so without cutting the splits the later slots cannot make up, the
    # walk would carry (e + 1)^7 partial splits for an i near the total degree
    q = p.value
    e = q * q - 1
    top = 8 * e
    dense = MultiPoly(8, p, {(e,) * 8: 1})
    assert reduced_power(top, dense) == MultiPoly(8, p, {(e * q,) * 8: 1})
    below = {tuple(e * q - (q - 1) * (k == j) for k in range(8)): e for j in range(8)}
    assert reduced_power(top - 1, dense) == MultiPoly(8, p, below)
    assert reduced_power(top + 1, dense).is_zero()
    q = p.value
    for e in [*range(40), q**5 - 1, 10**18 + 7]:
        for top in range(min(e, 40) + 3):
            row = [(a, _lucas(e, a, q)) for a in range(top + 1)]
            assert _lucas_row(e, top, q) == tuple((a, c) for a, c in row if c), (e, top)


# R^1 and R^2 of monomials with exponents near 2^40 and 1e18. A Lucas row cut
# at min(e, i) has a handful of entries; one built up to e would have 2^40 or
# 3^38 of them, and run past the timeout or into the memory limit.
CUT_ROWS = """
from gaugetorsion import MultiPoly, Prime, reduced_power

p2, p3 = Prime(2), Prime(3)
e = 2**40 - 1
assert reduced_power(1, MultiPoly(1, p2, {(e,): 1})) == MultiPoly(1, p2, {(e + 1,): 1})
e = 3**38 - 1  # every base-3 digit is 2, so binom(e, a) = 1, 2, 1 mod 3 for a = 0, 1, 2
expected = MultiPoly(2, p3, {(e + 4, 5): 1, (e + 2, 7): 4, (e, 9): 1})
assert reduced_power(2, MultiPoly(2, p3, {(e, 5): 1})) == expected
print("ok")
"""


def test_cut_lucas_rows_stay_cheap():
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(steenrod.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", CUT_ROWS],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=10, preexec_fn=limit_memory,
    )
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


@given(data=st.data())
def test_total_operation_is_multiplicative(data):
    """Cartan consistency: R^i(fg) = sum over a+b=i of R^a(f) R^b(g)."""
    p = data.draw(st.sampled_from(PRIMES_235))
    n = data.draw(st.integers(min_value=1, max_value=3))
    f = data.draw(st_poly(n, p, max_exp=2, max_terms=3))
    g = data.draw(st_poly(n, p, max_exp=2, max_terms=3))
    bound = f.total_degree() + g.total_degree()
    for i in range(0, max(bound, 0) + 1):
        split = MultiPoly.zero(n, p)
        for a in range(i + 1):
            split = split + reduced_power(a, f) * reduced_power(i - a, g)
        assert reduced_power(i, f * g) == split


# -- Milnor primitives -------------------------------------------------------


def test_closed_form_examples():
    assert milnor_q_closed(1, t(1, Prime(2))) == t(1, Prime(2)) ** 2
    for p in PRIMES_235:
        assert milnor_q_closed(1, MultiPoly.one(2, p)).is_zero()
        assert milnor_q_closed(2, MultiPoly.one(2, p)).is_zero()
    p = Prime(2)
    f = t(2, p, 1) * t(2, p, 2)
    assert milnor_q_closed(1, f) == MultiPoly(2, p, {(2, 1): 1, (1, 2): 1})


def test_recursion_examples():
    # frozen by unwinding the commutator once by hand
    assert milnor_q_recursive(1, t(1, Prime(3))) == t(1, Prime(3)) ** 3
    assert milnor_q_recursive(2, t(1, Prime(2))) == t(1, Prime(2)) ** 4
    assert milnor_q_recursive(2, t(1, Prime(3))) == t(1, Prime(3)) ** 9


def test_level_zero_rejected():
    p = Prime(3)
    with pytest.raises(ValueError):
        milnor_q_closed(0, t(1, p))
    with pytest.raises(ValueError):
        milnor_q_recursive(0, t(1, p))


@given(data=st.data())
def test_implementations_agree(data):
    p = data.draw(st.sampled_from(PRIMES_235))
    n = data.draw(st.integers(min_value=1, max_value=3))
    f = data.draw(st_poly(n, p, max_exp=2, max_terms=3))
    level = data.draw(st.integers(min_value=1, max_value=2))
    assert milnor_q_closed(level, f) == milnor_q_recursive(level, f)


@given(data=st.data())
def test_recursion_satisfies_leibniz(data):
    """The commutator route is a derivation too, not only the closed form."""
    p = data.draw(st.sampled_from(PRIMES_235))
    n = data.draw(st.integers(min_value=1, max_value=3))
    f = data.draw(st_poly(n, p, max_exp=2, max_terms=3))
    g = data.draw(st_poly(n, p, max_exp=2, max_terms=3))
    level = data.draw(st.integers(min_value=1, max_value=2))
    lhs = milnor_q_recursive(level, f * g)
    rhs = milnor_q_recursive(level, f) * g + f * milnor_q_recursive(level, g)
    assert lhs == rhs


@settings(max_examples=25)
@given(data=st.data())
def test_primitive_squares_to_zero_mod_two_sanity(data):
    """Optional sanity sweep, not a gate: twice the same primitive kills at p = 2.

    Only at p = 2: the coefficient picked up by a double application is a
    product of consecutive integers, hence even. At odd primes the commutator
    operations built from reduced powers alone do not square to zero on this
    even subring; the counterexample below pins that down.
    """
    p = Prime(2)
    f = data.draw(st_poly(2, p, max_exp=3, max_terms=3))
    level = data.draw(st.integers(min_value=1, max_value=2))
    assert milnor_q_closed(level, milnor_q_closed(level, f)).is_zero()


def test_primitive_square_counterexample_at_odd_primes():
    # Q_1(Q_1(t^2)) = 2 t^(2p), nonzero whenever p is odd
    for p in (Prime(3), Prime(5)):
        f = t(1, p) ** 2
        twice = milnor_q_closed(1, milnor_q_closed(1, f))
        assert twice == (t(1, p) ** (2 * p.value)).scale(2)


# -- the second-Chern identity -------------------------------------------------


def test_identity_on_c2_smallest_case():
    ok, lhs, rhs = check_milnor_on_c2(2, Prime(2), 1)
    assert ok
    expected = MultiPoly(2, Prime(2), {(2, 1): 1, (1, 2): 1})
    assert lhs == expected and rhs == expected


@pytest.mark.parametrize("p", PRIMES_235)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("level", [1, 2])
def test_identity_on_c2_sweep(n, p, level):
    if p.value**level + 1 > 26:
        pytest.skip("degree outside the tested window")
    ok, lhs, rhs = check_milnor_on_c2(n, p, level)
    assert ok, f"split at n={n} p={p} level={level}: {lhs.render()} vs {rhs.render()}"


def test_identity_lhs_matches_direct_expansion():
    # polynomial-engine oracle: expand both sides from scratch
    p = Prime(3)
    n, level = 3, 1
    q = p.value**level
    direct = power_sum(n, 1, p) * power_sum(n, q, p) - power_sum(n, q + 1, p)
    assert milnor_q_closed(level, elementary_sym(n, 2, p)) == direct
