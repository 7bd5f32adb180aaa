import os
import random
import resource
import subprocess
import threading
import sys
from functools import lru_cache
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
from gaugetorsion.cli import _random_poly
from gaugetorsion.fp import _lucas, _lucas_row
from gaugetorsion.polyring import _PackedSum
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


# -- the packed walk ---------------------------------------------------------

def whole_walk_recursive(level: int, f: MultiPoly) -> MultiPoly:
    """Q_level(f) by the commutator recursion over the whole packed polynomial,
    every reduced power and difference of the tree kept packed and reduced mod
    p: the oracle of the route by shapes."""
    p = f.p.value
    acc = _PackedSum(f.n, f.p, max(map(max, f.terms), default=0) + p**level - 1)

    def q(level: int, terms):
        if level == 1:
            return steenrod._packed_power(acc, 1, terms)
        i = p ** (level - 1)
        diff = steenrod._packed_power(acc, i, q(level - 1, terms))
        get = diff.get
        for key, c in q(level - 1, steenrod._packed_power(acc, i, terms)).items():
            diff[key] = get(key, 0) - c
        return {key: r for key, c in diff.items() if (r := c % p)}

    acc.terms = q(level, acc.pack(f.terms))
    return acc.result()


def assert_shape_route(level: int, f: MultiPoly) -> MultiPoly:
    """The route by shapes equals the whole walk and the Leibniz closed form."""
    out = milnor_q_recursive(level, f)
    assert out == whole_walk_recursive(level, f) == milnor_q_closed(level, f), (level, f)
    return out


# Exponent bounds on each side of a change of slot width (one byte to two, two
# to three). In each test the top term of f reaches the bound exactly, with a
# unit coefficient; a slot one byte too narrow would carry t1's exponent into t2.
SLOT_EDGE_BOUNDS = [255, 256, 65535, 65536]


@pytest.mark.parametrize("bound", SLOT_EDGE_BOUNDS)
def test_reduced_power_at_slot_width_edges(bound):
    # R^1's slots hold the largest exponent e plus p - 1; a prime just below
    # the edge keeps e small, so the brute-force Cartan sum stays cheap
    p = Prime(251 if bound <= 256 else 65521)
    e = bound - (p.value - 1)  # R^1(t1^e) = e t1^bound
    f = MultiPoly(3, p, {(e, 0, 0): 1, (0, 2, 1): 2, (1, 0, e): 3, (0, 0, 0): 2})
    assert reduced_power(1, f) == cartan_by_brute_force(f)[1]
    assert reduced_power(1, f).terms[(bound, 0, 0)] == e


@pytest.mark.parametrize("bound", SLOT_EDGE_BOUNDS)
def test_milnor_routes_agree_at_slot_width_edges(bound):
    p = Prime(3)
    e = bound - 8  # Q_2's slots hold the largest exponent e plus 3^2 - 1
    assert e % 3  # Q_2(t1^e) = e t1^bound
    f = MultiPoly(3, p, {(e, 0, 0): 1, (0, 2, 1): 2, (e - 1, 1, 0): 1, (0, 0, 0): 2})
    assert assert_shape_route(2, f).terms[(bound, 0, 0)] == e % 3


@pytest.mark.parametrize("bound", SLOT_EDGE_BOUNDS)
def test_shape_reader_matches_read_then_strip(bound):
    # slots of 8, 16, 16 and 24 bits; exponents up to the bound, multiples of
    # q among them, so a slot can read 0 mod q while its exponent is not 0
    n = 6
    acc = _PackedSum(n, Prime(2), bound)
    assert acc.width == {255: 8, 256: 16, 65535: 16, 65536: 24}[bound]
    rng = random.Random(bound)
    for q in (2, 9, 256, 65536):
        reader = acc.shapes(q)
        assert acc.shapes(q) is reader  # built once per q
        monos = [(0,) * n, (bound,) * n, (0, bound, 0, q, 0, 0), (q, 0, 1, 0, 0, 2 * q)]
        for _ in range(40):
            picks = [0, 0, rng.randrange(bound + 1), q * rng.randrange(bound // q + 1), bound]
            monos.append(tuple(rng.choice(picks) for _ in range(n)))
        for mono in (mono for mono in monos if max(mono) <= bound):
            key = next(iter(acc.pack({mono: 1})))
            first, shape = residue_shape(acc.read(key), q)
            shift, got = reader(key)
            hash(got)  # the shape keys a plan table
            assert (shift, tuple(got)) == (first * acc.width, shape), (q, mono)


@pytest.mark.parametrize("p", [Prime(2), Prime(3), Prime(5)])
def test_packed_walk_on_zero_constants_and_one_variable(p):
    q = p.value
    for n in (1, 2):
        zero, constant = MultiPoly.zero(n, p), MultiPoly.constant(n, p, q - 1)
        for level in (1, 2, 3):
            for f in (zero, constant):
                assert assert_shape_route(level, f).is_zero()
        for i in (1, 2, q):
            assert reduced_power(i, zero).is_zero() and reduced_power(i, constant).is_zero()
    for e in range(1, 12):
        f = t(1, p) ** e
        for level in (1, 2, 3):
            # Q_level(t^e) = e t^(e - 1 + p^level)
            expected = (t(1, p) ** (e - 1 + q**level)).scale(e)
            assert assert_shape_route(level, f) == expected
            assert_shape_route(level, t(3, p, 2) ** e)  # the one variable in the middle
        for i in range(e + 2):
            assert reduced_power(i, f) == (t(1, p) ** (e + i * (q - 1))).scale(comb(e, i))


# (p, level) with p^level <= 125, the levels the recursion is checked at
MILNOR_LEVELS = [(q, level) for q in (2, 3, 5, 7) for level in range(1, 7) if q**level <= 125]


@given(data=st.data())
def test_recursion_matches_closed_form_up_to_degree_125(data):
    q, level = data.draw(st.sampled_from(MILNOR_LEVELS))
    p = Prime(q)
    n = data.draw(st.integers(min_value=1, max_value=3))
    f = data.draw(st_poly(n, p, max_exp=4, max_terms=3))
    assert milnor_q_recursive(level, f) == milnor_q_closed(level, f)


# -- the second-Chern identity -------------------------------------------------


def test_identity_on_c2_smallest_case():
    ok, lhs, rhs, closed = check_milnor_on_c2(2, Prime(2), 1)
    assert ok
    expected = MultiPoly(2, Prime(2), {(2, 1): 1, (1, 2): 1})
    assert lhs == expected and rhs == expected and closed == expected


@pytest.mark.parametrize("p", PRIMES_235)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("level", [1, 2])
def test_identity_on_c2_sweep(n, p, level):
    if p.value**level + 1 > 26:
        pytest.skip("degree outside the tested window")
    ok, lhs, rhs, _ = check_milnor_on_c2(n, p, level)
    assert ok, f"split at n={n} p={p} level={level}: {lhs.render()} vs {rhs.render()}"


def test_identity_lhs_matches_direct_expansion():
    # polynomial-engine oracle: expand both sides from scratch
    p = Prime(3)
    n, level = 3, 1
    q = p.value**level
    direct = power_sum(n, 1, p) * power_sum(n, q, p) - power_sum(n, q + 1, p)
    assert milnor_q_closed(level, elementary_sym(n, 2, p)) == direct


# -- plans by residue class ----------------------------------------------------


def some_poly(rng: random.Random, n: int, p: Prime, max_exp: int, terms: int) -> MultiPoly:
    """A seeded polynomial of `terms` draws, so never zero."""
    return _random_poly(rng, n, p, max_exp, terms, min_terms=terms)


def test_terms_of_one_residue_class_share_a_plan():
    # at p = 2 and i = 4, q = 8: t1^3 t2^9 and t1^11 t2 both have residues (3, 1)
    p = Prime(2)
    f = MultiPoly(2, p, {(3, 9): 1, (11, 1): 1})
    expected = cartan_by_brute_force(f)
    steenrod._class_plan.cache_clear()
    assert reduced_power(4, f) == expected[4]
    # one class walked, its plan reused once
    assert steenrod._class_plan.cache_info()[:2] == (1, 1)
    for i in range(1, 16):
        assert reduced_power(i, f) == expected.get(i, MultiPoly.zero(2, p)), i
    for level in (1, 2, 3, 4):
        assert milnor_q_recursive(level, f) == milnor_q_closed(level, f), level


def residue_shape(mono, q: int) -> tuple[int, tuple[int, ...]]:
    """(leading zero slots, shape) of a monomial's exponents mod q: the
    residues with the zero slots at both ends stripped."""
    res = [e % q for e in mono]
    first = next((k for k, r in enumerate(res) if r), len(res))
    last = max((k for k, r in enumerate(res) if r), default=first - 1)
    return first, tuple(res[first : last + 1])


def shifted(f: MultiPoly, q: int, by: int) -> MultiPoly:
    """f with `by` q added to every exponent: each term stays in its class mod q."""
    return MultiPoly(f.n, f.p, {tuple(e + by * q for e in mono): c for mono, c in f.terms.items()})


@pytest.mark.parametrize("p", PRIMES_235)
def test_cold_and_warm_tables_give_the_same_powers(p):
    rng = random.Random(40 + p.value)
    f = some_poly(rng, 3, p, 9, 6)
    q = p.value**2  # the q of every i from p to p^2 - 1, and of level 2's R^p
    expected = cartan_by_brute_force(f)
    steenrod._class_plan.cache_clear()
    cold = {i: reduced_power(i, f) for i in range(p.value, q)}
    cold_q = milnor_q_recursive(2, f)
    assert steenrod._class_plan.cache_info().misses > 0
    for by in (1, 2, 3):  # other polynomials of the same classes fill the cache
        g = shifted(f, q, by)
        assert milnor_q_recursive(2, g) == milnor_q_closed(2, g)
        for i in range(p.value, q):
            reduced_power(i, g)
    misses = steenrod._class_plan.cache_info().misses
    warm = {i: reduced_power(i, f) for i in range(p.value, q)}
    assert milnor_q_recursive(2, f) == cold_q == milnor_q_closed(2, f)
    assert steenrod._class_plan.cache_info().misses == misses  # every class was met already
    for i in range(p.value, q):
        assert warm[i] == cold[i] == expected.get(i, MultiPoly.zero(3, p)), i


def test_two_byte_slots_share_a_plan_across_the_byte_edge():
    # 259 and 3 are both 3 mod 8, the q of i = 4 at p = 2; 259 + 4 needs two-byte slots
    p = Prime(2)
    f = MultiPoly(2, p, {(259, 1): 1, (3, 9): 1, (0, 0): 1})
    steenrod._class_plan.cache_clear()
    expected = cartan_by_brute_force(f)
    assert reduced_power(4, f) == expected[4]
    assert steenrod._class_plan.cache_info()[:2] == (1, 2)  # the constant's class and (3, 1)
    # the plan is keyed by (p, i, slot width in bits, shape): asking for it is a hit
    plan = steenrod._class_plan(2, 4, 16, (3, 1))
    assert steenrod._class_plan.cache_info()[:2] == (2, 2)
    assert dict(plan) == class_splits_by_brute_force(2, 16, (3, 1))[4]
    for i in range(9):
        assert reduced_power(i, f) == expected.get(i, MultiPoly.zero(2, p)), i
    # the recursion at level 3 runs R^4; at p = 3 its q = 27 splits 283 = 27 * 10 + 13
    g = MultiPoly(2, Prime(3), {(283, 2): 1, (13, 29): 2, (1, 1): 1})
    for level in (1, 2, 3):
        assert_shape_route(level, f)
        assert_shape_route(level, g)


def test_e2_terms_share_one_class_plan_per_gap():
    # t_i t_j of e_2 has shape 1 0..0 1 mod every q: cold R^1, R^2 and R^4 of
    # e_2 for n = 2..20 at p = 2 meet 19 gaps each, where keys by the whole
    # residue vector would miss on all 3 * 1330 terms
    p = Prime(2)
    steenrod._class_plan.cache_clear()
    for n in range(2, 21):
        e2 = elementary_sym(n, 2, p)
        for i in (1, 2, 4):
            out = reduced_power(i, e2)
            if n <= 5:
                assert out == cartan_by_brute_force(e2).get(i, MultiPoly.zero(n, p)), (n, i)
    info = steenrod._class_plan.cache_info()
    assert (info.hits, info.misses) == (3 * 1330 - 3 * 19, 3 * 19)


def test_one_monomial_gives_one_class_plan_wherever_it_sits():
    # r = (4, 0, 5) mod 9, the q of R^4 at p = 3: one shape, one plan, at
    # every slot of every n, with any multiple of 9 added to any exponent
    p, i, q = Prime(3), 4, 9
    r = (4, 0, 5)
    steenrod._class_plan.cache_clear()
    for n in (3, 4, 7):
        for first in range(n - 2):
            for lift in ((0, 0, 0), (1, 0, 2), (3, 1, 0)):
                mono = [0] * n
                mono[first : first + 3] = [e + q * k for e, k in zip(r, lift)]
                if first + 3 < n:
                    mono[-1] = q * sum(lift)  # a slot of residue 0 past the shape
                # R^i(t^e) = t^(e - r) R^i(t^r), r the whole residue vector
                key = sum(e << (8 * k) for k, e in enumerate(mono))
                splits = class_splits_by_brute_force(3, 8, [e % q for e in mono])[i]
                expected = {
                    tuple(((key + off) >> (8 * j)) & 255 for j in range(n)): c
                    for off, c in splits.items()
                }
                assert reduced_power(i, MultiPoly(n, p, {tuple(mono): 1})).terms == expected, mono
    info = steenrod._class_plan.cache_info()
    assert (info.misses, info.currsize) == (1, 1)  # every exponent here stays in one byte


def test_plan_table_stays_within_its_cap(monkeypatch):
    cap = 8
    small = lru_cache(maxsize=cap)(steenrod._class_plan.__wrapped__)
    monkeypatch.setattr(steenrod, "_class_plan", small)
    p = Prime(3)
    rng = random.Random(7)
    for _ in range(30):
        f = some_poly(rng, 3, p, 8, 6)
        expected = cartan_by_brute_force(f)
        for i in (1, 2, 3, 5):
            assert reduced_power(i, f) == expected.get(i, MultiPoly.zero(3, p)), (f, i)
            assert small.cache_info().currsize <= cap
        assert milnor_q_recursive(2, f) == milnor_q_closed(2, f)
        assert small.cache_info().currsize <= cap
    # a call with more new shapes than the cache holds keeps the newest; the
    # ends of every term of `wide` are nonzero mod 3, so its 12 terms have 12
    # shapes, each met once
    small.cache_clear()
    wide = MultiPoly(3, p, {(a, b, c): 1 for a in (1, 2) for b in range(3) for c in (1, 5)})
    shapes = {residue_shape(mono, 3)[1] for mono in wide.terms}
    assert len(shapes) == 12 > cap
    assert reduced_power(1, wide) == cartan_by_brute_force(wide)[1]
    info = small.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (len(shapes), cap, cap)
    assert reduced_power(1, t(3, p)) == t(3, p) ** 3
    assert small.cache_info().currsize == cap


def clear_plans() -> None:
    """Empty both plan tables: the Milnor shapes' and the reduced-power classes'
    they are built from."""
    steenrod._shape_plan.cache_clear()
    steenrod._class_plan.cache_clear()


def test_threads_share_a_cold_plan_table():
    inputs = [
        (level, some_poly(random.Random(seed), 3, p, 6, 5))
        for seed, p in enumerate(PRIMES_235 * 2)
        for level in (1, 2, 3)
    ]
    expected = [milnor_q_closed(level, f) for level, f in inputs]
    clear_plans()
    assert [milnor_q_recursive(level, f) for level, f in inputs] == expected
    lookups = sum(steenrod._shape_plan.cache_info()[:2])  # the same in every run, cold or warm
    results: list = [None] * 4

    def run(k: int) -> None:
        start.wait()
        results[k] = [milnor_q_recursive(level, f) for level, f in inputs]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(10):  # each round races four threads on cold caches
            clear_plans()
            results[:] = [None] * 4
            start = threading.Barrier(4)
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert all(result == expected for result in results)
            # lru_cache counts each call once, as a hit or a miss, so a lost
            # update would show here; a shape two threads build at once is
            # counted as a miss by both
            info = steenrod._shape_plan.cache_info()
            assert info.hits + info.misses == 4 * lookups
            assert info.currsize <= info.maxsize
    finally:
        sys.setswitchinterval(switch)


def test_repeated_call_reads_only_hits():
    p = Prime(3)
    f = some_poly(random.Random(3), 3, p, 9, 6)
    clear_plans()
    milnor_q_recursive(2, f)
    hits, misses, maxsize, currsize = steenrod._shape_plan.cache_info()
    assert misses == currsize > 0 and maxsize == 1 << 13
    milnor_q_recursive(2, f)
    again = steenrod._shape_plan.cache_info()
    assert (again.misses, again.currsize) == (misses, currsize)
    assert again.hits - hits == hits + misses  # the same lookups, every one a hit


def class_splits_by_brute_force(p: int, width: int, r) -> dict[int, dict[int, int]]:
    """The splits of R^i(t^r) with a nonzero product, for every i, by every
    split of the exponents r: {i: {key offset: product of binom(r_k, a_k) mod p}}."""
    by_i: dict[int, dict[int, int]] = {}
    for shares in product(*(range(e + 1) for e in r)):
        coeff = 1
        for e, a in zip(r, shares):
            coeff = coeff * comb(e, a) % p
        if coeff:
            off = sum(a * (p - 1) << (k * width) for k, a in enumerate(shares))
            by_i.setdefault(sum(shares), {})[off] = coeff
    return by_i


def check_class_plans(p: int, width: int, r, top: int) -> None:
    """Check the plan of class r for every i from 1 to top."""
    res = bytes(r) if width == 8 else tuple(r)
    expected = class_splits_by_brute_force(p, width, r)
    for i in range(1, top + 1):
        plan = steenrod._class_plan.__wrapped__(p, i, width, res)
        assert len({off for off, _ in plan}) == len(plan)  # each split once
        assert all(0 < b < p for _, b in plan)
        assert dict(plan) == expected.get(i, {}), (p, i, width, r)


@pytest.mark.parametrize("width", [8, 16])
def test_class_plan_matches_the_brute_force_splits(width):
    # every class r in the box [0, q)^n, for every i < q, with q <= 9: the
    # all-zero class and the single-support classes among them
    for p in (2, 3):
        q = p * p if p == 3 else p**3  # the largest power of p up to 9
        for n in (1, 2, 3):
            for r in product(range(q), repeat=n):
                check_class_plans(p, width, r, q - 1)
    # a seeded sample at p = 5, where q = 25 for i from 5 to 24
    rng = random.Random(5)
    for _ in range(60):
        r = [rng.randrange(25) for _ in range(rng.randint(1, 3))]
        check_class_plans(5, width, r, 24)
    # seeded classes of 4 and 5 slots, every slot in the support, so the
    # pruning runs over three and four slots before the last
    rng = random.Random(45)
    for p, q in ((2, 8), (3, 9)):
        for n in (4, 5):
            for _ in range(6):
                check_class_plans(p, width, [rng.randrange(1, q) for _ in range(n)], q - 1)
    # the shape a packed key reads through the layout, and its plan shifted
    # to the shape's first slot: at slot 0, and past a slot of residue 0
    for mono, first in (((13, 0, 5, 0, 9), 0), ((9, 13, 0, 5, 18), 1)):
        acc = _PackedSum(5, Prime(3), 255 if width == 8 else 256)
        key = next(iter(acc.pack({mono: 1})))
        shift, shape = acc.shapes(9)(key)
        assert (shift, list(shape)) == (first * width, [4, 0, 5])
        plan = steenrod._class_plan(3, 4, width, shape)
        residues = tuple(e % 9 for e in mono)
        assert {off << shift: b for off, b in plan} == class_splits_by_brute_force(
            3, width, residues
        )[4]


# -- Milnor plans by residue shape ---------------------------------------------


@pytest.mark.parametrize("p", [Prime(2), Prime(3), Prime(5), Prime(7)])
def test_shape_route_matches_the_whole_walk(p):
    rng = random.Random(100 + p.value)
    for level in (level for level in (1, 2, 3) if p.value**level <= 27):
        # eight slots of residues up to 26 make R^9's splits many: five at q = 27
        for n in (1, 2, 3, 5, 8) if p.value**level < 27 else (1, 2, 3, 5):
            for _ in range(4):
                assert_shape_route(level, some_poly(rng, n, p, 2 * p.value**level, 6))
    # wide sparse monomials, most slots zero, with a constant term
    for n in (6, 9):
        terms = {(0,) * n: 1}
        while len(terms) < 7:
            mono = [0] * n
            for k in rng.sample(range(n), rng.randint(1, 3)):
                mono[k] = rng.randint(1, 30)
            terms[tuple(mono)] = rng.randrange(1, p.value) if p.value > 2 else 1
        for level in (1, 2):
            assert_shape_route(level, MultiPoly(n, p, terms))


def leibniz_plan(p: int, level: int, width: int, r) -> dict[int, int]:
    """Q_level(t^r) as a derivation, Q(t_k) = t_k^(p^level): each slot k with
    r_k nonzero mod p adds p^level - 1 to it, with coefficient r_k mod p."""
    q = p**level
    return {(q - 1) << (k * width): e % p for k, e in enumerate(r) if e % p}


def check_shape_plan(p: int, level: int, width: int, r) -> None:
    shape = bytes(r) if width == 8 else tuple(r)
    plan = steenrod._shape_plan.__wrapped__(p, level, width, shape)
    assert len({off for off, _ in plan}) == len(plan)  # each offset once
    assert all(0 < b < p for _, b in plan)
    assert dict(plan) == leibniz_plan(p, level, width, r), (p, level, width, r)


@pytest.mark.parametrize("width", [8, 16])
def test_shape_plan_matches_the_leibniz_offsets(width):
    # every shape r in the box [0, p^level)^n, for n <= 3: the empty shape, the
    # all-zero ones and the ones with zero slots at either end among them
    for p, levels in ((2, (1, 2, 3)), (3, (1, 2))):
        for level in levels:
            for n in (0, 1, 2, 3):
                for r in product(range(p**level), repeat=n):
                    check_shape_plan(p, level, width, r)
    # a seeded sample at p = 5, level 2
    rng = random.Random(25)
    for _ in range(80):
        check_shape_plan(5, 2, width, [rng.randrange(25) for _ in range(rng.randint(1, 3))])


def test_one_monomial_gives_shifted_plans_wherever_it_sits():
    # r = (4, 0, 5) mod 9 at p = 3, level 2: one shape, one plan, at every
    # slot of every n, with any multiple of 9 added to any exponent
    p, level, q = Prime(3), 2, 9
    r = (4, 0, 5)
    clear_plans()
    for n in (3, 4, 7):
        for first in range(n - 2):
            for lift in ((0, 0, 0), (1, 0, 2), (3, 1, 0)):
                mono = [0] * n
                mono[first : first + 3] = [e + q * k for e, k in zip(r, lift)]
                if first + 3 < n:
                    mono[-1] = q * sum(lift)  # a slot of residue 0 past the shape
                f = MultiPoly(n, p, {tuple(mono): 1})
                plan = steenrod._shape_plan(3, level, 8, bytes(r))
                key = sum(e << (8 * k) for k, e in enumerate(mono))
                shifted_plan = {key + (off << (8 * first)): c for off, c in plan}
                out = assert_shape_route(level, f)
                assert out.terms == {tuple((k >> (8 * j)) & 255 for j in range(n)): c
                                     for k, c in shifted_plan.items()}, mono
    info = steenrod._shape_plan.cache_info()
    assert (info.misses, info.currsize) == (1, 1)  # every exponent here stays in one byte


def test_e2_terms_share_one_plan_per_gap():
    # t_i t_j of e_2 has shape 1 0..0 1, with j - i - 1 zero slots between: the
    # 1330 terms of e_2 for n = 2..20 have 19 shapes, where keys by the whole
    # residue vector would have 1330
    clear_plans()
    for n in range(2, 21):
        assert check_milnor_on_c2(n, Prime(2), 2)[0]
    info = steenrod._shape_plan.cache_info()
    assert (info.hits, info.misses) == (1311, 19)
