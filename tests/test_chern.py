import sys
import threading
from itertools import permutations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaugetorsion import (
    ChernPoly,
    MultiPoly,
    Prime,
    UniPoly,
    binom_mod,
    diagonal_eval,
    elementary_sym,
    iota_star,
    lift_power_sum,
    phi_power_sum,
    phi_star,
    power_sum,
    verify_newton,
)
from gaugetorsion import chern, polyring
from tests.conftest import PRIMES_235


def st_chern(n: int, p: Prime, max_exp: int = 2, max_terms: int = 3):
    mono = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * n)
    coeff = st.integers(min_value=1, max_value=p.value - 1)
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda terms: ChernPoly(n, p, terms)
    )


def c(n: int, p: Prime, j: int) -> ChernPoly:
    return ChernPoly.generator(n, p, j)


# -- the injection into the torus ring ----------------------------------------


def test_iota_on_generators():
    p = Prime(5)
    for n in range(2, 5):
        for j in range(1, n + 1):
            assert iota_star(c(n, p, j)) == elementary_sym(n, j, p)


def test_iota_is_multiplicative_on_example():
    p = Prime(5)
    n = 3
    lhs = iota_star(c(n, p, 1) * c(n, p, 1))
    rhs = elementary_sym(n, 1, p) * elementary_sym(n, 1, p)
    assert lhs == rhs
    assert iota_star(ChernPoly.one(n, p)) == elementary_sym(n, 0, p)


@given(data=st.data())
def test_iota_is_ring_homomorphism(data):
    p = data.draw(st.sampled_from(PRIMES_235))
    n = data.draw(st.integers(min_value=2, max_value=3))
    f = data.draw(st_chern(n, p))
    g = data.draw(st_chern(n, p))
    assert iota_star(f * g) == iota_star(f) * iota_star(g)
    assert iota_star(f + g) == iota_star(f) + iota_star(g)


def test_iota_injectivity_spot_check():
    """Distinct low-degree monomials map to distinct symmetric polynomials."""
    p = Prime(3)
    n = 4
    monomials = []

    def rec(j, remaining, prefix):
        if j > n:
            monomials.append(tuple(prefix))
            return
        for e in range(remaining // j + 1):
            rec(j + 1, remaining - j * e, prefix + [e])

    rec(1, 8, [])
    images = {}
    for mono in monomials:
        text = iota_star(ChernPoly(n, p, {mono: 1})).render()
        assert text not in images, f"{mono} collides with {images[text]}"
        images[text] = mono


# -- restriction to the circle --------------------------------------------------


def test_phi_examples():
    p2 = Prime(2)
    assert phi_star(c(4, p2, 1)).is_zero()
    assert phi_star(c(3, p2, 1)) == UniPoly.monomial(p2, 1)
    assert phi_star(c(4, p2, 2)).is_zero()


def test_phi_on_generators_closed_form():
    for p in PRIMES_235:
        for n in range(2, 9):
            for j in range(1, n + 1):
                expected = UniPoly(p, {j: binom_mod(n, j, p).residue})
                assert phi_star(c(n, p, j)) == expected


@given(data=st.data())
def test_phi_matches_diagonal_composite(data):
    """Independent route: restriction equals injection followed by diagonal."""
    p = data.draw(st.sampled_from(PRIMES_235))
    n = data.draw(st.integers(min_value=2, max_value=3))
    f = data.draw(st_chern(n, p))
    assert phi_star(f) == diagonal_eval(iota_star(f))


@given(data=st.data())
def test_phi_is_ring_homomorphism(data):
    p = data.draw(st.sampled_from(PRIMES_235))
    n = data.draw(st.integers(min_value=2, max_value=3))
    f = data.draw(st_chern(n, p))
    g = data.draw(st_chern(n, p))
    assert phi_star(f * g) == phi_star(f) * phi_star(g)


# -- power-sum lifting ------------------------------------------------------------


def test_lift_examples():
    p = Prime(7)
    n = 4
    assert lift_power_sum(1, n, p) == c(n, p, 1)
    # s2 = c1^2 - 2 c2, s3 = c1^3 - 3 c1 c2 + 3 c3, frozen from the identities
    assert lift_power_sum(2, n, p) == c(n, p, 1) * c(n, p, 1) - c(n, p, 2).scale(2)
    s3 = (
        c(n, p, 1) * c(n, p, 1) * c(n, p, 1)
        - (c(n, p, 1) * c(n, p, 2)).scale(3)
        + c(n, p, 3).scale(3)
    )
    assert lift_power_sum(3, n, p) == s3


def test_lift_index_zero_rejected():
    with pytest.raises(ValueError):
        lift_power_sum(0, 3, Prime(5))


@pytest.mark.parametrize("p", PRIMES_235)
def test_lift_round_trips_through_iota(p):
    for n in range(2, 7):
        for m in range(1, n + 9):
            assert iota_star(lift_power_sum(m, n, p)) == power_sum(n, m, p)


@pytest.mark.parametrize("p", PRIMES_235)
def test_restricted_power_sum_routes_agree(p):
    for n in range(2, 7):
        for m in range(1, n + 9):
            fused = phi_power_sum(m, n, p)
            assert fused == phi_star(lift_power_sum(m, n, p))
            assert fused == UniPoly(p, {m: n % p.value})


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_newton_taps_match_exact_binomials(q):
    for n in range(1, 61):
        expected = tuple(
            (j, (-1) ** (j + 1) * comb(n, j) % q)
            for j in range(1, n + 1)
            if comb(n, j) % q
        )
        assert chern._newton_taps(n, q) == expected, n


@pytest.mark.parametrize("n", [0, -2])
def test_restricted_power_sum_needs_a_generator(n):
    p = Prime(3)
    with pytest.raises(ValueError) as lifted:
        lift_power_sum(4, n, p)
    with pytest.raises(ValueError) as restricted:
        phi_power_sum(4, n, p)
    assert str(restricted.value) == str(lifted.value) == f"need at least one generator, got n={n}"


def fill_cold(fill, threads):
    """Run fill() in each of `threads` threads on a cleared lift cache and
    memo of packed powers, and return the results."""
    chern._lift.cache_clear()
    polyring._packed_elementary_power.cache_clear()
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def work(i):
        barrier.wait(timeout=60)
        results[i] = fill()

    workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    return results


def test_lift_cache_fills_safely_from_threads():
    def fill():
        return lift_power_sum(14, 4, Prime(5))

    single = fill_cold(fill, threads=1)
    for _ in range(5):
        assert fill_cold(fill, threads=4) == single * 4


def test_cold_lift_past_the_recursion_limit():
    m, p = 3 * sys.getrecursionlimit(), Prime(3)
    chern._lift.cache_clear()
    lift = lift_power_sum(m, 2, p)
    assert chern._lift.cache_info().misses == m
    assert phi_star(lift) == phi_power_sum(m, 2, p)


# -- the power-sum relation --------------------------------------------------------


def test_newton_residual_smallest_case():
    ok, residual = verify_newton(2, 0, Prime(5))
    assert ok and residual.is_zero()


def test_newton_direct_expansion_oracle():
    # s3 - c1 s2 + c2 s1 expanded by hand in two variables
    p = Prime(5)
    s1, s2, s3 = (power_sum(2, m, p) for m in (1, 2, 3))
    e1, e2 = elementary_sym(2, 1, p), elementary_sym(2, 2, p)
    assert (s3 - e1 * s2 + e2 * s1).is_zero()


@pytest.mark.parametrize("p", PRIMES_235)
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("i", [0, 1, 3, 6])
def test_newton_residual_sweep(n, i, p):
    ok, residual = verify_newton(n, i, p)
    assert ok, f"nonzero residual at n={n} i={i} p={p}: {residual.render()}"


def iota_term_by_term(poly: ChernPoly) -> MultiPoly:
    """iota_star by public arithmetic alone: one product and one sum per term."""
    n, p = poly.n, poly.p
    out = MultiPoly.zero(n, p)
    for mono, coeff in poly.terms.items():
        term = MultiPoly.constant(n, p, coeff)
        for j, e in enumerate(mono, start=1):
            term = term * elementary_sym(n, j, p) ** e
        out = out + term
    return out


@pytest.mark.parametrize("p", PRIMES_235)
def test_fused_sums_match_public_arithmetic(p):
    for n in range(2, 7):
        for i in range(7):
            m = n + i + 1
            expected = power_sum(n, m, p)
            for j in range(1, n + 1):
                expected = expected + (elementary_sym(n, j, p) * power_sum(n, m - j, p)).scale(
                    (-1) ** j
                )
            assert verify_newton(n, i, p) == (expected.is_zero(), expected)
        for m in range(1, n + 4):
            lift = lift_power_sum(m, n, p)
            assert iota_star(lift) == iota_term_by_term(lift)
    f = ChernPoly(3, p, {(2, 0, 1): 1, (0, 1, 0): p.value - 1, (0, 0, 0): 1})
    assert iota_star(f) == iota_term_by_term(f)


@pytest.mark.parametrize("p", PRIMES_235)
@pytest.mark.parametrize("a", [255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**64 - 1, 2**64])
def test_iota_star_at_each_slot_width_edge(a, p):
    # the degree bound a lands on each side of every slot width change
    assert iota_star(ChernPoly(1, p, {(a,): 1})) == MultiPoly(1, p, {(a,): 1})
    assert iota_star(ChernPoly(2, p, {(0, a): 2})) == MultiPoly(2, p, {(a, a): 2})
    f = ChernPoly(2, p, {(1, a - 1): 1, (0, 1): 1})  # e1 e2^(a-1) + e2
    expected = {(a, a - 1): 1, (a - 1, a): 1, (1, 1): 1}
    assert iota_star(f) == MultiPoly(2, p, expected)


@pytest.mark.parametrize("p", PRIMES_235)
def test_iota_star_past_64_bit_slots(p):
    assert iota_star(ChernPoly(1, p, {(2**70,): 1})) == MultiPoly(1, p, {(2**70,): 1})
    f = ChernPoly(3, p, {(1, 0, 2**70): 1, (0, 0, 0): 1})  # e1 e3^(2^70) + 1
    big = 2**70
    expected = {(big + 1, big, big): 1, (big, big + 1, big): 1, (big, big, big + 1): 1}
    assert iota_star(f) == MultiPoly(3, p, {**expected, (0, 0, 0): 1})


# -- the memo of packed powers of e_j ---------------------------------------------


def lift_set(n_max, m_max, p):
    return [lift_power_sum(m, n, p) for n in range(1, n_max + 1) for m in range(1, m_max + 1)]


def test_power_memo_is_bounded_and_read_only():
    assert isinstance(polyring._packed_elementary_power.cache_info().maxsize, int)
    for e in (1, 2, 3):
        entry = polyring._packed_elementary_power(3, 1, 8, Prime(3), e)
        with pytest.raises(TypeError):
            entry[0] = 1
        with pytest.raises(TypeError):
            del entry[next(iter(entry))]


@pytest.mark.parametrize("order", list(permutations(PRIMES_235)))
def test_power_memo_keeps_primes_apart(order):
    # e1^2 = sum ti^2 + 2 sum ti tj, whose cross terms vanish at p = 2 only,
    # so a power shared across primes would show at the prime checked last
    polyring._packed_elementary_power.cache_clear()
    for p in order:
        for lift in lift_set(4, 5, p):
            assert iota_star(lift) == iota_term_by_term(lift)


def test_power_memo_fills_safely_from_threads():
    def fill():
        return [iota_star(lift) for lift in lift_set(5, 5, Prime(3))]

    single = fill_cold(fill, threads=1)
    for _ in range(3):
        assert fill_cold(fill, threads=4) == single * 4


def test_power_memo_serves_a_repeat_pass():
    polyring._packed_elementary_power.cache_clear()
    lifts = [lift for p in PRIMES_235 for lift in lift_set(5, 5, p)]
    cold = [iota_star(lift) for lift in lifts]
    first = polyring._packed_elementary_power.cache_info()
    assert [iota_star(lift) for lift in lifts] == cold
    second = polyring._packed_elementary_power.cache_info()
    assert second.misses == first.misses and second.hits > first.hits


def test_newton_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_newton(1, 0, Prime(2))
    with pytest.raises(ValueError):
        verify_newton(3, -1, Prime(2))


# -- grading and partials -----------------------------------------------------------


def test_weighted_degree_and_partial():
    p = Prime(5)
    n = 3
    f = c(n, p, 1) * c(n, p, 3) + c(n, p, 2).scale(4)
    assert f.weighted_degree() == 4
    assert f.partial(1) == c(n, p, 3)
    assert f.partial(2) == ChernPoly.constant(n, p, 4)
    assert f.partial(3) == c(n, p, 1)
    sq = c(n, p, 2) * c(n, p, 2)
    assert sq.partial(2) == c(n, p, 2).scale(2)


def test_render_weighted_graded_lex():
    p = Prime(7)
    f = c(3, p, 2) + c(3, p, 1) * c(3, p, 1)
    assert f.render() == "c1^2 + c2"
