import random
import re
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaugetorsion import (
    ChernPoly,
    FpScalar,
    GradedForm,
    LinearForm,
    MultiPoly,
    Prime,
    UniPoly,
    binom_mod,
    check_milnor_on_c2,
    diagonal_eval,
    elementary_sym,
    is_symmetric,
    milnor_q_closed,
    milnor_q_recursive,
    power_sum,
    reduced_power,
)
from gaugetorsion.polyring import _PackedSum
from tests.conftest import PRIMES_235, random_multipoly


def pack(acc: _PackedSum, f: MultiPoly) -> dict[int, int]:
    """The terms of f under acc's packed keys, as exponents times ``units``:
    independent of ``_PackedSum.pack``, which it checks."""
    assert (f.n, f.p) == (acc.n, acc.p)
    return {sum(map(mul, mono, acc.units)): c for mono, c in f.terms.items()}


def st_poly(n: int, p: Prime, max_exp: int = 3, max_terms: int = 4):
    mono = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * n)
    coeff = st.integers(min_value=1, max_value=p.value - 1)
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda terms: MultiPoly(n, p, terms)
    )


# -- canonical form and basic arithmetic ---------------------------------------


def test_zero_coefficients_are_dropped():
    p = Prime(3)
    f = MultiPoly(2, p, {(1, 0): 3, (0, 1): 4})
    assert f.terms == {(0, 1): 1}


def test_wrong_monomial_length_rejected():
    p = Prime(3)
    with pytest.raises(ValueError):
        MultiPoly(2, p, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        ChernPoly(2, p, {(1,): 1})
    with pytest.raises(ValueError):
        ChernPoly(2, p, {(1, -1): 1})
    with pytest.raises(ValueError):
        UniPoly(p, {-1: 1})
    with pytest.raises(ValueError):
        LinearForm(p, 1, {0: 1})
    with pytest.raises(ValueError):
        LinearForm(p, 1, {1: 1})  # the unknowns are g2..gn


# Integer arguments of the public API that were once taken as they came: a
# float gave an inexact result, and a string failed on the arithmetic.
P3 = Prime(3)
T1 = MultiPoly.variable(1, P3, 1)
NON_INTEGERS = {
    "MultiPoly n": (lambda: MultiPoly(1.5, P3), "n", 1.5),
    "MultiPoly exponent": (lambda: MultiPoly(1, P3, {(2.0,): 1}), "exponent", 2.0),
    "MultiPoly coefficient": (lambda: MultiPoly(1, P3, {(1,): 1.5}), "coefficient", 1.5),
    "ChernPoly n": (lambda: ChernPoly("2", P3), "n", "2"),
    "ChernPoly coefficient": (lambda: ChernPoly(2, P3, {(1, 0): "2"}), "coefficient", "2"),
    "UniPoly exponent": (lambda: UniPoly(P3, {2.0: 1}), "exponent", 2.0),
    "UniPoly coefficient": (lambda: UniPoly(P3, {2: 0.5}), "coefficient", 0.5),
    "LinearForm constant": (lambda: LinearForm(P3, 1.5), "constant", 1.5),
    "LinearForm index": (lambda: LinearForm(P3, 0, {2.0: 1}), "unknown index", 2.0),
    "LinearForm coefficient": (lambda: LinearForm(P3, 0, {2: "1"}), "coefficient", "1"),
    "GradedForm exponent": (
        lambda: GradedForm(P3, {1.0: LinearForm.constant(P3, 1)}),
        "u-exponent",
        1.0,
    ),
    "FpScalar residue": (lambda: FpScalar(1.5, P3), "residue", 1.5),
    "power_sum i": (lambda: power_sum(2, 1.5, P3), "i", 1.5),
    "milnor_q_closed level": (lambda: milnor_q_closed(1.5, T1), "level", 1.5),
    "milnor_q_recursive level": (lambda: milnor_q_recursive(2.0, T1), "level", 2.0),
    "check_milnor_on_c2 level": (lambda: check_milnor_on_c2(2, P3, 1.5), "level", 1.5),
    "reduced_power i": (lambda: reduced_power(2.0, T1), "i", 2.0),
}


@pytest.mark.parametrize("case", NON_INTEGERS)
def test_public_api_refuses_non_integers(case):
    call, name, bad = NON_INTEGERS[case]
    with pytest.raises(TypeError, match=f"^{re.escape(f'{name} is not an integer: {bad!r}')}$"):
        call()


def test_ring_mismatch_rejected():
    f = MultiPoly.one(2, Prime(3))
    g = MultiPoly.one(2, Prime(5))
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * MultiPoly.one(3, Prime(3))


# The unit of each ring on the shared sparse core. Their tables coincide in
# pairs ({(0, 0): 1} and {0: 1}), so only the exact type keeps the rings apart.
RING_UNITS = {
    "MultiPoly": lambda p: MultiPoly.one(2, p),
    "ChernPoly": lambda p: ChernPoly.one(2, p),
    "UniPoly": UniPoly.one,
    "LinearForm": lambda p: LinearForm.constant(p, 1),
    "GradedForm": lambda p: GradedForm(p, {0: LinearForm.constant(p, 1)}),
}


@pytest.mark.parametrize(
    "left, right", [(a, b) for a in RING_UNITS for b in RING_UNITS if a != b]
)
def test_distinct_rings_never_mix(left, right):
    p = Prime(3)
    a, b = RING_UNITS[left](p), RING_UNITS[right](p)
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a * b
    assert a != b and not a == b


def test_additive_examples():
    p = Prime(5)
    f = random_multipoly(random.Random(7), 3, p)
    assert f + MultiPoly.zero(3, p) == f
    assert (f + f.scale(p.value - 1)).is_zero()
    t1 = MultiPoly.variable(2, p, 1)
    t2 = MultiPoly.variable(2, p, 2)
    assert (t1 + t2).terms == {(1, 0): 1, (0, 1): 1}


def test_multiplicative_examples():
    p2 = Prime(2)
    t1 = MultiPoly.variable(2, p2, 1)
    t2 = MultiPoly.variable(2, p2, 2)
    # freshman's dream in characteristic 2
    assert (t1 + t2) ** 2 == t1**2 + t2**2
    assert (t1 * t2).terms == {(1, 1): 1}
    f = random_multipoly(random.Random(11), 2, p2)
    assert f * MultiPoly.one(2, p2) == f


@pytest.mark.parametrize("p", PRIMES_235)
def test_ring_axioms_bulk(p):
    rng, scales = random.Random(p.value), random.Random(-p.value)
    for _ in range(350):
        n = rng.randint(1, 4)
        f = random_multipoly(rng, n, p)
        g = random_multipoly(rng, n, p)
        h = random_multipoly(rng, n, p)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        c = scales.randint(-p.value, p.value)
        acc = _PackedSum(n, p, max(f.total_degree() + g.total_degree(), h.total_degree(), 0))
        acc.mac(pack(acc, h), pack(acc, MultiPoly.one(n, p)))
        acc.mac(pack(acc, f), pack(acc, g), c)
        assert acc.result() == h + (f * g).scale(c)


@given(data=st.data())
def test_ring_axioms_hypothesis(data):
    p = data.draw(st.sampled_from(PRIMES_235))
    n = data.draw(st.integers(min_value=1, max_value=3))
    f = data.draw(st_poly(n, p))
    g = data.draw(st_poly(n, p))
    h = data.draw(st_poly(n, p))
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


# -- packed sums -------------------------------------------------------------------

# (exponent bound, slot width): each side of every change of slot width.
SLOT_EDGES = [
    (255, 8),
    (256, 16),
    (65535, 16),
    (65536, 24),
    (2**32 - 1, 32),
    (2**32, 40),
    (2**64 - 1, 64),
    (2**64, 72),
    (2**70, 72),
    (2**72 - 1, 72),
    (2**72, 80),
]


@pytest.mark.parametrize("bound, width", SLOT_EDGES)
def test_packed_sum_slots_hold_exponents_up_to_the_bound(bound, width):
    p = Prime(5)
    f = MultiPoly(3, p, {(bound - 1, 0, 0): 1, (0, 1, 2): 2, (0, 0, 0): 3})
    g = MultiPoly(3, p, {(1, 0, 0): 4, (0, bound - 1, 1): 1, (0, 0, bound - 2): 2})
    h = MultiPoly(3, p, {(bound, bound, bound): 1, (1, 0, 0): 1})
    acc = _PackedSum(3, p, bound)
    assert acc.width == width
    for poly in (f, g, h):
        assert acc.pack(poly.terms) == pack(acc, poly)
    acc.mac(pack(acc, f), pack(acc, g), 3)
    acc.mac(pack(acc, h), pack(acc, MultiPoly.one(3, p)), -1)
    assert acc.result() == (f * g).scale(3) - h


@pytest.mark.parametrize("bound", [256, 65536, 2**32, 2**64])
def test_packed_sum_one_below_the_bound_carries(bound):
    # the slots are no wider than stated: t1^(bound-1) * t1 in slots sized for
    # bound - 1 carries into t2's slot
    p = Prime(5)
    t1 = MultiPoly.variable(2, p, 1)
    narrow = _PackedSum(2, p, bound - 1)
    narrow.mac(pack(narrow, MultiPoly(2, p, {(bound - 1, 0): 1})), pack(narrow, t1))
    assert narrow.result() == MultiPoly.variable(2, p, 2)


@pytest.mark.parametrize("bound", [9, 300, 2**70])
def test_packed_generators_match_packed_polynomials(bound):
    p = Prime(3)
    rng = random.Random(bound)
    for n in range(1, 7):
        acc = _PackedSum(n, p, bound)
        for j in range(n + 1):
            assert acc.elementary(j) == pack(acc, elementary_sym(n, j, p))
        assert acc.power_sum(bound) == pack(acc, power_sum(n, bound, p))
        f = random_multipoly(rng, n, p, max_exp=9, max_terms=6)
        acc.terms = pack(acc, f)  # a round trip through the packed keys
        assert acc.result() == f


def test_packed_sum_reduces_once_and_unpacks_only_survivors():
    p = Prime(3)
    t1, t2 = MultiPoly.variable(2, p, 1), MultiPoly.variable(2, p, 2)
    acc = _PackedSum(2, p, 4)
    for _ in range(3):  # three equal products cancel mod 3
        acc.mac(pack(acc, t1 + t2), pack(acc, t1 * t2))
    assert len(acc.terms) == 2 and set(acc.terms.values()) == {3}
    assert acc.result().is_zero()
    acc.mac(pack(acc, t1**2), pack(acc, t2**2), -1)
    assert acc.result() == (t1**2 * t2**2).scale(-1)


# -- symmetric generators -------------------------------------------------------


def test_elementary_sym_examples():
    p = Prime(7)
    e2 = elementary_sym(3, 2, p)
    assert e2.terms == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert elementary_sym(2, 0, p) == MultiPoly.one(2, p)
    assert elementary_sym(2, 3, p).is_zero()


def test_power_sum_examples():
    p = Prime(7)
    assert power_sum(2, 3, p).terms == {(3, 0): 1, (0, 3): 1}
    assert power_sum(3, 1, p).terms == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert power_sum(2, 2, Prime(2)).terms == {(2, 0): 1, (0, 2): 1}


def test_power_sum_index_zero_rejected():
    with pytest.raises(ValueError):
        power_sum(3, 0, Prime(5))


@pytest.mark.parametrize("n", [0, -1])
def test_power_sum_needs_a_generator(n):
    with pytest.raises(ValueError):
        power_sum(n, 1, Prime(5))


def test_symmetry_of_generators():
    for p in PRIMES_235:
        for n in range(2, 6):
            for i in range(1, n + 1):
                assert is_symmetric(elementary_sym(n, i, p))
                assert is_symmetric(power_sum(n, i, p))


def test_is_symmetric_counterexample():
    p = Prime(5)
    f = MultiPoly(2, p, {(1, 0): 1, (0, 1): 2})  # t1 + 2 t2
    assert not is_symmetric(f)
    assert is_symmetric(MultiPoly.zero(3, p))


# -- diagonal evaluation --------------------------------------------------------


def test_diagonal_examples():
    assert diagonal_eval(elementary_sym(4, 2, Prime(2))).is_zero()  # C(4,2) = 6
    assert diagonal_eval(power_sum(3, 5, Prime(3))).is_zero()  # 3 u^5
    p = Prime(5)
    f = MultiPoly(2, p, {(1, 2): 1})  # t1 t2^2
    assert diagonal_eval(f) == UniPoly.monomial(p, 3)


@given(data=st.data())
def test_diagonal_is_ring_homomorphism(data):
    p = data.draw(st.sampled_from(PRIMES_235))
    n = data.draw(st.integers(min_value=1, max_value=3))
    f = data.draw(st_poly(n, p))
    g = data.draw(st_poly(n, p))
    assert diagonal_eval(f * g) == diagonal_eval(f) * diagonal_eval(g)
    assert diagonal_eval(f + g) == diagonal_eval(f) + diagonal_eval(g)


def test_diagonal_closed_forms():
    for p in PRIMES_235:
        for n in range(2, 9):
            for i in range(1, 13):
                expected_e = UniPoly(p, {i: binom_mod(n, i, p).residue})
                assert diagonal_eval(elementary_sym(n, i, p)) == expected_e
                expected_s = UniPoly(p, {i: n % p.value})
                assert diagonal_eval(power_sum(n, i, p)) == expected_s


# -- rendering -------------------------------------------------------------------


def test_render_graded_lex():
    p = Prime(5)
    f = MultiPoly(2, p, {(2, 1): 1, (1, 2): 1, (0, 0): 3})
    assert f.render() == "3 + t1^2*t2 + t1*t2^2"
    assert MultiPoly.zero(2, p).render() == "0"
    assert str(UniPoly(p, {2: 3, 0: 1})) == "1 + 3*u^2"


def test_render_is_deterministic():
    p = Prime(3)
    rng = random.Random(0)
    f = random_multipoly(rng, 3, p, max_terms=8)
    g = MultiPoly(3, p, dict(reversed(list(f.terms.items()))))
    assert f.render() == g.render()
