import json
import random
import sys
import threading
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaugetorsion import (
    FpMatrix,
    IntMatrix,
    OrderBoundExceeded,
    Prime,
    binom_int,
    companion_matrix,
    jordan_transpose,
    order_brute,
    order_mod_p,
    p_power_ceil,
    pascal_matrix,
    unitriangular_inverse,
    verify_conjugation,
    verify_p_power_order,
)
from gaugetorsion.matrices import _companion_row, _layout

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


# -- oracle -------------------------------------------------------------------


def cofactor_det(rows) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


# -- builders -----------------------------------------------------------------


def test_companion_matrix_examples():
    assert companion_matrix(2).rows == ((2, -1), (1, 0))
    assert companion_matrix(3).rows == ((3, -3, 1), (1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize("ns", [range(1, 301), (1018, 1024, 4096)], ids=["to300", "large"])
def test_companion_row_running_product_matches_binomials(ns):
    for n in ns:
        expected = tuple((-1) ** (j + 1) * binom_int(n, j) for j in range(1, n + 1))
        assert _companion_row(n) == expected, n


def test_pascal_matrix_examples():
    assert pascal_matrix(2).rows == ((1, 1), (0, 1))
    assert pascal_matrix(3).rows == ((1, 2, 1), (0, 1, 1), (0, 0, 1))


def test_jordan_transpose_example():
    assert jordan_transpose(2).rows == ((1, 0), (1, 1))
    assert jordan_transpose(4).rows == (
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 1, 1),
    )


def test_builders_reject_small_dimension():
    for builder in (companion_matrix, pascal_matrix, jordan_transpose):
        with pytest.raises(ValueError):
            builder(1)


def test_determinants_are_one():
    for n in range(2, 21):
        assert companion_matrix(n).det() == 1
        assert pascal_matrix(n).det() == 1


def test_determinant_matches_cofactor_oracle():
    for n in range(2, 8):
        b = companion_matrix(n)
        assert b.det() == cofactor_det([list(r) for r in b.rows])
        a = pascal_matrix(n)
        assert a.det() == cofactor_det([list(r) for r in a.rows])


def test_determinant_edge_cases():
    assert IntMatrix([[0, 1], [1, 0]]).det() == -1  # needs the row swap
    assert IntMatrix([[0, 1], [0, 5]]).det() == 0
    assert IntMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == cofactor_det(
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    )


# -- products, reduction, inverse ------------------------------------------------


def triple_loop_product(a_rows, b_rows, q):
    n = len(a_rows)
    return tuple(
        tuple(sum(a_rows[i][k] * b_rows[k][j] for k in range(n)) % q for j in range(n))
        for i in range(n)
    )


# p = 2147483647 needs slots wider than 64 bits.
@pytest.mark.parametrize("p", [2, 3, 5, 7, 65537, 2147483647])
@pytest.mark.parametrize("n", [2, 3, 17, 64, 130])
def test_packed_product_matches_triple_loop(n, p):
    rng = random.Random(n * 7919 + p)
    prime = Prime(p)
    a = FpMatrix(prime, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    b = FpMatrix(prime, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    assert (a * b).rows == triple_loop_product(a.rows, b.rows, p)
    # every slot at its largest sum, n (p-1)^2
    full = FpMatrix(prime, [[p - 1] * n for _ in range(n)])
    assert (full * full).rows == triple_loop_product(full.rows, full.rows, p)


def power_by_triple_loop(rows, e, q):
    """m^e by right-to-left squaring over the triple-loop product."""
    n = len(rows)
    out = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    while e:
        if e & 1:
            out = triple_loop_product(out, rows, q)
        rows = triple_loop_product(rows, rows, q)
        e >>= 1
    return out


def slot_code(n, q):
    """Typecode of the word layout for n x n products mod q; None when wide."""
    layout = _layout(n, q)
    return layout[0] if layout else None


LAYOUT_PRIMES = (2, 3, 5, 7, 11, 251, 257, 2039, 8191, 65521, 65537, 1000003)
# one prime just below 2^64 and one just above
HUGE_PRIMES = (18446744073709551557, 18446744073709551629)
# (n, p) on both sides of every change of slot width for n <= 40, the wide
# layout included, found by the layout rule itself
LAYOUT_EDGES = sorted(
    {
        (m, q)
        for q in LAYOUT_PRIMES
        for n in range(3, 41)
        if slot_code(n - 1, q) != slot_code(n, q)
        for m in (n - 1, n)
    }
)


def test_layout_edges_cross_into_the_wide_layout():
    assert slot_code(32, 8191) == "Q" and slot_code(33, 8191) is None
    assert {(32, 8191), (33, 8191)} <= set(LAYOUT_EDGES)
    assert {slot_code(n, q) for n, q in LAYOUT_EDGES} == {"B", "H", "I", "Q", None}
    assert all(slot_code(n, q) is None for n in (2, 40) for q in HUGE_PRIMES)


@pytest.mark.parametrize("q", [2, 3, 7, 13, 251])
@pytest.mark.parametrize("n", [2, 3, 6, 17])
def test_word_layout_reduces_every_slot_value(n, q):
    """acc - q ((acc magic >> s) & low) is x mod q in every slot, for each
    slot value x <= n (q-1)^2 a product can reach, n values at a time."""
    code, size, s, magic, low = _layout(n, q)
    width, top = 8 * size // n, n * (q - 1) ** 2
    for start in range(0, top + 1, n):
        xs = [min(x, top) for x in range(start, start + n)]
        acc = sum(x << k for x, k in zip(xs, range(0, n * width, width)))
        reduced = acc - q * ((acc * magic >> s) & low)
        assert reduced.to_bytes(size, sys.byteorder) == array(code, [x % q for x in xs]).tobytes()


@given(
    case=st.one_of(
        st.sampled_from(LAYOUT_EDGES),
        st.tuples(st.integers(2, 40), st.sampled_from(LAYOUT_PRIMES + HUGE_PRIMES)),
    ),
    seed=st.integers(0, 2**32),
    full=st.booleans(),
    e=st.integers(0, 40),
)
def test_products_and_powers_match_triple_loop_on_both_layouts(case, seed, full, e):
    n, q = case
    rng = random.Random(seed)
    prime = Prime(q)
    a_rows = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
    # all entries p - 1 put every slot of a product at its largest sum
    b_rows = tuple(tuple(q - 1 if full else rng.randrange(q) for _ in range(n)) for _ in range(n))
    a, b = FpMatrix(prime, a_rows), FpMatrix(prime, b_rows)
    ab = triple_loop_product(a_rows, b_rows, q)
    assert (a * b).rows == ab
    assert ((a * b) * b).rows == triple_loop_product(ab, b_rows, q)
    assert (a * (a * b)).rows == triple_loop_product(a_rows, ab, q)
    assert (a**e).rows == power_by_triple_loop(a_rows, e, q)
    assert (b**e).rows == power_by_triple_loop(b_rows, e, q)
    assert a.rows == a_rows and b.rows == b_rows


def test_packed_rows_fill_safely_from_threads():
    """Threads racing to pack one fresh right factor all get the same products."""
    n, q, threads = 24, 251, 4
    rng = random.Random(q)
    a_rows, b_rows = (
        tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)) for _ in range(2)
    )
    expected = (triple_loop_product(a_rows, b_rows, q), power_by_triple_loop(b_rows, 5, q))
    a = FpMatrix(Prime(q), a_rows)
    for _ in range(5):
        b = FpMatrix(Prime(q), b_rows)  # its packed rows are not filled yet
        barrier = threading.Barrier(threads)
        results = [None] * threads

        def work(i):
            barrier.wait(timeout=60)
            results[i] = ((a * b).rows, (b**5).rows)

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
        assert results == [expected] * threads


def test_power_zero_and_one():
    m = companion_matrix(5).reduce(P3)
    assert m**0 == FpMatrix.identity(5, P3)
    assert m**1 == m


def repeated_product(m, e):
    acc = m
    for _ in range(e - 1):
        acc = acc * m
    return acc


@pytest.mark.parametrize("q, products", [(2, 1), (3, 2), (5, 3)])
def test_power_skips_identity_product(monkeypatch, q, products):
    m = companion_matrix(6).reduce(Prime(7))
    expected = repeated_product(m, q)
    calls = []
    original = FpMatrix.__mul__

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(FpMatrix, "__mul__", counted)
    assert m**q == expected
    assert len(calls) == products


def test_product_example():
    b, a = companion_matrix(2), pascal_matrix(2)
    assert (b * a).rows == ((2, 1), (1, 1))


def test_reduce_example():
    assert companion_matrix(2).reduce(P2).rows == ((0, 1), (1, 0))


@pytest.mark.parametrize("p", [2, 5, 65537])
@pytest.mark.parametrize("n", [2, 3, 9, 24])
def test_reduce_matches_validating_constructor(n, p):
    """Negative and large integer entries reduce to the constructor's residues."""
    prime = Prime(p)
    b, a, d = companion_matrix(n), pascal_matrix(n), jordan_transpose(n)
    for m in (b, a, d, b * a, a * d, b * b * b, unitriangular_inverse(a) * b * a):
        assert m.reduce(prime) == FpMatrix(prime, m.rows)


def test_unitriangular_inverse_round_trip():
    for n in (2, 3, 7, 12):
        a = pascal_matrix(n)
        inv = unitriangular_inverse(a)
        assert a * inv == IntMatrix.identity(n)
        assert inv * a == IntMatrix.identity(n)
        d = jordan_transpose(n)
        assert d * unitriangular_inverse(d) == IntMatrix.identity(n)


def test_unitriangular_inverse_rejects_general_matrix():
    with pytest.raises(ValueError):
        unitriangular_inverse(companion_matrix(3))


# -- conjugation -----------------------------------------------------------------


def test_conjugation_smallest_case():
    ok, witness = verify_conjugation(2)
    assert ok
    assert witness["BA"].rows == ((2, 1), (1, 1))
    assert witness["AD"].rows == ((2, 1), (1, 1))


def test_product_entries_closed_form():
    for n in (2, 3, 5, 9):
        ba = companion_matrix(n) * pascal_matrix(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert ba.entry(i, j) == binom_int(n - i + 1, n - j)


def test_conjugation_sweep():
    for n in range(2, 41):
        ok, _ = verify_conjugation(n)
        assert ok, f"conjugation failed at n={n}"


def test_products_agree_to_sixty():
    for n in range(2, 61):
        b, a, d = companion_matrix(n), pascal_matrix(n), jordan_transpose(n)
        assert b * a == a * d, f"products disagree at n={n}"


# -- orders ------------------------------------------------------------------------


def test_order_of_identity():
    assert order_mod_p(FpMatrix.identity(3, P2), bound=8) == 1


def test_order_examples():
    assert order_mod_p(jordan_transpose(2).reduce(P2), bound=8) == 2
    assert order_mod_p(companion_matrix(4).reduce(P2), bound=8) == 4
    assert order_brute(companion_matrix(4).reduce(P2), bound=8) == 4


def test_order_fast_path_matches_brute_force():
    for p in (P2, P3, P5):
        for n in range(2, 13):
            m = companion_matrix(n).reduce(p)
            bound = p_power_ceil(n, p) * p.value
            assert order_mod_p(m, bound) == order_brute(m, bound)
            d = jordan_transpose(n).reduce(p)
            assert order_mod_p(d, bound) == order_brute(d, bound)


def test_order_rejects_singular():
    singular = FpMatrix(P2, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        order_mod_p(singular, bound=4)


def test_order_rejects_singular_past_large_bound():
    # the tower never reaches I, so det only decides which error to raise
    for m in (FpMatrix(P2, [[1, 1], [1, 1]]), FpMatrix(P5, [[1, 0], [0, 0]])):
        with pytest.raises(ValueError):
            order_mod_p(m, bound=m.p.value**40)


def test_order_reports_non_p_power():
    # the swap matrix has order 2, which is not a power of 3
    swap = FpMatrix(P3, [[0, 1], [1, 0]])
    with pytest.raises(OrderBoundExceeded):
        order_mod_p(swap, bound=81)
    assert order_brute(swap, bound=81) == 2


def test_p_power_order_sweep():
    for p in (P2, P3, P5, Prime(7), Prime(11)):
        for n in range(2, 26):
            ok, order = verify_p_power_order(n, p)
            assert ok, f"order {order} unexpected at n={n} p={p}"
            assert order == p_power_ceil(n, p)


def test_conjugate_matrices_share_order():
    for p in (P2, P3, P5, Prime(7), Prime(11)):
        for n in range(2, 31):
            bound = p_power_ceil(n, p) * p.value
            b_ord = order_mod_p(companion_matrix(n).reduce(p), bound)
            d_ord = order_mod_p(jordan_transpose(n).reduce(p), bound)
            assert b_ord == d_ord == p_power_ceil(n, p)


def test_order_is_exact():
    for p in (P2, P3):
        for n in range(2, 16):
            e = p_power_ceil(n, p)
            d = jordan_transpose(n).reduce(p)
            assert (d**e).is_identity()
            assert not (d ** (e // p.value)).is_identity()


# -- rendering ----------------------------------------------------------------------


def test_text_rendering_aligns():
    text = companion_matrix(2).render()
    assert text == "[ 2 -1]\n[ 1  0]"


def test_json_uses_decimal_strings_for_integers():
    payload = json.loads(companion_matrix(3).to_json())
    assert payload == [["3", "-3", "1"], ["1", "0", "0"], ["0", "1", "0"]]
    reduced = json.loads(companion_matrix(3).reduce(P3).to_json())
    assert reduced == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        FpMatrix(P2, [[1]])
    with pytest.raises(ValueError):
        IntMatrix([[1]])
