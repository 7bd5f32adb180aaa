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
from gaugetorsion.cli import main
from gaugetorsion.fp import _byte_residues
from gaugetorsion.matrices import _companion_row, _layout, _render, _word_layout

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


def exact_triple_loop(a_rows, b_rows):
    """The definitional product over the integers: the oracle of both classes."""
    n = len(a_rows)
    return tuple(
        tuple(sum(a_rows[i][k] * b_rows[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def triple_loop_product(a_rows, b_rows, q):
    return tuple(tuple(x % q for x in row) for row in exact_triple_loop(a_rows, b_rows))


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
    """Typecode of the slots of n x n products mod q, by the layout rule: "B"
    while n (q-1)^2 < 256, then the word layout's typecode, None when wide."""
    if n * (q - 1) ** 2 < 256:
        return "B"
    word = _word_layout(n, q)
    return word[0] if word else None


def slot_width(n, q):
    """Bits a slot takes in the packed rows of n x n products mod q, read off
    ``_layout``'s packer: the row (0, 1, 0, ..., 0) packs to 2^width."""
    pack = _layout(n, q)[0]
    return pack((0, 1) + (0,) * (n - 2)).bit_length() - 1


LAYOUT_PRIMES = (2, 3, 5, 7, 11, 251, 257, 2039, 8191, 65521, 65537, 1000003)
# one prime just below 2^64 and one just above
HUGE_PRIMES = (18446744073709551557, 18446744073709551629)
# (n, q) on both sides of n (q-1)^2 = 255/256, where the one-byte layout ends
BYTE_EDGES = ((63, 3), (64, 3), (15, 5), (16, 5), (7, 7), (8, 7), (2, 11), (3, 11))
# (n, p) on both sides of every change of slot width for n <= 40, the wide
# layout included, found by the layout rule itself, and the one-byte edges
LAYOUT_EDGES = sorted(
    {
        (m, q)
        for q in LAYOUT_PRIMES
        for n in range(3, 41)
        if slot_code(n - 1, q) != slot_code(n, q)
        for m in (n - 1, n)
    }
    | set(BYTE_EDGES)
)


def test_layout_edges_cross_into_the_wide_layout():
    assert slot_code(32, 8191) == "Q" and slot_code(33, 8191) is None
    assert {(32, 8191), (33, 8191)} <= set(LAYOUT_EDGES)
    assert {slot_code(n, q) for n, q in LAYOUT_EDGES} == {"B", "I", "Q", None}
    assert all(slot_code(n, q) is None for n in (2, 40) for q in HUGE_PRIMES)


def test_layout_packs_each_edge_in_the_slots_of_its_rule():
    """``_layout`` picks, for every (n, q) of the edges, the layout the rule
    names: one-byte slots, the word layout's, or w = bitlen(n (q-1)^2) bits."""
    for n, q in LAYOUT_EDGES:
        code = slot_code(n, q)
        want = (n * (q - 1) ** 2).bit_length() if code is None else 8 * array(code).itemsize
        assert slot_width(n, q) == want, (n, q)
        assert _layout(n, q) is _layout(n, q)  # one pair per (n, q)


@pytest.mark.parametrize("q", [2, 3, 7, 13, 251])
@pytest.mark.parametrize("n", [2, 3, 6, 17])
def test_word_layout_reduces_every_slot_value(n, q):
    """acc - q ((acc magic >> s) & low) is x mod q in every slot, for each
    slot value x <= n (q-1)^2 a product can reach, n values at a time."""
    code, size, s, magic, low = _word_layout(n, q)
    width, top = 8 * size // n, n * (q - 1) ** 2
    for start in range(0, top + 1, n):
        xs = [min(x, top) for x in range(start, start + n)]
        acc = sum(x << k for x, k in zip(xs, range(0, n * width, width)))
        reduced = acc - q * ((acc * magic >> s) & low)
        assert reduced.to_bytes(size, sys.byteorder) == array(code, [x % q for x in xs]).tobytes()


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_byte_layout_reduces_every_slot_value(q):
    """The one-byte layout reads through the table of residues mod q of every
    byte, and ``_layout`` picks it up to the last n whose slots fit one byte."""
    assert _byte_residues(q) == bytes(x % q for x in range(256))
    last = 255 // (q - 1) ** 2
    assert slot_width(last, q) == 8 and slot_width(last + 1, q) > 8


# one-byte layouts whose slots reach 255, 252 and 240; word layouts of 32-
# and 64-bit slots; wide layouts of 32-, 37- and 63-bit slots
REDUCER_CASES = (
    (255, 2), (63, 3), (15, 5), (16, 5), (6, 13), (17, 251), (33, 8191), (24, 65537),
    (2, 2147483647),
)


@pytest.mark.parametrize("n, q", REDUCER_CASES)
def test_layout_reducer_reads_back_every_slot_value(n, q):
    """``_layout``'s reducer turns row sums holding slot values x <= n (q-1)^2,
    n values a row, into rows of x mod q: every value while there are at most
    2^16, else the lowest and the highest 2^12. Its packed rows are the
    packer's of those rows, and the wide layout returns none."""
    pack, reduce = _layout(n, q)
    width, top = slot_width(n, q), n * (q - 1) ** 2
    xs = list(range(top + 1)) if top < 2**16 else [*range(2**12), *range(top - 2**12, top + 1)]
    chunks = [xs[i : i + n] + [top] * (n - len(xs[i : i + n])) for i in range(0, len(xs), n)]
    sums = [sum(x << k for x, k in zip(c, range(0, n * width, width))) for c in chunks]
    rows, packed = reduce(sums)
    assert rows == tuple(tuple(x % q for x in c) for c in chunks)
    assert packed == (None if slot_code(n, q) is None else list(map(pack, rows)))


@pytest.mark.parametrize("n, q", BYTE_EDGES)
def test_byte_layout_edges_match_triple_loop(n, q):
    """Both sides of n (q-1)^2 = 255/256, on random operands and on the
    all-(q-1) operands that put every slot of a product at its largest sum."""
    assert (slot_width(n, q) == 8) == (n * (q - 1) ** 2 < 256)
    rng = random.Random(n * 7919 + q)
    prime = Prime(q)
    rand = [tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)) for _ in range(2)]
    full = tuple(tuple([q - 1] * n) for _ in range(n))
    for a_rows, b_rows in (rand, (full, full), (rand[0], full)):
        a, b = FpMatrix(prime, a_rows), FpMatrix(prime, b_rows)
        ab = triple_loop_product(a_rows, b_rows, q)
        assert (a * b).rows == ab
        # a product's own packed rows, as the right factor of the next product
        assert (a * (a * b)).rows == triple_loop_product(a_rows, ab, q)


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


def race_to_pack(n, q):
    """Threads racing to pack one fresh right factor all get the same products."""
    threads = 4
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


def test_packed_rows_fill_safely_from_threads():
    assert slot_code(24, 251) == "Q"
    race_to_pack(24, 251)


def test_wide_packed_rows_fill_safely_from_threads():
    assert slot_code(24, 65537) is None
    race_to_pack(24, 65537)


def test_byte_packed_rows_fill_safely_from_threads():
    assert slot_code(24, 3) == "B"
    race_to_pack(24, 3)


@pytest.mark.parametrize("n, q", [(24, 3), (24, 251), (24, 65537)])
def test_right_factor_is_packed_once_in_every_layout(n, q):
    """A right factor keeps its packed rows, the wide layout's too; a product
    keeps its own unless its layout is wide."""
    rng = random.Random(n + q)
    a, b = (
        FpMatrix(Prime(q), [[rng.randrange(q) for _ in range(n)] for _ in range(n)]) for _ in "ab"
    )
    ab = a * b
    packed = b._packed
    assert packed is not None
    assert (a * b).rows == ab.rows and b._packed is packed
    assert (ab._packed is None) == (slot_code(n, q) is None)


def test_power_zero_and_one():
    m = companion_matrix(5).reduce(P3)
    assert m**0 == FpMatrix.identity(5, P3)
    assert m**1 == m
    with pytest.raises(ValueError, match="^negative matrix power$"):
        m**-1


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
    with pytest.raises(ValueError, match="^matrix is not unitriangular$"):
        unitriangular_inverse(companion_matrix(3))


def column_substitution_inverse(rows):
    """The inverse of a unitriangular matrix by solving m X = I column by
    column, one entry at a time: the oracle of the row substitution."""
    n = len(rows)
    upper = all(rows[i][j] == (i == j) for i in range(n) for j in range(i + 1))
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        for i in range(n - 2, -1, -1) if upper else range(1, n):
            ks = range(i + 1, n) if upper else range(i)
            inv[i][col] = int(i == col) - sum(rows[i][k] * inv[k][col] for k in ks)
    return tuple(map(tuple, inv))


def random_unitriangular_rows(rng, n, density, bound, upper):
    """Unit diagonal, the other triangle zero, and each off-diagonal entry of
    the triangle in [-bound, bound], nonzero with chance ``density``; the
    last row of an upper triangle and the first of a lower one have none."""
    rows = random_int_rows(rng, n, density, bound)
    for i, row in enumerate(rows):
        for j in range(n):
            if i == j:
                row[j] = 1
            elif (j < i) == upper:
                row[j] = 0
    empty = rng.randrange(n)  # one more row with no off-diagonal nonzero
    rows[empty] = [int(j == empty) for j in range(n)]
    return rows


@pytest.mark.parametrize("upper", [True, False], ids=["upper", "lower"])
@pytest.mark.parametrize("bound", [1, 2**70], ids=["units", "past-2^64"])
@pytest.mark.parametrize("density", [0.1, 1.0], ids=["sparse", "dense"])
@pytest.mark.parametrize("n", [2, 3, 17, 40])
def test_unitriangular_inverse_matches_column_substitution(n, density, bound, upper):
    rng = random.Random(f"{n}-{density}-{bound}-{upper}")
    identity = IntMatrix.identity(n)
    for _ in range(3):
        rows = random_unitriangular_rows(rng, n, density, bound, upper)
        m = IntMatrix(rows)
        assert m.is_upper_unitriangular() if upper else m.is_lower_unitriangular()
        inv = unitriangular_inverse(m)
        assert inv.rows == column_substitution_inverse(rows)
        assert m * inv == inv * m == identity
        assert_exact_rows(inv)


@pytest.mark.parametrize("n", [2, 3, 17, 40])
def test_unitriangular_inverse_rejects_unit_diagonal_off_both_triangles(n):
    rng = random.Random(n)
    rows = random_unitriangular_rows(rng, n, 1.0, 2**70, True)
    rows[0][-1] = rows[-1][0] = 1  # a corner nonzero on each side of the diagonal
    for m in (IntMatrix(rows), IntMatrix([list(r) for r in zip(*rows)])):
        with pytest.raises(ValueError, match="^matrix is not unitriangular$"):
            unitriangular_inverse(m)


# -- exact products ---------------------------------------------------------------


def random_int_rows(rng, n, density, bound):
    """Signed entries in [-bound, bound], each nonzero with chance ``density``."""
    return [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]


def assert_exact_rows(m):
    assert type(m.rows) is tuple
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in m.rows)


@pytest.mark.parametrize("bound", [1, 10**6, 2**70], ids=["units", "small", "past-2^64"])
@pytest.mark.parametrize("density", [0.05, 0.3, 1.0], ids=["sparse", "mixed", "dense"])
@pytest.mark.parametrize("n", [2, 3, 17, 40])
def test_int_product_matches_triple_loop(n, density, bound):
    rng = random.Random(f"{n}-{density}-{bound}")
    for _ in range(3):
        a_rows = random_int_rows(rng, n, density, bound)
        b_rows = random_int_rows(rng, n, density, bound)
        ab = IntMatrix(a_rows) * IntMatrix(b_rows)
        assert ab.rows == exact_triple_loop(a_rows, b_rows)
        assert_exact_rows(ab)


def test_int_product_with_zero_rows_and_columns():
    rng = random.Random(17)
    n = 9
    a_rows = random_int_rows(rng, n, 1.0, 2**65)
    b_rows = random_int_rows(rng, n, 1.0, 2**65)
    for i in (0, 4, 8):
        a_rows[i] = [0] * n  # zero rows of the left factor
        for row in b_rows:
            row[i] = 0  # zero columns of the right factor
    b_rows[2] = [0] * n  # a zero row of the right factor meets a nonzero column
    a, b = IntMatrix(a_rows), IntMatrix(b_rows)
    zero = IntMatrix([[0] * n for _ in range(n)])
    for x, y in ((a, b), (b, a), (a, zero), (zero, b), (zero, zero)):
        assert (x * y).rows == exact_triple_loop(x.rows, y.rows)
    assert (a * b).rows[4] == (0,) * n
    assert all(row[8] == 0 for row in (a * b).rows)


def test_builder_products_match_triple_loop():
    for n in range(2, 41):
        b, a, d = companion_matrix(n), pascal_matrix(n), jordan_transpose(n)
        a_inv = unitriangular_inverse(a)
        a_inv_b = a_inv * b
        for x, y, xy in (
            (b, a, b * a),
            (a, d, a * d),
            (a_inv, b, a_inv_b),
            (a_inv_b, a, a_inv_b * a),
            (b, b, b * b),
            (d, b, d * b),
        ):
            assert xy.rows == exact_triple_loop(x.rows, y.rows), n
            assert_exact_rows(xy)


def test_int_product_errors_keep_their_texts():
    with pytest.raises(TypeError, match="^expected IntMatrix, got FpMatrix$"):
        companion_matrix(3) * companion_matrix(3).reduce(P2)
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        companion_matrix(2) * companion_matrix(3)


def test_fp_product_errors_keep_their_texts():
    with pytest.raises(TypeError, match="^expected FpMatrix, got IntMatrix$"):
        companion_matrix(3).reduce(P2) * companion_matrix(3)
    with pytest.raises(ValueError, match="^matrix shape or modulus mismatch$"):
        companion_matrix(2).reduce(P2) * companion_matrix(3).reduce(P2)
    with pytest.raises(ValueError, match="^matrix shape or modulus mismatch$"):
        companion_matrix(3).reduce(P2) * companion_matrix(3).reduce(P3)


@pytest.mark.parametrize("n", range(2, 61))
def test_companion_matrix_equals_validated_rows(n):
    """Each unchecked build (the three builders, the closed form of the
    conjugation check and the inverses) equals the validating constructor on
    the same rows, written out from their definitions."""
    span = range(1, n + 1)
    built_and_defined = [
        (
            companion_matrix(n),
            [list(_companion_row(n))] + [[int(j == i - 1) for j in range(n)] for i in range(1, n)],
        ),
        (pascal_matrix(n), [[binom_int(n - i, n - j) for j in span] for i in span]),
        (jordan_transpose(n), [[int(i == j or i == j + 1) for j in span] for i in span]),
        (
            verify_conjugation(n)[1]["binomial_form"],
            [[binom_int(n - i + 1, n - j) for j in span] for i in span],
        ),
        (
            unitriangular_inverse(pascal_matrix(n)),
            [[(-1) ** (i + j) * binom_int(n - i, n - j) for j in span] for i in span],
        ),
        (
            unitriangular_inverse(jordan_transpose(n)),
            [[(-1) ** (i + j) * (i >= j) for j in span] for i in span],
        ),
    ]
    for m, rows in built_and_defined:
        assert m == IntMatrix(rows) == IntMatrix(m.rows)
        assert m.n == n
        assert_exact_rows(m)


@pytest.mark.parametrize("bad", [1.9, 2.0, "7", None], ids=["float", "whole-float", "str", "none"])
def test_constructors_refuse_non_integer_entries(bad):
    for make in (IntMatrix, lambda rows: FpMatrix(P5, rows)):
        with pytest.raises(TypeError, match=r"^matrix entry \(2, 1\) is not an integer: "):
            make([[1, 2], [bad, 4]])


@pytest.mark.parametrize(
    "m", [companion_matrix(3), companion_matrix(3).reduce(P2)], ids=["IntMatrix", "FpMatrix"]
)
def test_entries_are_one_based_and_never_wrap(m):
    # 0 and -1 once read the last row or column, as Python indices do
    assert [m.entry(i, j) for i in (1, 2, 3) for j in (1, 2, 3)] == [x for r in m.rows for x in r]
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"^need i >= 1, got {bad}$"):
            m.entry(bad, 1)
        with pytest.raises(ValueError, match=f"^need j >= 1, got {bad}$"):
            m.entry(1, bad)
    with pytest.raises(IndexError, match=r"^entry \(4, 1\) outside 1\.\.3$"):
        m.entry(4, 1)
    with pytest.raises(IndexError, match=r"^entry \(3, 4\) outside 1\.\.3$"):
        m.entry(3, 4)


def test_constructors_keep_ints_and_bools():
    m = IntMatrix([[True, False], [-3, 2**70]])
    assert m.rows == ((1, 0), (-3, 2**70))
    assert_exact_rows(m)
    f = FpMatrix(P5, [[True, 7], [-1, False]])
    assert f.rows == ((1, 2), (4, 0))
    assert all(type(x) is int for row in f.rows for x in row)


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
    # the companion matrix of (x - 1)^4 has order 9 mod 3
    with pytest.raises(OrderBoundExceeded, match="^no order <= 2 found$"):
        order_brute(companion_matrix(4).reduce(P3), 2)


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


def whole_block_render(m):
    """The text of a matrix as one block, every entry measured and then
    padded: the oracle of the row-at-a-time render."""
    width = max(len(str(x)) for row in m.rows for x in row)
    return "\n".join("[" + " ".join(str(x).rjust(width) for x in row) + "]" for row in m.rows)


def test_text_rendering_aligns():
    text = companion_matrix(2).render()
    assert text == "[ 2 -1]\n[ 1  0]"


@pytest.mark.parametrize(
    "m, text",
    [
        (IntMatrix([[-1000, 5], [7, 999]]), "[-1000     5]\n[    7   999]"),
        (IntMatrix([[-3, 12345], [0, 7]]), "[   -3 12345]\n[    0     7]"),
        (IntMatrix([[0, 0], [0, 0]]), "[0 0]\n[0 0]"),
        (FpMatrix(Prime(101), [[100, 1], [0, -1]]), "[100   1]\n[  0 100]"),
    ],
    ids=["negative-extreme", "positive-extreme", "all-zero", "fp"],
)
def test_render_width_is_that_of_an_extreme_entry(m, text):
    assert m.render() == str(m) == text == whole_block_render(m)
    assert list(_render(m)) == text.split("\n")


@pytest.mark.parametrize("p", [None, 3])
def test_matrix_text_equals_whole_block_render(capsys, p):
    """``matrix`` text, written a row at a time, is the text of each block
    rendered whole, as the command wrote it before."""
    for n in range(2, 41):
        blocks = {"B": companion_matrix(n), "A": pascal_matrix(n), "D": jordan_transpose(n)}
        blocks.update(BA=blocks["B"] * blocks["A"], AD=blocks["A"] * blocks["D"])
        suffix = "" if p is None else f" mod {p}"
        expected = "".join(
            f"{name}{suffix}:\n{whole_block_render(m if p is None else m.reduce(Prime(p)))}\n\n"
            for name, m in blocks.items()
        )
        argv = ["matrix", "--n", str(n)] + ([] if p is None else ["--p", str(p)])
        assert main(argv) == 0
        assert capsys.readouterr().out == expected, n


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
