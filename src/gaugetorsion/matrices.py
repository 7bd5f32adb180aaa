"""Exact integer and mod-p matrix algebra for the recurrence machinery.

Three builders produce the matrices the decision procedure cares about:

* ``companion_matrix(n)``: first row (-1)^(j+1) binom(n, j), ones on the
  subdiagonal. This is the companion matrix of (x - 1)^n in the top-row
  convention, which is exactly why its reduction mod p is unipotent-like.
* ``pascal_matrix(n)``: upper triangular with entries binom(n-i, n-j).
* ``jordan_transpose(n)``: lower bidiagonal unipotent, the transpose of a
  single Jordan block with eigenvalue one.

``verify_conjugation`` checks, over the integers, that the Pascal matrix
conjugates the companion matrix into the Jordan transpose, including the
closed binomial form of the intermediate products. ``order_mod_p`` finds
multiplicative orders by searching p-th power towers, with a plain
repeated-multiplication search retained as the independent oracle. The
decision path builds no matrix: it reads the companion matrix's order off the
alpha engine's impulse response (``suspension._symbolic_alphas``), and these
matrix searches are its oracles.

Everything is pure Python on unbounded integers. Reductions mod p are
derived views; construction always happens in the exact layer first. The
public constructors take every entry through ``operator.index``, so a float
or a string is refused, not truncated; the builders, the products and the
inverse wrap the rows they made themselves unchecked.

Products do only the work their operands need. An exact product is
Gustavson's row-by-row product over the nonzeros of both factors, so a
product with the companion matrix or the Jordan transpose costs O(n^2)
multiply-adds, not n^3. A product mod p packs each row of its right factor
into one integer (Kronecker substitution), once, and keeps the packed rows
on the factor. ``_layout`` gives each (n, p) a packer and a reducer of row
sums: a 256-byte residue table while a slot's largest sum, n (p-1)^2, fits
one byte (p = 2 up to n = 255, p = 3 up to 63, p = 5 up to 15); past that a
magic quotient in 32- or 64-bit slots; and slot by slot past 64 bits.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import lru_cache
from math import comb
from operator import index, mul, neg
from typing import Callable, Iterable, Iterator, Sequence

from .fp import Prime, _byte_residues, _integer, _prime, p_power_ceil

_Rows = tuple[tuple[int, ...], ...]

__all__ = [
    "IntMatrix",
    "FpMatrix",
    "companion_matrix",
    "pascal_matrix",
    "jordan_transpose",
    "unitriangular_inverse",
    "order_mod_p",
    "order_brute",
    "verify_conjugation",
    "verify_p_power_order",
    "OrderBoundExceeded",
]


class OrderBoundExceeded(RuntimeError):
    """No p-power at or below the bound gave the identity."""


def _render(m: "IntMatrix | FpMatrix") -> Iterator[str]:
    """Aligned text rows of both matrix classes, one at a time. The widest
    entry is the least or the greatest, and each entry's ``str`` is made once."""
    width = max(len(str(min(map(min, m.rows)))), len(str(max(map(max, m.rows)))))
    for row in m.rows:
        yield "[" + " ".join([s.rjust(width) for s in map(str, row)]) + "]"


def _text(m: "IntMatrix | FpMatrix") -> str:
    return "\n".join(_render(m))


def _entry(m: "IntMatrix | FpMatrix", i: int, j: int) -> int:
    """Entry (i, j) of either matrix class, 1-based as in the usual matrix
    conventions: i and j are read with floor 1, and one past n is an IndexError."""
    i, j = _integer(i, "i", 1), _integer(j, "j", 1)
    if i > m.n or j > m.n:
        raise IndexError(f"entry ({i}, {j}) outside 1..{m.n}")
    return m.rows[i - 1][j - 1]


def _square_rows(
    rows: Sequence[Sequence[int]], residue: Callable[[int], int] | None = None
) -> _Rows:
    """Validated rows of a public constructor: square, of dimension >= 2, and
    every entry an int by ``operator.index``, so a float or a numeric string
    is refused rather than truncated or parsed. ``residue``, if given, maps
    each int in the same pass, so no unreduced copy of the rows is made."""
    n = _integer(len(rows), "dimension", 2)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    try:
        if residue is None:
            return tuple(tuple(map(index, r)) for r in rows)
        return tuple(tuple(map(residue, map(index, r))) for r in rows)
    except TypeError:
        for i, r in enumerate(rows, 1):
            for j, x in enumerate(r, 1):
                try:
                    index(x)
                except TypeError:
                    raise TypeError(f"matrix entry ({i}, {j}) is not an integer: {x!r}") from None
        raise


def _accumulate(acc: list[int], coefficients: Iterable[int], nonzeros: Sequence) -> list[int]:
    """Gustavson's row accumulator: add to ``acc``, in place, a times row k for each
    nonzero a of ``coefficients``, row k listed as its nonzero (j, b) pairs."""
    for a, pairs in zip(coefficients, nonzeros):
        if a:
            for j, b in pairs:
                acc[j] += a * b
    return acc


class IntMatrix:
    """Square matrix with unbounded integer entries, immutable by convention."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = _square_rows(rows)
        self.n = len(self.rows)

    @classmethod
    def _canonical(cls, rows: _Rows) -> "IntMatrix":
        """Wrap rows that are already a square tuple of int tuples, unchecked."""
        m = object.__new__(cls)
        m.n = len(rows)
        m.rows = rows
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(_identity_rows(_integer(n, "n")))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        """Gustavson's row-by-row product over the nonzeros of both factors.

        Row i of the product is the sum, over the nonzero a_ik of row i, of
        a_ik times row k of ``other``, listed once as its nonzero pairs: one
        multiply-add per pair of nonzeros that meet, not n^3.
        """
        if not isinstance(other, IntMatrix):
            raise TypeError(f"expected IntMatrix, got {type(other).__name__}")
        n = self.n
        if n != other.n:
            raise ValueError(f"dimension mismatch: {n} vs {other.n}")
        nonzeros = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
        return IntMatrix._canonical(
            tuple([tuple(_accumulate([0] * n, row, nonzeros)) for row in self.rows])
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    entry = _entry

    def reduce(self, p: Prime) -> "FpMatrix":
        rmod = _prime(p).value.__rmod__
        return FpMatrix._canonical(p, tuple(tuple(map(rmod, row)) for row in self.rows))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        n = self.n
        m = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_upper_unitriangular(self) -> bool:
        return all(row[i] == 1 and not any(row[:i]) for i, row in enumerate(self.rows))

    def is_lower_unitriangular(self) -> bool:
        return all(row[i] == 1 and not any(row[i + 1 :]) for i, row in enumerate(self.rows))

    render = __str__ = _text

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def to_json(self) -> str:
        """Nested arrays of decimal strings, safe for arbitrarily large entries."""
        return json.dumps([[str(x) for x in row] for row in self.rows])


@lru_cache(maxsize=None)
def _identity_rows(n: int) -> _Rows:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# Slot width in bits -> the array/memoryview typecode of that unsigned width,
# the word slots a packed row can use. A product that needs them holds slot
# sums of 9 bits or more, as smaller ones take the one-byte layout, so its
# slots are 32 or 64 bits wide.
_SLOT_CODES = {8 * array(code).itemsize: code for code in "IQ"}

@lru_cache(maxsize=None)
def _layout(n: int, q: int) -> tuple[Callable, Callable]:
    """Layout of the packed rows of n x n products mod q: a packer of one row
    of a right factor into one integer, and a reducer of a product's row sums
    to its rows and its own packed rows.

    A product slot holds at most n (q-1)^2 < 2^w. Below 256 that is one byte,
    and a row sum's bytes, translated through the table of residues mod q
    (``fp._byte_residues``), are every slot reduced at once. Past that the
    slots are ``_word_layout``'s, reduced at once by its magic quotient, or,
    where it is None, w bits wide, each read back mod q with no packed rows.
    """
    if n * (q - 1) ** 2 < 256:
        table = _byte_residues(q)

        def pack(row: Sequence[int]) -> int:
            return int.from_bytes(bytes(row), "little")

        def reduce(sums: list[int]) -> tuple:
            raw = [acc.to_bytes(n, "little").translate(table) for acc in sums]
            return tuple(map(tuple, raw)), [int.from_bytes(r, "little") for r in raw]

        return pack, reduce
    word = _word_layout(n, q)
    if word is None:
        w = (n * (q - 1) ** 2).bit_length()
        mask, shifts = (1 << w) - 1, range(0, n * w, w)

        def pack(row: Sequence[int]) -> int:
            return sum(x << s for x, s in zip(row, shifts))

        def reduce(sums: list[int]) -> tuple:
            return tuple(tuple([(acc >> s & mask) % q for s in shifts]) for acc in sums), None

        return pack, reduce
    code, size, s, magic, low = word

    def pack(row: Sequence[int]) -> int:
        return int.from_bytes(array(code, row).tobytes(), sys.byteorder)

    def reduce(sums: list[int]) -> tuple:
        accs = [acc - q * ((acc * magic >> s) & low) for acc in sums]
        rows = (memoryview(acc.to_bytes(size, sys.byteorder)).cast(code) for acc in accs)
        return tuple(map(tuple, rows)), accs

    return pack, reduce


def _word_layout(n: int, q: int) -> tuple[str, int, int, int, int] | None:
    """Word layout of the packed rows of n x n products mod q, or None.

    A product slot holds at most n (q-1)^2 < 2^w. It is reduced mod q as
    x - q ((x magic) >> s), with s = w + b and magic = ceil(2^s / q), b =
    bitlen(q): that quotient is exact for x < 2^w (Granlund-Montgomery).
    As 2^(b-1) <= q, magic <= 2^(w+1), so x magic < 2^(2w+1). Slots of
    W >= 2w + 1 bits therefore reduce all at once, with no carry or borrow
    between them; ``low`` masks the low W - s bits of each slot, which hold
    the shifted quotients. Returns (typecode, bytes per row, s, magic, low),
    or None if W would pass 64.
    """
    w, b = (n * (q - 1) ** 2).bit_length(), q.bit_length()
    width = next((W for W in sorted(_SLOT_CODES) if W >= 2 * w + 1), None)
    if width is None:
        return None
    s = w + b
    low = ((1 << (width - s)) - 1) * sum(1 << k for k in range(0, n * width, width))
    return _SLOT_CODES[width], n * width // 8, s, -(-(1 << s) // q), low


class FpMatrix:
    """Square matrix over F_p with canonical residues."""

    __slots__ = ("n", "p", "rows", "_packed")

    def __init__(self, p: Prime, rows: Sequence[Sequence[int]]):
        self.rows = _square_rows(rows, _prime(p).value.__rmod__)
        self.n = len(self.rows)
        self.p = p
        self._packed = None

    @classmethod
    def _canonical(cls, p: Prime, rows: _Rows, packed: list[int] | None = None) -> "FpMatrix":
        """Wrap rows that are already a square tuple of residues mod p, unchecked,
        and, if given, the same rows as the packer of ``_layout`` packs them."""
        m = object.__new__(cls)
        m.n = len(rows)
        m.p = p
        m.rows = rows
        m._packed = packed
        return m

    @classmethod
    def identity(cls, n: int, p: Prime) -> "FpMatrix":
        return cls(p, _identity_rows(_integer(n, "n")))

    def __mul__(self, other: "FpMatrix") -> "FpMatrix":
        """Product by Kronecker substitution on the rows of ``other``.

        ``_layout``'s packer packs each row of ``other`` into one integer, one
        slot per entry, once, and the packed rows are kept on ``other``. Row i
        of the product is the integer sum of a_ik * packed_k, whose slots each
        hold at most n (p-1)^2 and never carry; the layout's reducer turns
        these sums into the product's rows and, unless wide, its packed rows.
        """
        if not isinstance(other, FpMatrix):
            raise TypeError(f"expected FpMatrix, got {type(other).__name__}")
        if self.n != other.n or self.p != other.p:
            raise ValueError("matrix shape or modulus mismatch")
        pack, reduce = _layout(self.n, self.p.value)
        packed = other._packed
        if not packed:
            packed = other._packed = list(map(pack, other.rows))
        rows, packed = reduce([sum(map(mul, row, packed)) for row in self.rows])
        return FpMatrix._canonical(self.p, rows, packed)

    def __pow__(self, e: int) -> "FpMatrix":
        """Left-to-right binary powering from the top set bit of e."""
        e = _integer(e, "e")
        if e < 0:
            raise ValueError("negative matrix power")
        if e == 0:
            return FpMatrix.identity(self.n, self.p)
        out = self
        for bit in bin(e)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    entry = _entry

    def is_identity(self) -> bool:
        return self.rows == _identity_rows(self.n)

    def det(self) -> int:
        """Determinant mod p by Gaussian elimination."""
        q = self.p.value
        m = [list(row) for row in self.rows]
        n = self.n
        det = 1
        for k in range(n):
            pivot = next((r for r in range(k, n) if m[r][k] % q != 0), None)
            if pivot is None:
                return 0
            if pivot != k:
                m[k], m[pivot] = m[pivot], m[k]
                det = -det
            inv = pow(m[k][k], q - 2, q)
            det = det * m[k][k] % q
            for i in range(k + 1, n):
                factor = m[i][k] * inv % q
                if factor:
                    m[i] = [(a - factor * b) % q for a, b in zip(m[i], m[k])]
        return det % q

    render = __str__ = _text

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {[list(r) for r in self.rows]})"

    def to_json(self) -> str:
        return json.dumps([[x for x in row] for row in self.rows])


def _companion_row(n: int) -> tuple[int, ...]:
    """Exact first row of ``companion_matrix(n)``: (-1)^(j+1) binom(n, j).

    Built by the running product binom(n, j) = binom(n, j-1) (n-j+1) / j, whose
    every division is exact, so each entry costs one multiplication and one
    division by a small integer instead of a fresh binomial; it shares no code
    with the Lucas digit products.
    """
    row, c = [], 1
    for j in range(1, n + 1):
        c = c * (n - j + 1) // j
        row.append(c if j % 2 else -c)
    return tuple(row)


def companion_matrix(n: int) -> IntMatrix:
    """Companion matrix of (x - 1)^n: binomial first row, subdiagonal ones.

    Row i >= 2 is the slice of one template, n - 1 zeros, a one and n - 1
    zeros, that puts its one in column i - 1; the rows are built as int
    tuples and wrapped unchecked.
    """
    n = _integer(n, "n", 2)
    zeros = (0,) * (n - 1)
    template = zeros + (1,) + zeros
    units = tuple(template[n - i : 2 * n - i] for i in range(1, n))
    return IntMatrix._canonical((_companion_row(n),) + units)


def _binomial_rows(n: int, top: int) -> IntMatrix:
    """The n x n matrix of binom(top - i, n - j), built as int tuples (top >= n)."""
    span = range(1, n + 1)
    return IntMatrix._canonical(
        tuple([tuple([comb(top - i, n - j) for j in span]) for i in span])
    )


def pascal_matrix(n: int) -> IntMatrix:
    """Upper triangular conjugator with entries binom(n-i, n-j)."""
    n = _integer(n, "n", 2)
    return _binomial_rows(n, n)


def jordan_transpose(n: int) -> IntMatrix:
    """Unipotent lower bidiagonal matrix: ones on the diagonal and subdiagonal."""
    n = _integer(n, "n", 2)
    template = (0,) * (n - 1) + (1, 1) + (0,) * (n - 1)
    return IntMatrix._canonical(tuple([template[n - i : 2 * n - i] for i in range(n)]))


def unitriangular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a unitriangular matrix, by row substitution.

    Row i of the inverse is e_i minus the sum, over the nonzero off-diagonal
    a_ik, of a_ik times row k of the inverse, k below i in an upper triangle
    and above it in a lower one. Rows are solved in that order through the
    product's row accumulator; a row not yet solved has no nonzeros listed.
    """
    upper = m.is_upper_unitriangular()
    if not (upper or m.is_lower_unitriangular()):
        raise ValueError("matrix is not unitriangular")
    n = m.n
    inv: list[tuple[int, ...]] = [()] * n
    nonzeros: list[list[tuple[int, int]]] = [[]] * n
    for i in range(n - 1, -1, -1) if upper else range(n):
        acc = [0] * n
        acc[i] = 1
        inv[i] = tuple(_accumulate(acc, map(neg, m.rows[i]), nonzeros))
        nonzeros[i] = [(j, x) for j, x in enumerate(inv[i]) if x]
    return IntMatrix._canonical(tuple(inv))


def order_mod_p(m: FpMatrix, bound: int) -> int:
    """Least e >= 1 with m^e = I, searched along the p-th power tower.

    m^(p^k) is the identity exactly when the order divides p^k, so the first
    identity on the tower m, m^p, m^(p^2), ... sits at the order, and reaching
    it proves m invertible. If the next p-power would pass the bound, ``det``
    tells the two failures apart: ValueError for a singular matrix, otherwise
    OrderBoundExceeded, as the order is not a p-power at or below the bound.
    """
    bound = _integer(bound, "bound", 1)
    q = m.p.value
    power, e = m, 1  # power = m^e, e = p^k
    while not power.is_identity():
        if e * q > bound:
            if m.det() == 0:
                raise ValueError("matrix is singular mod p")
            raise OrderBoundExceeded(
                f"no p-power order <= {bound} for p={q}, dimension {m.n}"
            )
        power = power**q
        e *= q
    return e


def order_brute(m: FpMatrix, bound: int) -> int:
    """Order by plain repeated multiplication, the independent oracle."""
    bound = _integer(bound, "bound", 1)
    acc = m
    for e in range(1, bound + 1):
        if acc.is_identity():
            return e
        acc = acc * m
    raise OrderBoundExceeded(f"no order <= {bound} found")


def verify_conjugation(n: int) -> tuple[bool, dict]:
    """Exact check that the Pascal matrix conjugates companion to Jordan form.

    Verifies three integral identities: the two products agree entrywise,
    every product entry equals binom(n-i+1, n-j), and the conjugate equals
    the Jordan transpose. The witness carries all intermediate matrices.
    """
    n = _integer(n, "n")
    b, a, d = companion_matrix(n), pascal_matrix(n), jordan_transpose(n)
    ba, ad = b * a, a * d
    closed = _binomial_rows(n, n + 1)
    conj = unitriangular_inverse(a) * b * a
    ok = ba == ad and ba == closed and conj == d
    witness = {
        "B": b,
        "A": a,
        "D": d,
        "BA": ba,
        "AD": ad,
        "binomial_form": closed,
        "A_inv_B_A": conj,
    }
    return ok, witness


def verify_p_power_order(n: int, p: Prime) -> tuple[bool, int]:
    """Whether the order of the companion matrix mod p is p_power_ceil(n, p),
    and that order.

    The order is a p-power by unipotency of the conjugate Jordan form, and
    ``order_mod_p`` returns only p-powers (or raises), so what is checked is
    its exact value: a sharper derived fact, pinned against the brute-force
    oracle in the tests.
    """
    p, n = _prime(p), _integer(n, "n", 2)
    expected = p_power_ceil(n, p)
    order = order_mod_p(companion_matrix(n).reduce(p), bound=expected * p.value)
    return order == expected, order
