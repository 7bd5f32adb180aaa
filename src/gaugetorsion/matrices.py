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
derived views; construction always happens in the exact layer first.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import lru_cache
from operator import mul
from typing import Sequence

from .fp import _SLOT_CODES, Prime, binom_int, p_power_ceil, padic_val

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


def _render(m: "IntMatrix | FpMatrix") -> str:
    """Aligned text rows; the render of both matrix classes."""
    width = max(len(str(x)) for row in m.rows for x in row)
    return "\n".join("[" + " ".join(str(x).rjust(width) for x in row) + "]" for row in m.rows)


class IntMatrix:
    """Square matrix with unbounded integer entries, immutable by convention."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[int]]):
        n = len(rows)
        if n < 2:
            raise ValueError(f"need dimension >= 2, got {n}")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        self.n = n
        self.rows = tuple(tuple(map(int, r)) for r in rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            raise TypeError(f"expected IntMatrix, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        cols = tuple(zip(*other.rows))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    def entry(self, i: int, j: int) -> int:
        """1-based access, matching the usual matrix index conventions."""
        return self.rows[i - 1][j - 1]

    def reduce(self, p: Prime) -> "FpMatrix":
        q = p.value
        return FpMatrix._canonical(p, tuple(tuple([x % q for x in row]) for row in self.rows))

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
        return all(
            self.rows[i][j] == (1 if i == j else 0)
            for i in range(self.n)
            for j in range(i + 1)
        )

    def is_lower_unitriangular(self) -> bool:
        return all(
            self.rows[i][j] == (1 if i == j else 0)
            for i in range(self.n)
            for j in range(i, self.n)
        )

    render = __str__ = _render

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def to_json(self) -> str:
        """Nested arrays of decimal strings, safe for arbitrarily large entries."""
        return json.dumps([[str(x) for x in row] for row in self.rows])


@lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def _layout(n: int, q: int) -> tuple[str, int, int, int, int] | None:
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
        n = len(rows)
        if n < 2:
            raise ValueError(f"need dimension >= 2, got {n}")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        q = p.value
        self.n = n
        self.p = p
        self.rows = tuple(tuple(int(x) % q for x in r) for r in rows)
        self._packed = None

    @classmethod
    def _canonical(
        cls, p: Prime, rows: tuple[tuple[int, ...], ...], packed: list[int] | None = None
    ) -> "FpMatrix":
        """Wrap rows that are already a square tuple of residues mod p, unchecked.

        ``packed``, if given, is the rows in their word layout (``_layout``).
        """
        m = object.__new__(cls)
        m.n = len(rows)
        m.p = p
        m.rows = rows
        m._packed = packed
        return m

    @classmethod
    def identity(cls, n: int, p: Prime) -> "FpMatrix":
        return cls(p, _identity_rows(n))

    def _match(self, other: "FpMatrix") -> None:
        if not isinstance(other, FpMatrix):
            raise TypeError(f"expected FpMatrix, got {type(other).__name__}")
        if self.n != other.n or self.p != other.p:
            raise ValueError("matrix shape or modulus mismatch")

    def __mul__(self, other: "FpMatrix") -> "FpMatrix":
        """Product by Kronecker substitution on the rows of ``other``.

        Each row of ``other`` is packed into one integer, one slot per entry.
        Row i of the product is then the single integer sum of a_ik *
        packed_k, whose slots each hold at most n (p-1)^2 and never carry.
        In the word layout of ``_layout`` every slot of that sum is reduced
        mod p at once; the reduced sums are the product's own packed rows,
        kept for any product that takes it as its right factor. A layout
        wider than 64 bits packs w = bitlen(n (p-1)^2) bits a slot and reads
        each slot back mod p.
        """
        self._match(other)
        n, q = self.n, self.p.value
        layout = _layout(n, q)
        if layout is None:
            w = (n * (q - 1) ** 2).bit_length()
            mask = (1 << w) - 1
            shifts = range(0, n * w, w)
            packed = [sum(x << s for x, s in zip(row, shifts)) for row in other.rows]
            return FpMatrix._canonical(
                self.p,
                tuple(
                    tuple([(acc >> s & mask) % q for s in shifts])
                    for acc in [sum(map(mul, row, packed)) for row in self.rows]
                ),
            )
        code, size, s, magic, low = layout
        packed = other._packed
        if packed is None:
            packed = other._packed = [
                int.from_bytes(array(code, row).tobytes(), sys.byteorder) for row in other.rows
            ]
        accs = []
        for row in self.rows:
            acc = sum(map(mul, row, packed))
            accs.append(acc - q * ((acc * magic >> s) & low))
        return FpMatrix._canonical(
            self.p,
            tuple(tuple(memoryview(acc.to_bytes(size, sys.byteorder)).cast(code)) for acc in accs),
            accs,
        )

    def __pow__(self, e: int) -> "FpMatrix":
        """Left-to-right binary powering from the top set bit of e."""
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

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

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

    render = __str__ = _render

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
    """Companion matrix of (x - 1)^n: binomial first row, subdiagonal ones."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rows = [list(_companion_row(n))] + [[0] * n for _ in range(n - 1)]
    for i in range(2, n + 1):
        rows[i - 1][i - 2] = 1
    return IntMatrix(rows)


def pascal_matrix(n: int) -> IntMatrix:
    """Upper triangular conjugator with entries binom(n-i, n-j)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return IntMatrix(
        [[binom_int(n - i, n - j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


def jordan_transpose(n: int) -> IntMatrix:
    """Unipotent lower bidiagonal matrix: ones on the diagonal and subdiagonal."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return IntMatrix(
        [[1 if i == j or i == j + 1 else 0 for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


def unitriangular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a unitriangular matrix, by substitution."""
    upper = m.is_upper_unitriangular()
    lower = m.is_lower_unitriangular()
    if not (upper or lower):
        raise ValueError("matrix is not unitriangular")
    n = m.n
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if upper:
        # Solve m X = I column by column, bottom row upward.
        for col in range(n):
            for i in range(n - 2, -1, -1):
                s = sum(m.rows[i][k] * inv[k][col] for k in range(i + 1, n))
                inv[i][col] = (1 if i == col else 0) - s
    else:
        for col in range(n):
            for i in range(1, n):
                s = sum(m.rows[i][k] * inv[k][col] for k in range(i))
                inv[i][col] = (1 if i == col else 0) - s
    return IntMatrix(inv)


def order_mod_p(m: FpMatrix, bound: int) -> int:
    """Least e >= 1 with m^e = I, searched along the p-th power tower.

    m^(p^k) is the identity exactly when the order divides p^k, so the first
    identity on the tower m, m^p, m^(p^2), ... sits at the order, and reaching
    it proves m invertible. If the next p-power would pass the bound, ``det``
    tells the two failures apart: ValueError for a singular matrix, otherwise
    OrderBoundExceeded, as the order is not a p-power at or below the bound.
    """
    if bound < 1:
        raise ValueError(f"need bound >= 1, got {bound}")
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
    if bound < 1:
        raise ValueError(f"need bound >= 1, got {bound}")
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
    b = companion_matrix(n)
    a = pascal_matrix(n)
    d = jordan_transpose(n)
    ba = b * a
    ad = a * d
    closed = IntMatrix(
        [[binom_int(n - i + 1, n - j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    )
    a_inv = unitriangular_inverse(a)
    conj = a_inv * b * a
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
    """Order of the companion matrix mod p: a p-power, equal to p_power_ceil(n, p).

    The p-power property follows from unipotency of the conjugate Jordan
    form; the exact value is a sharper derived fact, pinned against the
    brute-force oracle in the tests.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    expected = p_power_ceil(n, p)
    order = order_mod_p(companion_matrix(n).reduce(p), bound=expected * p.value)
    is_p_power = p.value ** padic_val(order, p) == order
    return is_p_power and order == expected, order
