"""Exact arithmetic over a prime field, with binomial and valuation helpers.

The exact layer uses Python's unbounded integers throughout; the mod-p layer
keeps canonical residues in [0, p). Binomial coefficients modulo p are
computed digit-wise by Lucas' theorem, so huge arguments never materialize
the full integer: ``_lucas`` gives one of them, and ``_lucas_row`` lists
every nonzero binom(e, a) mod p with a up to a cut, the one enumerator of
such rows (the reduced powers' shares, the Newton taps of ``chern``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import index

__all__ = [
    "Prime",
    "FpScalar",
    "fp_inv",
    "binom_int",
    "binom_mod",
    "padic_val",
    "p_power_ceil",
]


# The first 13 primes: trial divisors, then strong Miller-Rabin bases. With
# these bases the test is proven correct below _MR_LIMIT (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


@dataclass(frozen=True)
class Prime:
    """A modulus verified prime at construction, deterministically.

    Trial division by the first 13 primes settles small and most composite
    values; the rest go through strong Miller-Rabin with the same 13 bases,
    which is exact below 3.317e24. Larger values are rejected as undecided.
    """

    value: int

    def __post_init__(self) -> None:
        n = self.value
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise ValueError(f"not a prime: {n!r}")
        if n in _SMALL_PRIMES:
            return
        for b in _SMALL_PRIMES:
            if n % b == 0:
                raise ValueError(f"not a prime: {n}")
        if n >= _MR_LIMIT:
            raise ValueError(f"primality is only decided below {_MR_LIMIT}, got {n}")
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for b in _SMALL_PRIMES:
            x = pow(b, d, n)
            if x == 1 or x == n - 1:
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                raise ValueError(f"not a prime: {n}")

    def __int__(self) -> int:
        return self.value

    __index__ = __int__

    def __hash__(self) -> int:
        # primes key the per-ring memos; no tuple per lookup, as a generated hash builds
        return self.value

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class FpScalar:
    """Canonical residue in [0, p). Mixed-modulus arithmetic is a structural error."""

    residue: int
    modulus: Prime

    def __post_init__(self) -> None:
        object.__setattr__(self, "residue", _integer(self.residue, "residue") % self.modulus.value)

    def _match(self, other: "FpScalar") -> None:
        if not isinstance(other, FpScalar):
            raise TypeError(f"expected FpScalar, got {type(other).__name__}")
        if self.modulus != other.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __add__(self, other: "FpScalar") -> "FpScalar":
        self._match(other)
        return FpScalar(self.residue + other.residue, self.modulus)

    def __sub__(self, other: "FpScalar") -> "FpScalar":
        self._match(other)
        return FpScalar(self.residue - other.residue, self.modulus)

    def __mul__(self, other: "FpScalar") -> "FpScalar":
        self._match(other)
        return FpScalar(self.residue * other.residue, self.modulus)

    def __neg__(self) -> "FpScalar":
        return FpScalar(-self.residue, self.modulus)

    def is_zero(self) -> bool:
        return self.residue == 0

    def __int__(self) -> int:
        return self.residue

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.modulus})"


def _integer(x: object, name: str) -> int:
    """x as an int by ``operator.index``, the check of every integer argument
    of the public API: a float or a numeric string is refused, never rounded
    or parsed, by a ``TypeError`` that names the value."""
    try:
        return index(x)
    except TypeError:
        raise TypeError(f"{name} is not an integer: {x!r}") from None


def fp_inv(a: FpScalar) -> FpScalar:
    """Multiplicative inverse via Fermat's little theorem. Zero is rejected."""
    if a.residue == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {a.modulus}")
    p = a.modulus.value
    return FpScalar(pow(a.residue, p - 2, p), a.modulus)


def binom_int(n: int, j: int) -> int:
    """Exact binomial coefficient; 0 outside [0, n]. Negative n is rejected."""
    if n < 0:
        raise ValueError(f"negative upper argument: {n}")
    if j < 0 or j > n:
        return 0
    return comb(n, j)


def _lucas(n: int, j: int, p: int) -> int:
    """binom(n, j) mod p as a plain int, by base-p digit products."""
    if j < 0 or j > n:
        return 0
    out = 1
    while n > 0 or j > 0:
        nd, jd = n % p, j % p
        if jd > nd:
            return 0
        out = out * comb(nd, jd) % p
        n //= p
        j //= p
    return out


@lru_cache(maxsize=None)
def _lucas_row(e: int, top: int, p: int) -> tuple[tuple[int, int], ...]:
    """Every (a, binom(e, a) mod p) with a <= top and a nonzero value, ascending in a:
    by Lucas' theorem, the a whose base-p digits sit under e's, built digit by
    digit up to the first place value above top, so a huge e costs its digits."""
    row, place = [(0, 1)], 1
    while place <= top:
        e, d = divmod(e, p)
        row = [  # d < p, so every binom(d, k) is a unit mod p
            (k * place + a, comb(d, k) * c % p)
            for k in range(min(d, top // place) + 1)
            for a, c in row
            if k * place + a <= top
        ]
        place *= p
    return tuple(row)


@lru_cache(maxsize=None)
def _byte_residues(q: int) -> bytes:
    """The 256-byte table of b mod q for every byte b, for 1 <= q <= 256: one
    ``bytes.translate`` through it reduces every one-byte slot of an integer's
    bytes at once (the packed keys of ``polyring``, the products of
    ``matrices``)."""
    return bytes(b % q for b in range(256))


def binom_mod(n: int, j: int, p: Prime) -> FpScalar:
    """binom(n, j) mod p by Lucas' theorem; agrees with binom_int reduced mod p."""
    if n < 0:
        raise ValueError(f"negative upper argument: {n}")
    return FpScalar(_lucas(n, j, p.value), p)


def padic_val(m: int, p: Prime) -> int:
    """Largest e with p**e dividing m, for m >= 1."""
    if m < 1:
        raise ValueError(f"p-adic valuation needs a positive integer, got {m}")
    e = 0
    q = p.value
    while m % q == 0:
        m //= q
        e += 1
    return e


def p_power_ceil(n: int, p: Prime) -> int:
    """Smallest power of p that is >= n, for n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    q = 1
    while q < n:
        q *= p.value
    return q
