"""Exact arithmetic over a prime field, with binomial and valuation helpers.

The exact layer uses Python's unbounded integers throughout; the mod-p layer
keeps canonical residues in [0, p). Binomial coefficients modulo p are
computed digit-wise by Lucas' theorem, so huge arguments never materialize
the full integer.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import comb

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

# Slot width in bits -> the array/memoryview typecode of that unsigned width,
# the one table of word slots for packed rows (matrices._layout). Packed
# monomial keys (polyring._PackedSum) use no typecodes: they unpack by shifts.
_SLOT_CODES = {8 * array(code).itemsize: code for code in "BHIQ"}


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
        object.__setattr__(self, "residue", self.residue % self.modulus.value)

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
