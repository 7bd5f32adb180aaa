"""Exact arithmetic over a prime field, with binomial and valuation helpers.

The exact layer uses Python's unbounded integers throughout; the mod-p layer
keeps canonical residues in [0, p). Binomial coefficients modulo p are
computed digit-wise by Lucas' theorem, so huge arguments never materialize
the full integer: ``_lucas`` gives one of them, and ``_lucas_row`` lists
every nonzero binom(e, a) mod p with a up to a cut, the one enumerator of
such rows (the reduced powers' shares, the Newton taps of ``chern``).

``_integer`` reads every integer the package's public API takes, by
``operator.index`` and the argument's range, before any memo is read: a float
hashes like the int it equals, so a warm memo would answer what a cold one refuses.
It holds every floor and ceiling of the public API, so an int outside one is
refused with the one message ``need <name> >= <floor>, got <x>`` or
``need <name> <= <top>, got <x>``.
``_prime`` checks every prime it takes, first, the same way, and ``_expect``
every element (a scalar, a polynomial, a form or a matrix): its class, and,
where a ring operation needs it, its ``_ring()``. Each public call reads each
argument through them once, the warm decision's too: no module inlines a copy
of any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import index
from typing import Callable

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
        q = _prime(self.modulus).value
        object.__setattr__(self, "residue", _integer(self.residue, "residue") % q)

    def _ring(self) -> tuple:
        return (self.modulus,)

    def __add__(self, other: "FpScalar") -> "FpScalar":
        _expect(other, FpScalar, self._ring())
        return FpScalar(self.residue + other.residue, self.modulus)

    def __sub__(self, other: "FpScalar") -> "FpScalar":
        _expect(other, FpScalar, self._ring())
        return FpScalar(self.residue - other.residue, self.modulus)

    def __mul__(self, other: "FpScalar") -> "FpScalar":
        _expect(other, FpScalar, self._ring())
        return FpScalar(self.residue * other.residue, self.modulus)

    def __neg__(self) -> "FpScalar":
        return FpScalar(-self.residue, self.modulus)

    def is_zero(self) -> bool:
        return self.residue == 0

    def __int__(self) -> int:
        return self.residue

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.modulus})"


def _integer(x: object, name: str, floor: int | None = None, top: int | None = None) -> int:
    """x as an int by ``operator.index``, the one reader of every integer
    argument of the public API, called before any memo is read: a float or a
    numeric string is refused, never rounded or parsed, by a ``TypeError``
    that names the value, and an int below ``floor`` or above ``top``, each if
    given, by ``ValueError("need <name> >= <floor>, got <x>")`` or ``<= <top>``."""
    try:
        x = index(x)
    except TypeError:
        raise TypeError(f"{name} is not an integer: {x!r}") from None
    if floor is not None and x < floor:
        raise ValueError(f"need {name} >= {floor}, got {x}")
    if top is not None and x > top:
        raise ValueError(f"need {name} <= {top}, got {x}")
    return x


def _expect(x: object, cls: type, ring: tuple | None = None):
    """x if it is a ``cls`` over ``ring``: the one check of every element
    argument, a ring operation's other operand included. Another class raises
    ``TypeError("expected <cls>, got <class of x>")``, and a ``_ring()`` other than
    ``ring``, if given, ``ValueError("<cls> ring mismatch: <ring> vs <x's>")``."""
    if not isinstance(x, cls):
        raise TypeError(f"expected {cls.__name__}, got {type(x).__name__}")
    if ring is not None and x._ring() != ring:
        mine, theirs = (", ".join(map(str, r)) for r in (ring, x._ring()))
        raise ValueError(f"{cls.__name__} ring mismatch: {mine} vs {theirs}")
    return x


def _prime(p: object) -> Prime:
    """p itself if it is a ``Prime``, the one check of every prime argument of
    the public API, made first: anything else, a bare int included, is refused
    by a ``TypeError`` that names the value."""
    if not isinstance(p, Prime):
        raise TypeError(f"p is not a Prime: {p!r}")
    return p


def _power(x, e: int, one: Callable, negative: str):
    """x^e, e read by ``_integer``, the one powering of ``FpMatrix`` and the
    sparse polynomials: ``one()`` at e = 0, ``ValueError(negative)`` below, and
    else left-to-right binary powering from e's top set bit, never by ``one()``."""
    e = _integer(e, "e")
    if e < 0:
        raise ValueError(negative)
    if e == 0:
        return one()
    out = x
    for bit in bin(e)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


def fp_inv(a: FpScalar) -> FpScalar:
    """Multiplicative inverse via Fermat's little theorem. Zero is rejected."""
    _expect(a, FpScalar)
    if a.residue == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {a.modulus}")
    p = a.modulus.value
    return FpScalar(pow(a.residue, p - 2, p), a.modulus)


def binom_int(n: int, j: int) -> int:
    """Exact binomial coefficient; 0 outside [0, n]. Negative n is rejected."""
    n, j = _integer(n, "n", 0), _integer(j, "j")
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
    p = _prime(p)
    n, j = _integer(n, "n", 0), _integer(j, "j")
    return FpScalar(_lucas(n, j, p.value), p)


def padic_val(m: int, p: Prime) -> int:
    """Largest e with p**e dividing m, for m >= 1."""
    p = _prime(p)
    m = _integer(m, "m", 1)
    e = 0
    q = p.value
    while m % q == 0:
        m //= q
        e += 1
    return e


def p_power_ceil(n: int, p: Prime) -> int:
    """Smallest power of p that is >= n, for n >= 2."""
    p = _prime(p)
    n = _integer(n, "n", 2)
    q = 1
    while q < n:
        q *= p.value
    return q
