"""Sparse multivariate polynomials over a prime field.

The ambient ring is F_p[t1, ..., tn], the cohomology of an n-fold product of
circle classifying spaces. Each generator ti has internal degree 1 here; its
cohomological degree is 2, and the doubling is applied only when degrees are
reported, never in stored exponents. The univariate ring F_p[u] is the target
of the diagonal restriction, which sends every ti to u.

Polynomials are immutable by convention: operations always build new objects
and no method mutates ``terms`` after construction. Term order everywhere is
graded lexicographic (total degree first, then exponents, largest first
within a degree), which makes text rendering and iteration deterministic.

Every sparse ring of the package (this torus ring, F_p[u], the Chern ring
and the linear forms of the suspension engine) sits on one private core,
``_FpTable``: a map from keys to nonzero residues mod p with the shared
additive structure, equality and an unchecked internal constructor.

A single product keeps tuple keys. A long sum of products in one exponent
ring goes through ``_PackedSum`` instead: each exponent vector is packed
into one integer, in slots wide enough for the sum's exponent bound, so a
product of monomials is an integer addition that never carries between
slots; the sum stays unreduced under packed keys until its one reduction
mod p, and only the surviving terms are unpacked back into tuples. The
packed e_j and their powers e_j^e (``elementary``, ``elementary_power``)
are read-only views kept in memos, the powers in one bounded by entries,
so sums that share them build each once. The reduced powers of
``steenrod`` run on the same layout through a ``_PackedSum`` of their own,
the only way into it: a polynomial is packed once (``pack``), every
reduced power and difference of the Milnor recursion stays packed, each
key's shape mod q and its shift are read in one call (``shapes``), and the
result is unpacked once (``result``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import add
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .fp import Prime, _byte_residues, _integer

__all__ = [
    "Monomial",
    "MultiPoly",
    "UniPoly",
    "elementary_sym",
    "power_sum",
    "is_symmetric",
    "diagonal_eval",
]

Monomial = tuple[int, ...]


def _unit(n: int, i: int) -> Monomial:
    """Exponent tuple of the i-th of n generators, 1-based."""
    return (0,) * (i - 1) + (1,) + (0,) * (n - i)


class _FpTable:
    """Finitely supported map from keys to nonzero residues mod p.

    The shared core of the sparse rings: ``terms`` is in canonical form
    (every value reduced mod p, no zero values), and two tables combine only
    when they have the same exact type and the same ``_ring()``, so distinct
    rings never mix even though they share this code. Subclasses validate
    outside input in their public constructors; results of ring operations
    go through the unchecked ``_canonical``/``_like`` path instead.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: Prime, terms: Mapping) -> None:
        q = p.value
        self.p = p
        self.terms = {key: r for key, c in terms.items() if (r := c % q)}

    @classmethod
    def _canonical(cls, p: Prime, terms: Mapping):
        """Element of this ring from raw integer values under valid keys, unchecked."""
        out = object.__new__(cls)
        _FpTable.__init__(out, p, terms)
        return out

    def _ring(self) -> tuple:
        return (self.p,)

    def _like(self, terms: Mapping):
        """Element of self's ring from raw integer values under valid keys, unchecked."""
        return self._canonical(*self._ring(), terms)

    def _match(self, other: "_FpTable") -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self._ring() != other._ring():
            mine, theirs = (", ".join(map(str, x._ring())) for x in (self, other))
            raise ValueError(f"{type(self).__name__} ring mismatch: {mine} vs {theirs}")

    def __add__(self, other):
        self._match(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0) + c
        return self._like(acc)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        return self._like({key: k * c for key, k in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._ring() == other._ring() and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p}, {self.render()})"


class _ExpPoly(_FpTable):
    """Polynomial in n generators keyed by exponent tuples.

    The ring descriptor is the generator letter and whether generator j has
    weight j or weight 1; the graded order (weighted degree first, then
    exponents, largest first within a degree) fixes the rendering.
    """

    __slots__ = ("n",)
    _LETTER = "t"
    _WEIGHTED = False

    def __init__(self, n: int, p: Prime, terms: Mapping[Monomial, int] | None = None):
        self.n = n = _integer(n, "n")
        if n < 1:
            raise ValueError(f"need at least one generator, got n={n}")
        checked: dict[Monomial, int] = {}
        for mono, c in (terms or {}).items():
            if len(mono) != n:
                raise ValueError(f"exponent vector {mono} has length {len(mono)}, expected {n}")
            key = tuple(_integer(e, "exponent") for e in mono)
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {mono}")
            checked[key] = _integer(c, "coefficient")
        super().__init__(p, checked)

    @classmethod
    def _canonical(cls, n: int, p: Prime, terms: Mapping[Monomial, int]):
        out = super()._canonical(p, terms)
        out.n = n
        return out

    def _ring(self) -> tuple:
        return (self.n, self.p)

    @classmethod
    def zero(cls, n: int, p: Prime):
        return cls(n, p)

    @classmethod
    def constant(cls, n: int, p: Prime, c: int):
        return cls(n, p, {(0,) * n: c})

    @classmethod
    def one(cls, n: int, p: Prime):
        return cls.constant(n, p, 1)

    @classmethod
    def _generator(cls, n: int, p: Prime, i: int):
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        return cls(n, p, {_unit(n, i): 1})

    def _mul(self, other):
        # Bound as each ring's own ``__mul__``, where the benchmark's tracer wraps it.
        # A one-off product unpacks every term it makes, so it keeps tuple keys;
        # long sums of products go through ``_PackedSum`` instead.
        self._match(other)
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                acc[m] = acc.get(m, 0) + c1 * c2
        return self._like(acc)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = self.one(self.n, self.p)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def _degree(self, mono: Monomial) -> int:
        return sum(j * e for j, e in enumerate(mono, 1)) if self._WEIGHTED else sum(mono)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(
            self.terms.items(), key=lambda kv: (self._degree(kv[0]), tuple(-e for e in kv[0]))
        )

    def render(self) -> str:
        """Canonical text form, e.g. ``t1^2*t2 + t1*t2^2``."""
        if not self.terms:
            return "0"
        x = self._LETTER
        parts = []
        for mono, c in self.sorted_terms():
            factors = [f"{x}{i}" if e == 1 else f"{x}{i}^{e}" for i, e in enumerate(mono, 1) if e]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, p={self.p}, {self.render()})"


@lru_cache(maxsize=None)
def _slot_layout(n: int, width: int) -> tuple[
    tuple[int, ...],
    Callable[[Sequence[int]], int],
    Callable[[int], Sequence[int]],
    Callable[[int], Callable[[int], tuple[int, Sequence[int]]]],
]:
    """The layout of n slots of ``width`` bits: the packed keys of t1, ..., tn
    (t_k is 1 << width (k - 1)), the packer of one exponent tuple, the reader
    of one key back into its n exponents, and, for a modulus q, the reader of
    one key's (shift, shape) mod q, built once per q: its exponents mod q with
    the zero slots at both ends stripped, and the bits of those at the low end.
    One-byte slots are the key's bytes, and their residues mod q are those
    bytes translated through one 256-byte table, in one C call."""
    units = tuple(1 << shift for shift in range(0, n * width, width))
    if width == 8:

        @lru_cache(maxsize=None)
        def shapes(q: int) -> Callable[[int], tuple[int, bytes]]:
            table = _byte_residues(min(q, 256))  # for q >= 256 every byte is its residue

            def shape(key: int) -> tuple[int, bytes]:
                tail = key.to_bytes(n, "little").translate(table).lstrip(b"\0")
                return (n - len(tail)) * 8, tail.rstrip(b"\0")
            return shape

        return (
            units,
            lambda mono: int.from_bytes(mono, "little"),
            lambda key: key.to_bytes(n, "little"),
            shapes,
        )
    size = width // 8

    def pack(mono: Sequence[int]) -> int:
        return int.from_bytes(b"".join(e.to_bytes(size, "little") for e in mono), "little")

    def read(key: int) -> list[int]:
        raw = key.to_bytes(n * size, "little")
        return [int.from_bytes(raw[s : s + size], "little") for s in range(0, n * size, size)]

    @lru_cache(maxsize=None)
    def shapes(q: int) -> Callable[[int], tuple[int, tuple[int, ...]]]:
        def shape(key: int) -> tuple[int, tuple[int, ...]]:
            res = [e % q for e in read(key)]
            support = [k for k, r in enumerate(res) if r] or [n, n - 1]  # or the empty shape
            return support[0] * width, tuple(res[support[0] : support[-1] + 1])
        return shape

    return units, pack, read, shapes


@lru_cache(maxsize=None)
def _packed_elementary(n: int, j: int, width: int) -> Mapping[int, int]:
    """e_j in n variables under packed keys, as a read-only view."""
    units = _slot_layout(n, width)[0]
    return MappingProxyType(dict.fromkeys(map(sum, combinations(units, j)), 1))


@lru_cache(maxsize=1 << 10)
def _packed_elementary_power(n: int, j: int, width: int, p: Prime, e: int) -> Mapping[int, int]:
    """e_j^e in n variables under packed keys, reduced mod p, as a read-only view.

    For e >= 1, by binary powering from the top: the square of e_j^(e // 2),
    read from this same memo, times e_j when e is odd. So the powers of one
    e_j share their halves, and e_j^1 is ``_packed_elementary``'s own view."""
    base = _packed_elementary(n, j, width)
    if e == 1:
        return base
    q = p.value
    half = _packed_elementary_power(n, j, width, p, e >> 1)
    out = _product(half, half, q)
    return MappingProxyType(_product(out, base, q) if e & 1 else out)


def _mac(acc: dict[int, int], a: Mapping[int, int], b: Mapping[int, int], scale: int) -> dict:
    """Add scale * a * b into acc, all three keyed by packed exponents; returns acc."""
    get = acc.get
    for k1, c1 in a.items():
        c1 *= scale
        for k2, c2 in b.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


def _product(a: Mapping[int, int], b: Mapping[int, int], q: int) -> dict[int, int]:
    """The packed product a * b, reduced mod q."""
    return {k: r for k, c in _mac({}, a, b, 1).items() if (r := c % q)}


class _PackedSum:
    """A sum of products in F_p[t1, ..., tn], under packed-integer keys.

    An exponent vector is one integer whose slot k, ``width`` bits wide, holds
    the k-th exponent (Monagan and Pearce's packed monomials); a monomial packs
    as its exponents times the generators' keys ``units``, ``read`` turns a
    key back into its exponents, and ``shapes(q)`` gives the reader of a
    key's shape mod q, its exponents mod q stripped of the zero slots at both
    ends, with the bits of those at the low end. ``width`` is the narrowest
    whole number of bytes that holds ``bound``. While every exponent of every
    product stays at most ``bound``, the product of two monomials is the sum
    of their keys, and no slot carries into the next. Products add into
    ``terms`` unreduced, and ``result`` reduces the whole sum mod p once and
    unpacks only the entries that survive. This class is the only way into
    the layout: ``steenrod``'s reduced powers pack, read shapes, walk and unpack
    through it too.
    """

    __slots__ = ("n", "p", "width", "units", "read", "shapes", "_pack", "terms")

    def __init__(self, n: int, p: Prime, bound: int) -> None:
        """An empty sum in n generators over F_p, for exponents up to ``bound``."""
        self.n, self.p = n, p
        self.width = width = 8 * (-(-bound.bit_length() // 8) or 1)  # the fewest whole bytes
        self.units, self._pack, self.read, self.shapes = _slot_layout(n, width)
        self.terms: dict[int, int] = {}

    def pack(self, terms: Mapping[Monomial, int]) -> dict[int, int]:
        """terms keyed by packed exponents instead; every exponent at most the bound."""
        pack = self._pack
        return {pack(mono): c for mono, c in terms.items()}

    def elementary(self, j: int) -> Mapping[int, int]:
        """e_j under packed keys, for 0 <= j <= n."""
        return _packed_elementary(self.n, j, self.width)

    def elementary_power(self, j: int, e: int) -> Mapping[int, int]:
        """e_j^e under packed keys, reduced mod p, for 1 <= j <= n and e >= 1:
        a read-only view shared through a bounded memo."""
        return _packed_elementary_power(self.n, j, self.width, self.p, e)

    def power_sum(self, e: int) -> dict[int, int]:
        """t1^e + ... + tn^e under packed keys."""
        return {u * e: 1 for u in self.units}

    def mac(self, a: Mapping[int, int], b: Mapping[int, int], scale: int = 1) -> None:
        """Add scale * a * b, two packed term tables, into the sum, unreduced."""
        _mac(self.terms, a, b, scale)

    def product(self, a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
        """The packed product a * b, reduced mod p."""
        return _product(a, b, self.p.value)

    def result(self) -> "MultiPoly":
        """The sum reduced mod p, with its surviving keys unpacked.

        The terms are reduced here, once, so the result is filled in directly
        rather than reduced a second time by ``_canonical``."""
        q, read = self.p.value, self.read
        out = object.__new__(MultiPoly)
        out.n, out.p = self.n, self.p
        out.terms = {tuple(read(k)): r for k, c in self.terms.items() if (r := c % q)}
        return out


class MultiPoly(_ExpPoly):
    """Element of F_p[t1, ..., tn] in canonical sparse form (no zero coefficients)."""

    __slots__ = ()
    __mul__ = _ExpPoly._mul

    @classmethod
    def variable(cls, n: int, p: Prime, i: int) -> "MultiPoly":
        """The generator t_i, 1-based."""
        return cls._generator(n, p, i)

    def total_degree(self) -> int:
        """Largest internal degree among terms, -1 for the zero polynomial."""
        return max(map(self._degree, self.terms), default=-1)


class UniPoly(_FpTable):
    """Element of F_p[u], sparse by exponent of u."""

    __slots__ = ()

    def __init__(self, p: Prime, coeffs: Mapping[int, int] | None = None):
        checked: dict[int, int] = {}
        for e, c in (coeffs or {}).items():
            e = _integer(e, "exponent")
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            checked[e] = _integer(c, "coefficient")
        super().__init__(p, checked)

    @property
    def coeffs(self) -> dict[int, int]:
        return self.terms

    @classmethod
    def zero(cls, p: Prime) -> "UniPoly":
        return cls(p)

    @classmethod
    def one(cls, p: Prime) -> "UniPoly":
        return cls(p, {0: 1})

    @classmethod
    def monomial(cls, p: Prime, e: int, c: int = 1) -> "UniPoly":
        return cls(p, {e: c})

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._match(other)  # a u-exponent is a packed key of one slot
        return self._like(_mac({}, self.terms, other.terms, 1))

    def coefficient(self, e: int) -> int:
        return self.terms.get(e, 0)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
            else:
                u = "u" if e == 1 else f"u^{e}"
                parts.append(u if c == 1 else f"{c}*{u}")
        return " + ".join(parts)


@lru_cache(maxsize=None)
def elementary_sym(n: int, i: int, p: Prime) -> MultiPoly:
    """The i-th elementary symmetric polynomial in n variables; e_0 = 1, e_i = 0 past n."""
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    if i == 0:
        return MultiPoly.one(n, p)
    if i > n:
        return MultiPoly.zero(n, p)
    terms: dict[Monomial, int] = {}
    for subset in combinations(range(n), i):
        mono = tuple(1 if j in subset else 0 for j in range(n))
        terms[mono] = 1
    return MultiPoly._canonical(n, p, terms)


def power_sum(n: int, i: int, p: Prime) -> MultiPoly:
    """t1^i + ... + tn^i for i >= 1. The index 0 case is deliberately undefined."""
    if n < 1:
        raise ValueError(f"need at least one generator, got n={n}")
    i = _integer(i, "i")
    if i < 1:
        raise ValueError(f"power sums start at index 1, got {i}")
    terms = {(0,) * j + (i,) + (0,) * (n - 1 - j): 1 for j in range(n)}
    return MultiPoly._canonical(n, p, terms)


def is_symmetric(f: MultiPoly) -> bool:
    """True iff f is fixed by every adjacent transposition of variables."""
    for k in range(f.n - 1):
        swapped: dict[Monomial, int] = {}
        for mono, c in f.terms.items():
            m = list(mono)
            m[k], m[k + 1] = m[k + 1], m[k]
            swapped[tuple(m)] = c
        if swapped != f.terms:
            return False
    return True


def diagonal_eval(f: MultiPoly) -> UniPoly:
    """Image of f under the diagonal substitution ti -> u for every i."""
    acc: dict[int, int] = {}
    for mono, c in f.terms.items():
        d = sum(mono)
        acc[d] = acc.get(d, 0) + c
    return UniPoly._canonical(f.p, acc)


