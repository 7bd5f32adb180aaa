"""Reduced power operations and Milnor primitive derivations on the torus ring.

Two independent implementations of the primitives Q_level are kept side by
side and cross-checked by the test suite:

* ``milnor_q_closed`` extends Q(ti) = ti^(p^level) over monomials by the
  Leibniz rule, the derivation characterization;
* ``milnor_q_recursive`` unwinds the commutator recursion
  Q_level = R^(p^(level-1)) Q_(level-1) - Q_(level-1) R^(p^(level-1)),
  starting from Q_1 = R^1, where R^i is the i-th reduced power.

On a single generator, R^i(t^e) = binom(e, i) t^(e + i(p-1)); products are
handled by summing over all ways of distributing i across the variables,
which is the Cartan formula pushed down to exponent vectors. Every share is
below q, the least power of p above i, and by Lucas' theorem
binom(e, a) = binom(e mod q, a) mod p for a < q, so R^i(t^e) = t^(e - r) R^i(t^r)
with r the exponents mod q. A slot of residue 0 takes no share, so the splits
of a monomial depend only on r's shape, r stripped of its leading and
trailing zero slots: t1 t2 and t3 t4 share one. The plan of a shape, the key
offsets and coefficients of R^i(t^shape), is the pure function
``_class_plan`` of (p, i, slot width, shape), in an ``lru_cache`` of 8192
plans. It walks only the shape's support, the slots with a nonzero residue,
over the Lucas rows of ``fp._lucas_row`` cut at i, which list only the
nonvanishing shares: each slot but the last keeps the shares that the slots
after it can still make up to i, and the last takes what is left by one
lookup, on one path for every shape.
At p = 2 the same formula realizes the even squares Sq^(2i) restricted to
the subring generated by degree-2 classes, the only place this module is
ever applied.

The recursion runs once per shape of a monomial mod q = p^level, not once
per polynomial. Each R^i it runs has i <= q / p, and R^a(t^s) = 0 for
0 < a < q when q divides every exponent of s, so t^s commutes with them
and Q_level(t^e) = t^(e - r) Q_level(t^r), r the exponents mod q. A slot of
residue 0 never moves, so Q_level(t^r) depends only on r's shape. The plan
of a shape, the key offsets and coefficients of Q_level(t^shape), is the
pure function ``_shape_plan`` of (p, level, slot width, shape), built by
running the recursion on t^shape alone, in an ``lru_cache`` of 8192 plans.

Both run on packed monomial keys, through one ``polyring._PackedSum`` per
call, which alone knows the slot layout: its slots are sized once for
every exponent the whole computation can reach, so a share a of slot k adds
a (p-1) times t_k's key, 1 << (k - 1) width, to the key and never carries.
The layout's ``shapes(q)`` reads a key's shape and the shift of its first
slot, and one walk, ``_walk``, adds each term's plan, shifted to that slot,
to the term's key. ``reduced_power`` and ``milnor_q_recursive`` pack f once,
walk it with their plan table and unpack once; they differ only in their
slot bound, their q and their table. ``milnor_q_closed``, the independent
route, keeps tuple keys.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count
from typing import Callable, Mapping, Sequence

from .fp import Prime, _expect, _integer, _lucas_row, _prime, p_power_ceil
from .polyring import Monomial, MultiPoly, _PackedSum, elementary_sym, power_sum

__all__ = [
    "reduced_power",
    "milnor_q_closed",
    "milnor_q_recursive",
    "check_milnor_on_c2",
]

_Packed = Mapping[int, int]  # packed exponent key -> residue mod p
_PlanTable = Callable[[int, int, int, Sequence[int]], tuple[tuple[int, int], ...]]


@lru_cache(maxsize=1 << 13)
def _class_plan(p: int, i: int, width: int, res: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The splits of R^i(t^r) for the shape r = res, in slots of ``width`` bits:
    each a (sum of a (p-1) times t_k's key over its shares a, product of
    binom(r_k, a) mod p) pair, the products that vanish mod p left out.

    The walk runs only over the support, the slots with a nonzero residue.
    Every support slot but the last runs over its Lucas row cut at i, keeping
    the nonzero shares a with s + a <= i that the slots after it can still
    make up to i, s the running sum. The last slot takes what is left, i - s,
    by one lookup in its row. The empty shape, that of constants and of every
    t^s with q dividing s, has no split.
    """
    walk = [((p - 1) << (k * width), _lucas_row(res[k], i, p)) for k in compress(count(), res)]
    if not walk:
        return ()
    last_step, last_row = walk.pop()
    last = dict(last_row)
    rest = sum(row[-1][0] for _, row in walk) + last_row[-1][0]  # the most the slots still to run hold
    partial = [(0, 1, 0)]  # (running sum, coefficient, offset so far)
    for step, row in walk:
        rest -= row[-1][0]
        grown = []
        for s, coeff, off in partial:
            low, high = i - rest - s, i - s  # the shares this slot may take
            for a, b in row:
                if a > high:
                    break
                if a >= low:
                    grown.append((s + a, coeff * b, off + a * step))
        partial = grown
    return tuple(  # each a product of units mod p, never 0
        (off + (i - s) * last_step, coeff * b % p)
        for s, coeff, off in partial
        if (b := last.get(i - s))
    )


def _walk(acc: _PackedSum, q: int, plan_of: _PlanTable, x: int, terms: _Packed) -> dict[int, int]:
    """The sum, unreduced, over the terms c t^e of c times the plan
    ``plan_of(p, x, width, shape)`` of e's shape mod q: each offset, shifted to
    the shape's first slot, added to e's key."""
    p, width, shape_of = acc.p.value, acc.width, acc.shapes(q)
    out: dict[int, int] = {}
    get = out.get
    for key, c in terms.items():
        shift, shape = shape_of(key)
        for off, b in plan_of(p, x, width, shape):
            target = key + (off << shift)
            out[target] = get(target, 0) + c * b
    return out


def _packed_power(acc: _PackedSum, i: int, terms: _Packed) -> dict[int, int]:
    """R^i(terms), reduced mod p, for i >= 1, on acc's packed keys, whose slots
    hold every exponent the walk reaches; q is the least power of p above i."""
    out = _walk(acc, p_power_ceil(i + 1, acc.p), _class_plan, i, terms)
    return {key: r for key, c in out.items() if (r := c % acc.p.value)}


def _top_exponent(f: MultiPoly) -> int:
    return max(map(max, f.terms), default=0)


def reduced_power(i: int, f: MultiPoly) -> MultiPoly:
    """The i-th reduced power R^i of f; R^0 is the identity.

    No exponent of R^i(f) passes f's largest exponent plus i(p-1), which sizes
    the slots of the one packed walk.
    """
    i = _integer(i, "i", 0)
    _expect(f, MultiPoly)
    if i == 0:
        return f
    acc = _PackedSum(f.n, f.p, _top_exponent(f) + i * (f.p.value - 1))
    acc.terms = _packed_power(acc, i, acc.pack(f.terms))
    return acc.result()


def milnor_q_closed(level: int, f: MultiPoly) -> MultiPoly:
    """Q_level(f) as a derivation: Q(ti) = ti^(p^level), extended by Leibniz."""
    level = _integer(level, "level", 1)
    q = _expect(f, MultiPoly).p.value**level
    acc: dict[Monomial, int] = {}
    for mono, c in f.terms.items():
        for j, e in enumerate(mono):
            if e:
                target = mono[:j] + (e - 1 + q,) + mono[j + 1 :]
                acc[target] = acc.get(target, 0) + c * e
    return f._like(acc)


def _commutator(acc: _PackedSum, level: int, terms: _Packed) -> dict[int, int]:
    """Q_level(terms), reduced mod p, on acc's packed keys by the commutator
    recursion Q_level = R^i Q_(level-1) - Q_(level-1) R^i, i = p^(level-1)."""
    if level == 1:
        return _packed_power(acc, 1, terms)
    p = acc.p.value
    i = p ** (level - 1)
    diff = _packed_power(acc, i, _commutator(acc, level - 1, terms))
    get = diff.get
    for key, c in _commutator(acc, level - 1, _packed_power(acc, i, terms)).items():
        diff[key] = get(key, 0) - c
    return {key: r for key, c in diff.items() if (r := c % p)}


@lru_cache(maxsize=1 << 13)
def _shape_plan(p: int, level: int, width: int, shape: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Q_level(t^shape) in len(shape) slots of ``width`` bits, by the
    commutator recursion: its (key offset from t^shape's key, coefficient
    mod p) pairs. The slots must hold every shape[k] + p^level - 1.

    The recursion runs on the one monomial t^shape, through ``_packed_power``
    and its class plans, in its own packed sum of len(shape) slots. The
    empty shape, that of every t^s with p^level dividing s, has no term.
    """
    acc = _PackedSum(len(shape), Prime(p), (1 << width) - 1)
    (source,) = terms = acc.pack({shape: 1})
    return tuple((key - source, c) for key, c in _commutator(acc, level, terms).items())


def milnor_q_recursive(level: int, f: MultiPoly) -> MultiPoly:
    """Q_level(f) by the commutator recursion through reduced powers.

    Every term of the recursion tree has total degree at most p^level - 1
    above its source term, so no exponent passes f's largest exponent plus
    p^level - 1: that bound sizes the slots, f is packed once, and the result
    is reduced mod p and unpacked once. Each term adds the plan of its shape
    mod p^level, shifted to the shape's first slot, to its own key.
    """
    level = _integer(level, "level", 1)
    q = _expect(f, MultiPoly).p.value**level
    acc = _PackedSum(f.n, f.p, _top_exponent(f) + q - 1)
    acc.terms = _walk(acc, q, _shape_plan, level, acc.pack(f.terms))
    return acc.result()


def check_milnor_on_c2(
    n: int, p: Prime, level: int
) -> tuple[bool, MultiPoly, MultiPoly, MultiPoly]:
    """Check Q_level(e_2) = s_1 * s_(p^level) - s_(p^level + 1) in n variables.

    Both Q implementations are evaluated; the check passes only if each equals
    the power-sum side. Returns (ok, lhs, rhs, closed) with lhs from the
    recursion and closed from the closed form.
    """
    p = _prime(p)
    n = _integer(n, "n", 2)
    level = _integer(level, "level", 1)
    e2 = elementary_sym(n, 2, p)
    q = p.value**level
    rhs = power_sum(n, 1, p) * power_sum(n, q, p) - power_sum(n, q + 1, p)
    lhs_rec = milnor_q_recursive(level, e2)
    lhs_closed = milnor_q_closed(level, e2)
    ok = lhs_rec == rhs and lhs_closed == rhs
    return ok, lhs_rec, rhs, lhs_closed
