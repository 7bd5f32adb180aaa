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
with r the exponents mod q: the splits of a monomial depend only on its
residue class r. R^i runs once per class, not once per monomial: the plan of
a class, the key offsets and coefficients of R^i(t^r), is worked out the first
time the class is met and kept in a module-level table, keyed by
(p, i, n, slot width) and then by class, across calls; the table is cleared
when it holds ``_PLAN_CAP`` plans, and ``_plan_info()`` reads its hits,
misses and size like ``cache_info()``. A plan is built by walking only the
class's support, the variables with a nonzero residue, over the Lucas rows of
``fp._lucas_row`` cut at i, which list only the nonvanishing shares; the last
support variable takes what is left of i by one lookup.
At p = 2 the same formula realizes the even squares Sq^(2i) restricted to
the subring generated by degree-2 classes, the only place this module is
ever applied.

Reduced powers run on packed monomial keys, through one ``polyring._PackedSum``
per call, which alone knows the slot layout: its slots are sized once for
every exponent the whole computation can reach, so a share a of slot k adds
a (p-1) times t_k's key (``units[k]``) to the key and never carries.
``reduced_power`` packs f, walks it once and unpacks the result;
``milnor_q_recursive`` packs f once, keeps every reduced power and
difference of its recursion packed and reduced mod p, and unpacks once.
``milnor_q_closed``, the independent route, keeps tuple keys.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from typing import Callable, Mapping

from .fp import Prime, _lucas_row
from .polyring import Monomial, MultiPoly, _PackedSum, elementary_sym, power_sum

__all__ = [
    "reduced_power",
    "milnor_q_closed",
    "milnor_q_recursive",
    "check_milnor_on_c2",
]

_Packed = Mapping[int, int]  # packed exponent key -> residue mod p
_TAKES_NOTHING = (((0, 1),), None, 0)  # a walk's Lucas entry for a slot whose share is 0

# The split plans of every residue class met so far. For each (p, i, n, width)
# it keeps the reader of a key's class, the plans by class (each a tuple of
# (key offset, coefficient) pairs), the Lucas rows their walks read, by
# residue, and the key offset of a share of 1 in each slot. A call stores the
# plans it builds while the table has room; a call that finds _PLAN_CAP plans
# held empties the table first. _plan_counts holds the lookups, the misses and
# the plans held; the lock guards its updates and the emptying.
_PLAN_CAP = 1 << 13
_plans: dict[tuple[int, int, int, int], tuple[Callable, dict, dict, tuple]] = {}
_plan_counts = [0, 0, 0]
_plan_lock = threading.Lock()
_PlanInfo = namedtuple("_PlanInfo", "hits misses maxsize currsize")


def _plan_info() -> _PlanInfo:
    """The plan table's hits, misses, cap and size, shaped like ``cache_info()``."""
    with _plan_lock:
        lookups, misses, held = _plan_counts
    return _PlanInfo(lookups - misses, misses, _PLAN_CAP, held)


def _plan_clear() -> None:
    """Empty the plan table and zero its counts, like ``cache_clear()``."""
    with _plan_lock:
        _plans.clear()
        _plan_counts[:] = [0, 0, 0]


def _packed_power(acc: _PackedSum, i: int, terms: _Packed) -> dict[int, int]:
    """R^i(terms), reduced mod p, for i >= 1, on acc's packed keys, whose slots
    hold every exponent the walk reaches.

    Let q be the least power of p above i, and r a monomial's exponents mod q.
    By Lucas, binom(e, a) = binom(e mod q, a) mod p for every a < q, so
    R^i(t^e) = t^(e - r) R^i(t^r): a monomial's splits depend only on its class
    r. The plan of a class, its splits as (sum of a (p-1) times t_k's key over
    its shares a, product of binom(r_k, a) mod p) pairs, is kept in the module's
    table across calls, and R^i of a term is its key plus each offset. A class
    met for the first time is walked on r, and each split the walk finds goes
    into the result as well as into the plan. It walks only its support. Every
    support slot but the last two runs over its Lucas row cut at i, keeping the
    nonzero shares it takes; it stops once the running sum s passes i and skips
    what the slots still to run cannot make up. The slot before the last runs
    its row up to i - s, and the last slot takes what is left, read from its
    row as a lookup.
    """
    p, n, width = acc.p.value, acc.n, acc.width
    if _plan_counts[2] >= _PLAN_CAP:
        with _plan_lock:
            if _plan_counts[2] >= _PLAN_CAP:
                _plans.clear()
                _plan_counts[2] = 0
    room = max(_PLAN_CAP - _plan_counts[2], 0)  # the plans this call may add
    signature = (p, i, n, width)
    kept = _plans.get(signature)
    if kept is None:
        q = p  # the least power of p above i
        while q <= i:
            q *= p
        steps = tuple(unit * (p - 1) for unit in acc.units)  # a share of 1 in each slot
        kept = _plans.setdefault(signature, (acc.residues(q), {}, {}, steps))
    classify, plans, cut, steps = kept  # cut: r -> (row, row as a lookup, its largest share)
    misses = 0
    out: dict[int, int] = {}
    get = out.get
    for key, c in terms.items():
        res = classify(key)
        plan = plans.get(res)
        if plan is not None:
            for off, b in plan:
                target = key + off
                out[target] = get(target, 0) + c * b
            continue
        # a new class: walk it, adding each split to out as it is found
        walk = []
        rest = 0  # the most the slots still to run can hold, the last two included
        # only the slots from the key's lowest nonzero one to its highest can
        # hold a nonzero residue
        first = ((key & -key).bit_length() - 1) // width
        for k, e in enumerate(res[first : -(-key.bit_length() // width)], first):
            if e:
                entry = cut.get(e)
                if entry is None:
                    row = _lucas_row(e, i, p)
                    entry = cut[e] = (row, dict(row), row[-1][0])
                walk.append((steps[k], entry))
                rest += entry[2]
        splits = []
        if walk:  # R^i of a class of residues all 0, constants included, is 0
            last_step, (_, last, _) = walk.pop()
            # the slot before the last, or with one support slot a slot that takes nothing
            prev_step, (prev_row, _, _) = walk.pop() if walk else (0, _TAKES_NOTHING)
            partial = [(0, 1, 0)]  # (running sum, coefficient, offset so far)
            for step, (row, _, most) in walk:
                rest -= most
                grown = []
                for s, coeff, off in partial:
                    low, high = i - rest - s, i - s  # the shares this slot may take
                    for a, b in row:
                        if a > high:
                            break
                        if a >= low:
                            grown.append((s + a, coeff * b, off + a * step))
                partial = grown
            for s, coeff, off in partial:
                high = i - s
                for a, b in prev_row:
                    if a > high:
                        break
                    if b_last := last.get(high - a):
                        off_here = off + a * prev_step + (high - a) * last_step
                        b_here = coeff * b * b_last % p  # a product of units mod p, never 0
                        splits.append((off_here, b_here))
                        target = key + off_here
                        out[target] = get(target, 0) + c * b_here
        misses += 1
        if misses <= room:
            plans[res] = tuple(splits)
    with _plan_lock:
        _plan_counts[0] += len(terms)
        if misses:
            _plan_counts[1] += misses
            _plan_counts[2] += min(misses, room)
    return {key: r for key, c in out.items() if (r := c % p)}


def _top_exponent(f: MultiPoly) -> int:
    return max(map(max, f.terms), default=0)


def reduced_power(i: int, f: MultiPoly) -> MultiPoly:
    """The i-th reduced power R^i of f; R^0 is the identity.

    No exponent of R^i(f) passes f's largest exponent plus i(p-1), which sizes
    the slots of the one packed walk.
    """
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    if i == 0:
        return f
    acc = _PackedSum(f.n, f.p, _top_exponent(f) + i * (f.p.value - 1))
    acc.terms = _packed_power(acc, i, acc.pack(f.terms))
    return acc.result()


def milnor_q_closed(level: int, f: MultiPoly) -> MultiPoly:
    """Q_level(f) as a derivation: Q(ti) = ti^(p^level), extended by Leibniz."""
    if level < 1:
        raise ValueError(f"need level >= 1, got {level}")
    q = f.p.value**level
    acc: dict[Monomial, int] = {}
    for mono, c in f.terms.items():
        for j, e in enumerate(mono):
            if e:
                target = mono[:j] + (e - 1 + q,) + mono[j + 1 :]
                acc[target] = acc.get(target, 0) + c * e
    return f._like(acc)


def milnor_q_recursive(level: int, f: MultiPoly) -> MultiPoly:
    """Q_level(f) by the commutator recursion through reduced powers.

    Every term of the recursion tree has total degree at most p^level - 1
    above its source term, so no exponent passes f's largest exponent plus
    p^level - 1: that bound sizes the slots, f is packed once, and the result
    is unpacked once.
    """
    if level < 1:
        raise ValueError(f"need level >= 1, got {level}")
    p = f.p.value
    acc = _PackedSum(f.n, f.p, _top_exponent(f) + p**level - 1)

    def q(level: int, terms: _Packed) -> dict[int, int]:
        if level == 1:
            return _packed_power(acc, 1, terms)
        i = p ** (level - 1)
        diff = _packed_power(acc, i, q(level - 1, terms))
        get = diff.get
        for key, c in q(level - 1, _packed_power(acc, i, terms)).items():
            diff[key] = get(key, 0) - c
        return {key: r for key, c in diff.items() if (r := c % p)}

    acc.terms = q(level, acc.pack(f.terms))
    return acc.result()


def check_milnor_on_c2(
    n: int, p: Prime, level: int
) -> tuple[bool, MultiPoly, MultiPoly]:
    """Check Q_level(e_2) = s_1 * s_(p^level) - s_(p^level + 1) in n variables.

    Both Q implementations are evaluated; the check passes only if each equals
    the power-sum side. Returns (ok, lhs, rhs) with lhs from the recursion.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if level < 1:
        raise ValueError(f"need level >= 1, got {level}")
    e2 = elementary_sym(n, 2, p)
    q = p.value**level
    rhs = power_sum(n, 1, p) * power_sum(n, q, p) - power_sum(n, q + 1, p)
    lhs_rec = milnor_q_recursive(level, e2)
    lhs_closed = milnor_q_closed(level, e2)
    ok = lhs_rec == rhs and lhs_closed == rhs
    return ok, lhs_rec, rhs
