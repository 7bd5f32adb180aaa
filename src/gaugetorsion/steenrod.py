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
which is the Cartan formula pushed down to exponent vectors. R^i walks only
each monomial's support, the variables with a nonzero exponent, over the
Lucas rows of ``fp._lucas_row`` cut at i, which list only the nonvanishing
shares; the last support variable takes what is left of i by one lookup.
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


def _reduced_powers(acc: _PackedSum) -> Callable[[int, _Packed], dict[int, int]]:
    """The walk (i, terms) -> R^i(terms), reduced mod p, for i >= 1, on acc's
    packed keys, whose slots hold every exponent the walk reaches.

    Each monomial walks only its support. Every support slot but the last two
    runs over its Lucas row cut at i, keeping the nonzero shares it takes; it
    stops once the running sum s passes i and skips what the slots still to
    run cannot make up. The slot before the last runs its row up to i - s, and
    the last slot takes what is left, read from its row as a lookup. Each
    surviving split's target is the monomial's key plus a (p-1) times t_k's
    key for each share a of slot k. The Lucas rows come from a table that
    lives as long as the walk, keyed by i and then e.
    """
    p, units, read = acc.p.value, acc.units, acc.read
    table: dict[int, dict] = {}

    def power(i: int, terms: _Packed) -> dict[int, int]:
        cut = table.setdefault(i, {})  # e -> (row, row as a lookup, its largest share)
        acc: dict[int, int] = {}
        get = acc.get
        for key, c in terms.items():
            walk = []
            rest = 0  # the most the slots still to run can hold, the last two included
            for k, e in enumerate(read(key)):
                if e:
                    entry = cut.get(e)
                    if entry is None:
                        row = _lucas_row(e, i, p)
                        entry = cut[e] = (row, dict(row), row[-1][0])
                    walk.append((units[k] * (p - 1), entry))
                    rest += entry[2]
            if not walk:
                continue  # R^i of a constant is 0
            last_step, (_, last, _) = walk.pop()
            # the slot before the last, or with one support slot a slot that takes nothing
            prev_step, (prev_row, _, _) = walk.pop() if walk else (0, _TAKES_NOTHING)
            partial = [(0, c, key)]  # (running sum, coefficient, target key so far)
            for step, (row, _, most) in walk:
                rest -= most
                grown = []
                for s, coeff, target in partial:
                    low, high = i - rest - s, i - s  # the shares this slot may take
                    for a, b in row:
                        if a > high:
                            break
                        if a >= low:
                            grown.append((s + a, coeff * b, target + a * step))
                partial = grown
            for s, coeff, target in partial:
                high = i - s
                for a, b in prev_row:
                    if a > high:
                        break
                    if b_last := last.get(high - a):
                        target_here = target + a * prev_step + (high - a) * last_step
                        acc[target_here] = get(target_here, 0) + coeff * b * b_last
        return {key: r for key, c in acc.items() if (r := c % p)}

    return power


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
    acc.terms = _reduced_powers(acc)(i, acc.pack(f.terms))
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
    power = _reduced_powers(acc)

    def q(level: int, terms: _Packed) -> dict[int, int]:
        if level == 1:
            return power(1, terms)
        i = p ** (level - 1)
        diff = power(i, q(level - 1, terms))
        get = diff.get
        for key, c in q(level - 1, power(i, terms)).items():
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
