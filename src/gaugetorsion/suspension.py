"""Formal model of the restricted double suspension as a Leibniz derivation.

The engine tracks the operator Dk = (restriction to the circle fiber) after
(free double suspension) on the characteristic-class ring, using only its
algebraic axioms:

* Dk is additive and satisfies Dk(P*Q) = Dk(P) phi(Q) + phi(P) Dk(Q), where
  phi is the binomial restriction of ``chern.phi_star``;
* Dk(c1) = k, the integer labeling the bundle component, a known scalar;
* Dk(cj) = gj u^(j-1) for j >= 2, where gj is an undetermined scalar.

The unknowns gj are kept symbolic throughout. The proof being mechanized
never determines them individually, and nothing here may depend on their
values; the invariants in the test suite fail if a result accidentally does.

The alpha sequence is defined by alpha_i u^i = Dk(S_(i+1)) with S_m the
lifted power sum. Applying Dk to the power-sum relation of ``verify_newton``
and using that every restricted power sum vanishes when p divides n yields a
linear recurrence on the alpha forms. The nonzero entries of its first row
are the mod-p Newton taps of ``chern._newton_taps``, read only after their
forcing terms are checked, and kept as sparse (j, c_j) pairs throughout.
The engine's one cached pass per (n, p) checks those taps against the exact
first row of the companion matrix, then runs them once as a scalar impulse
response. Because that matrix has p-power order, the alpha window returns to
its start after p_power_ceil(n, p) steps. The pass checks that return and
reports the first p-power step that makes it as the matrix order. The return
pins alpha at every p-power index and lets ``solve_alpha_p`` close the chain,
read off the nonzero slots of the pass's levels,

    -g2 = alpha_p = alpha_(p^m) = alpha_0 = k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Mapping

from .chern import ChernPoly, _newton_taps, lift_power_sum, phi_star
from .fp import FpScalar, Prime, _integer, _prime, p_power_ceil
from .matrices import FpMatrix, _companion_row
from .polyring import UniPoly, _FpTable

__all__ = [
    "LinearForm",
    "GradedForm",
    "AlphaVector",
    "TraceRecord",
    "AlphaSolution",
    "MechanizationError",
    "apply_suspension",
    "alpha_init",
    "derive_recurrence",
    "alpha_at",
    "solve_alpha_p",
]

class MechanizationError(RuntimeError):
    """The symbolic derivation contradicted itself; this should never fire."""


class LinearForm(_FpTable):
    """Affine form over F_p: a constant plus a combination of unknowns g2..gn.

    The constant is kept at index 0 of ``terms``, each unknown gj at index j.
    """

    __slots__ = ()

    def __init__(self, p: Prime, const: int = 0, coeffs: Mapping[int, int] | None = None):
        p = _prime(p)
        checked = {0: _integer(const, "constant")}
        for j, c in (coeffs or {}).items():
            j = _integer(j, "unknown index")
            if j < 2:
                raise ValueError(f"unknown index {j} out of range")
            checked[j] = _integer(c, "coefficient")
        super().__init__(p, checked)

    @property
    def const(self) -> int:
        return self.terms.get(0, 0)

    @property
    def coeffs(self) -> dict[int, int]:
        return {j: c for j, c in self.terms.items() if j}

    @classmethod
    def constant(cls, p: Prime, c: int) -> "LinearForm":
        return cls(p, c)

    @classmethod
    def unknown(cls, p: Prime, j: int, coeff: int = 1) -> "LinearForm":
        return cls(p, 0, {j: coeff})

    def substitute(self, j: int, value: int) -> "LinearForm":
        """Pin unknown j to a scalar."""
        j, value = _integer(j, "j"), _integer(value, "value")
        if not j or j not in self.terms:
            return self
        acc = dict(self.terms)
        acc[0] = acc.get(0, 0) + acc.pop(j) * value
        return self._like(acc)

    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    def unknowns(self) -> tuple[int, ...]:
        return tuple(sorted(j for j in self.terms if j))

    def render(self) -> str:
        parts = [str(self.const)] if self.const or self.is_constant() else []
        for j in self.unknowns():
            c = self.terms[j]
            parts.append(f"g{j}" if c == 1 else f"{c}*g{j}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LinearForm({self.render()} mod {self.p})"


class GradedForm(_FpTable):
    """Finitely supported map from u-exponents to nonzero linear forms.

    One core table keyed by (u-exponent, form index): index 0 holds a layer's
    constant and index j its coefficient of gj, as in ``LinearForm``.
    """

    __slots__ = ()

    def __init__(self, p: Prime, forms: Mapping[int, LinearForm] | None = None):
        like = LinearForm(p)
        terms: dict[tuple[int, int], int] = {}
        for e, f in (forms or {}).items():
            e = _integer(e, "u-exponent")
            if e < 0:
                raise ValueError(f"negative u-exponent {e}")
            like._match(f)
            terms.update({(e, j): c for j, c in f.terms.items()})
        super().__init__(p, terms)

    @classmethod
    def zero(cls, p: Prime) -> "GradedForm":
        return cls(p)

    @property
    def forms(self) -> dict[int, LinearForm]:
        layers: dict[int, dict[int, int]] = {}
        for (e, j), c in sorted(self.terms.items()):
            layers.setdefault(e, {})[j] = c
        return {e: LinearForm._canonical(self.p, t) for e, t in layers.items()}

    def mul_uni(self, u: UniPoly) -> "GradedForm":
        """Multiply by a known element of F_p[u]."""
        UniPoly(self.p)._match(u)
        acc: dict[tuple[int, int], int] = {}
        for (e1, j), c1 in self.terms.items():
            for e2, c2 in u.terms.items():
                acc[e1 + e2, j] = acc.get((e1 + e2, j), 0) + c1 * c2
        return self._like(acc)

    def at(self, e: int) -> LinearForm:
        e = _integer(e, "e")
        return LinearForm._canonical(self.p, {j: c for (d, j), c in self.terms.items() if d == e})

    def render(self) -> str:
        parts = []
        for e, f in self.forms.items():
            u = "1" if e == 0 else ("u" if e == 1 else f"u^{e}")
            parts.append(f"({f.render()})*{u}")
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"GradedForm({self.render()})"


@dataclass(frozen=True)
class AlphaVector:
    """Window of alpha forms ordered top-down: (alpha_(n-1), ..., alpha_0)."""

    entries: tuple[LinearForm, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def alpha(self, i: int) -> LinearForm:
        """alpha_i for 0 <= i < n."""
        i, n = _integer(i, "i"), len(self.entries)
        if not 0 <= i < n:
            raise ValueError(f"index {i} outside window 0..{n - 1}")
        return self.entries[n - 1 - i]


@dataclass(frozen=True)
class TraceRecord:
    """One resolved step of the derivation, serializable in order."""

    relation: str
    source: str
    resolved_value: int | None

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "source": self.source,
            "resolved_value": self.resolved_value,
        }


@dataclass(frozen=True)
class AlphaSolution:
    """Result of the alpha_p resolution: the value, the step trace, and the
    unknowns that were actually pinned along the way."""

    value: FpScalar
    trace: tuple[TraceRecord, ...]
    assigned: tuple[tuple[int, int], ...]  # (unknown index, pinned value)


def _k_value(k: int | FpScalar, p: Prime) -> int:
    """The class k as an int: an int through ``operator.index``, or an
    ``FpScalar`` whose modulus is p by its residue; a scalar over another
    prime raises ValueError, and anything else TypeError."""
    if isinstance(k, FpScalar):
        if k.modulus != p:
            raise ValueError(f"k is a residue mod {k.modulus}, not mod {p}")
        return k.residue
    return _integer(k, "k")


def apply_suspension(poly: ChernPoly, k: int | FpScalar) -> GradedForm:
    """Apply the derivation Dk to an explicit polynomial in c1..cn.

    Expands by the Leibniz rule through formal partials:
    Dk(P) = sum_j phi(dP/dcj) * gj * u^(j-1), with g1 = k known.
    """
    k = _k_value(k, poly.p)
    out: dict[tuple[int, int], int] = {}
    for j in range(1, poly.n + 1):
        # Dk(c1) = k lands in the constant slot 0, Dk(cj) = gj in slot j.
        slot, weight = (0, k) if j == 1 else (j, 1)
        for e, c in phi_star(poly.partial(j)).coeffs.items():
            key = (e + j - 1, slot)
            out[key] = out.get(key, 0) + c * weight
    return GradedForm._canonical(poly.p, out)


def alpha_init(n: int, p: Prime, k: int | FpScalar) -> AlphaVector:
    """The starting window (alpha_(n-1), ..., alpha_0) from lifted power sums.

    alpha_i is read off as the u^i coefficient of Dk applied to the (i+1)-st
    lifted power sum; the derivation must land in that single degree, and a
    stray degree is treated as an engine contradiction.
    """
    p = _prime(p)
    n, k = _integer(n, "n", 2), _k_value(k, p)
    forms: list[LinearForm] = []
    for i in reversed(range(n)):
        graded = apply_suspension(lift_power_sum(i + 1, n, p), k)
        for e in graded.forms:
            if e != i:
                raise MechanizationError(
                    f"suspension of power sum {i + 1} leaked into degree {e}"
                )
        forms.append(graded.at(i))
    return AlphaVector(tuple(forms))


def _derived_row(n: int, p: Prime) -> tuple[tuple[int, int], ...]:
    """Taps ((j, c_j), ...) of the alpha recurrence, the nonzero entries of its
    first row ascending in column j, after checking the step of the
    derivation that yields them; requires p | n and an n >= 2 read by the caller.

    Applying Dk to the power-sum relation splits into two families of terms.
    The family Dk(cj) * phi(power sum) dies because every restricted power
    sum vanishes mod p when p divides n. That is checked, not assumed: the
    sums obey s_i = sum_(j<i) c_j s_(i-j) + i c_i, triangular with a unit
    diagonal, so they all vanish exactly when every forcing term j c_j does.
    The surviving family phi(cj) * Dk(power sum) contributes the first row,
    whose nonzero entries are the mod-p Newton taps c_j of ``_newton_taps``.
    The remaining rows of the recurrence matrix just shift the window.
    """
    if n % p.value != 0:
        raise ValueError(f"recurrence needs p | n, got n={n}, p={p}")
    taps = _newton_taps(n, p.value)
    for j, c in taps:
        if j * c % p.value:
            raise MechanizationError(
                f"restricted power sum {j} did not vanish for n={n}, p={p}"
            )
    return taps


def derive_recurrence(n: int, p: Prime) -> FpMatrix:
    """Extract the alpha recurrence matrix; requires p dividing n.

    The first row is ``_derived_row``'s taps laid out densely, c_j in column
    j; the rows below it shift the window by one step.
    """
    p = _prime(p)
    n = _integer(n, "n", 2)
    rows = [[0] * n for _ in range(n)]
    for j, c in _derived_row(n, p):
        rows[0][j - 1] = c
    for i in range(1, n):
        rows[i][i - 1] = 1
    return FpMatrix(p, rows)


def _alpha_walk(n: int, p: Prime, k: int | FpScalar, stop: int) -> list[LinearForm]:
    """[alpha_0, ..., alpha_stop] by the definitional route: one ``alpha_init``
    window, then the derived recurrence taps past n (read only if stop >= n)."""
    init = alpha_init(n, p, k)
    alphas = [init.alpha(m) for m in range(min(n, stop + 1))]
    if stop >= n:
        taps = _derived_row(n, p)
        for i in range(n, stop + 1):
            nxt = LinearForm(p)
            for j, c in taps:
                nxt = nxt + alphas[i - j].scale(c)
            alphas.append(nxt)
    return alphas


def alpha_at(i: int, n: int, p: Prime, k: int | FpScalar) -> LinearForm:
    """alpha_i as a linear form; the window below n, the recurrence above it."""
    p = _prime(p)
    i, n, k = _integer(i, "i", 0), _integer(n, "n"), _k_value(k, p)
    if n % p.value != 0:
        raise ValueError(f"alpha recurrence needs p | n, got n={n}, p={p}")
    return _alpha_walk(n, p, k, i)[i]


@lru_cache(maxsize=None)
def _symbolic_alphas(n: int, p: Prime) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """The order mod p of the recurrence matrix, and the alpha levels at the
    p-power indices up to p_power_ceil(n, p), the one at p^level in place
    ``level``; requires p dividing n.

    A level is alpha_e's nonzero (slot, value) pairs, ascending in slot: slot
    j holds the coefficient of gj and slot 1 that of a symbolic k, and the
    constant, always 0, has no slot. The taps of ``_derived_row`` are compared
    with the nonzero residues mod p of the companion matrix's exact first row
    before any tap runs. Only the Leibniz family phi(cj) * Dk(S_(m-j)) is
    run, the other carrying the restricted power sums checked to vanish.
    That recurrence is linear and time-invariant, and slot s is driven by one
    impulse, (-1)^(s+1) s at step s. So one scalar pass runs the impulse
    response h of the taps, and slot s of alpha_e is (-1)^(s+1) s h[e + 1 - s].
    The definitional ``alpha_init``/``alpha_at`` route is its test oracle.

    The impulse is a cyclic vector of the companion matrix M, so M^e = I
    exactly when the window of h at step e is its starting window. The first
    p-power e that returns it is the order; if none up to p_power_ceil(n, p)
    does, the pass raises. The matrix route (``order_mod_p``) is its oracle.
    """
    q = p.value
    taps = _derived_row(n, p)
    if taps != tuple((j, r) for j, c in enumerate(_companion_row(n), 1) if (r := c % q)):
        raise MechanizationError(
            f"derived recurrence disagrees with the companion matrix at n={n}, p={p}"
        )
    top = p_power_ceil(n, p)
    h = [0] * (n - 1) + [1]  # h[n - 1 + t] is the response at step t, 0 before step 0
    for _ in range(top):
        acc = 0
        for j, c in taps:
            acc += c * h[-j]
        h.append(acc % q)
    order = None
    alphas = []
    e = 1
    while e <= top:
        if order is None and h[e : e + n] == h[:n]:
            order = e
        signed = ((s, s if s % 2 else -s) for s in range(1, n + 1))
        alphas.append(tuple((s, r) for s, c in signed if (r := c * h[n + e - s] % q)))
        e *= q
    if order is None:
        raise MechanizationError(
            f"the alpha window does not return to its start by step {top} at n={n}, p={p}"
        )
    return order, tuple(alphas)


def solve_alpha_p(n: int, p: Prime, k: int | FpScalar) -> AlphaSolution:
    """Resolve alpha_p by closing the relation chain; must come out to k mod p.

    Steps, each recorded in the trace:

    1. the alpha form at the top p-power index p^m = p_power_ceil(n, p) must
       collapse to the bare symbol k, because the recurrence window returns
       to its start after a p-power number of steps;
    2. the level-m commutation relation g2 = -alpha_(p^m) pins g2 = -k;
    3. every lower-level relation g2 = -alpha_(p^level) must stay satisfiable
       after the pin, with any leftover unknowns free;
    4. alpha_p is read back from the pinned g2 as -g2.

    Raises MechanizationError if the chain fails to close; unknowns g3..gn
    are never assigned, so the verdict cannot depend on them.
    """
    if not isinstance(p, Prime):  # inline, as n and k are below
        _prime(p)  # raises, naming p
    try:  # the int case inline: this is every warm decision's path
        n, k = index(n), index(k)
    except TypeError:
        n, k = _integer(n, "n"), _k_value(k, p)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    q = p.value
    if n % q != 0:
        raise ValueError(f"alpha resolution needs p | n, got n={n}, p={p}")
    return _resolve_alpha(n, p, k % q)


@lru_cache(maxsize=4096)
def _resolve_alpha(n: int, p: Prime, k_res: int) -> AlphaSolution:
    """``solve_alpha_p`` for a checked (n, p) and k reduced mod p, memoized.

    Callers with one key share one immutable result. The bound keeps a long
    process's table small; the keys of every n <= 40 number 418.
    """
    q = p.value
    alphas = _symbolic_alphas(n, p)[1]
    m = len(alphas) - 1
    top_index = q**m
    trace: list[TraceRecord] = []

    if alphas[m] != ((1, 1),):
        raise MechanizationError(
            f"alpha at index {top_index} has row {list(alphas[m])} "
            "(slot 1 k, slot j gj), not the bare symbol k"
        )
    trace.append(
        TraceRecord(
            relation=f"alpha_{top_index} = alpha_0",
            source="the recurrence matrix has p-power order, so the alpha window "
            f"returns to its start after {top_index} steps",
            resolved_value=k_res,
        )
    )

    g2_value = (-k_res) % q
    trace.append(
        TraceRecord(
            relation=f"g2 = -alpha_{top_index}",
            source="the Milnor primitive commutes with the suspension, making the "
            "c2 coefficient equal to minus alpha at every p-power index",
            resolved_value=g2_value,
        )
    )

    for level in range(1, m + 1):
        row = alphas[level]
        k_coeff = row[0][1] if row and row[0][0] == 1 else 0  # slot 1 leads when present
        residual = (k_coeff * k_res + g2_value) % q
        free = [j for j, _ in row if j > 1]
        if not free and residual:
            raise MechanizationError(
                f"relation g2 = -alpha_{q**level} is inconsistent: "
                f"residual {residual} mod {q}"
            )
        trace.append(
            TraceRecord(
                relation=f"g2 + alpha_{q**level} = 0",
                source="commutation relation at level "
                f"{level}; satisfiable"
                + (f" with {', '.join('g%d' % j for j in free)} free" if free else ""),
                resolved_value=0 if not free else None,
            )
        )

    value = (-g2_value) % q
    trace.append(
        TraceRecord(
            relation="alpha_p = -g2",
            source="level-1 commutation relation read back through the pinned "
            "c2 coefficient",
            resolved_value=value,
        )
    )
    return AlphaSolution(
        value=FpScalar(value, p),
        trace=tuple(trace),
        assigned=((2, g2_value),),
    )
