import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaugetorsion import (
    ChernPoly,
    FpScalar,
    GradedForm,
    LinearForm,
    MechanizationError,
    Prime,
    UniPoly,
    alpha_at,
    alpha_init,
    apply_suspension,
    companion_matrix,
    derive_recurrence,
    order_brute,
    order_mod_p,
    p_power_ceil,
    phi_star,
    solve_alpha_p,
)
from gaugetorsion import suspension
from tests.conftest import PRIMES_235
from tests.test_chern import st_chern

P2, P3, P5, P7 = Prime(2), Prime(3), Prime(5), Prime(7)


def c(n, p, j):
    return ChernPoly.generator(n, p, j)


# -- linear and graded forms ----------------------------------------------------


def test_linear_form_canonicalizes():
    f = LinearForm(P5, 7, {2: 5, 3: 4})
    assert f.const == 2 and f.coeffs == {3: 4}
    assert f.unknowns() == (3,)
    assert not f.is_constant()
    assert LinearForm(P5, 10).is_zero()


def test_linear_form_arithmetic():
    a = LinearForm(P5, 1, {2: 2})
    b = LinearForm(P5, 4, {2: 3, 4: 1})
    assert (a + b).is_constant() is False
    assert (a + b).const == 0
    assert (a + b).coeffs == {4: 1}  # 2 + 3 = 5 = 0 mod 5
    assert a.substitute(2, 3).const == (1 + 6) % 5
    assert (-a).const == 4 and (-a).coeffs == {2: 3}


def test_linear_form_repr_and_an_absent_unknown():
    f = LinearForm(P3, 1, {2: 2, 3: 1})
    assert repr(f) == "LinearForm(1 + 2*g2 + g3 mod 3)"
    assert f.substitute(4, 1) is f  # g4 is not in the form


def test_graded_form_prunes_zero_layers():
    g = GradedForm(P3, {0: LinearForm(P3, 0), 2: LinearForm(P3, 1)})
    assert list(g.forms) == [2]
    assert g.at(0).is_zero()


def test_graded_form_renders_layers_in_order():
    g = GradedForm(P3, {0: LinearForm.constant(P3, 1), 2: LinearForm(P3, 2, {2: 1, 5: 2})})
    assert str(g) == "(1)*1 + (2 + g2 + 2*g5)*u^2"
    assert repr(g) == "GradedForm((1)*1 + (2 + g2 + 2*g5)*u^2)"
    assert str(GradedForm.zero(P3)) == "0"
    assert g.forms == {0: LinearForm.constant(P3, 1), 2: LinearForm(P3, 2, {2: 1, 5: 2})}
    assert g.at(2) == LinearForm(P3, 2, {2: 1, 5: 2})


def test_graded_form_rejects_foreign_input():
    g = GradedForm(P3, {0: LinearForm.constant(P3, 1)})
    with pytest.raises(TypeError):
        g.mul_uni(LinearForm.unknown(P3, 2))
    with pytest.raises(ValueError):
        g.mul_uni(UniPoly.one(P5))
    with pytest.raises(ValueError):
        GradedForm(P3, {0: LinearForm(P5, 4)})
    with pytest.raises(TypeError):
        GradedForm(P3, {0: 1})
    with pytest.raises(ValueError):
        GradedForm(P3, {-1: LinearForm.constant(P3, 1)})


# -- the derivation --------------------------------------------------------------


def test_suspension_of_first_generator_is_k():
    for n, p, k in ((4, P2, 1), (3, P3, 2), (6, P5, 4)):
        out = apply_suspension(c(n, p, 1), k)
        assert out == GradedForm(p, {0: LinearForm.constant(p, k)})


def test_suspension_of_second_generator_is_unknown():
    out = apply_suspension(c(4, P3, 2), 1)
    assert out == GradedForm(P3, {1: LinearForm.unknown(P3, 2)})


def test_suspension_of_c1_squared():
    # Leibniz: both factors contribute k times the restriction of c1
    n, k = 4, 2
    out = apply_suspension(c(n, P3, 1) * c(n, P3, 1), k)
    expected = GradedForm(P3, {1: LinearForm.constant(P3, 2 * k * n)})
    assert out == expected


def test_suspension_kills_constants():
    assert apply_suspension(ChernPoly.one(4, P2), 1).is_zero()
    assert apply_suspension(ChernPoly.constant(4, P3, 2), 1).is_zero()


@given(data=st.data())
def test_suspension_leibniz_rule(data):
    p = data.draw(st.sampled_from(PRIMES_235))
    n = data.draw(st.integers(min_value=2, max_value=4))
    k = data.draw(st.integers(min_value=0, max_value=p.value - 1))
    f = data.draw(st_chern(n, p))
    g = data.draw(st_chern(n, p))
    lhs = apply_suspension(f * g, k)
    rhs = apply_suspension(f, k).mul_uni(phi_star(g)) + apply_suspension(g, k).mul_uni(
        phi_star(f)
    )
    assert lhs == rhs


# -- the alpha window -------------------------------------------------------------


def test_alpha_zero_is_k():
    for n, p, k in ((2, P2, 1), (4, P2, 3), (6, P3, 5), (10, P5, 7)):
        assert alpha_init(n, p, k).alpha(0) == LinearForm.constant(p, k % p.value)


def test_alpha_one_closed_form():
    # alpha_1 = 2nk - 2 g2; with p | n only the unknown part survives
    av = alpha_init(6, P3, 1)
    assert av.alpha(1) == LinearForm.unknown(P3, 2, -2)
    av = alpha_init(5, P3, 2)
    assert av.alpha(1) == LinearForm(P3, 2 * 5 * 2, {2: -2})
    # in characteristic 2 both contributions vanish, whatever n is
    for n in (3, 4):
        assert alpha_init(n, P2, 1).alpha(1).is_zero()


def test_alpha_unknown_indices_stay_low():
    for n, p in ((5, P3), (6, P2), (8, P2)):
        av = alpha_init(n, p, 1)
        for i in range(n):
            assert all(2 <= j <= i + 1 for j in av.alpha(i).unknowns())


def test_alpha_window_ordering():
    av = alpha_init(4, P2, 1)
    assert av.entries[-1] == av.alpha(0)
    assert len(av) == 4
    with pytest.raises(ValueError):
        av.alpha(4)


def test_alpha_init_refuses_a_leaked_degree(monkeypatch):
    # Dk of the power sum S_2 belongs in degree 1; plant an image in degree 9.
    monkeypatch.setattr(
        suspension, "apply_suspension", lambda poly, k: GradedForm(P2, {9: LinearForm(P2, 1)})
    )
    with pytest.raises(
        MechanizationError, match="^suspension of power sum 2 leaked into degree 9$"
    ):
        alpha_init(2, P2, 1)


# -- the derived recurrence ---------------------------------------------------------


def test_derivation_of_power_sum_relation_vanishes():
    """The Leibniz expansion of the degree n+i+1 relation is the zero form.

    This is the derivation step behind the recurrence, written out without
    lifting shortcuts: the derivation of the high power sum plus the two
    Leibniz families from each cj term cancels identically.
    """
    from gaugetorsion import lift_power_sum

    for n, p in ((4, P2), (6, P2), (6, P3), (10, P5)):
        k = 1
        for i in range(3):
            m = n + i + 1
            total = apply_suspension(lift_power_sum(m, n, p), k)
            for j in range(1, n + 1):
                sign = -1 if j % 2 == 1 else 1
                cj = c(n, p, j)
                s_low = lift_power_sum(m - j, n, p)
                term = apply_suspension(cj, k).mul_uni(phi_star(s_low)) + apply_suspension(
                    s_low, k
                ).mul_uni(phi_star(cj))
                total = total + term.scale(sign)
            assert total.is_zero(), (n, p.value, i)


def test_derived_recurrence_smallest_case():
    assert derive_recurrence(2, P2).rows == ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "n,p",
    [(n, p) for p in PRIMES_235 for n in range(2, 21) if n % p.value == 0],
)
def test_derived_recurrence_matches_companion(n, p):
    assert derive_recurrence(n, p) == companion_matrix(n).reduce(p)


def test_derived_recurrence_requires_divisibility():
    with pytest.raises(ValueError):
        derive_recurrence(3, P2)
    with pytest.raises(ValueError):
        derive_recurrence(10, P3)


# -- alpha at arbitrary indices -------------------------------------------------------


def test_alpha_at_matches_window_below_n():
    av = alpha_init(6, P2, 1)
    for i in range(6):
        assert alpha_at(i, 6, P2, 1) == av.alpha(i)


def test_alpha_at_first_recurrence_step():
    # n = 2, p = 2: the first derived row is (0, 1), so alpha_2 = alpha_0 = k
    assert alpha_at(2, 2, P2, 1) == LinearForm.constant(P2, 1)


def test_alpha_at_p_power_is_plain_k():
    for n, p in ((2, P2), (4, P2), (6, P2), (3, P3), (6, P3), (5, P5)):
        top = p_power_ceil(n, p)
        for k in range(min(n, 4)):
            form = alpha_at(top, n, p, k)
            assert form.is_constant()
            assert form.const == k % p.value


def test_alpha_at_requires_divisibility():
    with pytest.raises(ValueError):
        alpha_at(3, 3, P2, 1)


# -- closing the chain ------------------------------------------------------------------


def test_solve_examples():
    assert solve_alpha_p(4, P2, 3).value.residue == 1
    assert solve_alpha_p(6, P3, 0).value.residue == 0
    assert solve_alpha_p(2, P2, 1).value.residue == 1
    # k as a residue mod p is read as its int
    assert solve_alpha_p(6, P3, FpScalar(1, P3)) == solve_alpha_p(6, P3, 1)


def test_solve_requires_divisibility():
    with pytest.raises(ValueError):
        solve_alpha_p(5, P2, 1)
    with pytest.raises(ValueError, match="^need n >= 2, got 1$"):
        solve_alpha_p(1, P2, 0)


@pytest.mark.parametrize("p", PRIMES_235)
def test_solve_recovers_k_everywhere(p):
    for n in range(2, 31):
        if n % p.value:
            continue
        for k in range(n):
            assert solve_alpha_p(n, p, k).value.residue == k % p.value


def test_solution_never_touches_high_unknowns():
    for n, p in ((4, P2), (6, P2), (6, P3), (9, P3), (10, P5)):
        for k in range(n):
            sol = solve_alpha_p(n, p, k)
            assert {j for j, _ in sol.assigned} == {2}
            assert sol.assigned[0][1] == (-(k % p.value)) % p.value


@pytest.mark.parametrize("n, p, k", [(4, P2, 3), (6, P3, 2), (10, P5, 7), (12, P3, -1)])
def test_solution_is_shared_per_residue_of_k(n, p, k):
    from gaugetorsion.suspension import _resolve_alpha

    sol = solve_alpha_p(n, p, k)
    assert solve_alpha_p(n, p, k + p.value) is sol
    assert sol.trace == _resolve_alpha.__wrapped__(n, p, k % p.value).trace


def test_top_form_other_than_k_raises(monkeypatch):
    """Step 1 of the chain is a check: a top alpha form that is not the bare
    symbol k is a contradiction, not a value to substitute into."""
    import gaugetorsion.suspension as suspension_mod
    from gaugetorsion.suspension import MechanizationError

    symbolic_alphas = suspension_mod._symbolic_alphas

    def corrupted(n, p):
        order, alphas = symbolic_alphas(n, p)
        return order, alphas[:-1] + (((0, 1),),)  # the constant 1

    monkeypatch.setattr(suspension_mod, "_symbolic_alphas", corrupted)
    with pytest.raises(MechanizationError, match="not the bare symbol k"):
        suspension_mod._resolve_alpha.__wrapped__(2, P2, 0)


def test_level_carrying_k_without_a_free_unknown_raises(monkeypatch):
    """Step 3 of the chain is a check: a lower level whose relation, once g2
    is pinned, leaves a nonzero residual and no free unknown is a contradiction."""
    import gaugetorsion.suspension as suspension_mod
    from gaugetorsion.suspension import MechanizationError

    symbolic_alphas = suspension_mod._symbolic_alphas

    def corrupted(n, p):
        order, alphas = symbolic_alphas(n, p)
        return order, (alphas[0], ((1, 2),)) + alphas[2:]  # alpha_3 = 2k, no gj

    monkeypatch.setattr(suspension_mod, "_symbolic_alphas", corrupted)
    with pytest.raises(MechanizationError, match="^relation g2 = -alpha_3 is inconsistent"):
        suspension_mod._resolve_alpha.__wrapped__(6, P3, 1)


def test_recurrence_check_guards_a_standalone_solve(perturbed_taps):
    """With one Newton tap perturbed, a solve that no decision precedes still
    meets the companion-row check before the engine runs a tap."""
    from gaugetorsion.suspension import MechanizationError, _resolve_alpha

    with pytest.raises(MechanizationError, match="companion matrix"):
        _resolve_alpha.__wrapped__(12, P3, 0)


def test_trace_serializes_in_order():
    sol = solve_alpha_p(4, P2, 3)
    records = [r.to_dict() for r in sol.trace]
    blob = json.dumps(records)
    parsed = json.loads(blob)
    assert [list(r) for r in parsed] == [
        ["relation", "source", "resolved_value"]
    ] * len(parsed)
    assert parsed[0]["relation"] == "alpha_4 = alpha_0"
    assert parsed[-1]["relation"] == "alpha_p = -g2"
    assert parsed[-1]["resolved_value"] == 1


def test_alpha_p_is_k_in_every_model():
    """Finite model check, fully independent of the solver's chain logic.

    Enumerate every assignment of the unknowns g2..gn over F_p. Among the
    assignments satisfying all commutation relations g2 = -alpha_(p^level),
    alpha_p must evaluate to k; and at least one such assignment exists.
    The solver may pin only g2, but no consistent world disagrees with it.
    """
    from itertools import product as iproduct

    from gaugetorsion.suspension import _alpha_walk

    for n, p in ((2, P2), (4, P2), (6, P2), (3, P3), (6, P3), (9, P3)):
        q = p.value
        levels = []
        e = q
        while e <= p_power_ceil(n, p):
            levels.append(e)
            e *= q
        for k in range(min(n, 3)):
            walk = _alpha_walk(n, p, k, levels[-1])
            forms = {e: walk[e] for e in levels}

            def evaluate(form, env):
                total = form.const + sum(c * env[j] for j, c in form.coeffs.items())
                return total % q

            consistent = 0
            for values in iproduct(range(q), repeat=n - 1):
                env = {j + 2: v for j, v in enumerate(values)}
                if all((env[2] + evaluate(forms[e], env)) % q == 0 for e in levels):
                    consistent += 1
                    assert evaluate(forms[q], env) == k % q, (n, q, k, env)
            assert consistent > 0, (n, q, k)


def test_chain_agrees_with_definitional_route():
    """The cached symbolic engine must reproduce the definitional route, one
    ``_alpha_walk`` per (n, p, k) as ``alpha_at`` takes it, at every p-power.
    An engine level holds its nonzero slots, k in slot 1 and gj in slot j."""
    from gaugetorsion.suspension import _alpha_walk, _symbolic_alphas

    cases = (
        (4, P2), (8, P2), (6, P3), (9, P3), (10, P5),
        # several nonzero Newton taps each
        (12, P2), (12, P3), (15, P5), (14, P7), (20, P5),
    )
    for n, p in cases:
        alphas = _symbolic_alphas(n, p)[1]
        for k in range(n):
            walk = _alpha_walk(n, p, k, p_power_ceil(n, p))
            for level, row in enumerate(alphas):
                slots = dict(row)
                form = LinearForm(p, slots.pop(1, 0) * k, slots)
                assert walk[p.value**level] == form


def test_symbolic_engine_builds_no_intermediate_forms(monkeypatch):
    """The recurrence runs on ints and returns int levels; it builds no form."""
    from gaugetorsion.suspension import _symbolic_alphas

    calls = {"add": 0, "scale": 0}
    add, scale = LinearForm.__add__, LinearForm.scale

    def counted_add(self, other):
        calls["add"] += 1
        return add(self, other)

    def counted_scale(self, c):
        calls["scale"] += 1
        return scale(self, c)

    monkeypatch.setattr(LinearForm, "__add__", counted_add)
    monkeypatch.setattr(LinearForm, "scale", counted_scale)
    for n, p in ((12, P2), (12, P3), (10, P5)):
        assert _symbolic_alphas.__wrapped__(n, p) == _symbolic_alphas(n, p)
    assert calls == {"add": 0, "scale": 0}


def test_memo_tables_fill_in_one_pass(monkeypatch):
    """A cold alpha_init builds each lift once, and _derived_row checks every
    forcing term in the one pass over the taps that it returns."""
    from gaugetorsion import chern, suspension

    chern._lift.cache_clear()
    alpha_init(6, P3, 1)
    assert chern._lift.cache_info().misses == 6
    passes = []
    newton_taps = suspension._newton_taps

    def counted(n, q):
        passes.append((n, q))
        return newton_taps(n, q)

    monkeypatch.setattr(suspension, "_newton_taps", counted)
    for n, p in ((12, P2), (48, P3), (100, P5)):
        passes.clear()
        suspension._derived_row(n, p)
        assert passes == [(n, p.value)]


LARGE_RINGS = ((1018, 509), (1021, 1021), (1024, 2), (729, 3))


@pytest.mark.parametrize(
    "ns, p",
    [(range(q, 131, q), Prime(q)) for q in (2, 3, 5, 7, 17)]
    + [((1020,), Prime(q)) for q in (2, 3, 5, 17)]
    + [((n,), Prime(q)) for n, q in LARGE_RINGS],
    ids=[f"to130-p{q}" for q in (2, 3, 5, 7, 17)]
    + [f"1020-p{q}" for q in (2, 3, 5, 17)]
    + [f"{n}-p{q}" for n, q in LARGE_RINGS],
)
def test_alpha_rows_match_the_lucas_closed_form(ns, p):
    """The taps satisfy 1 - sum_j c_j x^j = (1 - x)^n, so their impulse
    response is h[t] = C(n + t - 1, t) and slot s of alpha_e is
    (-1)^(s+1) s C(n + e - s, e + 1 - s) mod p; no tap enters this oracle.
    Each level's pairs are spread out, so every slot is checked, zero slots
    included. The order the pass returns is the p-power the paper names."""
    from gaugetorsion.fp import _lucas
    from gaugetorsion.suspension import _symbolic_alphas

    q = p.value
    for n in ns:
        order, alphas = _symbolic_alphas(n, p)
        assert order == p_power_ceil(n, p), (n, q)
        for level, row in enumerate(alphas):
            e = q**level
            expected = [0] * (n + 1)
            for s in range(1, min(n, e + 1) + 1):
                expected[s] = (-1) ** (s + 1) * s * _lucas(n + e - s, e + 1 - s, q) % q
            dense = [0] * (n + 1)
            for s, c in row:
                dense[s] = c
            assert dense == expected, (n, q, e)
            # ascending in slot, each slot once, no zero value
            assert [s for s, c in row if c] == sorted(dict(row)), (n, q, e)


def test_planted_forcing_term_raises(monkeypatch):
    """A tap at 4, which 3 does not divide, has a nonzero forcing term 4 c_4,
    so restricted power sum 4 would not vanish."""
    import gaugetorsion.suspension as suspension_mod
    from gaugetorsion.suspension import MechanizationError

    newton_taps = suspension_mod._newton_taps

    def planted(n, q):
        return tuple(sorted(newton_taps(n, q) + ((4, 1),)))

    monkeypatch.setattr(suspension_mod, "_newton_taps", planted)
    with pytest.raises(MechanizationError, match="restricted power sum 4 did not vanish"):
        suspension_mod._symbolic_alphas.__wrapped__(12, P3)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_engine_order_matches_matrix_routes(q):
    """The first p-power at which the impulse response returns to its start
    is the companion matrix's order, as the matrix tower and the brute-force
    search find it."""
    from gaugetorsion.suspension import _symbolic_alphas

    p = Prime(q)
    for n in range(q, 61, q):
        m = companion_matrix(n).reduce(p)
        bound = p_power_ceil(n, p) * q
        order = _symbolic_alphas(n, p)[0]
        assert order == order_mod_p(m, bound), (n, q)
        if n <= 30:
            assert order == order_brute(m, bound), (n, q)


def test_window_that_never_returns_raises(monkeypatch):
    """A pass run one p-power short of the order finds no return of the
    window, and raises rather than report an order it did not see."""
    import gaugetorsion.suspension as suspension_mod
    from gaugetorsion.suspension import MechanizationError

    monkeypatch.setattr(suspension_mod, "p_power_ceil", lambda n, p: p_power_ceil(n, p) // p.value)
    with pytest.raises(MechanizationError, match="does not return to its start"):
        suspension_mod._symbolic_alphas.__wrapped__(12, P3)
