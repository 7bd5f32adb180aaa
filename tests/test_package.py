import re

import pytest

import gaugetorsion
from gaugetorsion import chern, fp, matrices, polyring, steenrod, suspension, torsion

LAYERS = (fp, polyring, steenrod, chern, suspension, matrices, torsion)


def test_package_exports_each_layer_name_once():
    names = [name for layer in LAYERS for name in layer.__all__]
    assert len(names) == len(set(names))
    assert sorted(gaugetorsion.__all__) == sorted(names)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(gaugetorsion, name) is getattr(layer, name), name


# Every integer argument of the public API goes through one reader before any
# memo is read. These were once taken as they came: a float was truncated or
# gave an inexact answer, a string failed deep inside, and a float equal to an
# int answered from that int's memo entry on a warm key while a cold key
# refused it. Each case is a call of the one argument it reads, with an int
# the call takes; the name in the message is the case's words after the
# function. That float, 1.5 and the int as a string are refused by a TypeError
# naming the value, cold (every memo of the package cleared) and again after
# the int call has warmed the memos.
P2, P3, P5 = fp.Prime(2), fp.Prime(3), fp.Prime(5)
C1 = chern.ChernPoly.generator(3, P3, 1)
C3 = matrices.companion_matrix(3)
T1 = polyring.MultiPoly.variable(2, P3, 1)
G2 = suspension.LinearForm.unknown(P3, 2)
NOT_INTEGER = "{} is not an integer: {!r}"
REFUSED = {
    "decide_global n": (lambda x: torsion.decide_global(x, 3), 6),
    "decide_global k": (lambda x: torsion.decide_global(6, x), 3),
    "decide_p n": (lambda x: torsion.decide_p(x, 3, P3), 6),
    "decide_p k": (lambda x: torsion.decide_p(6, x, P3), 3),
    "solve_alpha_p n": (lambda x: suspension.solve_alpha_p(x, P3, 1), 6),
    "solve_alpha_p k": (lambda x: suspension.solve_alpha_p(6, P3, x), 1),
    "alpha_init n": (lambda x: suspension.alpha_init(x, P3, 1), 6),
    "alpha_init k": (lambda x: suspension.alpha_init(6, P3, x), 1),
    "alpha_at i": (lambda x: suspension.alpha_at(x, 6, P3, 1), 3),
    "alpha_at n": (lambda x: suspension.alpha_at(3, x, P3, 1), 6),
    "alpha_at k": (lambda x: suspension.alpha_at(3, 6, P3, x), 1),
    "apply_suspension k": (lambda x: suspension.apply_suspension(C1, x), 1),
    "derive_recurrence n": (lambda x: suspension.derive_recurrence(x, P3), 6),
    "AlphaVector.alpha i": (lambda x: suspension.alpha_init(6, P3, 1).alpha(x), 2),
    "GradedForm.at e": (lambda x: suspension.apply_suspension(C1, 1).at(x), 0),
    "LinearForm.substitute j": (lambda x: G2.substitute(x, 1), 2),
    "LinearForm.substitute value": (lambda x: G2.substitute(2, x), 1),
    "padic_val m": (lambda x: fp.padic_val(x, P3), 9),
    "p_power_ceil n": (lambda x: fp.p_power_ceil(x, P3), 4),
    "binom_int n": (lambda x: fp.binom_int(x, 2), 4),
    "binom_int j": (lambda x: fp.binom_int(4, x), 2),
    "binom_mod n": (lambda x: fp.binom_mod(x, 2, P3), 4),
    "binom_mod j": (lambda x: fp.binom_mod(4, x, P3), 2),
    "elementary_sym n": (lambda x: polyring.elementary_sym(x, 2, P2), 3),
    "elementary_sym i": (lambda x: polyring.elementary_sym(3, x, P2), 2),
    "power_sum n": (lambda x: polyring.power_sum(x, 2, P3), 3),
    "MultiPoly.variable generator index": (lambda x: polyring.MultiPoly.variable(2, P3, x), 2),
    "MultiPoly.scale c": (lambda x: T1.scale(x), 2),
    "MultiPoly.__pow__ e": (lambda x: T1**x, 3),
    "UniPoly.coefficient e": (lambda x: polyring.UniPoly.monomial(P3, 2).coefficient(x), 2),
    "ChernPoly.generator generator index": (lambda x: chern.ChernPoly.generator(3, P3, x), 2),
    "ChernPoly.partial generator index": (lambda x: C1.partial(x), 1),
    "lift_power_sum m": (lambda x: chern.lift_power_sum(x, 4, P2), 2),
    "lift_power_sum n": (lambda x: chern.lift_power_sum(2, x, P2), 4),
    "phi_power_sum m": (lambda x: chern.phi_power_sum(x, 6, P2), 3),
    "phi_power_sum n": (lambda x: chern.phi_power_sum(3, x, P2), 6),
    "verify_newton n": (lambda x: chern.verify_newton(x, 1, P3), 3),
    "verify_newton i": (lambda x: chern.verify_newton(3, x, P3), 1),
    "check_milnor_on_c2 n": (lambda x: steenrod.check_milnor_on_c2(x, P3, 1), 3),
    "check_milnor_on_c2 level": (lambda x: steenrod.check_milnor_on_c2(3, P3, x), 1),
    "companion_matrix n": (lambda x: matrices.companion_matrix(x), 4),
    "pascal_matrix n": (lambda x: matrices.pascal_matrix(x), 3),
    "jordan_transpose n": (lambda x: matrices.jordan_transpose(x), 4),
    "verify_conjugation n": (lambda x: matrices.verify_conjugation(x), 4),
    "verify_p_power_order n": (lambda x: matrices.verify_p_power_order(x, P3), 6),
    "order_mod_p bound": (lambda x: matrices.order_mod_p(C3.reduce(P3), x), 3),
    "order_brute bound": (lambda x: matrices.order_brute(C3.reduce(P3), x), 3),
    "IntMatrix.identity n": (lambda x: matrices.IntMatrix.identity(x), 3),
    "FpMatrix.identity n": (lambda x: matrices.FpMatrix.identity(x, P3), 3),
    "IntMatrix.entry i": (lambda x: C3.entry(x, 1), 2),
    "FpMatrix.entry j": (lambda x: C3.reduce(P3).entry(1, x), 2),
    "FpMatrix.__pow__ e": (lambda x: C3.reduce(P3) ** x, 3),
}
# Arguments that are not integers: the prime of a decision, and k as a
# residue over another prime.
FOREIGN_RESIDUE = "k is a residue mod 5, not mod 3"
FOREIGN = {
    "decide_p p": (lambda: torsion.decide_p(6, 3, 3), TypeError, "p is not a Prime: 3"),
    "solve_alpha_p k mod 5": (
        lambda: suspension.solve_alpha_p(6, P3, fp.FpScalar(4, P5)),
        ValueError,
        FOREIGN_RESIDUE,
    ),
    "alpha_at k mod 5": (
        lambda: suspension.alpha_at(3, 6, P3, fp.FpScalar(1, P5)),
        ValueError,
        FOREIGN_RESIDUE,
    ),
}
# Every prime argument of the public API goes through ``fp._prime`` first. A
# bare int p raised AttributeError from deep inside every entry point but
# decide_p, and solve_alpha_p read k before p. Each case is a call of the one
# prime it takes; 3 and "3" are refused by a TypeError naming the value, cold
# and again after the call with Prime(3) has warmed the memos.
NOT_PRIME = {
    "binom_mod": lambda p: fp.binom_mod(4, 2, p),
    "padic_val": lambda p: fp.padic_val(9, p),
    "p_power_ceil": lambda p: fp.p_power_ceil(4, p),
    "FpScalar": lambda p: fp.FpScalar(1, p),
    "MultiPoly": lambda p: polyring.MultiPoly(2, p, {(1, 0): 1}),
    "ChernPoly": lambda p: chern.ChernPoly(2, p, {(0, 1): 1}),
    "UniPoly": lambda p: polyring.UniPoly(p, {2: 1}),
    "LinearForm": lambda p: suspension.LinearForm(p, 1, {2: 1}),
    "GradedForm": lambda p: suspension.GradedForm(p),
    "elementary_sym": lambda p: polyring.elementary_sym(3, 2, p),
    "power_sum": lambda p: polyring.power_sum(3, 2, p),
    "lift_power_sum": lambda p: chern.lift_power_sum(2, 4, p),
    "phi_power_sum": lambda p: chern.phi_power_sum(3, 6, p),
    "verify_newton": lambda p: chern.verify_newton(3, 1, p),
    "check_milnor_on_c2": lambda p: steenrod.check_milnor_on_c2(3, p, 1),
    "alpha_init": lambda p: suspension.alpha_init(6, p, 1),
    "alpha_at": lambda p: suspension.alpha_at(3, 6, p, 1),
    "derive_recurrence": lambda p: suspension.derive_recurrence(6, p),
    "solve_alpha_p": lambda p: suspension.solve_alpha_p(6, p, 1),
    "solve_alpha_p k mod 3": lambda p: suspension.solve_alpha_p(6, p, fp.FpScalar(1, P3)),
    "decide_p": lambda p: torsion.decide_p(6, 3, p),
    "FpMatrix": lambda p: matrices.FpMatrix(p, [[1, 2], [0, 1]]),
    "FpMatrix.identity": lambda p: matrices.FpMatrix.identity(3, p),
    "IntMatrix.reduce": lambda p: C3.reduce(p),
    "verify_p_power_order": lambda p: matrices.verify_p_power_order(6, p),
}
MEMOS = [f for layer in LAYERS for f in vars(layer).values() if hasattr(f, "cache_clear")]


@pytest.mark.parametrize("case", [*REFUSED, *FOREIGN])
def test_public_api_refuses_foreign_arguments(case):
    if case in FOREIGN:
        call, error, message = FOREIGN[case]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
        return
    call, good = REFUSED[case]
    name = case.split(" ", 1)[1]
    for memo in MEMOS:
        memo.cache_clear()
    for _ in ("cold", "warm"):
        for bad in (float(good), 1.5, str(good)):
            with pytest.raises(TypeError, match=f"^{re.escape(NOT_INTEGER.format(name, bad))}$"):
                call(bad)
        call(good)


@pytest.mark.parametrize("case", NOT_PRIME)
def test_public_api_refuses_a_p_that_is_not_a_prime(case):
    call = NOT_PRIME[case]
    for memo in MEMOS:
        memo.cache_clear()
    for _ in ("cold", "warm"):
        for bad in (3, "3"):
            with pytest.raises(TypeError, match=f"^{re.escape(f'p is not a Prime: {bad!r}')}$"):
                call(bad)
        call(P3)
