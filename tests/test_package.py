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
    "power_sum i": (lambda x: polyring.power_sum(3, x, P3), 2),
    "MultiPoly n": (lambda x: polyring.MultiPoly(x, P3), 2),
    "MultiPoly exponent": (lambda x: polyring.MultiPoly(2, P3, {(x, 0): 1}), 1),
    "ChernPoly n": (lambda x: chern.ChernPoly(x, P3), 2),
    "ChernPoly exponent": (lambda x: chern.ChernPoly(2, P3, {(0, x): 1}), 1),
    "UniPoly exponent": (lambda x: polyring.UniPoly(P3, {x: 1}), 2),
    "LinearForm unknown index": (lambda x: suspension.LinearForm(P3, 0, {x: 1}), 2),
    "GradedForm u-exponent": (lambda x: suspension.GradedForm(P3, {x: G2}), 1),
    "MultiPoly.variable n": (lambda x: polyring.MultiPoly.variable(x, P3, 1), 2),
    "MultiPoly.variable generator index": (lambda x: polyring.MultiPoly.variable(2, P3, x), 2),
    "MultiPoly.scale c": (lambda x: T1.scale(x), 2),
    "MultiPoly.__pow__ e": (lambda x: T1**x, 3),
    "UniPoly.coefficient e": (lambda x: polyring.UniPoly.monomial(P3, 2).coefficient(x), 2),
    "ChernPoly.generator n": (lambda x: chern.ChernPoly.generator(x, P3, 1), 3),
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
    "reduced_power i": (lambda x: steenrod.reduced_power(x, T1), 1),
    "milnor_q_closed level": (lambda x: steenrod.milnor_q_closed(x, T1), 1),
    "milnor_q_recursive level": (lambda x: steenrod.milnor_q_recursive(x, T1), 1),
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
# Arguments that are not integers: the prime of a decision, k as a residue
# over another prime, and a matrix of the other class, which once failed with
# an AttributeError from deep inside. An element of the other polynomial ring
# (an int for fp_inv) is refused by ``fp._expect``: nine entry points once
# took it unchecked, and either answered in the wrong ring (reduced_power at
# i = 0 returned it unchanged, phi_star read t1*t2 as 2*u^3) or failed with an
# AttributeError from deep inside.
FOREIGN_RESIDUE = "FpScalar ring mismatch: 3 vs 5"
TORUS_NOT_CHERN = "expected MultiPoly, got ChernPoly"
CHERN_NOT_TORUS = "expected ChernPoly, got MultiPoly"
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
    "order_mod_p m": (
        lambda: matrices.order_mod_p(matrices.companion_matrix(4), 9),
        TypeError,
        "expected FpMatrix, got IntMatrix",
    ),
    "order_brute m": (
        lambda: matrices.order_brute(C3, 9),
        TypeError,
        "expected FpMatrix, got IntMatrix",
    ),
    "unitriangular_inverse m": (
        lambda: matrices.unitriangular_inverse(matrices.pascal_matrix(3).reduce(P3)),
        TypeError,
        "expected IntMatrix, got FpMatrix",
    ),
    "reduced_power f": (lambda: steenrod.reduced_power(0, C1), TypeError, TORUS_NOT_CHERN),
    "milnor_q_closed f": (lambda: steenrod.milnor_q_closed(1, C1), TypeError, TORUS_NOT_CHERN),
    "milnor_q_recursive f": (
        lambda: steenrod.milnor_q_recursive(1, C1),
        TypeError,
        TORUS_NOT_CHERN,
    ),
    "is_symmetric f": (lambda: polyring.is_symmetric(C1), TypeError, TORUS_NOT_CHERN),
    "diagonal_eval f": (lambda: polyring.diagonal_eval(C1), TypeError, TORUS_NOT_CHERN),
    "phi_star poly": (lambda: chern.phi_star(T1), TypeError, CHERN_NOT_TORUS),
    "iota_star poly": (lambda: chern.iota_star(T1), TypeError, CHERN_NOT_TORUS),
    "apply_suspension poly": (
        lambda: suspension.apply_suspension(T1, 1),
        TypeError,
        CHERN_NOT_TORUS,
    ),
    "fp_inv a": (lambda: fp.fp_inv(3), TypeError, "expected FpScalar, got int"),
}
# The alpha recurrence needs p | n, read by one helper with one message.
NOT_DIVIDING = {
    f"{name} with p not dividing n": (call, ValueError, "need p | n, got n=5, p=3")
    for name, call in (
        ("derive_recurrence", lambda: suspension.derive_recurrence(5, P3)),
        ("alpha_at", lambda: suspension.alpha_at(1, 5, P3, 1)),
        ("solve_alpha_p", lambda: suspension.solve_alpha_p(5, P3, 1)),
    )
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
# Calls with two bad arguments: each public decision reads its arguments in
# one fixed order, n's type first and its floor after every other argument,
# so the first error a call raises is fixed too. Elsewhere an argument's floor
# is read with its type: binom_int's n before j, and the exponents of a
# monomial in turn.
FIRST_ERROR = {
    "decide_p k before n's floor": (
        lambda: torsion.decide_p(1, 1.5, P3),
        TypeError,
        "k is not an integer: 1.5",
    ),
    "decide_p p before n's floor": (
        lambda: torsion.decide_p(1, 0, 3),
        TypeError,
        "p is not a Prime: 3",
    ),
    "decide_p n's type before p": (
        lambda: torsion.decide_p(1.5, 0, 3),
        TypeError,
        "n is not an integer: 1.5",
    ),
    "decide_global k before n's floor": (
        lambda: torsion.decide_global(1, 1.5),
        TypeError,
        "k is not an integer: 1.5",
    ),
    "solve_alpha_p p before n's type": (
        lambda: suspension.solve_alpha_p(1.5, 3, 1),
        TypeError,
        "p is not a Prime: 3",
    ),
    "solve_alpha_p k before n's floor": (
        lambda: suspension.solve_alpha_p(1, P3, 1.5),
        TypeError,
        "k is not an integer: 1.5",
    ),
    "solve_alpha_p k's modulus before n's floor": (
        lambda: suspension.solve_alpha_p(1, P3, fp.FpScalar(1, P5)),
        ValueError,
        FOREIGN_RESIDUE,
    ),
    "binom_int n's floor before j's type": (
        lambda: fp.binom_int(-1, 1.5),
        ValueError,
        "need n >= 0, got -1",
    ),
    "MultiPoly a negative exponent before a non-integer one": (
        lambda: polyring.MultiPoly(2, P3, {(-1, 1.5): 1}),
        ValueError,
        "need exponent >= 0, got -1",
    ),
}
RAISES = {**FOREIGN, **NOT_DIVIDING, **FIRST_ERROR}
# Each binary operation of an element type, called with the same class over
# another ring: ``fp._expect`` compares the two ``_ring()`` tuples and names
# both in one message, ``<cls> ring mismatch: <mine> vs <theirs>``. A
# matrix's ring is (n,) exact and (n, p) mod p.
MULTI, CHERN, UNI = polyring.MultiPoly.one, chern.ChernPoly.one, polyring.UniPoly.one
LINEAR, GRADED = suspension.LinearForm.constant, suspension.GradedForm
MISMATCH = {
    "FpScalar +": (lambda: fp.FpScalar(1, P3) + fp.FpScalar(1, P5), "FpScalar", "3 vs 5"),
    "FpScalar -": (lambda: fp.FpScalar(1, P5) - fp.FpScalar(1, P3), "FpScalar", "5 vs 3"),
    "FpScalar *": (lambda: fp.FpScalar(1, P2) * fp.FpScalar(1, P3), "FpScalar", "2 vs 3"),
    "MultiPoly + n": (lambda: MULTI(2, P3) + MULTI(3, P3), "MultiPoly", "2, 3 vs 3, 3"),
    "MultiPoly * p": (lambda: MULTI(2, P3) * MULTI(2, P5), "MultiPoly", "2, 3 vs 2, 5"),
    "ChernPoly + p": (lambda: CHERN(3, P3) + CHERN(3, P5), "ChernPoly", "3, 3 vs 3, 5"),
    "ChernPoly * n": (lambda: CHERN(3, P3) * CHERN(2, P3), "ChernPoly", "3, 3 vs 2, 3"),
    "UniPoly +": (lambda: UNI(P3) + UNI(P5), "UniPoly", "3 vs 5"),
    "UniPoly *": (lambda: UNI(P5) * UNI(P3), "UniPoly", "5 vs 3"),
    "LinearForm +": (lambda: LINEAR(P3, 1) + LINEAR(P5, 1), "LinearForm", "3 vs 5"),
    "GradedForm +": (lambda: GRADED(P3) + GRADED(P5), "GradedForm", "3 vs 5"),
    "GradedForm forms": (lambda: GRADED(P3, {0: LINEAR(P5, 1)}), "LinearForm", "3 vs 5"),
    "GradedForm.mul_uni": (lambda: GRADED(P3).mul_uni(UNI(P5)), "UniPoly", "3 vs 5"),
    "IntMatrix *": (
        lambda: matrices.IntMatrix.identity(2) * matrices.IntMatrix.identity(3),
        "IntMatrix",
        "2 vs 3",
    ),
    "FpMatrix * n": (
        lambda: matrices.FpMatrix.identity(2, P3) * matrices.FpMatrix.identity(3, P3),
        "FpMatrix",
        "2, 3 vs 3, 3",
    ),
    "FpMatrix * p": (
        lambda: matrices.FpMatrix.identity(2, P3) * matrices.FpMatrix.identity(2, P5),
        "FpMatrix",
        "2, 3 vs 2, 5",
    ),
    "solve_alpha_p k": (
        lambda: suspension.solve_alpha_p(6, P3, fp.FpScalar(4, P5)),
        "FpScalar",
        "3 vs 5",
    ),
}
# Every integer argument of the public API that has a floor, by its REFUSED
# case: one less than the floor is refused by ``fp._integer``'s one message,
# cold and again after the call with the case's int has warmed the memos.
BELOW_FLOOR = {
    "binom_int n": 0,
    "binom_mod n": 0,
    "padic_val m": 1,
    "p_power_ceil n": 2,
    "MultiPoly n": 1,
    "MultiPoly exponent": 0,
    "ChernPoly n": 1,
    "ChernPoly exponent": 0,
    "UniPoly exponent": 0,
    "elementary_sym n": 1,
    "elementary_sym i": 0,
    "power_sum n": 1,
    "power_sum i": 1,
    "lift_power_sum m": 1,
    "lift_power_sum n": 1,
    "phi_power_sum m": 1,
    "phi_power_sum n": 1,
    "verify_newton n": 2,
    "verify_newton i": 0,
    "reduced_power i": 0,
    "milnor_q_closed level": 1,
    "milnor_q_recursive level": 1,
    "check_milnor_on_c2 n": 2,
    "check_milnor_on_c2 level": 1,
    "LinearForm unknown index": 2,
    "GradedForm u-exponent": 0,
    "alpha_init n": 2,
    "alpha_at i": 0,
    "derive_recurrence n": 2,
    "solve_alpha_p n": 2,
    "decide_p n": 2,
    "decide_global n": 2,
    "companion_matrix n": 2,
    "pascal_matrix n": 2,
    "jordan_transpose n": 2,
    "verify_conjugation n": 2,
    "verify_p_power_order n": 2,
    "order_mod_p bound": 1,
    "order_brute bound": 1,
    "IntMatrix.identity n": 2,
    "FpMatrix.identity n": 2,
    "IntMatrix.entry i": 1,
    "FpMatrix.entry j": 1,
    "MultiPoly.variable n": 1,
    "MultiPoly.variable generator index": 1,
    "ChernPoly.generator n": 1,
    "ChernPoly.generator generator index": 1,
    "ChernPoly.partial generator index": 1,
    "AlphaVector.alpha i": 0,
}
# Every integer argument of the public API that has a ceiling, by its REFUSED
# case: one more than the ceiling is refused by ``fp._integer``'s one message,
# cold and again after the call with the case's int has warmed the memos.
ABOVE_TOP = {
    "MultiPoly.variable generator index": 2,
    "ChernPoly.generator generator index": 3,
    "ChernPoly.partial generator index": 3,
    "AlphaVector.alpha i": 5,
}
MEMOS = [f for layer in LAYERS for f in vars(layer).values() if hasattr(f, "cache_clear")]


@pytest.mark.parametrize("case", [*REFUSED, *RAISES])
def test_public_api_refuses_foreign_arguments(case):
    if case in RAISES:
        call, error, message = RAISES[case]
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


def refuses_out_of_range(case: str, bad: int, bound: str) -> None:
    """The REFUSED case called with ``bad`` raises ``need <name> <bound>, got
    <bad>``, cold and again after the case's int has warmed the memos."""
    call, good = REFUSED[case]
    message = f"need {case.split(' ', 1)[1]} {bound}, got {bad}"
    for memo in MEMOS:
        memo.cache_clear()
    for _ in ("cold", "warm"):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)
        call(good)


@pytest.mark.parametrize("case", BELOW_FLOOR)
def test_public_api_refuses_an_integer_below_its_floor(case):
    floor = BELOW_FLOOR[case]
    refuses_out_of_range(case, floor - 1, f">= {floor}")


@pytest.mark.parametrize("case", ABOVE_TOP)
def test_public_api_refuses_an_integer_above_its_ceiling(case):
    top = ABOVE_TOP[case]
    refuses_out_of_range(case, top + 1, f"<= {top}")


@pytest.mark.parametrize("case", MISMATCH)
def test_ring_operations_refuse_an_element_of_another_ring(case):
    call, cls, rings = MISMATCH[case]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{cls} ring mismatch: {rings}')}$"):
        call()


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

