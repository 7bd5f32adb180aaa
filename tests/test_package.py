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


# Arguments of the decision, suspension and matrix layers that were once taken
# as they came: a float was truncated or gave an inexact answer, a string or
# a bare int for p failed deep inside, and a residue over another prime was
# read as an int. A TypeError names the value; a foreign residue is a
# ValueError.
P3, P5 = fp.Prime(3), fp.Prime(5)
C1 = chern.ChernPoly.generator(3, P3, 1)
NOT_INTEGER = "{} is not an integer: {!r}"
FOREIGN_RESIDUE = "k is a residue mod 5, not mod 3"
REFUSED = {
    "decide_global n": (lambda: torsion.decide_global(6.0, 3), NOT_INTEGER.format("n", 6.0)),
    "decide_global k": (lambda: torsion.decide_global(6, 3.0), NOT_INTEGER.format("k", 3.0)),
    "decide_p n": (lambda: torsion.decide_p(6.0, 3, P3), NOT_INTEGER.format("n", 6.0)),
    "decide_p k": (lambda: torsion.decide_p(6, 3.0, P3), NOT_INTEGER.format("k", 3.0)),
    "decide_p p": (lambda: torsion.decide_p(6, 3, 3), "p is not a Prime: 3"),
    "solve_alpha_p n": (lambda: suspension.solve_alpha_p(6.0, P3, 1), NOT_INTEGER.format("n", 6.0)),
    "solve_alpha_p k": (lambda: suspension.solve_alpha_p(6, P3, 1.5), NOT_INTEGER.format("k", 1.5)),
    "solve_alpha_p k mod 5": (
        lambda: suspension.solve_alpha_p(6, P3, fp.FpScalar(4, P5)),
        FOREIGN_RESIDUE,
    ),
    "alpha_init n": (lambda: suspension.alpha_init(6.0, P3, 1), NOT_INTEGER.format("n", 6.0)),
    "alpha_init k": (lambda: suspension.alpha_init(6, P3, 1.5), NOT_INTEGER.format("k", 1.5)),
    "alpha_at i": (lambda: suspension.alpha_at(3.0, 6, P3, 1), NOT_INTEGER.format("i", 3.0)),
    "alpha_at n": (lambda: suspension.alpha_at(3, "6", P3, 1), NOT_INTEGER.format("n", "6")),
    "alpha_at k": (lambda: suspension.alpha_at(3, 6, P3, 1.5), NOT_INTEGER.format("k", 1.5)),
    "alpha_at k mod 5": (
        lambda: suspension.alpha_at(3, 6, P3, fp.FpScalar(1, P5)),
        FOREIGN_RESIDUE,
    ),
    "apply_suspension k": (
        lambda: suspension.apply_suspension(C1, 1.5),
        NOT_INTEGER.format("k", 1.5),
    ),
    "padic_val m": (lambda: fp.padic_val(9.0, P3), NOT_INTEGER.format("m", 9.0)),
    "p_power_ceil n": (lambda: fp.p_power_ceil(4.5, P3), NOT_INTEGER.format("n", 4.5)),
    "verify_newton n": (lambda: chern.verify_newton(3.0, 1, P3), NOT_INTEGER.format("n", 3.0)),
    "verify_newton i": (lambda: chern.verify_newton(3, 1.5, P3), NOT_INTEGER.format("i", 1.5)),
    "companion_matrix n": (lambda: matrices.companion_matrix(4.0), NOT_INTEGER.format("n", 4.0)),
    "pascal_matrix n": (lambda: matrices.pascal_matrix(3.5), NOT_INTEGER.format("n", 3.5)),
    "jordan_transpose n": (lambda: matrices.jordan_transpose(4.0), NOT_INTEGER.format("n", 4.0)),
    "verify_conjugation n": (
        lambda: matrices.verify_conjugation(4.0),
        NOT_INTEGER.format("n", 4.0),
    ),
    "verify_p_power_order n": (
        lambda: matrices.verify_p_power_order(6.0, P3),
        NOT_INTEGER.format("n", 6.0),
    ),
}


@pytest.mark.parametrize("case", REFUSED)
def test_public_api_refuses_foreign_arguments(case):
    call, message = REFUSED[case]
    error = ValueError if message == FOREIGN_RESIDUE else TypeError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
