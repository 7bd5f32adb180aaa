"""Mutation runner: every listed mutant of the package is killed by its tests.

Usage, from the root of a checkout (standard library only, besides pytest)::

    python tests/mutants.py            # every mutant in MUTANTS
    python tests/mutants.py NAME ...   # the mutants so named

Each mutant is one exact string replacement in one module of
``src/gaugetorsion``; its text must occur there exactly once. For each, ``src/``
is copied to a temporary directory, the replacement is made in the copy, and
``python -m pytest -x`` runs the test file that should kill it with the copy
first on PYTHONPATH. A mutant is killed when pytest reports a failed test
(exit 1); any other exit (0, or 2 for a copy that no longer imports) is a
survivor. Each run is stopped after TIMEOUT seconds, and a mutant whose run
is stopped, one that makes a loop endless, say, is reported as
``TIMED OUT (<s> s): <name>`` and counted as a survivor: a hang never counts
as a kill, and it cannot stall the runner. The equivalent mutants in
EQUIVALENT change no behavior the tests can see; they are not run, but their
text is still checked, so the table cannot go stale. Exits 0 when every listed mutant is killed, else 1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds per mutant's pytest run; the slowest kill takes about 10


class Mutant(NamedTuple):
    name: str
    module: str  # under src/gaugetorsion
    text: str
    replacement: str
    tests: str  # the test file that kills it


CONJUGATION = '_CONJUGATION_SIDES = (("BA", "AD"), ("BA", "binomial_form"), ("A_inv_B_A", "D"))'
CHECK_C2 = "ok = lhs_rec == rhs and lhs_closed == rhs"

MUTANTS = [
    # The verify checks: each once passed the whole suite while it could not fail.
    Mutant(
        "verify_newton passes every residual",
        "chern.py",
        "return residual.is_zero(), residual",
        "return True, residual",
        "tests/test_cli.py",
    ),
    Mutant(
        "check_milnor_on_c2 ok = True", "steenrod.py", CHECK_C2, "ok = True", "tests/test_cli.py"
    ),
    Mutant(
        "check_milnor_on_c2 drops the closed route",
        "steenrod.py",
        CHECK_C2,
        "ok = lhs_rec == rhs",
        "tests/test_cli.py",
    ),
    Mutant(
        "_verify_milnor_cases same = True",
        "cli.py",
        "same = milnor_q_closed(level, f) == milnor_q_recursive(level, f)",
        "same = True",
        "tests/test_cli.py",
    ),
    Mutant(
        "_verify_order_cases yields None",
        "cli.py",
        "yield label, None if ok else str(order)",
        "yield label, None",
        "tests/test_cli.py",
    ),
    Mutant(
        "_verify_conjugation_cases yields None",
        "cli.py",
        "ok, w = verify_conjugation(n)\n        if ok:",
        "ok, w = verify_conjugation(n)\n        if True:",
        "tests/test_cli.py",
    ),
    Mutant(
        "verify_conjugation drops BA = AD",
        "matrices.py",
        CONJUGATION,
        '_CONJUGATION_SIDES = (("BA", "binomial_form"), ("A_inv_B_A", "D"))',
        "tests/test_cli.py",
    ),
    Mutant(
        "verify_conjugation drops BA = binomial_form",
        "matrices.py",
        CONJUGATION,
        '_CONJUGATION_SIDES = (("BA", "AD"), ("A_inv_B_A", "D"))',
        "tests/test_cli.py",
    ),
    Mutant(
        "verify_conjugation drops A_inv_B_A = D",
        "matrices.py",
        CONJUGATION,
        '_CONJUGATION_SIDES = (("BA", "AD"), ("BA", "binomial_form"))',
        "tests/test_cli.py",
    ),
    Mutant(
        "verify_conjugation keeps only BA = binomial_form",
        "matrices.py",
        CONJUGATION,
        '_CONJUGATION_SIDES = (("BA", "binomial_form"),)',
        "tests/test_cli.py",
    ),
    Mutant(
        "verify_p_power_order drops order == expected",
        "matrices.py",
        "return order == expected, order",
        "return True, order",
        "tests/test_cli.py",
    ),
    # Matrix equality and the one check of an element argument.
    Mutant(
        "matrix equality ignores the modulus",
        "matrices.py",
        "return self._ring() == other._ring() and self.rows == other.rows",
        "return self.rows == other.rows",
        "tests/test_matrices.py",
    ),
    Mutant(
        "order_mod_p takes an IntMatrix",
        "matrices.py",
        '    _expect(m, FpMatrix)\n    bound = _integer(bound, "bound", 1)\n    q = m.p.value',
        '    bound = _integer(bound, "bound", 1)\n    q = m.p.value',
        "tests/test_package.py",
    ),
    Mutant(
        "_expect skips the ring comparison",
        "fp.py",
        "if ring is not None and x._ring() != ring:",
        "if False:",
        "tests/test_package.py",
    ),
    # The decision's own checks: the two routes, the gcd criterion, the
    # identity of the certificates a stored result is reused with, and the
    # residue of k that keys the alpha memo.
    Mutant(
        "_decide skips the two-route comparison",
        "torsion.py",
        "if table_torsion != mech_torsion:",
        "if False:",
        "tests/test_torsion.py",
    ),
    Mutant(
        "decide_global skips the gcd check",
        "torsion.py",
        "if torsion_free == any_torsion:",
        "if False:",
        "tests/test_torsion.py",
    ),
    Mutant(
        "decide_global reuses a result with other certificates",
        "torsion.py",
        "if held is not None and all(map(is_, held.primes, certificates)):",
        "if held is not None:",
        "tests/test_torsion.py",
    ),
    Mutant(
        "_decide keys the alpha memo by k, not k mod p",
        "torsion.py",
        "_resolve_alpha(n, p, k % q)",
        "_resolve_alpha(n, p, k)",
        "tests/test_torsion.py",
    ),
    # The one range check of every integer argument, and the one p | n check.
    Mutant(
        "_integer lets one below the floor through",
        "fp.py",
        "if floor is not None and x < floor:",
        "if floor is not None and x < floor - 1:",
        "tests/test_package.py",
    ),
    Mutant(
        "_integer lets one above the ceiling through",
        "fp.py",
        "if top is not None and x > top:",
        "if top is not None and x > top + 1:",
        "tests/test_package.py",
    ),
    Mutant(
        "_need_p_divides lets every n through",
        "suspension.py",
        "    if n % p.value:\n        raise ValueError",
        "    if False:\n        raise ValueError",
        "tests/test_package.py",
    ),
    # The alpha engine's checks.
    Mutant(
        "alpha_init skips the leak check",
        "suspension.py",
        "if e != i:",
        "if False:",
        "tests/test_suspension.py",
    ),
    Mutant(
        "_symbolic_alphas skips the companion-row tap check",
        "suspension.py",
        "if taps != tuple((j, r) for j, c in enumerate(_companion_row(n), 1) if (r := c % q)):",
        "if False:",
        "tests/test_suspension.py",
    ),
    Mutant(
        "_symbolic_alphas skips the window-return check",
        "suspension.py",
        "    if order is None:\n        raise MechanizationError(",
        "    if False:\n        raise MechanizationError(",
        "tests/test_suspension.py",
    ),
    Mutant(
        "_derived_row skips the vanishing check",
        "suspension.py",
        "if j * c % p.value:",
        "if False:",
        "tests/test_suspension.py",
    ),
    Mutant(
        "_resolve_alpha skips the top-form check",
        "suspension.py",
        "if alphas[m] != ((1, 1),):",
        "if False:",
        "tests/test_suspension.py",
    ),
    Mutant(
        "_resolve_alpha skips the level check",
        "suspension.py",
        "if not free and residual:",
        "if False:",
        "tests/test_suspension.py",
    ),
]

# (mutant, why no test can kill it): not run.
EQUIVALENT = [
    (
        Mutant(
            "verify_p_power_order also asks for a p-power",
            "matrices.py",
            "return order == expected, order",
            "return order == expected and p_power_ceil(order, p) == order, order",
            "",
        ),
        "order_mod_p returns only tower exponents p^k >= p, each its own p_power_ceil",
    ),
    (
        Mutant(
            "FpMatrix.det looks for a pivot without reducing",
            "matrices.py",
            "if m[r][k] % q != 0",
            "if m[r][k] != 0",
            "",
        ),
        "the rows hold canonical residues in [0, q) throughout, so x % q != 0 is x != 0",
    ),
    (
        Mutant(
            "matrix equality names the two classes",
            "matrices.py",
            "if not isinstance(other, _Matrix):",
            "if not isinstance(other, (IntMatrix, FpMatrix)):",
            "",
        ),
        "IntMatrix and FpMatrix are the only classes built on _Matrix",
    ),
]


def mutated(mutant: Mutant) -> str:
    """The text of the mutant's module with its one replacement made."""
    text = (ROOT / "src" / "gaugetorsion" / mutant.module).read_text()
    found = text.count(mutant.text)
    if found != 1:
        raise SystemExit(f"{mutant.name}: its text occurs {found} times in {mutant.module}")
    return text.replace(mutant.text, mutant.replacement)


def run(mutant: Mutant) -> str:
    """"killed", "SURVIVED", or "TIMED OUT" if pytest ran past TIMEOUT seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "gaugetorsion" / mutant.module).write_text(mutated(mutant))
        path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant.tests]
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "TIMED OUT"
    return "killed" if done.returncode == 1 else "SURVIVED"


def main(names: list[str]) -> int:
    known = {m.name for m in MUTANTS} | {m.name for m, _ in EQUIVALENT}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"no such mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for mutant, _ in EQUIVALENT:  # each listed text still applies
        mutated(mutant)
    survivors = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        outcome = run(mutant)
        took = time.perf_counter() - start
        print(f"{outcome} ({took:.1f} s): {mutant.name} [{mutant.tests}]", flush=True)
        if outcome != "killed":
            survivors.append(mutant.name)
    for mutant, reason in EQUIVALENT:
        if not names or mutant.name in names:
            print(f"equivalent, not run: {mutant.name}: {reason}")
    print(f"{len(survivors)} survived" if survivors else "every listed mutant is killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
