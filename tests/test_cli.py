import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from gaugetorsion import cli, companion_matrix, jordan_transpose, pascal_matrix
from gaugetorsion.torsion import decide_p
from gaugetorsion.fp import Prime
from gaugetorsion.matrices import IntMatrix
from gaugetorsion.polyring import MultiPoly, power_sum
from gaugetorsion.suspension import MechanizationError

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse uses exit 2 for usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- decide ---------------------------------------------------------------------


def test_decide_single_prime_json(capsys):
    code, out, _ = run(capsys, "decide", "--n", "4", "--k", "2", "--p", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Torsion"
    assert payload == decide_p(4, 2, Prime(2)).to_dict()


def test_decide_all_primes_text(capsys):
    code, out, _ = run(capsys, "decide", "--n", "2", "--k", "1")
    assert code == 0
    assert "torsion_free: true" in out


def test_decide_rejects_small_n(capsys):
    code, _, err = run(capsys, "decide", "--n", "1", "--k", "0")
    assert code == 2
    assert "n >= 2" in err


def test_decide_rejects_composite_p(capsys):
    code, _, err = run(capsys, "decide", "--n", "4", "--k", "0", "--p", "6")
    assert code == 2
    assert "prime" in err


def run_within_10s(*argv):
    """The CLI in a fresh process, killed (TimeoutExpired) after 10 s."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "gaugetorsion", *argv],
        env=env, capture_output=True, text=True, timeout=10,
    )


def test_decide_large_prime_returns_promptly():
    done = run_within_10s("decide", "--n", "4", "--k", "0", "--p", "1000000000000000003")
    assert done.returncode == 0
    assert done.stdout.startswith("n=4 k=0 p=1000000000000000003: NoTorsionCase1")


@pytest.mark.parametrize("l_max", ["4", "100000", "1000000000"])
def test_milnor_levels_stop_at_degree_cap(l_max):
    done = run_within_10s("verify", "milnor", "--n-max", "2", "--l-max", l_max, "--samples", "0")
    assert done.returncode == 0
    assert done.stdout == "milnor: 8/8 cases passed\n"


def test_milnor_with_a_large_prime_returns_promptly():
    done = run_within_10s("verify", "milnor", "--primes", "1000000000000000003")
    assert done.returncode == 0


def test_decide_rejects_prime_beyond_primality_limit(capsys):
    code, out, err = run(capsys, "decide", "--n", "4", "--k", "0", "--p", str(2**89 - 1))
    assert code == 2
    assert out == ""
    assert "3317044064679887385961981" in err


_SIZED = {
    "decide": ("decide", "--n", "{n}", "--k", "0"),
    "decide-p": ("decide", "--n", "{n}", "--k", "0", "--p", "2"),
    "matrix": ("matrix", "--n", "{n}"),
    "sweep": ("sweep", "--n-max", "{n}"),
    "verify": ("verify", "order", "--n-max", "{n}"),
    **{
        f"verify-{target}": ("verify", target, "--n-max", "{n}")
        for target in cli._TARGETS
        if target != "order"
    },
    **{
        f"verify-{target}{flag}": ("verify", target, flag, "{n}")
        for target, record in cli._TARGETS.items()
        for flag, (_, cap) in record.counts.items()
        if cap is not None
    },
    # {primes} stands for a list of that many primes
    **{
        f"verify-{target}--primes": ("verify", target, "--primes", "{primes}")
        for target, record in cli._TARGETS.items()
        if record.primes is not None
    },
    # a prime of that size beside a small one, at --n-max's cap
    "verify-order--primes-entries": ("verify", "order", "--n-max", "120", "--primes", "2,{n}"),
}


def _cap(argv):
    """The flag an invocation sizes, and the cap on it."""
    if argv[0] != "verify":
        command = cli._SUBCOMMANDS[argv[0]]
        return command.size_flag, command.cap
    target = cli._TARGETS[argv[1]]
    if "{primes}" in argv:
        return "--primes", len(target.primes.split(","))
    if "2,{n}" in argv:
        return "--primes entries", target.prime_cap
    flag = argv[argv.index("{n}") - 1]
    return flag, target.counts[flag][1] if flag in target.counts else target.n_max_cap


def _fill(argv, value):
    primes = ",".join(map(str, (2, 3, 5, 7, 11, 13, 17)[:value]))
    return [a.format(n=value, primes=primes) for a in argv]


@pytest.mark.parametrize("argv", list(_SIZED.values()), ids=list(_SIZED))
def test_sizes_above_ceiling_are_usage_errors(capsys, argv):
    flag, cap = _cap(argv)
    code, out, err = run(capsys, *_fill(argv, cap + 1))
    verb = "are" if flag.endswith("entries") else "is"
    assert (code, out, err) == (2, "", f"error: {flag} {verb} capped at {cap}, got {cap + 1}\n")
    args = cli.build_parser().parse_args(_fill(argv, cap))
    assert cli._check_args(args) is None


@pytest.mark.parametrize(
    "primes, bits",
    [
        ("2,3,5,7,11", 14),
        ("2,1000003", 22),
        ("3,1000003", 22),
        ("1021,1019,3", 22),
        ("5,1000003", 23),
        ("2039,2039,2", 24),
        ("13,13,13,13,1021", 26),
    ],
)
def test_verify_order_primes_share_one_bit_budget(capsys, primes, bits):
    """verify order admits at most 22 bits of primes in all, so a list of
    entries each under the ceiling cannot add up to many ceiling-sized runs."""
    argv = ("verify", "order", "--n-max", "120", "--primes", primes)
    args = cli.build_parser().parse_args(argv)
    if bits <= 22:
        assert cli._check_args(args) is None
        assert [p.value for p in args.primes] == [int(q) for q in primes.split(",")]
    else:
        message = f"error: --primes entries are capped at 22 bits in all, got {bits}\n"
        assert run(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize("extra", [(), ("--p", "3"), ("--format", "json")])
def test_decide_trace_goes_to_stderr_only(capsys, extra):
    argv = ("decide", "--n", "12", "--k", "6", *extra)
    code, plain_out, plain_err = run(capsys, *argv)
    assert code == 0 and plain_err == ""
    code, traced_out, traced_err = run(capsys, *argv, "--trace")
    assert code == 0
    assert traced_out == plain_out
    records = [json.loads(line) for line in traced_err.splitlines()]
    primes = [3] if extra[:1] == ("--p",) else [2, 3]
    assert sorted({r["p"] for r in records}) == primes
    for p in primes:
        own = [r for r in records if r["p"] == p]
        assert own[-1]["relation"] == "alpha_p = -g2"
        assert own[-1]["resolved_value"] == 0


def test_decide_trace_is_empty_without_p_dividing_n(capsys):
    code, _, err = run(capsys, "decide", "--n", "9", "--k", "1", "--p", "2", "--trace")
    assert code == 0
    assert err == ""


def test_decide_rejects_csv(capsys):
    code, _, _ = run(capsys, "decide", "--n", "4", "--k", "0", "--format", "csv")
    assert code == 2


# -- verify ------------------------------------------------------------------------


def test_verify_newton_passes(capsys):
    code, out, _ = run(capsys, "verify", "newton", "--n-max", "3", "--i-max", "2")
    assert code == 0
    assert "18/18 cases passed" in out


def test_verify_recurrence_passes(capsys):
    code, out, _ = run(capsys, "verify", "recurrence", "--n-max", "6", "--primes", "2,3")
    assert code == 0
    assert "cases passed" in out


def test_verify_order_json(capsys):
    code, out, _ = run(
        capsys, "verify", "order", "--n-max", "6", "--primes", "2,3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    assert payload["cases"] == payload["passed"] == 10


def test_verify_conjugation_text_and_json(capsys):
    code, out, _ = run(capsys, "verify", "conjugation", "--n-max", "8")
    assert (code, out) == (0, "conjugation: 7/7 cases passed\n")
    code, out, _ = run(capsys, "verify", "conjugation", "--n-max", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cases"] == payload["passed"] == 7 and payload["failures"] == []


def test_verify_recurrence_reports_a_row_unlike_the_companion(capsys, perturbed_taps):
    code, out, _ = run(capsys, "verify", "recurrence", "--n-max", "6", "--primes", "2")
    assert code == 1
    assert "FAIL recurrence n=2 p=2: derived [[" in out and "] vs companion [[" in out


def test_verify_recurrence_reports_a_forcing_term_that_does_not_vanish(capsys, monkeypatch):
    """A tap planted at 4, as ``test_planted_forcing_term_raises`` plants one."""
    import gaugetorsion.suspension as suspension_mod

    newton_taps = suspension_mod._newton_taps
    monkeypatch.setattr(
        suspension_mod, "_newton_taps", lambda n, q: tuple(sorted(newton_taps(n, q) + ((4, 1),)))
    )
    code, out, _ = run(capsys, "verify", "recurrence", "--n-max", "6", "--primes", "3")
    assert code == 1
    assert "FAIL recurrence n=3 p=3: restricted power sum 4 did not vanish for n=3, p=3" in out


# Planted faults: each test below breaks one thing a verify target compares and
# expects the run to exit 1 and name the case it found false.


def test_verify_order_reports_an_order_off_its_p_power_ceiling(capsys, monkeypatch):
    """p_power_ceil one power too high: the order search still finds the true
    order under its bound, and it is no longer the expected one."""
    import gaugetorsion.matrices as matrices_mod

    ceil = matrices_mod.p_power_ceil
    monkeypatch.setattr(matrices_mod, "p_power_ceil", lambda n, p: ceil(n, p) * p.value)
    code, out, _ = run(capsys, "verify", "order", "--n-max", "3", "--primes", "2")
    assert (code, out) == (
        1,
        "FAIL order n=2 p=2: 2\nFAIL order n=3 p=2: 4\norder: 0/2 cases passed\n",
    )


def _one_off(m):
    """m with its top-left entry one more."""
    rows = [list(row) for row in m.rows]
    rows[0][0] += 1
    return IntMatrix(rows)


class _SkewedOnTheLeft(IntMatrix):
    """An IntMatrix whose products, with it as the left factor, are one entry off."""

    __slots__ = ()

    def __mul__(self, other):
        return _one_off(IntMatrix.__mul__(self, other))


@pytest.mark.parametrize("side", ["AD", "binomial_form", "A_inv_B_A"])
def test_verify_conjugation_reports_each_side_that_disagrees(capsys, monkeypatch, side):
    """One wrong entry in one compared side at a time, so that exactly one of
    the three comparisons fails: A D (A is the left factor there alone, B A and
    A^-1 B A take it on the right), the closed binomial form (the binomial rows
    at top n + 1; A is those at top n) or the conjugate A^-1 B A."""
    import gaugetorsion.matrices as matrices_mod

    if side == "AD":
        pascal = matrices_mod.pascal_matrix
        monkeypatch.setattr(
            matrices_mod, "pascal_matrix", lambda n: _SkewedOnTheLeft(pascal(n).rows)
        )
    elif side == "binomial_form":
        rows = matrices_mod._binomial_rows
        monkeypatch.setattr(
            matrices_mod,
            "_binomial_rows",
            lambda n, top: _one_off(rows(n, top)) if top > n else rows(n, top),
        )
    else:
        inverse = matrices_mod.unitriangular_inverse
        monkeypatch.setattr(matrices_mod, "unitriangular_inverse", lambda m: _one_off(inverse(m)))
    _, w = matrices_mod.verify_conjugation(3)
    agree = {
        "AD": w["BA"] == w["AD"],
        "binomial_form": w["BA"] == w["binomial_form"],
        "A_inv_B_A": w["A_inv_B_A"] == w["D"],
    }
    assert [name for name, same in agree.items() if not same] == [side]
    code, out, _ = run(capsys, "verify", "conjugation", "--n-max", "3")
    assert code == 1
    *failures, summary = out.splitlines()
    # the one comparison the planted side breaks is named, with both its sides
    x, y = {
        "AD": ("BA", "AD"),
        "binomial_form": ("BA", "binomial_form"),
        "A_inv_B_A": ("A_inv_B_A", "D"),
    }[side]
    expected = []
    for n in (2, 3):
        w = matrices_mod.verify_conjugation(n)[1]
        json_x, json_y = w[x].to_json(), w[y].to_json()
        expected.append(f"FAIL conjugation n={n}: {x} = {y} fails: {x}={json_x} {y}={json_y}")
    assert failures == expected
    assert summary == "conjugation: 0/2 cases passed"


def test_verify_newton_reports_the_residual_of_a_wrong_power_sum(capsys, monkeypatch):
    """Every power sum planted with an extra constant term 1, so the residual
    is the sum of (-1)^j e_j, that is (1 - t1)(1 - t2) for n = 2."""
    from gaugetorsion.polyring import _PackedSum

    power_sum = _PackedSum.power_sum
    monkeypatch.setattr(_PackedSum, "power_sum", lambda self, e: {**power_sum(self, e), 0: 1})
    argv = ("verify", "newton", "--n-max", "2", "--i-max", "1", "--primes", "3")
    code, out, _ = run(capsys, *argv)
    residual = MultiPoly(2, Prime(3), {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1}).render()
    assert (code, out) == (
        1,
        f"FAIL newton n=2 i=0 p=3: residual {residual}\n"
        f"FAIL newton n=2 i=1 p=3: residual {residual}\n"
        "newton: 0/2 cases passed\n",
    )


def _plant_one_in(monkeypatch, route, *modules):
    """The Milnor Q route named route, as each of modules calls it, returning
    Q(f) + 1."""
    import gaugetorsion.steenrod as steenrod_mod

    exact = getattr(steenrod_mod, route)

    def planted(level, f):
        return exact(level, f) + MultiPoly.one(f.n, f.p)

    for module in modules:
        monkeypatch.setattr(module, route, planted)


@pytest.mark.parametrize("route", ["milnor_q_recursive", "milnor_q_closed"])
def test_verify_milnor_reports_q_on_e2_unlike_its_power_sums(capsys, monkeypatch, route):
    import gaugetorsion.steenrod as steenrod_mod

    _plant_one_in(monkeypatch, route, steenrod_mod)
    argv = ("verify", "milnor", "--n-max", "2", "--primes", "2", "--samples", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    *failures, summary = out.splitlines()
    # the planted route alone is named, its Q(e_2) the power sums plus one
    p, expected = Prime(2), []
    for level in (1, 2):
        q = 2**level
        sums = power_sum(2, 1, p) * power_sum(2, q, p) - power_sum(2, q + 1, p)
        planted = sums + MultiPoly.one(2, p)
        expected.append(
            f"FAIL milnor n=2 level={level} p=2: {route} {planted.render()} vs rhs {sums.render()}"
        )
    assert failures == expected
    assert summary == "milnor: 0/2 cases passed"


def test_verify_milnor_reports_the_two_q_routes_splitting(capsys, monkeypatch):
    _plant_one_in(monkeypatch, "milnor_q_recursive", cli)
    argv = ("verify", "milnor", "--n-max", "2", "--primes", "2", "--l-max", "0", "--samples", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    *failures, summary = out.splitlines()
    assert [line.split(": ")[0] for line in failures] == [
        f"FAIL milnor-equivalence p=2 case={case}" for case in range(3)
    ]
    assert all(": split on " in line and " at level " in line for line in failures)
    assert summary == "milnor: 0/3 cases passed"


def test_verify_milnor_seeded(capsys):
    code, out, _ = run(
        capsys, "verify", "milnor", "--n-max", "3", "--samples", "20", "--seed", "7"
    )
    assert code == 0


def test_verify_exit_one_on_falsification(capsys, monkeypatch):
    def broken(n, i, p):
        return False, MultiPoly.one(n, p)

    monkeypatch.setattr(cli, "verify_newton", broken)
    code, out, _ = run(capsys, "verify", "newton", "--n-max", "2", "--i-max", "0")
    assert code == 1
    assert "FAIL" in out


def test_verify_order_reports_bound_excess_as_failure(capsys, monkeypatch):
    from gaugetorsion.matrices import OrderBoundExceeded

    def broken(n, p):
        raise OrderBoundExceeded("no p-power order found")

    monkeypatch.setattr(cli, "verify_p_power_order", broken)
    code, out, _ = run(capsys, "verify", "order", "--n-max", "3", "--primes", "2")
    assert code == 1
    assert "no p-power order" in out


def test_verify_milnor_is_seed_deterministic(capsys):
    args = ("verify", "milnor", "--n-max", "3", "--samples", "15", "--seed", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_bad_primes(capsys):
    code, _, err = run(capsys, "verify", "newton", "--primes", "2,four")
    assert code == 2
    assert "prime" in err


def test_verify_unknown_target_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "everything"])
    assert exc.value.code == 2


# -- sweep ----------------------------------------------------------------------------


def test_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--n-max", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,torsion_free,witness_prime"
    assert lines[1] == "2,0,false,2"
    assert lines[2] == "2,1,true,"
    assert lines[8] == "4,2,false,2"
    assert len(lines) == 1 + 2 + 3 + 4


def test_sweep_is_deterministic(capsys):
    _, first, _ = run(capsys, "sweep", "--n-max", "6", "--format", "csv")
    _, second, _ = run(capsys, "sweep", "--n-max", "6", "--format", "csv")
    assert first == second


def test_sweep_json_row_schema(capsys):
    code, out, _ = run(capsys, "sweep", "--n-max", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"n": 2, "k": 0, "torsion_free": False, "witness_prime": 2}


def test_sweep_text_rows_match_gcds(capsys):
    """The default text rows, each witness the least prime dividing gcd(n, k)."""
    rows = []
    for n in range(2, 7):
        for k in range(n):
            g = gcd(n, k)
            witness = next((q for q in range(2, g + 1) if g % q == 0), None)
            tail = "" if witness is None else f"  (p={witness})"
            rows.append(f"n={n:3d} k={k:3d}  torsion_free={str(g == 1).lower()}{tail}\n")
    code, out, _ = run(capsys, "sweep", "--n-max", "6")
    assert (code, out) == (0, "".join(rows))


def test_sweep_rejects_bad_bound(capsys):
    code, _, _ = run(capsys, "sweep", "--n-max", "1")
    assert code == 2


# -- matrix -----------------------------------------------------------------------------


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "2")
    assert code == 0
    assert "[ 2 -1]" in out
    assert "BA:" in out and "AD:" in out


def test_matrix_reduced(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "2", "--p", "2")
    assert code == 0
    assert "B mod 2:" in out
    assert "[0 1]" in out


def test_matrix_json_decimal_strings(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["B"] == [["3", "-3", "1"], ["1", "0", "0"], ["0", "1", "0"]]
    assert payload["p"] is None
    code, out, _ = run(capsys, "matrix", "--n", "3", "--p", "3", "--format", "json")
    assert json.loads(out)["B"] == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


@pytest.mark.parametrize("p", [None, 2, 5])
def test_matrix_json_matches_each_blocks_own_json(capsys, p):
    # the payload as each block's to_json() reads back, dumped the same way
    for n in (5, 12):
        b, a, d = companion_matrix(n), pascal_matrix(n), jordan_transpose(n)
        blocks = {"B": b, "A": a, "D": d, "BA": b * a, "AD": a * d}
        expected = {"n": n, "p": p}
        for name, m in blocks.items():
            expected[name] = json.loads((m if p is None else m.reduce(Prime(p))).to_json())
        args = ("matrix", "--n", str(n), "--format", "json") + (() if p is None else ("--p", str(p)))
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out == json.dumps(expected, indent=2) + "\n"


def test_matrix_products_match(capsys):
    _, out, _ = run(capsys, "matrix", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["BA"] == payload["AD"]


# -- format resolution ---------------------------------------------------------------------


def test_env_var_sets_default_format(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_FORMAT, "json")
    code, out, _ = run(capsys, "decide", "--n", "4", "--k", "2", "--p", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "Torsion"


def test_flag_overrides_env_var(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_FORMAT, "json")
    code, out, _ = run(capsys, "decide", "--n", "4", "--k", "2", "--p", "2", "--format", "text")
    assert code == 0
    assert out.startswith("n=4 k=2 p=2: Torsion")


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--n-max", "3"),
        ("decide", "--n", "4", "--k", "2"),
        ("verify", "order", "--n-max", "3"),
        ("matrix", "--n", "3"),
    ],
    ids=lambda argv: argv[0],
)
def test_bad_env_format_is_named(capsys, monkeypatch, argv):
    monkeypatch.setenv(cli.ENV_FORMAT, "xml")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{argv[0]} supports --format" in err
    assert "'xml'" in err and "None" not in err


# -- --output and exit codes -------------------------------------------------------------


def test_output_left_absent_on_usage_error(capsys, tmp_path):
    target = tmp_path / "f"
    code, _, _ = run(capsys, "decide", "--n", "1", "--k", "0", "--output", str(target))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_empty_output_is_a_usage_error(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "decide", "--n", "6", "--k", "2", "--output", "")
    assert (code, out, err) == (2, "", "error: need a file path for --output, got ''\n")
    assert list(tmp_path.iterdir()) == []


def test_output_written_on_success(capsys, tmp_path):
    target = tmp_path / "f"
    code, out, _ = run(
        capsys, "sweep", "--n-max", "8", "--format", "csv", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "sweep_n8.csv").read_text()
    assert list(tmp_path.iterdir()) == [target]


def test_output_kept_when_verification_fails(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "verify_newton", lambda n, i, p: (False, MultiPoly.one(n, p)))
    target = tmp_path / "f"
    argv = ("verify", "newton", "--n-max", "2", "--i-max", "0", "--output", str(target))
    code, _, _ = run(capsys, *argv)
    assert code == 1
    assert "FAIL" in target.read_text()


def raising(exc):
    def decide_global(n, k):
        raise exc

    return decide_global


def test_internal_contradiction_exits_three(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "decide_global", raising(MechanizationError("routes\ndisagree")))
    target = tmp_path / "f"
    code, _, err = run(capsys, "decide", "--n", "4", "--k", "2", "--output", str(target))
    assert code == 3
    assert err == "internal error: routes disagree\n"
    assert list(tmp_path.iterdir()) == []


def test_io_error_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "decide_global", raising(OSError("disk full")))
    code, _, err = run(capsys, "decide", "--n", "4", "--k", "2")
    assert code == 2
    assert err == "error: disk full\n"


def test_unwritable_output_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "f"
    code, _, err = run(capsys, "decide", "--n", "4", "--k", "2", "--output", str(target))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


# -- arguments are checked before --output is opened -------------------------------------

# The messages of the two verify runs that would check no case and print 0/0.
CHECKS_NOTHING = (
    "error: verify recurrence checks nothing: no prime of --primes is <= --n-max 6\n",
    "error: verify milnor checks nothing: --samples is 0 and no level up to --l-max "
    "has p^level + 1 <= --degree-cap 2\n",
)
ZERO_CASE_RUNS = (
    ("verify", "recurrence", "--primes", "7", "--n-max", "6"),
    ("verify", "milnor", "--samples", "0", "--degree-cap", "2"),
)


@pytest.mark.parametrize("argv, message", zip(ZERO_CASE_RUNS, CHECKS_NOTHING))
def test_a_verify_run_of_no_case_is_a_usage_error(capsys, tmp_path, argv, message):
    # without --output the message goes to stderr and nothing to stdout
    assert run(capsys, *argv) == (2, "", message)
    # with --output it is refused before the file is opened, so none is left
    target = tmp_path / "report.txt"
    assert run(capsys, *argv, "--output", str(target)) == (2, "", message)
    assert list(tmp_path.iterdir()) == []
    # one case more is a run: a prime at --n-max, or the lowest level's degree
    if argv[1] == "recurrence":
        code, out, _ = run(capsys, "verify", "recurrence", "--primes", "7", "--n-max", "7")
    else:
        code, out, _ = run(
            capsys, "verify", "milnor", "--samples", "0", "--degree-cap", "3", "--n-max", "2"
        )
    assert (code, out) == (0, f"{argv[1]}: 1/1 cases passed\n")


@pytest.mark.parametrize(
    "env, argv, message",
    [
        (None, ("decide", "--n", "1", "--k", "0"), "error: need n >= 2, got 1\n"),
        (None, ("matrix", "--n", "3", "--p", "4"), "error: --p: not a prime: 4\n"),
        (None, ("verify", "order", "--primes", "2,x"), "error: bad prime list: '2,x'\n"),
        (
            "xml",
            ("sweep", "--n-max", "3"),
            "error: sweep supports --format text, json, csv; got 'xml'\n",
        ),
        (None, ("verify", "newton", "--i-max", "21"), "error: --i-max is capped at 20, got 21\n"),
        (None, ("verify", "newton", "--i-max", "-1"), "error: need --i-max >= 0, got -1\n"),
        (
            None,
            ("verify", "milnor", "--degree-cap", "27"),
            "error: --degree-cap is capped at 26, got 27\n",
        ),
        (
            None,
            ("verify", "milnor", "--degree-cap", "-1"),
            "error: need --degree-cap >= 0, got -1\n",
        ),
        (
            None,
            ("verify", "milnor", "--samples", "20001"),
            "error: --samples is capped at 20000, got 20001\n",
        ),
        (None, ("verify", "milnor", "--samples", "-1"), "error: need --samples >= 0, got -1\n"),
        (None, ("verify", "milnor", "--l-max", "-3"), "error: need --l-max >= 0, got -3\n"),
        (
            None,
            ("verify", "newton", "--primes", "2,3,5,7"),
            "error: --primes is capped at 3, got 4\n",
        ),
        (None, ("verify", "order", "--primes", ","), "error: need --primes >= 1, got 0\n"),
        (None, ("verify", "newton", "--primes", ""), "error: need --primes >= 1, got 0\n"),
        (
            None,
            ("verify", "recurrence", "--primes", " , "),
            "error: need --primes >= 1, got 0\n",
        ),
        (None, ("verify", "order", "--primes", "3,5,03"), "error: --primes repeats 3\n"),
        (
            None,
            ("verify", "recurrence", "--n-max", "6", "--primes", "2,2"),
            "error: --primes repeats 2\n",
        ),
        (None, ("verify", "milnor", "--primes", "2,3,2"), "error: --primes repeats 2\n"),
        (
            None,
            ("verify", "order", "--primes", "3,1000000000000000003"),
            "error: --primes entries are capped at 1000003, got 1000000000000000003\n",
        ),
        (
            None,
            ("verify", "order", "--primes", "999983,999979,999961,999959,999953"),
            "error: --primes entries are capped at 22 bits in all, got 100\n",
        ),
        (None, ("verify", "recurrence", "--primes", "7", "--n-max", "6"), CHECKS_NOTHING[0]),
        (None, ("verify", "milnor", "--samples", "0", "--degree-cap", "2"), CHECKS_NOTHING[1]),
    ],
    ids=[
        "n",
        "p",
        "primes",
        "env-format",
        "i-max-above-cap",
        "i-max-below-floor",
        "degree-cap-above-cap",
        "degree-cap-below-floor",
        "samples-above-cap",
        "samples-below-floor",
        "l-max-below-floor",
        "primes-above-cap",
        "primes-empty-commas",
        "primes-empty",
        "primes-blank",
        "primes-repeated-order",
        "primes-repeated-recurrence",
        "primes-repeated-milnor",
        "prime-size-above-cap",
        "prime-bits-above-cap",
        "recurrence-checks-nothing",
        "milnor-checks-nothing",
    ],
)
def test_usage_errors_open_no_output(capsys, monkeypatch, tmp_path, env, argv, message):
    def refuse(args):
        raise AssertionError("--output opened before the arguments were checked")

    monkeypatch.setattr(cli, "_run_to_file", refuse)
    if env is not None:
        monkeypatch.setenv(cli.ENV_FORMAT, env)
    code, out, err = run(capsys, *argv, "--output", str(tmp_path / "f"))
    assert (code, out, err) == (2, "", message)
    assert list(tmp_path.iterdir()) == []


# The flags each verify target reads beyond --n-max, written out here apart
# from the cli._TARGETS records, and a value for each flag: set where the target
# does not read it, even a value that its floor would refuse is a usage error.
VERIFY_READS = {
    "newton": {"--i-max", "--primes"},
    "milnor": {"--l-max", "--degree-cap", "--primes", "--seed", "--samples"},
    "conjugation": set(),
    "order": {"--primes"},
    "recurrence": {"--primes"},
}
TARGET_FLAG_VALUES = {
    "--i-max": "-5",
    "--l-max": "-1",
    "--degree-cap": "3",
    "--primes": "4",
    "--seed": "-1",
    "--samples": "-3",
}
UNREAD = [
    (target, flag)
    for target, reads in VERIFY_READS.items()
    for flag in TARGET_FLAG_VALUES
    if flag not in reads
]


@pytest.mark.parametrize("target, flag", UNREAD, ids=[f"{t}{f}" for t, f in UNREAD])
def test_verify_refuses_flags_its_target_does_not_read(capsys, monkeypatch, tmp_path, target, flag):
    def refuse(args):
        raise AssertionError("--output opened before the arguments were checked")

    monkeypatch.setattr(cli, "_run_to_file", refuse)
    argv = ("verify", target, flag, TARGET_FLAG_VALUES[flag], "--output", str(tmp_path / "f"))
    assert run(capsys, *argv) == (2, "", f"error: verify {target} does not read {flag}\n")
    assert list(tmp_path.iterdir()) == []


def test_unread_flags_are_named_before_the_size_and_read_defaults_change_nothing(capsys):
    assert cli._VERIFY_FLAGS == ("--n-max", *TARGET_FLAG_VALUES)
    argv = ("verify", "conjugation", "--n-max", "101", "--samples", "-3", "--i-max", "-5")
    assert run(capsys, *argv) == (2, "", "error: verify conjugation does not read --i-max\n")
    # the flags a target reads, each set to its default, run as if left out
    for target, defaults in (
        ("newton", ("--i-max", "6", "--primes", "2,3,5")),
        ("milnor", ("--l-max", "2", "--degree-cap", "26", "--seed", "0", "--samples", "200")),
    ):
        plain = run(capsys, "verify", target, "--n-max", "3", "--format", "json")
        assert plain[0] == 0
        assert run(capsys, "verify", target, "--n-max", "3", "--format", "json", *defaults) == plain


def test_bad_argument_beats_unusable_output_dir(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "decide", "--n", "1", "--k", "0", "--output", str(target))
    assert (code, out, err) == (2, "", "error: need n >= 2, got 1\n")


def test_format_is_checked_before_size_and_size_before_prime(capsys, monkeypatch):
    _, cap = _cap(("decide",))
    too_big = str(cap + 1)
    code, _, err = run(capsys, "decide", "--n", too_big, "--k", "0", "--p", "6")
    assert (code, err) == (2, f"error: n is capped at {cap}, got {too_big}\n")
    monkeypatch.setenv(cli.ENV_FORMAT, "xml")
    code, _, err = run(capsys, "decide", "--n", too_big, "--k", "0")
    assert (code, err) == (2, "error: decide supports --format text, json; got 'xml'\n")
