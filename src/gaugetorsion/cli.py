"""Command-line front end: decisions, verification sweeps, matrix inspection.

Exit codes: 0 success or all checks passed, 1 a verification was falsified,
2 invalid usage or an I/O error, 3 an internal contradiction (the two
verdict routes or the recurrence mechanization disagree). Codes 2 and 3
come with a one-line message on stderr. Output is deterministic for a fixed
invocation, including the seeded random sweeps. The default output format is
text; override with --format or the GAUGETORSION_FORMAT environment variable.
Every argument is checked before --output is opened, so a bad one is named
whatever the output directory; the cmd_* functions take the arguments as
main has checked and resolved them. With --output, the report is written to a
temporary file beside the target and moved into place only when the command
exits 0 or 1, so a failed run leaves no file behind.

Each size flag, and each count flag a verify target reads (--i-max,
--degree-cap, --samples), has a floor and a cap; README.md tables the caps
and the runs they bound. verify milnor's --l-max has the floor 0 and no cap,
since its levels stop at --degree-cap. --primes takes at least one prime
and at most as many as the target's default list, no prime twice, and
verify order caps each prime's size and the sum of their bit lengths.
Primes given with --p or --primes must lie below 3.317e24, where primality
is decided exactly. A verify run that would check no case (verify recurrence
with every prime above --n-max; verify milnor with --samples 0 and no level
whose p^level + 1 fits under --degree-cap) and an empty --output are usage
errors.

decide --trace writes, for every prime p dividing n, the steps that resolve
alpha_p to stderr as JSON lines, one object per step with keys p, relation,
source and resolved_value; stdout is unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from functools import lru_cache

from .chern import verify_newton
from .fp import Prime
from .matrices import (
    OrderBoundExceeded,
    _render,
    companion_matrix,
    jordan_transpose,
    pascal_matrix,
    verify_conjugation,
    verify_p_power_order,
)
from .polyring import MultiPoly
from .steenrod import check_milnor_on_c2, milnor_q_closed, milnor_q_recursive
from .suspension import MechanizationError, derive_recurrence, solve_alpha_p
from .torsion import TorsionKind, decide_global, decide_p

ENV_FORMAT = "GAUGETORSION_FORMAT"

# Subcommand -> (the formats it accepts, its size flag, the cap on that size;
# verify takes the cap of its target).
_COMMANDS = {
    "decide": (("text", "json"), "n", 1024),
    "verify": (("text", "json"), "--n-max", None),
    "sweep": (("text", "json", "csv"), "--n-max", 200),
    "matrix": (("text", "json"), "n", 350),
}


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


def _print_trace(certificates) -> None:
    """The alpha_p resolution steps behind each p | n certificate, as JSON lines."""
    for cert in certificates:
        if cert.alpha_p is None:
            continue
        v = cert.verdict
        for record in solve_alpha_p(v.n, Prime(v.p), v.k).trace:
            print(json.dumps({"p": v.p, **record.to_dict()}), file=sys.stderr)


def cmd_decide(args: argparse.Namespace) -> int:
    if args.p is not None:
        cert = decide_p(args.n, args.k, args.p)
        if args.trace:
            _print_trace([cert])
        if args.format == "json":
            print(cert.to_json(indent=2))
        else:
            d = cert.to_dict()
            print(
                f"n={d['n']} k={d['k']} p={d['p']}: {d['verdict']} "
                f"(phi_c1={d['phi_c1']}, alpha_p={d['alpha_p']}, "
                f"matrix_order={d['matrix_order']}, recurrence_check={d['recurrence_check']})"
            )
        return 0
    result = decide_global(args.n, args.k)
    if args.trace:
        _print_trace(result.primes)
    if args.format == "json":
        print(result.to_json(indent=2))
    else:
        print(f"n={result.n} k={result.k}")
        for cert in result.primes:
            d = cert.to_dict()
            print(
                f"  p={d['p']}: {d['verdict']} (phi_c1={d['phi_c1']}, "
                f"alpha_p={d['alpha_p']}, matrix_order={d['matrix_order']})"
            )
        print(f"torsion_free: {str(result.torsion_free).lower()}")
    return 0


def _random_poly(
    rng: random.Random, n: int, p: Prime, max_exp: int, max_terms: int, min_terms: int = 0
) -> MultiPoly:
    """Seeded random sparse polynomial: min_terms..max_terms draws of a monomial
    with exponents in 0..max_exp and a nonzero coefficient, later draws winning."""
    terms = {}
    for _ in range(rng.randint(min_terms, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[mono] = rng.randint(1, p.value - 1) if p.value > 2 else 1
    return MultiPoly(n, p, terms)


# Each _verify_*_cases yields (label, None) for a pass and (label, detail) for
# a failure, reported as "label: detail".


def _verify_newton_cases(args):
    for prime in args.primes:
        for n in range(2, args.n_max + 1):
            for i in range(args.i_max + 1):
                ok, residual = verify_newton(n, i, prime)
                yield (
                    f"newton n={n} i={i} p={prime}",
                    None if ok else f"residual {residual.render()}",
                )


def _verify_milnor_cases(args):
    for prime in args.primes:
        for n in range(2, args.n_max + 1):
            for level in range(1, args.l_max + 1):
                if prime.value**level + 1 > args.degree_cap:
                    break
                ok, lhs, rhs = check_milnor_on_c2(n, prime, level)
                yield (
                    f"milnor n={n} level={level} p={prime}",
                    None if ok else f"lhs {lhs.render()} vs rhs {rhs.render()}",
                )
        rng = random.Random(args.seed)
        for case in range(args.samples):
            n_vars = rng.randint(1, 3)
            f = _random_poly(rng, n_vars, prime, 6 // n_vars + 1, 4, min_terms=1)
            level = rng.randint(1, 2)
            same = milnor_q_closed(level, f) == milnor_q_recursive(level, f)
            yield (
                f"milnor-equivalence p={prime} case={case}",
                None if same else f"split on {f.render()} at level {level}",
            )


def _verify_conjugation_cases(args):
    for n in range(2, args.n_max + 1):
        ok, witness = verify_conjugation(n)
        yield (
            f"conjugation n={n}",
            None if ok else f"BA={witness['BA'].to_json()} AD={witness['AD'].to_json()}",
        )


def _verify_order_cases(args):
    for prime in args.primes:
        for n in range(2, args.n_max + 1):
            label = f"order n={n} p={prime}"
            try:
                ok, order = verify_p_power_order(n, prime)
            except OrderBoundExceeded as exc:
                yield label, str(exc)
                continue
            yield label, None if ok else str(order)


def _verify_recurrence_cases(args):
    for prime in args.primes:
        q = prime.value
        for n in range(q, args.n_max + 1, q):
            label = f"recurrence n={n} p={prime}"
            try:
                derived = derive_recurrence(n, prime)
            except MechanizationError as exc:
                yield label, str(exc)
                continue
            expected = companion_matrix(n).reduce(prime)
            if derived != expected:
                yield label, f"derived {derived.to_json()} vs companion {expected.to_json()}"
                continue
            bad_k = [
                k for k in range(n) if solve_alpha_p(n, prime, k).value.residue != k % q
            ]
            yield label, f"alpha_p wrong for k in {bad_k}" if bad_k else None


# verify target -> (its cases, default --primes, default --n-max, --n-max cap,
# the cap on each --primes entry or None, the cap on the entries' summed
# bit lengths or None, the cap on each count flag it reads; counts start at 0).
# Only the matrix order search slows with the prime's size. Each of its m^p
# is a binary power of bitlen(p) + popcount(p) - 2 products, and a product
# costs far less while its packed slots fit a 64-bit word (matrices._layout;
# at --n-max 120, p <= 4231) than past it. The bit budget admits one entry at
# the ceiling beside 2 or 3.
_VERIFY_TARGETS = {
    "newton": (_verify_newton_cases, "2,3,5", 6, 12, None, None, {"--i-max": 20}),
    "milnor": (
        _verify_milnor_cases, "2,3,5", 5, 35, None, None, {"--degree-cap": 26, "--samples": 20000}
    ),
    "conjugation": (_verify_conjugation_cases, "2,3,5", 40, 100, None, None, {}),
    "order": (_verify_order_cases, "2,3,5,7,11", 50, 120, 1000003, 22, {}),
    "recurrence": (_verify_recurrence_cases, "2,3,5", 20, 250, None, None, {}),
}


def cmd_verify(args: argparse.Namespace) -> int:
    cases = list(_VERIFY_TARGETS[args.target][0](args))
    failures = [f"{label}: {detail}" for label, detail in cases if detail is not None]
    passed = len(cases) - len(failures)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "target": args.target,
                    "cases": len(cases),
                    "passed": passed,
                    "failures": failures,
                },
                indent=2,
            )
        )
    else:
        for line in failures:
            print(f"FAIL {line}")
        print(f"{args.target}: {passed}/{len(cases)} cases passed")
    return 1 if failures else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    for n in range(2, args.n_max + 1):
        for k in range(n):
            result = decide_global(n, k)
            witness = next(
                (c.verdict.p for c in result.primes if c.verdict.kind is TorsionKind.TORSION),
                None,
            )
            rows.append((n, k, result.torsion_free, witness))
    if args.format == "csv":
        print("n,k,torsion_free,witness_prime")
        for n, k, free, witness in rows:
            print(f"{n},{k},{str(free).lower()},{'' if witness is None else witness}")
    elif args.format == "json":
        print(
            json.dumps(
                [
                    {"n": n, "k": k, "torsion_free": free, "witness_prime": witness}
                    for n, k, free, witness in rows
                ],
                indent=2,
            )
        )
    else:
        for n, k, free, witness in rows:
            tail = "" if witness is None else f"  (p={witness})"
            print(f"n={n:3d} k={k:3d}  torsion_free={str(free).lower()}{tail}")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    b, a, d = companion_matrix(args.n), pascal_matrix(args.n), jordan_transpose(args.n)
    blocks = {"B": b, "A": a, "D": d, "BA": b * a, "AD": a * d}
    if args.p is not None:
        blocks = {name: m.reduce(args.p) for name, m in blocks.items()}
    if args.format == "json":
        payload: dict = {"n": args.n, "p": None if args.p is None else args.p.value}
        entry = lru_cache(maxsize=None)(str)  # one shared string per value: most entries are 0
        for name, m in blocks.items():
            payload[name] = [list(map(entry, row)) for row in m.rows] if args.p is None else m.rows
        print(json.dumps(payload, indent=2))
    else:
        suffix = "" if args.p is None else f" mod {args.p}"
        for name, m in blocks.items():
            print(f"{name}{suffix}:")
            for line in _render(m):
                print(line)
            print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugetorsion",
        description="Exact torsion decisions for gauge-group classifying spaces "
        "over the 2-sphere, with verification sweeps for the identities behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="torsion verdict for one (n, k)")
    p_decide.add_argument("--n", type=int, required=True)
    p_decide.add_argument("--k", type=int, required=True)
    p_decide.add_argument("--p", type=int, default=None, help="restrict to one prime")
    p_decide.add_argument("--format", choices=_COMMANDS["decide"][0], default=None)
    p_decide.add_argument(
        "--trace", action="store_true", help="write the alpha_p steps to stderr as JSON lines"
    )
    p_decide.add_argument("--output", type=str, default=None, help="write report to a file")
    p_decide.set_defaults(func=cmd_decide)

    p_verify = sub.add_parser("verify", help="run an identity sweep")
    p_verify.add_argument("target", choices=sorted(_VERIFY_TARGETS))
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--i-max", type=int, default=6)
    p_verify.add_argument("--l-max", type=int, default=2)
    p_verify.add_argument("--degree-cap", type=int, default=26)
    p_verify.add_argument("--primes", type=str, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--format", choices=_COMMANDS["verify"][0], default=None)
    p_verify.add_argument("--output", type=str, default=None, help="write report to a file")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="full (n, k) torsion table")
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--format", choices=_COMMANDS["sweep"][0], default=None)
    p_sweep.add_argument("--output", type=str, default=None, help="write report to a file")
    p_sweep.set_defaults(func=cmd_sweep)

    p_matrix = sub.add_parser("matrix", help="print the recurrence matrices")
    p_matrix.add_argument("--n", type=int, required=True)
    p_matrix.add_argument("--p", type=int, default=None)
    p_matrix.add_argument("--format", choices=_COMMANDS["matrix"][0], default=None)
    p_matrix.add_argument("--output", type=str, default=None, help="write report to a file")
    p_matrix.set_defaults(func=cmd_matrix)
    return parser


def _check_args(args: argparse.Namespace) -> str | None:
    """Check and resolve args in place: the format (the flag, then ENV_FORMAT),
    the size, the counts (the length of --primes one, at least 1; verify
    milnor's --l-max, at least 0 and uncapped), then --p or --primes, whose
    entries meet the target's ceiling before any primality test and its bit
    budget after, and then must be distinct, then whether a verify run checks
    any case at all, and last --output, which must not be empty. Returns the
    usage message for the first bad argument, or None."""
    formats, size_flag, cap = _COMMANDS[args.command]
    args.format = args.format or os.environ.get(ENV_FORMAT) or "text"
    if args.format not in formats:
        return f"{args.command} supports --format {', '.join(formats)}; got {args.format!r}"
    counts = {}
    if args.command == "verify":
        _, primes, n_max, cap, prime_cap, bits_cap, counts = _VERIFY_TARGETS[args.target]
        args.primes = primes if args.primes is None else args.primes
        args.n_max = n_max if args.n_max is None else args.n_max
        counts = {**counts, "--primes": len(primes.split(","))}  # the default list's length
        if args.target == "milnor":
            counts["--l-max"] = None  # uncapped: the levels stop at --degree-cap
    for flag, ceiling in ((size_flag, cap), *counts.items()):
        floor = {size_flag: 2, "--primes": 1}.get(flag, 0)  # no run passes on no prime
        value = getattr(args, flag.lstrip("-").replace("-", "_"))  # argparse's dest
        if flag == "--primes":
            value = sum(1 for tok in value.split(",") if tok.strip())
        if value < floor:
            return f"need {flag} >= {floor}, got {value}"
        if ceiling is not None and value > ceiling:
            return f"{flag} is capped at {ceiling}, got {value}"
    if getattr(args, "p", None) is not None:
        try:
            args.p = Prime(args.p)
        except ValueError as exc:
            return f"--p: {exc}"
    if args.command == "verify":
        try:
            values = [int(tok) for tok in args.primes.split(",") if tok.strip()]
            if prime_cap is not None and max(values, default=0) > prime_cap:
                return f"--primes entries are capped at {prime_cap}, got {max(values)}"
            args.primes = [Prime(value) for value in values]
        except ValueError:
            return f"bad prime list: {args.primes!r}"
        bits = sum(value.bit_length() for value in values)
        if bits_cap is not None and bits > bits_cap:
            return f"--primes entries are capped at {bits_cap} bits in all, got {bits}"
        repeated = [value for k, value in enumerate(values) if value in values[:k]]
        if repeated:  # a repeated prime would run, and count, its cases twice
            return f"--primes repeats {repeated[0]}"
        # a run of no case would report 0/0 and exit 0, as if it had checked something
        if args.target == "recurrence" and min(values) > args.n_max:
            return (
                f"verify recurrence checks nothing: no prime of --primes is <= --n-max {args.n_max}"
            )
        if args.target == "milnor" and not args.samples and (
            not args.l_max or min(values) + 1 > args.degree_cap
        ):
            return (
                "verify milnor checks nothing: --samples is 0 and no level up to --l-max "
                f"has p^level + 1 <= --degree-cap {args.degree_cap}"
            )
    if args.output == "":  # else the report would go to stdout, and no file be written
        return "need a file path for --output, got ''"
    return None


def _run_to_file(args: argparse.Namespace) -> int:
    """Run the command into a temporary file, moved onto --output on exit 0 or 1."""
    target = os.path.abspath(args.output)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x") as handle, contextlib.redirect_stdout(handle):
            code = args.func(args)
        if code in (0, 1):
            os.replace(tmp, target)
        return code
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _check_args(args)
    if problem:
        return _usage_error(problem)
    try:
        if args.output:
            return _run_to_file(args)
        return args.func(args)
    except MechanizationError as exc:
        print(f"internal error: {_one_line(exc)}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
