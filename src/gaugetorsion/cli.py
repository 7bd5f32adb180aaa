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

Each subcommand is declared once, as a _Command record, and each verify
target as a _Target record of the flags it reads, their defaults and caps
(README.md tables the caps and the runs they bound). Primes given with --p or
--primes must lie below 3.317e24, where primality is decided exactly. A verify
flag that the target does not read, a verify run that would check no case and
an empty --output are usage errors.

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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

from .chern import verify_newton
from .fp import Prime
from .matrices import (
    _CONJUGATION_SIDES,
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
                label = f"milnor n={n} level={level} p={prime}"
                ok, recursive, rhs, closed = check_milnor_on_c2(n, prime, level)
                if ok:
                    yield label, None
                    continue
                routes = (("milnor_q_recursive", recursive), ("milnor_q_closed", closed))
                yield label, "; ".join(
                    f"{route} {q.render()} vs rhs {rhs.render()}" for route, q in routes if q != rhs
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


def _milnor_checks_nothing(args):
    if args.samples or (args.l_max and min(map(int, args.primes)) + 1 <= args.degree_cap):
        return None
    return (
        "verify milnor checks nothing: --samples is 0 and no level up to --l-max "
        f"has p^level + 1 <= --degree-cap {args.degree_cap}"
    )


def _verify_conjugation_cases(args):
    for n in range(2, args.n_max + 1):
        label = f"conjugation n={n}"
        ok, w = verify_conjugation(n)
        if ok:
            yield label, None
            continue
        yield label, "; ".join(
            f"{x} = {y} fails: {x}={w[x].to_json()} {y}={w[y].to_json()}"
            for x, y in _CONJUGATION_SIDES
            if w[x] != w[y]
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


def _recurrence_checks_nothing(args):
    if min(map(int, args.primes)) <= args.n_max:
        return None
    return f"verify recurrence checks nothing: no prime of --primes is <= --n-max {args.n_max}"


@dataclass(frozen=True)
class _Target:
    """A verify target: its cases, each yielding (label, None) for a pass and
    (label, detail) for a failure, reported as "label: detail"; and each flag it
    reads with its default and cap, --seed beside --samples. A flag it does not
    read has no default. Counts start at 0 and are checked in their order."""

    cases: Callable[[argparse.Namespace], Iterator[tuple[str, str | None]]]
    n_max: int  # the default --n-max, which every target reads
    n_max_cap: int
    primes: str | None = None  # the default --primes, and the most primes a list may name
    counts: dict[str, tuple[int, int | None]] = field(default_factory=dict)  # (default, cap)
    prime_cap: int | None = None  # the cap on each --primes entry
    bits_cap: int | None = None  # the cap on the entries' summed bit lengths
    # the usage message for a run that would check no case, and report 0/0 as a pass
    empty: Callable[[argparse.Namespace], str | None] = lambda args: None


_TARGETS = {
    "newton": _Target(_verify_newton_cases, 6, 12, "2,3,5", counts={"--i-max": (6, 20)}),
    "milnor": _Target(
        _verify_milnor_cases, 5, 35, "2,3,5",
        # --l-max is uncapped: the levels stop at --degree-cap
        counts={"--degree-cap": (26, 26), "--samples": (200, 20000), "--l-max": (2, None)},
        empty=_milnor_checks_nothing,
    ),
    "conjugation": _Target(_verify_conjugation_cases, 40, 100),
    # Only the order search slows with the prime's size: each m^p costs
    # bitlen(p) + popcount(p) - 2 products, far cheaper while their packed slots
    # fit a 64-bit word (matrices._layout; at --n-max 120, p <= 4231) than past
    # it. The bit budget admits one entry at the ceiling beside 2 or 3.
    "order": _Target(_verify_order_cases, 50, 120, "2,3,5,7,11", prime_cap=1000003, bits_cap=22),
    "recurrence": _Target(
        _verify_recurrence_cases, 20, 250, "2,3,5", empty=_recurrence_checks_nothing
    ),
}


def cmd_verify(args: argparse.Namespace) -> int:
    cases = list(_TARGETS[args.target].cases(args))
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
            payload[name] = m._json_rows(entry)
        print(json.dumps(payload, indent=2))
    else:
        suffix = "" if args.p is None else f" mod {args.p}"
        for name, m in blocks.items():
            print(f"{name}{suffix}:")
            for line in _render(m):
                print(line)
            print()
    return 0


@dataclass(frozen=True)
class _Command:
    """A subcommand: what runs it, its help line, the formats it writes, the flag
    that sizes its run and its cap (verify's is its target's), and its switches,
    store_true flags that --help lists between --format and --output."""

    func: Callable[[argparse.Namespace], int]
    help: str
    formats: tuple[str, ...]
    size_flag: str
    cap: int | None
    switches: tuple[tuple[str, str], ...] = ()


_SUBCOMMANDS = {
    "decide": _Command(
        cmd_decide, "torsion verdict for one (n, k)", ("text", "json"), "n", 1024,
        switches=(("--trace", "write the alpha_p steps to stderr as JSON lines"),),
    ),
    "verify": _Command(cmd_verify, "run an identity sweep", ("text", "json"), "--n-max", None),
    "sweep": _Command(
        cmd_sweep, "full (n, k) torsion table", ("text", "json", "csv"), "--n-max", 200
    ),
    "matrix": _Command(cmd_matrix, "print the recurrence matrices", ("text", "json"), "n", 350),
}
# The verify flags in --help's order; a target's record says which it reads.
_VERIFY_FLAGS = ("--n-max", "--i-max", "--l-max", "--degree-cap", "--primes", "--seed", "--samples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugetorsion",
        description="Exact torsion decisions for gauge-group classifying spaces "
        "over the 2-sphere, with verification sweeps for the identities behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():  # an option given no default is set only if given
        sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
    own = sub.choices  # each subcommand's parser, by name
    own["decide"].add_argument("--n", type=int, required=True)
    own["decide"].add_argument("--k", type=int, required=True)
    own["decide"].add_argument("--p", type=int, default=None, help="restrict to one prime")
    own["verify"].add_argument("target", choices=sorted(_TARGETS))
    for flag in _VERIFY_FLAGS:
        own["verify"].add_argument(flag, type=str if flag == "--primes" else int)
    own["sweep"].add_argument("--n-max", type=int, required=True)
    own["matrix"].add_argument("--n", type=int, required=True)
    own["matrix"].add_argument("--p", type=int, default=None)
    for name, command in _SUBCOMMANDS.items():
        own[name].add_argument("--format", choices=command.formats, default=None)
        for flag, text in command.switches:
            own[name].add_argument(flag, action="store_true", default=False, help=text)
        own[name].add_argument("--output", type=str, default=None, help="write report to a file")
        own[name].set_defaults(func=command.func)
    return parser


def _dest(flag: str) -> str:
    """The attribute argparse stores a flag's value under."""
    return flag.lstrip("-").replace("-", "_")


def _check_args(args: argparse.Namespace) -> str | None:
    """Check and resolve args in place, in this order: the format (the flag, then
    ENV_FORMAT); no flag the verify target does not read; the size; the counts,
    --primes by its length; --p or --primes, whose entries meet the target's
    ceiling before any primality test and its bit budget after, and must be
    distinct; that a verify run checks some case; and last a nonempty --output.
    Returns the usage message for the first bad argument, or None."""
    command = _SUBCOMMANDS[args.command]
    args.format = args.format or os.environ.get(ENV_FORMAT) or "text"
    if args.format not in command.formats:
        return f"{args.command} supports --format {', '.join(command.formats)}; got {args.format!r}"
    target = _TARGETS.get(getattr(args, "target", None))
    limits = {command.size_flag: (2, command.cap if target is None else target.n_max_cap)}
    if target is not None:
        defaults = {"--n-max": target.n_max, "--primes": target.primes}
        defaults.update((flag, default) for flag, (default, _) in target.counts.items())
        if "--samples" in defaults:  # and --seed, which seeds them and has no floor
            defaults["--seed"] = 0
        for flag in _VERIFY_FLAGS:
            if defaults.get(flag) is None and hasattr(args, _dest(flag)):
                return f"{args.command} {args.target} does not read {flag}"
            vars(args).setdefault(_dest(flag), defaults.get(flag))
        limits.update((flag, (0, cap)) for flag, (_, cap) in target.counts.items())
        if target.primes:  # no run passes on no prime; each cap holds for the default list
            limits["--primes"] = (1, len(target.primes.split(",")))
    for flag, (floor, ceiling) in limits.items():
        value = getattr(args, _dest(flag))
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
    if getattr(args, "primes", None) is not None:
        try:
            values = [int(tok) for tok in args.primes.split(",") if tok.strip()]
            if target.prime_cap is not None and max(values, default=0) > target.prime_cap:
                return f"--primes entries are capped at {target.prime_cap}, got {max(values)}"
            args.primes = [Prime(value) for value in values]
        except ValueError:
            return f"bad prime list: {args.primes!r}"
        bits = sum(value.bit_length() for value in values)
        if target.bits_cap is not None and bits > target.bits_cap:
            return f"--primes entries are capped at {target.bits_cap} bits in all, got {bits}"
        repeated = [value for k, value in enumerate(values) if value in values[:k]]
        if repeated:  # a repeated prime would run, and count, its cases twice
            return f"--primes repeats {repeated[0]}"
    if target is not None and (empty := target.empty(args)):
        return empty
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
        print(f"error: {problem}", file=sys.stderr)
        return 2
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
