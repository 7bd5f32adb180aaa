"""Byte-exact regression pins for the machine output formats.

The values inside these files are not trusted blindly: the sweep rows are
forced by the gcd criterion tests and the certificate fields by the decision
tests. What the golden files pin is the serialization itself: field order,
casing, separators, and row order.
"""

from math import gcd
from pathlib import Path

import pytest

from gaugetorsion import cli

GOLDEN = Path(__file__).parent / "golden"


def render(*argv) -> str:
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(list(argv))
    assert code == 0
    return buffer.getvalue()


def test_sweep_csv_golden():
    expected = (GOLDEN / "sweep_n8.csv").read_text()
    assert render("sweep", "--n-max", "8", "--format", "csv") == expected
    # sanity: every row in the pinned file obeys the gcd criterion
    for line in expected.strip().splitlines()[1:]:
        n, k, free, _ = line.split(",")
        assert (gcd(int(n), int(k)) == 1) == (free == "true")


def test_certificate_json_golden():
    expected = (GOLDEN / "certificate_n4_k2_p2.json").read_text()
    assert render("decide", "--n", "4", "--k", "2", "--p", "2", "--format", "json") == expected


def test_matrix_json_golden():
    expected = (GOLDEN / "matrices_n4.json").read_text()
    assert render("matrix", "--n", "4", "--format", "json") == expected


@pytest.mark.parametrize(
    "name, argv",
    [
        ("trace_n12_k6.jsonl", ["--n", "12", "--k", "6"]),
        ("trace_n12_k5.jsonl", ["--n", "12", "--k", "5"]),
        ("trace_n20_k5_p5.jsonl", ["--n", "20", "--k", "5", "--p", "5"]),
    ],
)
def test_decide_trace_golden(name, argv):
    import io
    from contextlib import redirect_stderr

    buffer = io.StringIO()
    with redirect_stderr(buffer):
        render("decide", *argv, "--trace")
    assert buffer.getvalue() == (GOLDEN / name).read_text()


def test_output_flag_matches_stdout(tmp_path):
    target = tmp_path / "report.csv"
    code = cli.main(["sweep", "--n-max", "5", "--format", "csv", "--output", str(target)])
    assert code == 0
    assert target.read_text() == render("sweep", "--n-max", "5", "--format", "csv")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_decide_output_flag(tmp_path, fmt):
    target = tmp_path / "verdict.out"
    code = cli.main(
        ["decide", "--n", "6", "--k", "4", "--format", fmt, "--output", str(target)]
    )
    assert code == 0
    assert target.read_text() == render("decide", "--n", "6", "--k", "4", "--format", fmt)
