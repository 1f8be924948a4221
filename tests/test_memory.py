"""Memory sized by the input, not by the dimension it declares: a box holds
its finite ends, and the certifier and the oracle refuse a problem before
they allocate anything per variable."""

import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from mipcert.certfile import parse_text, verify_text
from mipcert.certifier import solve_and_certify
from mipcert.errors import NonIntegralProblem, TooLarge, UnboundedVariable
from mipcert.exact import LE, Inequality, LinExpr
from mipcert.model import Linear, Problem
from mipcert.oracle import brute_force_optimum

SRC = Path(__file__).resolve().parent.parent / "src"
MiB = 1 << 20

# two rows on x1 and a DOM step with the identity witness: the negation
# x1 < 0 meets row 1, so the step holds in an empty box
_DOM_CERT = "VAR {n}\nCON 1 >= 1:1 0\nCON 2 <= 1:1 1\nDOM 3 1:1 >= 0\n"
# only x1 is integral
_ONE_INTEGRAL = "VAR {n}\nINT 1\nOBJ 1:1\nCON 1 >= 1:1 0\n"


def _peak(run):
    """The tracemalloc peak, in bytes, of calling `run`."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _raises(error, run, *args):
    def call():
        with pytest.raises(error):
            run(*args)
    return call


def test_a_box_costs_its_finite_ends_not_the_dimension():
    text = _DOM_CERT.format(n=3_000_000)
    reports = []
    assert _peak(lambda: reports.append(verify_text(text))) < MiB
    assert reports[0].message == "certificate ended without a GOAL step"


def test_the_certifier_refuses_a_continuous_variable_by_counting():
    problem, _ = parse_text(_ONE_INTEGRAL.format(n=3_000_000))
    assert _peak(_raises(NonIntegralProblem, solve_and_certify, problem)) < MiB


def test_an_unbounded_variable_is_refused_before_any_per_variable_list():
    # measured above the parsed problem, which holds n integrality markers
    n = 200_000
    problem = Problem(n, range(1, n + 1), LinExpr({1: 1}),
                      {1: Linear(Inequality(LinExpr({1: 1}), LE, 1))})
    assert _peak(_raises(UnboundedVariable, solve_and_certify, problem)) < MiB
    assert _peak(_raises(TooLarge, brute_force_optimum, problem)) < MiB


_LIMIT = 512 * MiB


def _limited():
    resource.setrlimit(resource.RLIMIT_AS, (_LIMIT, _LIMIT))


@pytest.mark.parametrize("command, text", [
    ("verify", _DOM_CERT),
    ("certify", _ONE_INTEGRAL),
    ("oracle", _ONE_INTEGRAL),
])
def test_a_huge_declared_dimension_ends_in_a_report(tmp_path, command, text):
    # each command runs in a child whose address space is capped
    path = tmp_path / "input.txt"
    path.write_text(text.format(n=30_000_000), encoding="utf-8")
    args = [str(path)] + (["-o", str(tmp_path / "out.cert")] if command == "certify" else [])
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "mipcert.cli", command, *args],
                         env={**os.environ, "PYTHONPATH": pythonpath}, preexec_fn=_limited,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode in (0, 1, 2), run.stderr
    assert "Traceback" not in run.stderr
    lines = run.stdout.splitlines() + run.stderr.splitlines()
    assert lines and lines[0].startswith(("VERIFIED", "REJECTED", "ERROR")), lines
