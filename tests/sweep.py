"""Print the outcome of every certificate of the Report sweep, then of every
run of the certifier section, one JSON list per line, so that the verdicts
and certificates of two checkouts can be compared:

    PYTHONPATH=src python tests/sweep.py > after.jsonl
    PYTHONPATH=<other checkout>/src python tests/sweep.py > before.jsonl
    diff before.jsonl after.jsonl

The certificates are the goldens (tests/golden/*.cert and
tests/golden/dense/*.cert), the strengthening certificates of
tests/test_trees.py, a wide branch-and-bound certificate (the certifier's
output for tests/test_certifier.py's `wide_bnb_problem(10)`), whose leaves
restate long assumption lists, an assumption certificate that spans an EXT
(tests/test_certfile.py), and every single-token mutant of each
(tests/mutation.py).  A line reads [source, mutant number or null, status,
verdict, message].

The certifier section runs `solve_and_certify` under each option set
(plain, `sst`, `lex`, and `cuts=("cg", "cover")`) on seeded problems of
tests/helpers.py, a packing row with a fractional right-hand side, two
variables fixed at one, a problem of tests/test_symmetry.py whose swap
classes {1, 4} and {2, 3, 5} interleave, so that the `sst` chain orders
members that are not adjacent, and three edge cases: unit bounds that cross,
bounds given only by strict rows, and an objective that names a variable
outside the dimension.  A line reads [source, options, status, outcome,
SHA-256 of the certificate]: status is the certificate's own Report status,
or "refused" when the certifier raised, and outcome is the verdict or the
exception's type and message.

The texts, problems and the mutator come from this directory, the verifier
and the certifier from the package on PYTHONPATH.  pytest does not collect
this file.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import test_trees as t
from helpers import boxed_problem, random_problem, set_packing_problem
from mipcert.certfile import verify_text
from mipcert.certifier import solve_and_certify
from mipcert.exact import GE, LE, Inequality, LinExpr
from mipcert.model import Linear, Problem
from mutation import mutated_texts
from test_certfile import ASSUMPTIONS_ACROSS_EXT
from test_certifier import wide_bnb_problem
from test_symmetry import partly_symmetric_problem

TESTS = Path(__file__).resolve().parent


def strengthening_texts():
    """The certificates that the pool-box and DEL C tests of test_trees.py
    verify."""
    texts = {"termless DOM": t._PROBLEM + "DOM 7 0 0 >= 0\n",
             "DEL C tightening row": t._CUTOFF_PROBLEM + t._DEL_C_7,
             "DEL C new row": t._DEL_C_NEW_ROW,
             "DEL C watched row": t._DEL_C_SYMMETRY_BREAKER,
             "extension": t._EXTENSION}
    for name, middle in (("kept", ""), ("DEL A", "DEL A 7\n"), ("XFER+DEL C", t._DEL_C_7)):
        texts[f"cutoff {name}"] = (t._CUTOFF_PROBLEM + middle + "DOM 9 1 0 >= 1\n"
                                   + t._CUTOFF_FINISH)
    return texts


def certificates():
    """Source name -> certificate text."""
    texts = {str(path.relative_to(TESTS)): path.read_text(encoding="utf-8")
             for path in sorted((TESTS / "golden").glob("**/*.cert"))}
    texts.update(strengthening_texts())
    texts["wide B&B n=10"] = solve_and_certify(wide_bnb_problem(10))[1]
    texts["assumptions across EXT"] = ASSUMPTIONS_ACROSS_EXT
    return texts


OPTIONS = {"plain": {}, "sst": {"sst": True}, "lex": {"lex": True},
           "cuts=cg,cover": {"cuts": ("cg", "cover")}}


def _unit_rows(n, lo, hi, strict=False):
    """x_j >= lo and x_j <= hi (x_j < hi when strict) for j = 1..n, as
    numbered rows."""
    rows = [Inequality(LinExpr({j: 1}), rel, bound, strict and rel == LE)
            for j in range(1, n + 1) for rel, bound in ((GE, lo), (LE, hi))]
    return {cid: Linear(iq) for cid, iq in enumerate(rows, start=1)}


def certifier_problems():
    """Source name -> problem for the certifier section."""
    problems = {}
    for seed in range(20):
        problems[f"random_problem seed {seed}"] = random_problem(random.Random(seed))
        problems[f"binary random_problem seed {seed}"] = random_problem(random.Random(seed), hi=1)
    problems["half-integral packing"] = boxed_problem(
        3, [Inequality(LinExpr({1: 1, 2: 1, 3: 1}), LE, Fraction(3, 2))], {1: -1, 2: -2, 3: -1})
    problems.update({f"set_packing_problem({n})": set_packing_problem(n) for n in (3, 4, 5, 6)})
    problems["wide_bnb_problem(10)"] = wide_bnb_problem(10)
    problems["fixed pair"] = boxed_problem(2, [], {1: -1, 2: -1}, lo=1, hi=1)
    problems["partly_symmetric_problem seed 52"] = partly_symmetric_problem(random.Random(52))[0]
    problems["crossed unit bounds"] = Problem(2, {1, 2}, LinExpr(), _unit_rows(2, 1, 0))
    problems["strict unit bounds"] = Problem(2, {1, 2}, LinExpr({1: -1, 2: -1}),
                                             _unit_rows(2, 0, 2, strict=True))
    problems["objective outside the dimension"] = Problem(1, {1}, LinExpr({2: 1}),
                                                          _unit_rows(1, 0, 1))
    return problems


def certify_outcome(problem, options):
    """[status, outcome, SHA-256] of one certifier run."""
    try:
        _, text, _ = solve_and_certify(problem, **options)
    except Exception as e:  # any refusal or crash is an outcome to compare
        return ["refused", f"{type(e).__name__}: {e}", None]
    report = verify_text(text)
    outcome = str(report.verdict) if report.status == "verified" else report.message
    return [report.status, outcome, hashlib.sha256(text.encode()).hexdigest()]


def main():
    for source, text in certificates().items():
        for mutant, variant in enumerate([text, *mutated_texts(text)]):
            report = verify_text(variant)
            verdict = None if report.verdict is None else str(report.verdict)
            print(json.dumps([source, mutant or None, report.status, verdict, report.message]))
    for source, problem in certifier_problems().items():
        for name, options in OPTIONS.items():
            print(json.dumps([source, name, *certify_outcome(problem, options)]))


if __name__ == "__main__":
    main()
