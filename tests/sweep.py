"""Print the outcome of every certificate of the Report sweep, one JSON list
per line, so that the verdicts of two checkouts can be compared:

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
verdict, message].  The texts and the mutator come from this directory, the
verifier from the package on PYTHONPATH.  pytest does not collect this file.
"""

import json
from pathlib import Path

import test_trees as t
from mipcert.certfile import verify_text
from mipcert.certifier import solve_and_certify
from mutation import mutated_texts
from test_certfile import ASSUMPTIONS_ACROSS_EXT
from test_certifier import wide_bnb_problem

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


def main():
    for source, text in certificates().items():
        for mutant, variant in enumerate([text, *mutated_texts(text)]):
            report = verify_text(variant)
            verdict = None if report.verdict is None else str(report.verdict)
            print(json.dumps([source, mutant or None, report.status, verdict, report.message]))


if __name__ == "__main__":
    main()
