"""Certificate grammar: parsing, canonical serialization, the driver."""

import os
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from mipcert.exact import EQ, GE, LE, SHOWN_CHARS, Inequality, LinExpr, Rat, falsity, fmt
from mipcert.certfile import (
    PROBLEM_KEYWORDS,
    STEP_KEYWORDS,
    Block,
    Report,
    PREMISE_LETTERS,
    _int,
    _parse_lin,
    _rat,
    fmt_problem,
    fmt_row,
    fmt_step,
    iter_blocks,
    parse_ineq,
    parse_problem_blocks,
    parse_row,
    parse_step,
    parse_text,
    serialize,
    verify_file,
    verify_stream,
    verify_text,
)
from mipcert.certifier import solve_and_certify
from mipcert.errors import CertificateSyntaxError, MipcertError, UnknownId
from mipcert.model import Problem
from mipcert.oracle import brute_force_optimum
from mipcert.rules import ImplicStep, Subproof

from helpers import assert_normal, knapsack_problem, random_problem

GOLDEN = """\
VAR 2
INT 1 2
OBJ -1 0
CON 1 <= 2 2 3
CON 2 <= 1 0 1
CON 3 >= 1 0 0
CON 4 <= 0 1 1
CON 5 >= 0 1 0
SOL 1 0
IMPLIC 8 { 1 0 <= 0 }
  LIN OBJ:1 A1:1
  -> 0 0 <= -1
IMPLIC 9 { 1 0 >= 1 }
  LIN OBJ:1 2:1
  -> 0 0 <= -1
RESOLVE 10 8:1 9:1
GOAL 10
"""


def test_golden_knapsack_verifies():
    report = verify_text(GOLDEN)
    assert report.status == "verified"
    assert report.verdict.kind == "optimal"
    assert str(report.verdict.value) == "-1"
    assert report.stats["by_rule"] == {"SOL": 1, "IMPLIC": 2, "RESOLVE": 1, "GOAL": 1}


def test_round_trip_is_canonical():
    problem, steps = parse_text(GOLDEN)
    canon = serialize(problem, steps)
    problem2, steps2 = parse_text(canon)
    assert serialize(problem2, steps2) == canon


def test_comments_and_spacing_normalize():
    noisy = GOLDEN.replace("SOL 1 0", "# incumbent\nSOL  1   0")
    p1, s1 = parse_text(noisy)
    p2, s2 = parse_text(GOLDEN)
    assert serialize(p1, s1) == serialize(p2, s2)


def test_strict_keyword_and_relation_tokens():
    a = "VAR 1\nOBJ 0\nCON 1 <= 1 2 strict\n"
    b = "VAR 1\nOBJ 0\nCON 1 < 1 2\n"
    pa, _ = parse_text(a)
    pb, _ = parse_text(b)
    assert pa.constraints[1] == pb.constraints[1]


def test_positioned_syntax_error():
    bad = GOLDEN.replace("RESOLVE 10 8:1 9:1", "RESOLVE 10 8:1")
    report = verify_text(bad)
    assert report.status == "error"
    assert "line 16" in report.message


def test_forward_reference_rejected():
    bad = GOLDEN.replace("LIN OBJ:1 2:1", "LIN OBJ:1 99:1")
    report = verify_text(bad)
    assert report.status == "rejected"
    assert "99" in report.message


def test_steps_after_goal_rejected():
    report = verify_text(GOLDEN + "EPS 1/2\n")
    assert report.status == "error"
    assert "after GOAL" in report.message


def test_missing_goal_rejected():
    trimmed = GOLDEN.rsplit("GOAL", 1)[0]
    report = verify_text(trimmed)
    assert report.status == "rejected"
    assert "GOAL" in report.message


def test_mutated_multiplier_rejected():
    bad = GOLDEN.replace("LIN OBJ:1 2:1", "LIN OBJ:1 2:2")
    report = verify_text(bad)
    assert report.status == "rejected"


# a problem whose steps start at line 5, and an IMPLIC whose target goes on
# line 7
_HEAD = "VAR 2\nINT 1 2\nOBJ -1 0\nCON 1 <= 1 0 3\n"
_IMPLIC_5 = "IMPLIC 5\n  LIN 1:1\n"
_BIG = "7" * (sys.get_int_max_str_digits() + 1)
_TOO_MANY = (f"number '{_BIG[:SHOWN_CHARS]}'... ({len(_BIG)} characters) has more than "
             f"{sys.get_int_max_str_digits()} digits, Python's int/str conversion limit")

# (text, the Report's message): one case for each CertificateSyntaxError
# raise site in certfile.py but `bad integer` and `IMP needs an id`, which
# the token cases of the test below reach.  A tuple holds the contents of
# files for verify_file: a problem file and a certificate file, or one file.
SYNTAX_ERRORS = [
    # blocks and tokens
    ("  VAR 2\n", "line 1: continuation line before any step"),
    (_HEAD + f"SOL {_BIG} 0\n", f"line 5: {_TOO_MANY}"),
    (_HEAD + "SOL x 0\n", "line 5: bad rational 'x'"),
    ("VAR 2\nCON 1 <= 1 x 3\n", "line 2: bad rational 'x'"),
    (_HEAD + f"GOAL {_BIG}\n", f"line 5: {_TOO_MANY}"),
    # rows
    ("VAR 2\nOBJ 1 2:1\n", "line 2: a row mixes dense coefficients and j:c terms"),
    ("VAR 2\nCON 1 <= 1 1:1 2:1 3\n", "line 2: a row mixes dense coefficients and j:c terms"),
    ("VAR 2\nCON 1 <= 1 3\n", "line 2: a dense row needs 2 coefficients; got 1"),
    ("VAR 2\nCON 1 <= 1:1 1 3\n", "line 2: a row mixes dense coefficients and j:c terms"),
    ("VAR 2\nCON 1 <= x:1 3\n", "line 2: bad row term 'x:1'"),
    ("VAR 2\nCON 1 <= 3:1 3\n", "line 2: row term index 3 outside [1, 2]"),
    ("VAR 2\nCON 1 <= 2:1 1:1 3\n", "line 2: row term indices must increase; 1 follows 2"),
    ("VAR 2\nCON 0 <= 1 0 3\n", "line 2: constraint ids are positive; got 0"),
    # inequalities and assumptions
    ("VAR 2\nCON 1 << 1 0 3\n", "line 2: bad relation '<<'"),
    (_HEAD + _IMPLIC_5 + "  -> 1 0 <=\n", "line 7: inequality needs a row, a relation, and a rhs"),
    (_HEAD + _IMPLIC_5 + "  -> 1 0 <= 3 x\n", "line 7: unexpected token 'x'"),
    (_HEAD + _IMPLIC_5 + "  -> 1 0 = 3 strict\n", "line 7: an equality cannot be strict"),
    (_HEAD + _IMPLIC_5 + "  -> 1 0 3\n", "line 7: inequality needs a row, a relation, and a rhs"),
    (_HEAD + "IMPLIC 5 x\n", "line 5: expected '{'"),
    (_HEAD + "IMPLIC 5 { 1 0 <= 1\n", "line 5: missing '}'"),
    # subproofs
    (_HEAD + "IMPLIC 5\n  LIN x:1\n", "line 6: bad premise reference 'x'"),
    (_HEAD + "IMPLIC 5\n  LIN 1\n", "line 6: LIN term '1' needs ref:mult"),
    (_HEAD + "IMPLIC 5\n  LIN\n", "line 6: empty LIN line"),
    (_HEAD + _IMPLIC_5 + "  ROUND 1\n", "line 7: ROUND takes no arguments"),
    (_HEAD + _IMPLIC_5 + "  -> 1 0 <= 3\n  -> 1 0 <= 3\n", "line 8: duplicate target line"),
    (_HEAD + _IMPLIC_5 + "  FOO\n", "line 7: unexpected token 'FOO' in subproof"),
    (_HEAD + _IMPLIC_5, "line 6: subproof missing its '->' target"),
    # WITNESS, SUB and ORDER blocks
    (_HEAD + "RED 5 1 0 <= 1\n  LIN 1:1\n", "line 6: unexpected line 'LIN'"),
    (_HEAD + "RED 5 1 0 <= 1\n  WITNESS 1 0 0\n", "line 6: WITNESS needs `j <- row const`"),
    (_HEAD + "RED 5 1 0 <= 1\n  WITNESS 3 <- 0 0 0\n", "line 6: witness row 3 out of range"),
    (_HEAD + "RED 5 1 0 <= 1\n  WITNESS 1 <- 0 0 0\n  LIN 1:1\n", "line 7: WITNESS takes no body"),
    (_HEAD + "RED 5 1 0 <= 1\n  SUB\n", "line 6: SUB needs one key"),
    (_HEAD + "DOM 5 1 0 <= 1\n  ORDER 1 FOO\n", "line 6: ORDER needs `entry GAP|GEQ|LEQ`"),
    (_HEAD + "RED 5 1 0 <= 1\n  WITNESS 1 <- 0 1 0\n  WITNESS 1 <- 0 1 0\n",
     "line 7: duplicate WITNESS 1"),
    (_HEAD + "RED 5 1 0 <= 1\n  SUB SELF\n    -> 0 0 <= -1\n  SUB SELF\n    -> 0 0 <= -1\n",
     "line 8: duplicate SUB SELF"),
    (_HEAD + "DOM 5 1 0 <= 1\n  ORDER 1 GAP\n    -> 1 0 >= 1\n  ORDER 1 GAP\n    -> 1 0 >= 1\n",
     "line 8: duplicate ORDER 1 GAP"),
    (_HEAD + "RED 5 { 1 0 <= 1 } 1 0 <= 1\n", "line 5: expected '=>' after assumptions"),
    # TREE and NODE
    (_HEAD + "TREE\n  FOO\n", "line 6: TREE body lines must start with NODE"),
    (_HEAD + "TREE\n  NODE 1 -\n", "line 6: NODE needs id, parent, and a branch"),
    (_HEAD + "TREE\n  NODE 1 - 1 < 0 : :\n", "line 6: branch must be `U` or `var <=|>= beta`"),
    (_HEAD + "TREE\n  NODE 1 - U 1\n", "line 6: expected ':' before sigma"),
    (_HEAD + "TREE\n  NODE 1 - U : 1\n", "line 6: expected ':' before bound references"),
    (_HEAD + "TREE\n  NODE 1 - U : 1 : 1\n", "line 6: bound reference '1' needs entry@cid"),
    (_HEAD + "TREE\n  NODE 1 - U : :\n  NODE 1 1 U : :\n", "line 7: duplicate node id 1"),
    (_HEAD + "TREE\n  NODE 1 - U : :\n  NODE 2 - U : :\n", "line 7: two roots in TREE"),
    (_HEAD + "TREE\n  NODE 2 1 U : :\n", "line 5: TREE has no root node"),
    (_HEAD + "TREE 1\n", "line 5: TREE takes no arguments"),
    # step headers
    (_HEAD + "SOL 1 0\n  LIN 1:1\n", "line 6: SOL takes no body"),
    (_HEAD + "IMPLIC\n", "line 5: IMPLIC needs an id"),
    (_HEAD + "IMPLIC 5 { 1 0 <= 1 } x\n", "line 5: unexpected tokens after assumptions"),
    (_HEAD + "RESOLVE 5 1:1\n", "line 5: RESOLVE needs `id id1:k1 id2:k2`"),
    (_HEAD + "RESOLVE 5 1 2:1\n", "line 5: bad operand '1'"),
    (_HEAD + "SOL 1\n", "line 5: SOL needs 2 values"),
    (_HEAD + "OBJSWAP 1 0 0\n", "line 5: OBJSWAP needs a USING clause"),
    (_HEAD + "OBJSWAP USING 1:1\n", "line 5: OBJSWAP needs a row and a constant"),
    (_HEAD + "OBJSWAP 1 0 0 USING 1\n", "line 5: bad multiplier '1'"),
    (_HEAD + "RED\n", "line 5: RED needs an id"),
    (_HEAD + "EPS\n", "line 5: EPS needs one value"),
    (_HEAD + "XFER\n", "line 5: XFER needs one id"),
    (_HEAD + "DEL\n", "line 5: DEL needs a variant"),
    (_HEAD + "DEL B 1 2\n", "line 5: core deletion takes a single id"),
    (_HEAD + "DEL C 1\n  ORDER 1 GAP\n    -> 1 0 >= 1\n", "line 5: DEL C takes no ORDER blocks"),
    (_HEAD + "DEL D 1\n", "line 5: unknown DEL variant 'D'"),
    (_HEAD + "EXT 1\n", "line 5: EXT takes no arguments"),
    (_HEAD + "GOAL 1 2\n", "line 5: GOAL takes at most one id"),
    (_HEAD + "SOL 1 0\nFOO\n", "line 6: unknown step 'FOO'"),
    (_HEAD + "SOL 3 0\nIMPLIC 5\n  LIN OBJ:1 1:1\n  -> 0 0 <= -1\nGOAL 5\nEXT\n",
     "line 10: steps after GOAL"),
    # the problem section
    ("VAR 2\nFOO\n", "line 2: unknown directive 'FOO'"),
    ("VAR 2\n  1\n", "line 2: VAR takes no body"),
    ("VAR 2\nVAR 2\n", "line 2: duplicate VAR line"),
    ("VAR\n", "line 1: VAR needs one count"),
    ("VAR -1\nOBJ\nGOAL\n", "line 1: VAR needs a nonnegative count; got -1"),
    ("INT 1\n", "line 1: VAR must come first"),
    ("VAR 2\nOBJ 1 0\nOBJ 1 0\n", "line 3: duplicate OBJ line"),
    ("VAR 2\nOBJ 1\n",
     "line 2: OBJ needs a row of 2 coefficients or j:c terms and an optional constant"),
    ("VAR 2\nCON 1 <=\n", "line 2: CON needs `id REL row rhs [strict]`"),
    (_HEAD + "CON 1 <= 0 1 3\n", "line 5: duplicate constraint id 1"),
    (_HEAD + "IMP 1 { 1 0 <= 1 } => 0 1 <= 1\n", "line 5: duplicate constraint id 1"),
    (_HEAD + "IMP 2 1 0 <= 1\n", "line 5: IMP needs assumptions; use CON otherwise"),
    ("# no problem\n", "line 0: no VAR line found"),
    # files: a problem file and a certificate file, or one file of bytes
    ((b"VAR 1\n\xff\n",), "line 2: not valid UTF-8 text"),
    ((_HEAD + "SOL 1 0\n", "SOL 1 0\n"), "line 5: steps found in the problem file"),
    ((_HEAD, "VAR 2\nSOL 1 0\n"), "line 1: embedded problem differs from the problem file"),
]


@pytest.mark.parametrize("text, message", [
    *(pytest.param(text, message, id=text) for text, message in [
        ("VAR 1\nINT 1\nOBJ 1\nIMP\n", "line 4: IMP needs an id"),
        (GOLDEN.replace("LIN OBJ:1 A1:1", "LIN OBJ:1 A\u00b2:1"), "line 11: bad integer '\u00b2'"),
        (GOLDEN.replace("LIN OBJ:1 2:1", "LIN OBJ:1 \u00b2:1"), "line 14: bad integer '\u00b2'"),
    ]),
    *(pytest.param(text, message, id=message) for text, message in SYNTAX_ERRORS),
])
def test_malformed_tokens_are_syntax_errors(tmp_path, text, message):
    if isinstance(text, tuple):
        paths = [tmp_path / f"{k}.txt" for k in range(len(text))]
        for path, content in zip(paths, text):
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
        report = verify_file(*paths)
    else:
        report = verify_text(text)
    assert report.status == "error" and report.exit_code == 2
    assert report.message == message


_HEADS = sorted(PROBLEM_KEYWORDS | STEP_KEYWORDS)
_ARGS = ["-1", "0", "1", "2", "3", "1/2", "1:1", "2:-1", "<=", ">=", "=", "strict",
         "{", "}", "=>", "U", "x"]


def _random_problem_section(rng):
    """VAR with a count in -1..3, up to four lines of random problem and step
    tokens, then GOAL."""
    lines = [f"VAR {rng.randint(-1, 3)}"]
    for _ in range(rng.randint(0, 4)):
        lines.append(" ".join([rng.choice(_HEADS), *rng.choices(_ARGS, k=rng.randint(0, 6))]))
    return "\n".join([*lines, "GOAL"]) + "\n"


def test_random_problem_sections_end_in_a_report_or_a_library_error():
    rng = random.Random(19)
    for _ in range(3000):
        text = _random_problem_section(rng)
        try:
            report = verify_text(text)
            assert report.status != "internal", report.message
            problem, _ = parse_problem_blocks(iter_blocks(text.splitlines()))
        except CertificateSyntaxError:
            continue
        except Exception as e:
            pytest.fail(f"{text!r}: {e!r}")
        for solve in (lambda: solve_and_certify(problem, node_limit=200),
                      lambda: brute_force_optimum(problem)):
            try:
                solve()
            except MipcertError:
                pass
            except RuntimeError as e:
                assert str(e) == "search node limit exceeded", text
            except Exception as e:
                pytest.fail(f"{text!r}: {e!r}")


@pytest.mark.parametrize("old, head", [
    ("SOL 1 0", "SOL 1 "), ("GOAL 10", "GOAL "),
    ("VAR 2", "VAR -"), ("CON 1", "CON -"), ("IMPLIC 8", "IMPLIC -")])
def test_long_bad_token_is_cut_short_in_the_message(old, head):
    # a bad rational and a bad integer, then a count and two ids that read
    # as numbers under the digit limit but are refused
    token = "7" * 5001 + "x" if head.endswith(" ") else "-" + "7" * 4000
    report = verify_text(GOLDEN.replace(old, head.rstrip("-") + token))
    assert report.status == "error"
    assert f"({len(token)} characters)" in report.message and len(report.message) < 120


_LONG = "Q" * 100_000
# (message, text replaced in GOLDEN, its replacement with {T} for the token)
_LONG_TOKEN_CASES = [
    ("unknown step", "GOAL 10", "{T}\nGOAL 10"),
    ("unknown directive", "INT 1 2", "INT 1 2\n{T}"),
    ("unknown DEL variant", "GOAL 10", "DEL {T} 1\nGOAL 10"),
    ("bad premise reference", "LIN OBJ:1 A1:1", "LIN {T}:1 A1:1"),
    ("LIN term", "LIN OBJ:1 A1:1", "LIN {T} A1:1"),
    ("unexpected token", "LIN OBJ:1 A1:1", "{T}"),
    ("unexpected line", "GOAL 10", "DOM 11 1 0 <= 1\n  {T}\nGOAL 10"),
    ("bound reference", "GOAL 10", "TREE\n  NODE 1 - U : 1 2 : {T}\nGOAL 10"),
    ("bad operand", "RESOLVE 10 8:1 9:1", "RESOLVE 10 {T} 9:1"),
    ("bad multiplier", "GOAL 10", "OBJSWAP -1 0 0 USING {T}\nGOAL 10"),
]


@pytest.mark.parametrize("message, old, new", _LONG_TOKEN_CASES,
                         ids=[case[0] for case in _LONG_TOKEN_CASES])
def test_a_long_token_is_cut_short_in_every_message(message, old, new):
    report = verify_text(GOLDEN.replace(old, new.format(T=_LONG), 1))
    assert report.status == "error", report.message
    assert message in report.message and f"({len(_LONG)} characters)" in report.message
    assert len(report.message) < 200


@pytest.mark.parametrize("step, line", [
    ("IMPLIC 11", 17),
    ("DEL B 1", 17),
    ("RED 11 1 0 <= 1\n  SUB 1", 18),
    ("DOM 11 1 0 <= 1\n  ORDER 1 GAP", 18),
])
def test_empty_subproof_names_its_header_line(step, line):
    report = verify_text(GOLDEN.replace("GOAL 10", step + "\nGOAL 10"))
    assert report.status == "error" and report.exit_code == 2
    assert report.message == f"line {line}: subproof missing its '->' target"


@pytest.mark.parametrize("old, new", [
    ("SOL 1 0", "SOL " + "1" * 5001 + " 0"),
    ("SOL 1 0", "SOL 1/" + "3" * 4999 + " 0"),
    ("GOAL 10", "GOAL " + "1" * 5001),
], ids=["integer", "rational", "id"])
def test_number_over_the_digit_limit_is_named(old, new):
    report = verify_text(GOLDEN.replace(old, new))
    assert report.status == "error" and report.exit_code == 2
    assert "(5001 characters) has more than 4300 digits" in report.message
    assert len(report.message) < 160


@pytest.mark.parametrize("token", ["1e3", "1E3"])
def test_decimal_exponent_is_a_syntax_error(token):
    # expanding the power would cost time that grows with its value
    report = verify_text(GOLDEN.replace("SOL 1 0", f"SOL {token} 0"))
    assert report.status == "error"
    assert report.message == f"line 9: bad rational {token!r}"


def test_integral_marker_outside_the_dimension_is_a_malformed_problem():
    # the parser reads INT indices as they stand; Problem.validate bounds them
    report = verify_text("VAR 2\nINT 1 5\nGOAL\n")
    assert report.status == "error" and report.exit_code == 2
    assert report.message == "malformed problem: integral marker on x5 outside [1, 2]"


@pytest.mark.parametrize("line, message", [
    ("IMP 6 { 1 0 >= 1 } 0 1 <= 0", "expected '=>' after assumptions"),
    ("IMP 6 0 1 <= 0", "IMP needs assumptions; use CON otherwise"),
    ("IMP 6 { } => 0 1 <= 0", "IMP needs assumptions; use CON otherwise"),
])
def test_malformed_core_implication(line, message):
    report = verify_text(GOLDEN.replace("SOL 1 0", line + "\nSOL 1 0"))
    assert report.status == "error"
    assert report.message == f"line 9: {message}"


BIG = "1" + "0" * 4000   # 10^4000: its square has more digits than int/str prints

HUGE_OPTIMUM = f"""\
VAR 1
OBJ {BIG}
CON 1 >= 1 {BIG}
SOL {BIG}
IMPLIC 2
  LIN OBJ:1 1:{BIG}
  -> 0 <= -1
GOAL 2
"""


def test_verdict_over_the_digit_limit_is_summarized():
    report = verify_text(HUGE_OPTIMUM)
    assert report.status == "verified" and report.verdict.value == Rat(10) ** 8000
    summary = report.summary()
    assert summary.startswith("VERIFIED optimal about 1.000")
    assert "E+8000" in summary and "4300 digits" in summary and len(summary) < 200


def test_repeated_solution_over_the_digit_limit_is_rejected():
    # NotImproving's message prints the repeated 8001-digit objective value
    report = verify_text(HUGE_OPTIMUM.replace("IMPLIC", f"SOL {BIG}\nIMPLIC"))
    assert report.status == "rejected" and report.exit_code == 1
    assert report.message.startswith("step 2 (line 5): NotImproving: objective value about 1.000")
    assert report.message.count("E+8000") == 2


def test_exception_outside_the_hierarchy_is_an_internal_error(monkeypatch):
    import mipcert.certfile

    def broken_rule(cfg, step):
        raise ValueError("planted fault")

    monkeypatch.setattr(mipcert.certfile, "apply_step", broken_rule)
    report = verify_text(GOLDEN)
    assert report.status == "internal" and report.exit_code == 3
    assert report.message.startswith("step 1 (line 9): ValueError: planted fault (in broken_rule, ")
    assert "test_certfile.py:" in report.message
    assert report.summary().startswith("INTERNAL: step 1")


def test_exception_in_the_problem_reader_is_an_internal_error(monkeypatch, tmp_path):
    import mipcert.certfile
    from mipcert.cli import main

    def broken_row(tokens, n, lineno):
        raise IndexError("planted fault")

    combined = tmp_path / "combined.cert"
    combined.write_text(GOLDEN)
    prob = tmp_path / "knap.prob"
    prob.write_text(GOLDEN.split("SOL", 1)[0])
    cert = tmp_path / "knap.cert"
    cert.write_text("SOL" + GOLDEN.split("SOL", 1)[1])
    monkeypatch.setattr(mipcert.certfile, "parse_row", broken_row)
    for report in (verify_text(GOLDEN), verify_file(str(combined)),
                   verify_file(str(prob), str(cert))):
        assert report.status == "internal" and report.exit_code == 3
        assert report.message.startswith("IndexError: planted fault (in broken_row, ")
    assert main(["verify", str(combined)]) == 3
    assert main(["verify", str(prob), str(cert)]) == 3


def test_duplicate_constraint_id_rejected():
    bad = GOLDEN.replace("CON 2 <= 1 0 1", "CON 1 <= 1 0 1")
    report = verify_text(bad)
    assert report.status == "error"


def test_verify_file_modes(tmp_path):
    combined = tmp_path / "combined.cert"
    combined.write_text(GOLDEN)
    report = verify_file(str(combined))
    assert report.exit_code == 0

    problem_text = GOLDEN.split("SOL", 1)[0]
    steps_text = "SOL" + GOLDEN.split("SOL", 1)[1]
    prob = tmp_path / "knap.prob"
    cert = tmp_path / "knap.cert"
    prob.write_text(problem_text)
    cert.write_text(steps_text)
    report = verify_file(str(prob), str(cert))
    assert report.exit_code == 0

    report = verify_file(str(tmp_path / "missing.prob"), str(cert))
    assert report.exit_code == 2


# the characters at which str.splitlines() ends a line and a file read in
# text mode does not
SPLITLINES_ONLY = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# infeasible if the character ends line 3, a mixed row if it does not
_TWO_ROWS = ("VAR 1\nINT 1\nCON 1 >= 1:1 1{c}CON 2 <= 1:1 0\nIMPLIC 4\n"
             "{c}  LIN 1:1 2:1\n  -> <= -1{c}\nGOAL 4\n# {c}\n")


@pytest.mark.parametrize("char", [*SPLITLINES_ONLY, "\r", "\r\n"])
def test_a_string_and_a_file_split_lines_alike(tmp_path, char):
    text = _TWO_ROWS.format(c=char)
    path = tmp_path / "doc.cert"
    path.write_text(text, encoding="utf-8", newline="")
    in_memory, on_disk = verify_text(text), verify_file(str(path))
    assert (in_memory.status, in_memory.verdict, in_memory.message) == \
        (on_disk.status, on_disk.verdict, on_disk.message)
    assert (on_disk.status == "verified") == (char in "\r\n"), on_disk.message
    if on_disk.status == "verified":
        assert len(parse_text(text)[1]) == 2
    else:
        with pytest.raises(CertificateSyntaxError, match=re.escape(on_disk.message)):
            parse_text(text)


def test_cli_check_verifies_the_file_it_wrote(tmp_path, monkeypatch):
    import mipcert.cli
    from mipcert.cli import main

    prob = tmp_path / "knap.prob"
    prob.write_text(GOLDEN.split("SOL", 1)[0])
    out = tmp_path / "out.cert"
    read = []

    def recorded(*paths):
        read.append(paths)
        return verify_file(*paths)
    monkeypatch.setattr(mipcert.cli, "verify_file", recorded)
    assert main(["certify", str(prob), "-o", str(out), "--check"]) == 0
    assert read == [(str(out),)]


def test_cli_end_to_end(tmp_path):
    from mipcert.cli import main

    combined = tmp_path / "combined.cert"
    combined.write_text(GOLDEN)
    assert main(["verify", str(combined)]) == 0
    assert main(["verify", str(combined), "--stats"]) == 0

    bad = tmp_path / "bad.cert"
    bad.write_text(GOLDEN.replace("LIN OBJ:1 2:1", "LIN OBJ:1 2:2"))
    assert main(["verify", str(bad)]) == 1
    assert main(["verify", str(tmp_path / "nope.cert")]) == 2

    prob = tmp_path / "knap.prob"
    prob.write_text(GOLDEN.split("SOL", 1)[0])
    assert main(["oracle", str(prob)]) == 0
    out = tmp_path / "out.cert"
    assert main(["certify", str(prob), "-o", str(out), "--check"]) == 0
    assert main(["verify", str(prob), str(out)]) == 0
    assert main(["verify", str(prob), str(out), str(out)]) == 0


def test_cli_stats_give_the_wall_time_of_a_rejected_certificate(tmp_path, capsys):
    from mipcert.cli import main

    bad = tmp_path / "bad.cert"
    bad.write_text(GOLDEN.replace("LIN OBJ:1 2:1", "LIN OBJ:1 2:2"))
    assert main(["verify", str(bad), "--stats"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("REJECTED: step 3 ") and lines[1] == "steps: 2"
    assert lines[-1].startswith("wall time: ") and lines[-1].endswith("s")


def test_module_entry_point_exits_with_the_verdict_code(tmp_path, monkeypatch, capsys):
    # `python -m mipcert.cli`, run in this process so that its guard counts
    import runpy
    import warnings

    combined = tmp_path / "combined.cert"
    combined.write_text(GOLDEN)
    monkeypatch.setattr(sys, "argv", ["mipcert", "verify", str(combined)])
    with warnings.catch_warnings():
        # runpy warns that the package imported mipcert.cli already
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("mipcert.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("VERIFIED")


def test_an_unknown_step_type_cannot_be_serialized():
    with pytest.raises(TypeError, match="cannot serialize object"):
        fmt_step(object(), 3)


def test_cli_on_an_infeasible_problem(tmp_path, capsys):
    from mipcert.cli import main

    prob = tmp_path / "infeasible.prob"
    prob.write_text("VAR 1\nINT 1\nOBJ 1\nCON 1 >= 1 1\nCON 2 <= 1 0\n")
    out = tmp_path / "out.cert"
    assert main(["oracle", str(prob)]) == 0
    assert main(["certify", str(prob), "-o", str(out)]) == 0
    assert main(["verify", str(prob), str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "infeasible", f"infeasible; 1 search nodes, 2 steps -> {out}", "VERIFIED infeasible"]


def test_trace_goes_to_stderr(tmp_path, capsys):
    from mipcert.cli import main

    combined = tmp_path / "combined.cert"
    combined.write_text(GOLDEN)
    assert main(["verify", str(combined), "--trace"]) == 0
    captured = capsys.readouterr()
    report = verify_text(GOLDEN)
    assert captured.out.splitlines() == [report.summary()]
    assert [line.split(":")[0] for line in captured.err.splitlines()] == [
        f"step {k}" for k in range(1, report.stats["steps"] + 1)]


def test_non_utf8_input_is_an_error(tmp_path):
    problem_text = GOLDEN.split("SOL", 1)[0]
    steps_text = "SOL" + GOLDEN.split("SOL", 1)[1]
    bad_problem = problem_text.encode().replace(b"CON 5", b"CON \xff5")
    bad_steps = steps_text.encode().replace(b"GOAL", b"GO\xffAL")
    paths = {}
    for name, data in [("bad_problem.cert", bad_problem + steps_text.encode()),
                       ("bad_steps.cert", problem_text.encode() + bad_steps),
                       ("ok.prob", problem_text.encode()),
                       ("bad.prob", bad_problem),
                       ("bad_steps_only.cert", bad_steps)]:
        paths[name] = tmp_path / name
        paths[name].write_bytes(data)
    for args, line in [(["bad_problem.cert"], 8),
                       (["bad_steps.cert"], 17),
                       (["bad.prob", "bad_steps_only.cert"], 8),
                       (["ok.prob", "bad_steps_only.cert"], 9)]:
        report = verify_file(*(str(paths[a]) for a in args))
        assert report.status == "error", args
        assert report.message == f"line {line}: not valid UTF-8 text"


def test_cli_unreadable_problem_is_an_error(tmp_path, capsys):
    from mipcert.cli import main

    bad = tmp_path / "bad.prob"
    bad.write_bytes(b"VAR 1\nCON 1 <= 1 \xff\n")
    negative = tmp_path / "negative.prob"
    negative.write_text("VAR -1\nOBJ\nGOAL\n")
    missing = str(tmp_path / "missing.prob")
    out = str(tmp_path / "out.cert")
    for path, error in [(missing, "No such file"), (str(bad), "line 2: not valid UTF-8"),
                        (str(negative), "line 1: VAR needs a nonnegative count; got -1")]:
        assert main(["certify", path, "-o", out]) == 2
        assert main(["oracle", path]) == 2
        assert main(["verify", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("ERROR: ") == 2 and error in captured.err
        assert captured.out.startswith("ERROR: ") and error in captured.out
    assert not os.path.exists(out)


def test_cli_unwritable_output_is_an_error(tmp_path, capsys):
    from mipcert.cli import main

    prob = tmp_path / "knap.prob"
    prob.write_text(GOLDEN.split("SOL", 1)[0])
    assert main(["certify", str(prob), "-o", str(tmp_path / "missing" / "x.cert")]) == 2
    assert "ERROR: " in capsys.readouterr().err


def test_cli_prints_an_optimum_over_the_digit_limit(tmp_path, capsys):
    from mipcert.cli import main

    prob = tmp_path / "huge.prob"
    prob.write_text(f"VAR 1\nINT 1\nOBJ {BIG}\nCON 1 >= 1 {BIG}\nCON 2 <= 1 {BIG}\n")
    assert main(["certify", str(prob), "-o", str(tmp_path / "x.cert"), "--check"]) == 0
    assert main(["oracle", str(prob)]) == 0
    out = capsys.readouterr().out
    assert out.count("optimal about 1.000") == 3 and "4300 digits" in out


def test_indented_line_without_step():
    with pytest.raises(CertificateSyntaxError):
        list(iter_blocks(["  LIN 1:1"]))


def test_reports_deterministic():
    r1 = verify_text(GOLDEN)
    r2 = verify_text(GOLDEN)
    s1 = {k: v for k, v in r1.stats.items() if k != "wall_time"}
    s2 = {k: v for k, v in r2.stats.items() if k != "wall_time"}
    assert (r1.status, r1.verdict, r1.message, s1) == \
        (r2.status, r2.verdict, r2.message, s2)


def test_core_implication_round_trip_and_use():
    text = """VAR 2
INT 1 2
OBJ -1 0
CON 1 <= 1 0 1
CON 2 >= 1 0 0
CON 3 <= 0 1 1
CON 4 >= 0 1 0
IMP 5 { 1 0 >= 1 } => 0 1 <= 0
"""
    problem, steps = parse_text(text)
    assert serialize(problem, steps).startswith("VAR 2")
    p2, _ = parse_text(serialize(problem, steps))
    assert p2.constraints[5] == problem.constraints[5]
    # the core implication participates in a solution check
    cert = text + """SOL 1 0
IMPLIC 8 { 1 0 <= 0 }
  LIN OBJ:1 A1:1
  -> 0 0 <= -1
IMPLIC 9 { 1 0 >= 1 }
  LIN OBJ:1 1:1
  -> 0 0 <= -1
RESOLVE 10 8:1 9:1
GOAL 10
"""
    report = verify_text(cert)
    assert report.status == "verified" and report.verdict.value == Rat(-1)
    # a solution violating the implication is rejected
    bad = cert.replace("SOL 1 0", "SOL 1 1")
    assert verify_text(bad).status == "rejected"


ALL_STEPS = """VAR 3
INT 1 2 3
OBJ 1 1 1
CON 1 = 1 1 1 2
CON 2 <= 1 0 0 2
CON 3 >= 1 0 0 0
CON 4 <= 0 1 0 2
CON 5 >= 0 1 0 0
CON 6 <= 0 0 1 2
CON 7 >= 0 0 1 0
CON 8 <= 0 0 1 2
CON 9 <= 0 0 1 2
DEL C 8
RED 13 0 0 2 <= 4
  SUB SELF
    LIN 6:2
    -> 0 0 2 <= 4
DEL A 13
DEL B 9
  LIN 6:1
  -> 0 0 1 <= 2
IMPLIC 14
  LIN 1:1 5:1 7:1
  -> 1 0 0 <= 2
XFER 14
TREE
  NODE 1 - U : 1 2 : 1@14 2@4
EPS 1/2
DOM 15 1 -1 0 >= -1/2
  WITNESS 1 <- 0 1 0 0
  WITNESS 2 <- 1 0 0 0
  ORDER 1 GAP
    LIN N1:1
    -> -1 1 0 >= 1/2
IMPLIC 16
  LIN 15:1
  ROUND
  -> 1 -1 0 >= 0
DEL A 15 16
SOL 1 1 0
OBJSWAP 0 0 0 2 USING 1:-1
EXT
IMPLIC 17
  LIN OBJ:1
  -> 0 0 0 0 <= -1
GOAL 17
"""


def test_every_step_kind_end_to_end():
    report = verify_text(ALL_STEPS)
    assert report.status == "verified", report.message
    assert report.verdict.kind == "optimal" and report.verdict.value == Rat(2)
    assert set(report.stats["by_rule"]) == {
        "DEL", "RED", "IMPLIC", "XFER", "TREE", "EPS", "DOM", "SOL",
        "OBJSWAP", "EXT", "GOAL"}
    problem, steps = parse_text(ALL_STEPS)
    canon = serialize(problem, steps)
    assert verify_text(canon).status == "verified"
    p2, s2 = parse_text(canon)
    assert serialize(p2, s2) == canon


def test_every_step_kind_mutations():
    from mutation import mutated_texts
    base = verify_text(ALL_STEPS)
    count = 0
    for mut in mutated_texts(ALL_STEPS):
        count += 1
        report = verify_text(mut)
        if report.status == "verified":
            assert report.verdict == base.verdict
    assert count > 30


# the swap x1 <-> x2 cut under a tree that splits on x1 below its root
BRANCHING = """\
VAR 2
INT 1 2
OBJ -1 -1
CON 1 <= 1 1 1
CON 2 <= 1 0 1
CON 3 >= 1 0 0
CON 4 <= 0 1 1
CON 5 >= 0 1 0
TREE
  NODE 1 - U : 1 : 1@2
  NODE 2 1 1 <= 0 : 1 2 : 2@4
  NODE 3 1 1 >= 1 : 1 2 : 2@4
EPS 1/2
DOM 8 1 -1 >= -1/2
  WITNESS 1 <- 0 1 0
  WITNESS 2 <- 1 0 0
  ORDER 1 GAP
    LIN N1:1
    -> -1 1 >= 1/2
IMPLIC 9
  LIN 8:1
  ROUND
  -> 1 -1 >= 0
DEL A 8
SOL 1 0
IMPLIC 10
  LIN OBJ:1 1:1
  -> <= -1
GOAL 10
"""


def test_branching_tree_round_trip_and_use():
    problem, steps = parse_text(BRANCHING)
    assert serialize(problem, steps) == BRANCHING
    tree = steps[0].tree
    assert [tree.nodes[nid].branch for nid in (2, 3)] == [(1, LE, 0), (1, GE, 1)]
    report = verify_text(BRANCHING)
    assert report.status == "verified", report.message
    assert report.verdict.value == -1
    gap = verify_text(BRANCHING.replace("NODE 3 1 1 >= 1", "NODE 3 1 1 >= 2"))
    assert gap.status == "rejected"
    assert gap.message.endswith("ConsistencyViolation: node 1: integer gap between 0 and 2 "
                                "uncovered")


# --- sparse rows --------------------------------------------------------------

def dense_spelling(terms, n):
    return " ".join(fmt(terms.get(j, Rat(0))) for j in range(1, n + 1))


def sparse_spelling(terms, n):
    return " ".join(f"{j}:{fmt(c)}" for j, c in sorted(terms.items()))


# one row in each position a row takes in GOLDEN (n = 2), with its line
ROW_SITES = [
    ("OBJ -1 0", "OBJ {row} 0", 3),
    ("CON 2 <= 1 0 1", "CON 2 <= {row} 1", 5),
    ("IMPLIC 8 { 1 0 <= 0 }", "IMPLIC 8 { {row} <= 0 }", 10),
    ("  -> 0 0 <= -1\nIMPLIC 9", "  -> {row} <= -1\nIMPLIC 9", 12),
]


def test_sparse_rows_verify_like_dense_ones():
    sparse = (GOLDEN.replace("OBJ -1 0", "OBJ 1:-1")
              .replace("CON 2 <= 1 0 1", "CON 2 <= 1:1 1")
              .replace("{ 1 0 <= 0 }", "{ 1:1 <= 0 }")
              .replace("0 0 <= -1", "<= -1"))
    assert sparse.count(":") == GOLDEN.count(":") + 3
    dense_report, sparse_report = verify_text(GOLDEN), verify_text(sparse)
    assert sparse_report.status == "verified"
    assert (sparse_report.verdict, sparse_report.stats["steps"]) == \
        (dense_report.verdict, dense_report.stats["steps"])
    assert serialize(*parse_text(sparse)) == serialize(*parse_text(GOLDEN))


@pytest.mark.parametrize("row, message", [
    ("1:", "bad rational ''"),
    (":1", "bad row term ':1'"),
    ("0:1", "row term index 0 outside [1, 2]"),
    ("3:1", "row term index 3 outside [1, 2]"),
    ("1:1 1:2", "row term indices must increase; 1 follows 1"),
    ("2:1 1:1", "row term indices must increase; 1 follows 2"),
    ("1:1 0 0", "a row mixes dense coefficients and j:c terms"),
    ("1 2:1", "a row mixes dense coefficients and j:c terms"),
    ("1:1e5", "bad rational '1e5'"),
    ("1" * 5001 + ":1", "(5001 characters) has more than 4300 digits"),
    ("-1:1", "bad row term '-1:1'"),
], ids=["no value", "no index", "index 0", "index above n", "repeated", "decreasing",
        "sparse then dense", "dense then sparse", "exponent", "index over the digit limit",
        "signed index"])
@pytest.mark.parametrize("old, new, line", ROW_SITES, ids=["OBJ", "CON", "assumption", "target"])
def test_malformed_sparse_row_is_a_positioned_syntax_error(row, message, old, new, line):
    report = verify_text(GOLDEN.replace(old, new.replace("{row}", row)))
    assert report.status == "error" and report.exit_code == 2
    assert report.message.startswith(f"line {line}: ") and message in report.message


@pytest.mark.parametrize("old, new, line", ROW_SITES[1:], ids=["CON", "assumption", "target"])
def test_short_dense_row_is_a_positioned_syntax_error(old, new, line):
    report = verify_text(GOLDEN.replace(old, new.replace("{row}", "1")))
    assert report.status == "error"
    assert report.message == f"line {line}: a dense row needs 2 coefficients; got 1"


@pytest.mark.parametrize("text, terms, const", [
    ("VAR 1\nOBJ 5\n", {1: 5}, 0),
    ("VAR 1\nOBJ 5 2\n", {1: 5}, 2),
    ("VAR 1\nOBJ 1:5\n", {1: 5}, 0),
    ("VAR 1\nOBJ 1:5 2\n", {1: 5}, 2),
    ("VAR 3\nOBJ 0 0 0 -1\n", {}, -1),
    ("VAR 3\nOBJ 2:-3/2 -1\n", {2: Rat(-3, 2)}, -1),
    ("VAR 0\nOBJ\n", {}, 0),
    ("VAR 0\nOBJ 4\n", {}, 4),
])
def test_an_objective_without_terms_is_dense(text, terms, const):
    # OBJ's constant is optional, so `OBJ 5` at n = 1 could be read either
    # way: a row is sparse only when it starts with a j:c term
    problem, _ = parse_text(text)
    assert problem.objective == LinExpr(terms, const)
    assert parse_text("\n".join(fmt_problem(problem)))[0].objective == problem.objective


def test_the_printer_picks_the_shorter_spelling():
    assert fmt_row({1: Rat(1), 2: Rat(1), 3: Rat(1)}, 3) == "1 1 1"
    assert fmt_row({7: Rat(-2)}, 8, "<=", "1") == "7:-2 <= 1"
    assert fmt_row({}, 4, "<=", "-1") == "<= -1"
    # a tie: "5 0" and "1:5" have the same length, so the row stays dense
    assert fmt_row({1: Rat(5)}, 2) == "5 0"
    assert fmt_row({10: Rat(1)}, 10) == "10:1"
    assert " ".join(fmt_problem(Problem(2, set(), LinExpr({}, 3), {}))) == "VAR 2 OBJ 0 0 3"
    # a termless objective keeps one zero term, not n zeros
    assert fmt_problem(Problem(10 ** 6, set(), LinExpr({}, 3), {})) == ["VAR 1000000", "OBJ 1:0 3"]


sized_rows = st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
    st.integers(1, n), st.fractions(max_denominator=6).filter(bool), max_size=n)))


@settings(max_examples=300, deadline=None)
@given(sized_rows, st.fractions(max_denominator=4))
def test_rows_read_back_in_either_spelling(n_terms, const):
    n, terms = n_terms
    terms = {j: Rat(c) for j, c in terms.items()}
    for spelling in (fmt_row(terms, n), dense_spelling(terms, n), sparse_spelling(terms, n)):
        assert parse_row(spelling.split(), n, 1) == terms
    # the row in each place it is read, through the whole document reader
    const = Rat(const)
    for spelled in (fmt_row, dense_spelling, sparse_spelling):
        row = spelled(terms, n)
        if terms or spelled is dense_spelling:
            # OBJ, with and without its constant
            for tail, value in (("", Rat(0)), (f" {fmt(const)}", const)):
                problem, _ = parse_text(f"VAR {n}\nOBJ {row}{tail}\n")
                assert problem.objective == LinExpr(terms, value)
        problem, steps = parse_text(
            f"VAR {n}\nCON 1 >= {row} {fmt(const)}\nOBJSWAP {row} {fmt(const)} USING 1:1\n"
            f"RED 2 {row} <= 1\n  WITNESS 1 <- {row} {fmt(const)}\n")
        assert problem.constraints[1].ineq.lhs.terms == terms
        assert steps[0].new_g == LinExpr(terms, const)
        assert steps[1].constraint.ineq.lhs.terms == terms
        assert steps[1].witness.rows[1] == (terms, const)
        assert serialize(*parse_text(serialize(problem, steps))) == serialize(problem, steps)


def test_the_printer_spells_rows_by_the_length_rule():
    # the sparse spelling is chosen when it is strictly shorter: a dense
    # row spends two characters per absent variable, a sparse one
    # len(str(j)) + 1 per index.  Only for about 2n / (d + 3) <= k <= n / 2
    # terms (d digits in n) do the index lengths decide; every k there and
    # two past each end, with the k lowest, the k highest and k random indices
    rng = random.Random(5)
    for n in range(1, 201):
        low = 2 * n // (len(str(n)) + 3)
        for k in range(max(0, low - 2), min(n, n // 2 + 2) + 1):
            for indices in (range(1, k + 1), range(n - k + 1, n + 1),
                            rng.sample(range(1, n + 1), k)):
                row = fmt_row(dict.fromkeys(indices, 1), n)
                sparse = 2 * (n - k) > sum(len(str(j)) + 1 for j in indices)
                assert (row == "" or ":" in row) == sparse, (n, sorted(indices))


def _inequalities(n):
    values = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    return st.builds(
        lambda terms, rel, rhs, strict: Inequality(LinExpr(terms), rel, rhs,
                                                   strict and rel != EQ),
        st.dictionaries(st.integers(1, n), values, max_size=4),
        st.sampled_from([LE, GE, EQ]), values, st.booleans())


@st.composite
def _restated_lists(draw):
    """(n, prev, new): `new` starts with a prefix of `prev`, each shared
    entry the same object or an equal copy, then fresh assumptions."""
    n = draw(st.integers(1, 8))
    prev = draw(st.lists(_inequalities(n), max_size=5))
    k = draw(st.integers(0, len(prev)))
    shared = [a if draw(st.booleans()) else Inequality(LinExpr(dict(a.lhs.terms)), a.rel,
                                                       a.rhs, a.strict) for a in prev[:k]]
    return n, prev, shared + draw(st.lists(_inequalities(n), max_size=3))


@settings(max_examples=150, deadline=None)
@given(_restated_lists())
def test_an_implic_after_an_implic_prints_as_it_does_alone(lists):
    n, prev, new = lists
    sub = Subproof([("lin", [(("id", 1), 1), (("assume", 1), Rat(1, 2))])], falsity())
    (head, *_), _ = fmt_step(ImplicStep(7, prev, sub), n)
    step = ImplicStep(8, new, sub)
    assert fmt_step(step, n, prev, head) == fmt_step(step, n)


# --- the stream's assumption memo ---

# assumption lists restated on both sides of an EXT, dense and sparse
ASSUMPTIONS_ACROSS_EXT = GOLDEN.split("IMPLIC", 1)[0] + """\
IMPLIC 8 { 1 0 <= 0 ; 2:1 <= 1 }
  LIN OBJ:1 A1:1
  -> <= -1
EXT
IMPLIC 9 { 1 0 0 >= 1 ; 2:1 <= 1 }
  LIN OBJ:1 2:1
  -> <= -1
RESOLVE 10 8:1 9:1
IMPLIC 11 { 0 1 0 >= 2 }
  LIN 4:1 A1:1
  -> <= -1
RESOLVE 12 10:1 11:1
GOAL 12
"""


def test_assumptions_restated_across_ext_verify():
    report = verify_text(ASSUMPTIONS_ACROSS_EXT)
    assert report.status == "verified", report.message
    assert report.verdict.value == -1


def _assumption_lists(headers, n=2):
    """The assumption lists of IMPLIC steps with the given `{ ... }` parts,
    or an EXT line, parsed from one stream; also the stream's memo."""
    lines = []
    for k, header in enumerate(headers, start=1):
        lines += ["EXT"] if header == "EXT" else [f"IMPLIC {k} {header}", "  -> <= -1"]
    lists, memo = [], None
    for block in iter_blocks(lines):
        step, n = parse_step(block, n)
        memo = block.memo
        if block.tokens[0] == "IMPLIC":
            lists.append(step.assumptions)
    return lists, memo


def test_a_restated_assumption_is_read_once():
    (a, b, c), _ = _assumption_lists(["{ 1 0 <= 0 ; 0 1 <= 0 ; 2:1 <= 1 }",
                                      "{ 1 0 <= 0 ; 0 1 <= 0 ; 0 1 >= 1 }",
                                      "{ 1 0 <= 0 ; 0 1 <= 0 }"])
    assert a[0] is b[0] is c[0] and a[1] is b[1] is c[1]
    assert b[2] == parse_ineq(["0", "1", ">=", "1"], 2, 1)
    # each step holds a list of its own
    assert a is not b and b is not c


def test_a_group_that_differs_by_one_token_is_parsed_afresh():
    (a, b, c), _ = _assumption_lists(["{ 1 0 <= 0 }", "{ 1 0 <= 1 }", "{ 1:1 <= 0 }"])
    assert b[0] is not a[0] and b[0] == parse_ineq(["1:1", "<=", "1"], 2, 1)
    # another spelling of the same row is another group
    assert c[0] is not a[0] and c[0] == a[0]


@pytest.mark.parametrize("group, message", [
    ("1 x <= 0", "line 13: bad rational 'x'"),
    ("1 0 0 <= 0", "line 13: a dense row needs 2 coefficients; got 3"),
    ("1 0 <=", "line 13: inequality needs a row, a relation, and a rhs"),
])
def test_a_bad_group_after_a_shared_prefix_keeps_its_message(group, message):
    text = GOLDEN.replace("IMPLIC 9 { 1 0 >= 1 }", "IMPLIC 9 { 1 0 <= 0 ; " + group + " }")
    report = verify_text(text)
    assert report.status == "error" and report.message == message


def test_a_dense_group_after_ext_is_read_under_the_new_dimension():
    (a, b), _ = _assumption_lists(["{ 1 0 <= 0 ; 2:1 <= 0 }", "EXT",
                                   "{ 1 0 0 <= 0 ; 2:1 <= 0 }"])
    # the same tokens under another n are another group
    assert b[1] is not a[1] and b[1] == a[1]
    assert b[0] == a[0]
    # the spelling of the old length is the parser's error, as without a memo
    with pytest.raises(CertificateSyntaxError,
                       match="^line 4: a dense row needs 3 coefficients; got 2$"):
        _assumption_lists(["{ 1 0 <= 0 ; 2:1 <= 0 }", "EXT", "{ 1 0 <= 0 ; 2:1 <= 0 }"])


def test_the_memo_holds_at_most_the_last_list():
    _, memo = _assumption_lists(["{ 1 0 <= 0 ; 0 1 <= 0 ; 1 1 <= 1 }", "{ 1 0 <= 0 }"])
    assert list(memo) == [(2, ("1", "0", "<=", "0"))]
    # a group stated twice in one list is one entry
    _, memo = _assumption_lists(["{ 1 0 <= 0 ; 1 0 <= 0 }"])
    assert len(memo) == 1
    # IMP lines and RED specs share the stream's memo
    text = (GOLDEN.replace("CON 5 >= 0 1 0", "CON 5 >= 0 1 0\nIMP 6 { 1 0 <= 0 } => 0 1 <= 0")
            .replace("RESOLVE 10", "RED 11 { 1 0 >= 1 } => 0 1 <= 1\nRESOLVE 10"))
    problem, steps = parse_text(text)
    assert steps[1].assumptions[0] is problem.constraints[6].assumptions[0]
    assert steps[3].constraint.assumptions[0] is steps[2].assumptions[0]


# --- the number grammar and its readers ---------------------------------------

def _outcome(parse, *args):
    """What a parser makes of its input: the value, with the type of every
    number, or the type and text of the exception it raises."""
    try:
        value = parse(*args)
    except Exception as e:
        return type(e), str(e)
    if not isinstance(value, (dict, list)):
        return type(value), value
    items = value.items() if isinstance(value, dict) else value
    return [(key, type(v), v) for key, v in items]


# the grammar, stated once for the tests: a number, and an id, which a sparse
# index is when unsigned
_NUMBER = r"(-?[0-9]+)(?:/([0-9]+))?"
_ID = r"-?[0-9]+"


def _normal(value):
    return value.numerator if value.denominator == 1 else value


def _grammar_number(token):
    """The value of a number of the grammar; None for any other token, and
    for one that int() cannot convert or whose denominator is 0."""
    m = re.fullmatch(_NUMBER, token, re.ASCII)
    try:
        return _normal(Rat(int(m[1]), int(m[2] or 1))) if m else None
    except (ValueError, ZeroDivisionError):
        return None


def _grammar_id(token):
    try:
        return int(token) if re.fullmatch(_ID, token, re.ASCII) else None
    except ValueError:
        return None


def _grammar_row(tokens, n):
    """parse_row's value as the grammar defines it: n numbers, or `j:c`
    terms whose indices increase within [1, n]; None outside it."""
    if not tokens:
        return {}
    if ":" not in tokens[0]:
        values = [_grammar_number(t) for t in tokens]
        if len(tokens) != n or None in values:
            return None
        return {j: v for j, v in enumerate(values, start=1) if tokens[j - 1] != "0"}
    row = {}
    for t in tokens:
        m = re.fullmatch(r"([0-9]+):(.*)", t, re.ASCII)
        j = m and _grammar_id(m[1])
        value = m and _grammar_number(m[2])
        if j is None or value is None or not max(row, default=0) < j <= n:
            return None
        row[j] = value
    return row


def _grammar_lin(tokens):
    """_parse_lin's pairs as the grammar defines them: `ref:k` terms whose
    ref is an id, `OBJ` or a premise letter and an index; None outside it."""
    pairs = []
    for t in tokens:
        m = re.fullmatch(r"(?:(OBJ)|([ANS])([0-9]+)|(.*?)):(.*)", t, re.ASCII)
        value = m and _grammar_number(m[5])
        if m is None or value is None:
            return None
        if m[1]:
            ref = ("obj",)
        elif m[2]:
            ref = (PREMISE_LETTERS[m[2]], _grammar_id(m[3]))
        else:
            ref = ("id", _grammar_id(m[4]))
        if None in ref:
            return None
        pairs.append((ref, value))
    return pairs or None


def _reads_as_the_grammar(outcome, want):
    """A reader's outcome is the grammar's value, or, outside the grammar, a
    syntax error."""
    if want is None:
        return outcome[0] is CertificateSyntaxError
    if isinstance(want, dict):
        want = want.items()
    elif not isinstance(want, list):
        return outcome == (type(want), want)
    return outcome == [(key, type(v), v) for key, v in want]


# numbers in and out of the grammar, and tokens that are no number
_FIELDS = st.one_of(
    st.integers(0, 20).map(str),
    st.sampled_from(["007", "-0", "-3", "+3", "1_000", "٣", "1e2",
                     "", "-", "--3", "3-", "A0", "x", "1" * 5000, "-" + "9" * 4301]),
    # p/q forms in and out of the grammar
    st.sampled_from(["1/2", "4/2", "0/5", "1/0", "1/00", "-1/2", "1/-2", "+1/2", "1//2",
                     "/2", "2/", "٣/2", "1" * 5000 + "/2", "1/" + "3" * 5000]))
_LIN_REFS = st.one_of(
    _FIELDS,
    st.sampled_from(["OBJ", "OBJ1", "A", "obj"]),
    st.builds(str.__add__, st.sampled_from(["A", "N", "S", "a", "X"]), _FIELDS))
_LIN_TERMS = st.one_of(
    st.builds("{}:{}".format, _LIN_REFS, _FIELDS),
    st.builds("{}:{}:{}".format, _LIN_REFS, _FIELDS, _FIELDS),
    _FIELDS.filter(bool))
_ROW_INDICES = st.one_of(st.integers(-1, 6).map(str), st.sampled_from(["03", "+1", "٣", "", "x"]))
_ROW_TERMS = st.one_of(st.builds("{}:{}".format, _ROW_INDICES, _FIELDS), _FIELDS.filter(bool))


@settings(max_examples=400, deadline=None)
@given(_FIELDS)
def test_the_number_readers_read_exactly_the_grammar(token):
    assert _reads_as_the_grammar(_outcome(_rat, token, 7), _grammar_number(token))
    assert _reads_as_the_grammar(_outcome(_int, token, 7), _grammar_id(token))


@pytest.mark.parametrize("token", [
    "0", "-0", "00", "007", "+3", "-", "", "1_000", "٣", "-٣",
    "1/2", "-4/6", "1.5", "1e3", " 7", "9" * 4300, "9" * 5001,
])
def test_the_number_reader_parses_tokens_as_the_grammar_does(token):
    assert _reads_as_the_grammar(_outcome(_rat, token, 7), _grammar_number(token))


@given(st.integers())
def test_the_number_reader_reads_integer_text_as_int_does(value):
    assert _outcome(_rat, str(value), 7) == (int, value)


@settings(max_examples=400, deadline=None)
@given(st.lists(_LIN_TERMS, max_size=5))
def test_the_lin_reader_reads_exactly_its_grammar(tokens):
    assert _reads_as_the_grammar(_outcome(_parse_lin, tokens, 7), _grammar_lin(tokens))


# dense rows of n fields, so that the dense integer test is tried, and any rows
_ROWS = st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
    st.lists(_FIELDS.filter(bool), min_size=n, max_size=n), st.lists(_ROW_TERMS, max_size=5))))


@settings(max_examples=400, deadline=None)
@given(_ROWS)
def test_the_row_reader_reads_exactly_its_grammar(row):
    n, tokens = row
    assert _reads_as_the_grammar(_outcome(parse_row, tokens, n, 7), _grammar_row(tokens, n))


@pytest.mark.parametrize("tokens, pairs", [
    (["3:1", "OBJ:0", "A2:5", "N1:1", "S3:007"],
     [(("id", 3), 1), (("obj",), 0), (("assume", 2), 5), (("neg", 1), 1), (("step", 3), 7)]),
    ([], None),
    (["3:1", "٣:1"], None),
    (["3:1/2", "S1:4/2", "N1:0/5", "A1:007/012"],
     [(("id", 3), Rat(1, 2)), (("step", 1), 2), (("neg", 1), 0), (("assume", 1), Rat(7, 12))]),
    (["3:1/0"], None),
    (["3:1/00"], None),
    (["3:+1/2"], None),
    (["3:1//2"], None),
    (["3:" + "1" * 5000 + "/2"], None),
    (["-3:1"], [(("id", -3), 1)]),
    (["3:-1"], [(("id", 3), -1)]),
    (["B1:1"], None),
    (["A-1:1"], None),
    (["3:" + "1" * 5000], None),
    (["3:-1/2", "S1:-4/2"], [(("id", 3), Rat(-1, 2)), (("step", 1), -2)]),
], ids=["fast grammar", "empty", "non-ASCII", "fraction", "zero denominator",
        "zeros denominator", "signed fraction", "double slash", "fraction over the digit limit",
        "signed id", "negative multiplier",
        "bad letter", "signed premise number", "over the digit limit",
        "negative fraction multiplier"])
def test_the_fast_lin_parse_gives_up_outside_its_grammar(tokens, pairs):
    # pairs is None for a line out of the grammar, which is refused
    assert _grammar_lin(tokens) == pairs
    assert _reads_as_the_grammar(_outcome(_parse_lin, tokens, 7), pairs)


@pytest.mark.parametrize("tokens, n, row", [
    (["-3", "0", "-0", "12"], 4, {1: -3, 3: 0, 4: 12}),
    (["1:-2", "3:007"], 3, {1: -2, 3: 7}),
    ([], 2, {}),
    (["1", "2"], 3, None),
    (["1/2", "0"], 2, {1: Rat(1, 2)}),
    (["1", "2:1"], 2, None),
    (["2:1", "1:1"], 2, None),
    (["3:1"], 2, None),
    (["1:1", "2"], 2, None),
    (["1:+1"], 2, None),
    (["٣", "0"], 2, None),
    (["٢:1"], 2, None),
    (["-", "0"], 2, None),
    (["1" * 5000, "0"], 2, None),
    (["1:-4/2", "2:1/-2"], 2, None),
    (["1:-4/2", "2:0/5"], 2, {1: -2, 2: 0}),
], ids=["dense", "sparse", "empty", "short", "fraction", "mixed", "decreasing", "above n",
        "sparse then dense", "plus sign", "non-ASCII", "non-ASCII index", "bare minus",
        "over the digit limit", "signed denominator", "sparse fraction"])
def test_the_fast_row_parse_gives_up_outside_its_grammar(tokens, n, row):
    # row is None for a row out of the grammar, which is refused
    assert _grammar_row(tokens, n) == row
    assert _reads_as_the_grammar(_outcome(parse_row, tokens, n, 7), row)


def test_the_fast_path_reads_every_row_and_lin_line_of_common_certificates(monkeypatch):
    # wide branch-and-bound leaves, a streaming IMPLIC/DEL chain and rounding
    # cuts never reach the readers' error functions
    from mipcert import certfile
    from test_acceptance import _streaming_certificate
    from test_certifier import wide_bnb_problem

    bnb = solve_and_certify(wide_bnb_problem(12))[1]
    stream, steps = _streaming_certificate(steps_target=40)
    # rounding lines cite their rows with p/q multipliers
    cuts = solve_and_certify(random_problem(random.Random(8)), cuts=("cg", "cover"))[1]
    assert any("/" in line for line in cuts.splitlines() if line.lstrip().startswith("LIN"))

    def refused(tokens, *args):
        raise AssertionError(f"refused {tokens}")

    monkeypatch.setattr(certfile, "_row_error", refused)
    monkeypatch.setattr(certfile, "_lin_error", refused)
    bnb_report, stream_report = verify_text(bnb), verify_text(stream)
    cuts_report = verify_text(cuts)
    assert bnb_report.status == "verified", bnb_report.message
    assert cuts_report.status == "verified", cuts_report.message
    assert stream_report.status == "verified", stream_report.message
    assert stream_report.stats["steps"] == steps


# each form Python's number parsers read that the grammar does not, at each
# kind of site: all are errors, each named by the site's reader
_REFUSED_FORMS = ["1.5", ".5", "3.", "+3", "1_000", "٣", "1e3"]
_NUMBER_SITES = [
    ("CON 2 <= 1 0 1", "CON 2 <= {T} 0 1", "line 5: bad rational {T!r}"),
    ("LIN OBJ:1 A1:1", "LIN OBJ:1 A1:{T}", "line 11: bad rational {T!r}"),
    ("SOL 1 0", "SOL {T} 0", "line 9: bad rational {T!r}"),
    ("GOAL 10", "GOAL {T}", "line 17: bad integer {T!r}"),
]


@pytest.mark.parametrize("old, new, message", _NUMBER_SITES,
                         ids=["row coefficient", "LIN multiplier", "SOL value", "id"])
@pytest.mark.parametrize("token", _REFUSED_FORMS)
def test_a_number_out_of_the_grammar_is_named_at_each_site(token, old, new, message):
    report = verify_text(GOLDEN.replace(old, new.format(T=token)))
    assert report.status == "error" and report.exit_code == 2
    assert report.message == message.format(T=token)


@pytest.mark.parametrize("k", [1, 2, 7, 12])
def test_a_rejection_at_step_k_reports_the_stats_of_the_steps_before_it(k):
    text = solve_and_certify(random_problem(random.Random(8)), cuts=("cg", "cover"))[1]
    problem, blocks = parse_problem_blocks(iter_blocks(text.splitlines()))
    blocks = list(blocks)
    before, rest = blocks[:k - 1], blocks[k - 1:]
    lives = []
    verify_stream(problem, before,
                  on_config=lambda cfg: lives.append(len(cfg.core) + len(cfg.derived)))
    by_rule = {}
    for block in before:
        by_rule[block.tokens[0]] = by_rule.get(block.tokens[0], 0) + 1

    bad = Block(rest[0].lineno, ["GOAL", "999"], [], rest[0].memo)
    report = verify_stream(problem, before + [bad] + rest[1:])
    assert report.status == "rejected"
    assert report.message.startswith(f"step {k} (line {bad.lineno}): UnknownId")
    stats = report.stats
    assert list(stats) == ["steps", "max_live", "by_rule", "wall_time"]
    assert (stats["steps"], stats["by_rule"]) == (k - 1, by_rule)
    assert stats["max_live"] == max(lives, default=0)
    assert type(stats["wall_time"]) is float and stats["wall_time"] > 0


# spellings of zero in rows of integers and in rows that hold a `/`, beside
# values that are not zero
_ROW_VALUES = ["0", "-0", "00", "0/5", "4/2", "1/2", "3", "-7"]


def _dense_or_sparse(n):
    values = st.lists(st.sampled_from(_ROW_VALUES), min_size=n, max_size=n)
    # a sparse row leaves out its `3` terms, so that its indices have gaps
    return st.one_of(values, values.map(
        lambda vs: [f"{j}:{v}" for j, v in enumerate(vs, start=1) if v != "3"]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), _dense_or_sparse(n))))
@example((3, ["-0", "00", "3"]))              # dense, integers
@example((3, ["1:0", "3:-0"]))                # sparse, integers
@example((3, ["0/5", "4/2", "1/2"]))          # dense, with a `/`
@example((2, ["1:0/5", "2:4/2"]))             # sparse, with a `/`
def test_parsed_rows_are_normal_and_hold_no_zero(row):
    n, tokens = row
    want = {}
    for j, t in enumerate(tokens, start=1):
        j, _, t = t.rpartition(":") if ":" in t else (j, "", t)
        want[int(j)] = Rat(t)
    ineq = parse_ineq([*tokens, "<=", "1"], n, 1)
    problem, _ = parse_problem_blocks(iter_blocks([f"VAR {n}", f"CON 1 >= {' '.join(tokens)} 0"]))
    for lhs in (ineq.lhs, problem.constraints[1].ineq.lhs):
        assert lhs == LinExpr(want)
        assert_normal(lhs)


def test_parsed_step_payloads_keep_the_parser_containers():
    # the mutators of tests/mutation.py and bench/workloads.py assign into
    # these containers in place, so each must exist, also where it is empty
    text = "\n".join([
        "VAR 2", "OBJ 0 0", "CON 1 >= 1 0 0",
        "IMPLIC 2 { 1 0 >= 1 }", "  LIN A1:1", "  -> 1 0 >= 1",
        "DEL A 2",
        "DEL B 1", "  LIN 1:1", "  -> 1 0 >= 0",
        "DEL C 1", "  SUB SELF", "    LIN N1:1", "    -> 1 0 >= 0",
        "RED 3 1 0 >= 0", "  WITNESS 1 <- 1 0 0", "  ORDER 1 GAP", "    LIN N1:1",
        "    -> 1 0 >= 0",
        "TREE", "  NODE 1 - U : :"]) + "\n"
    implic, del_a, del_b, del_c, red, tree = parse_text(text)[1]
    assert type(implic.assumptions) is list and type(implic.sub.steps) is list
    assert type(del_a.ids) is list and del_a.subs == {} and type(del_a.subs) is dict
    assert type(del_b.sub.steps) is list and type(del_b.subs) is dict
    assert list(del_c.subs) == [("self",)]
    assert type(red.subs) is dict and type(red.order_evidence) is dict
    assert type(tree.bound_refs) is dict
    del_a.subs[("self",)] = del_c.subs[("self",)]
    assert fmt_step(del_a, 2)[0] == ["DEL A 2"]


def test_a_longer_stream_builds_no_more_expressions_through_init(monkeypatch):
    # every row a stream step parses or combines is normal already, so the
    # count of normalising passes does not grow with the stream
    from test_acceptance import _streaming_certificate

    calls = []
    init = LinExpr.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinExpr, "__init__", counted)
    counts = []
    for steps_target in (200, 2000):
        text, steps = _streaming_certificate(steps_target, rng=random.Random(steps_target))
        calls.clear()
        report = verify_text(text)
        assert report.status == "verified" and report.stats["steps"] == steps
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _raiser(e):
    raise e


@pytest.mark.parametrize("error, status", [
    (UnknownId("planted"), "rejected"),
    (CertificateSyntaxError(9, "planted"), "error"),
    (KeyError("planted"), "internal"),
], ids=["rejection", "syntax error", "internal error"])
def test_the_report_of_an_exception_keeps_none_of_its_frames(monkeypatch, error, status):
    # a traceback keeps alive every frame it crossed, with its locals, and
    # the benchmark's verify_peak_mib counts them
    import mipcert.certfile

    monkeypatch.setattr(mipcert.certfile, "apply_step", lambda cfg, step: _raiser(error))
    report = verify_text(GOLDEN)
    assert report.status == status and error.__traceback__ is None
    if status == "internal":
        # the frame it names was read before the traceback was dropped
        assert report.message.startswith("step 1 (line 9): KeyError: 'planted' (in _raiser, ")
        assert "test_certfile.py:" in report.message
