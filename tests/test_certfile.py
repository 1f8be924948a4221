"""Certificate grammar: parsing, canonical serialization, the driver."""

import os

import pytest

from mipcert.exact import Rat
from mipcert.certfile import (
    Report,
    iter_blocks,
    parse_text,
    serialize,
    verify_file,
    verify_text,
)
from mipcert.errors import CertificateSyntaxError

from helpers import knapsack_problem

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


@pytest.mark.parametrize("text", [
    "VAR 1\nINT 1\nOBJ 1\nIMP\n",
    GOLDEN.replace("LIN OBJ:1 A1:1", "LIN OBJ:1 A\u00b2:1"),
    GOLDEN.replace("LIN OBJ:1 2:1", "LIN OBJ:1 \u00b2:1"),
])
def test_malformed_tokens_are_syntax_errors(text):
    report = verify_text(text)
    assert report.status == "error" and report.exit_code == 2


@pytest.mark.parametrize("old, head", [("SOL 1 0", "SOL 1 "), ("GOAL 10", "GOAL ")])
def test_long_bad_token_is_cut_short_in_the_message(old, head):
    # a bad rational and a bad integer
    report = verify_text(GOLDEN.replace(old, head + "7" * 5001 + "x"))
    assert report.status == "error"
    assert "(5002 characters)" in report.message and len(report.message) < 120


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
    assert main(["verify", str(prob), str(out), str(out), "--jobs", "2"]) == 0


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
