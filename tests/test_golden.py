"""Certifier output pinned byte for byte: a change to what the certifier
prints shows up as a diff of the files under tests/golden/.

After a deliberate output change, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.

tests/golden/dense/ keeps the goldens as they were printed before sparse
rows existed, every row dense; it is test data that only grows.  Those
files must keep verifying exactly like their regenerated counterparts."""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

import mipcert.certfile
from mipcert.certfile import parse_text, serialize, verify_text
from mipcert.certifier import solve_and_certify
from mipcert.exact import Rat, fmt
from mipcert.model import IntegralMarker, Linear
from mipcert.trees import UNIVERSE

from helpers import knapsack_problem, random_problem, set_packing_problem
from mutation import mutated_texts
from test_acceptance import appendix_certificates, lex_certificates
from test_certifier import split_cut_certificate

GOLDEN_DIR = Path(__file__).parent / "golden"
DENSE_DIR = GOLDEN_DIR / "dense"


def golden_texts():
    """File name -> certificate text, for every pinned certifier output."""
    out = {}
    for option in ("sst", "lex"):
        _, text, _ = solve_and_certify(set_packing_problem(3), **{option: True})
        out[f"set_packing_3_{option}.cert"] = text
    _, text, _ = solve_and_certify(knapsack_problem(), cuts=("cg", "cover"))
    out["knapsack_cg_cover.cert"] = text
    for name, (_, text) in appendix_certificates().items():
        out[f"appendix_{name}.cert"] = text
    for ell, width, *_, text in lex_certificates():
        out[f"lex_{ell}_{width}.cert"] = text
    out["split_cut.cert"] = split_cut_certificate()[1]
    return out


def test_certifier_output_matches_golden_files():
    texts = golden_texts()
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.cert")) == sorted(texts)
    changed = [name for name, text in texts.items()
               if (GOLDEN_DIR / name).read_text(encoding="utf-8") != text]
    assert not changed, f"certifier output differs from tests/golden/ in {changed}"


def outcome(text):
    report = verify_text(text)
    return (report.status, report.verdict, report.message,
            report.stats.get("steps"), report.stats.get("by_rule"))


def test_dense_goldens_verify_like_their_regenerated_counterparts():
    dense = sorted(DENSE_DIR.glob("*.cert"))
    assert [p.name for p in dense] == sorted(p.name for p in GOLDEN_DIR.glob("*.cert"))
    for path in dense:
        old = path.read_text(encoding="utf-8")
        new = (GOLDEN_DIR / path.name).read_text(encoding="utf-8")
        assert outcome(old) == outcome(new), path.name
        assert outcome(old)[0] == "verified", path.name


# --- the index invariant ---------------------------------------------------------

def _stray_indices(cfg):
    """The variable indices outside [1, dim] that g, a live constraint or
    the tree reads."""
    read = [*cfg.g.terms]
    for c in (*cfg.core.values(), *cfg.derived.values()):
        if isinstance(c, IntegralMarker):
            read.append(c.var)
            continue
        rows = [c.ineq] if isinstance(c, Linear) else [*c.assumptions, c.consequent]
        for iq in rows:
            read.extend(iq.lhs.terms)
    for node in cfg.tree.nodes.values():
        read.extend(abs(s) for s in node.sigma)
        if node.branch is not UNIVERSE:
            read.append(node.branch[0])
    return sorted({j for j in read if not 1 <= j <= cfg.dim})


def test_live_rows_read_only_x1_to_xdim(monkeypatch):
    # every row is range-checked where it enters, so after every step of
    # every golden and a sample of their mutants, verified or not, nothing
    # live reads a variable outside x_1..x_dim: the kernel need not check
    apply_step = mipcert.certfile.apply_step
    strays = []
    steps = 0

    def checked(cfg, step):
        nonlocal steps
        try:
            return apply_step(cfg, step)
        finally:
            steps += 1
            stray = _stray_indices(cfg)
            if stray:
                strays.append((type(step).__name__, stray))

    monkeypatch.setattr(mipcert.certfile, "apply_step", checked)
    statuses = Counter()
    for path in sorted(GOLDEN_DIR.glob("*.cert")) + sorted(DENSE_DIR.glob("*.cert")):
        text = path.read_text(encoding="utf-8")
        assert verify_text(text).status == "verified", path.name
        for mutant in mutated_texts(text, stride=2):
            statuses[verify_text(mutant).status] += 1
    assert not strays, strays[:5]
    assert statuses.keys() <= {"verified", "rejected"} and statuses["rejected"] > 100
    assert steps > 20_000, steps


# --- the same certificate in other spellings -----------------------------------

def _dense(terms, n):
    return [fmt(terms.get(j, Rat(0))) for j in range(1, n + 1)]


def _sparse(terms, n):
    return [f"{j}:{fmt(c)}" for j, c in sorted(terms.items())]


def respelled(text, spelling, monkeypatch):
    """`text` printed again with every row dense, every row sparse, or the
    two alternating row by row ("mixed")."""
    turn = itertools.cycle([_dense, _sparse] if spelling == "mixed" else [spelling])

    def fmt_row(terms, n, *tail):
        return " ".join([*next(turn)(terms, n), *tail])

    problem, steps = parse_text(text)
    with monkeypatch.context() as patched:
        patched.setattr(mipcert.certfile, "fmt_row", fmt_row)
        return serialize(problem, steps)


def mutants_style_certificates():
    """Certificates like the benchmark's `mutants` workload: small random
    problems certified with cg and cover cuts, and some of their
    single-token mutants."""
    rng = random.Random(2024)
    out = []
    while len(out) < 6 * 5:
        problem = random_problem(rng, max_n=4, max_rows=3, lo=0, hi=2, coeff=3)
        try:
            _, text, stats = solve_and_certify(problem, cuts=("cg", "cover"), node_limit=40)
        except RuntimeError:
            continue
        if 16 <= stats["steps"] <= 40:
            mutants = list(mutated_texts(text))
            out += [text, *rng.sample(mutants, min(4, len(mutants)))]
    return out


def test_respelled_certificates_verify_identically(monkeypatch):
    texts = [p.read_text(encoding="utf-8")
             for p in sorted(GOLDEN_DIR.glob("*.cert")) + sorted(DENSE_DIR.glob("*.cert"))]
    texts += mutants_style_certificates()
    statuses = set()
    for text in texts:
        expected = outcome(text)
        statuses.add(expected[0])
        spellings = {s: respelled(text, s, monkeypatch) for s in (_dense, _sparse, "mixed")}
        assert len(set(spellings.values())) == 3
        for spelling, other in spellings.items():
            assert outcome(other) == expected, (spelling, text)
    assert statuses == {"verified", "rejected"}


if __name__ == "__main__":
    for name, text in golden_texts().items():
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
