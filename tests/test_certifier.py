"""Certifying solver and derivation emitters."""

import random

import pytest

from mipcert.certfile import verify_text
from mipcert.certifier import (
    BoundTable,
    Certifier,
    CertWriter,
    emit_cg_cut,
    emit_cover_cut,
    emit_flowcover_cut,
    emit_lex_constraint,
    emit_reduced_cost_fixing,
    emit_split_cut,
    emit_sst_cuts,
    is_formulation_symmetry,
    solve_and_certify,
)
from mipcert.errors import (
    MultiplierSignError,
    NonIntegralProblem,
    NotACover,
    NotASymmetry,
    UnboundedVariable,
)
from mipcert.exact import EQ, GE, LE, Inequality, LinExpr, Rat
from mipcert.model import Linear, Problem
from mipcert.oracle import brute_force_optimum
from mipcert.rules import SolStep

from helpers import boxed_problem, knapsack_problem, random_problem, set_packing_problem


def ineq(terms, rel, rhs, strict=False):
    return Inequality(LinExpr({j: Rat(c) for j, c in terms.items()}), rel, Rat(rhs), strict)


def run_when(problem, **kw):
    verdict, text, stats = solve_and_certify(problem, **kw)
    report = verify_text(text)
    assert report.status == "verified", report.message
    assert report.verdict == verdict
    return verdict, stats, text


def test_knapsack_certificate():
    verdict, stats, text = run_when(knapsack_problem())
    assert verdict.kind == "optimal" and verdict.value == Rat(-1)
    assert stats["steps"] <= 40


def test_infeasible_pair_is_two_steps():
    rows = [ineq({1: 1}, GE, 1), ineq({1: 1}, LE, 0)]
    p = boxed_problem(1, rows, {1: 1})
    verdict, stats, text = run_when(p)
    assert verdict.kind == "infeasible"
    assert stats["steps"] == 2  # one implication, one goal


def test_rejects_continuous_and_unbounded():
    p = Problem(1, set(), LinExpr({1: Rat(1)}),
                {1: Linear(ineq({1: 1}, LE, 1))})
    with pytest.raises(NonIntegralProblem):
        Certifier(p, CertWriter(p))
    p2 = Problem(1, {1}, LinExpr({1: Rat(1)}),
                 {1: Linear(ineq({1: 1}, LE, 1))})
    with pytest.raises(UnboundedVariable):
        Certifier(p2, CertWriter(p2)).run()


def test_formulation_symmetry_check():
    p = set_packing_problem(3)
    assert is_formulation_symmetry(p, {1: 2, 2: 1})
    assert is_formulation_symmetry(p, {1: 2, 2: 3, 3: 1})
    lop = boxed_problem(2, [ineq({1: 1, 2: 2}, LE, 2)], {1: -1, 2: -1})
    assert not is_formulation_symmetry(lop, {1: 2, 2: 1})
    skew = boxed_problem(2, [ineq({1: 1, 2: 1}, LE, 1)], {1: -2, 2: -1})
    assert not is_formulation_symmetry(skew, {1: 2, 2: 1})


def test_sst_reduces_nodes_same_verdict():
    p = set_packing_problem(6)
    plain_verdict, plain_stats, _ = run_when(p)
    sst_verdict, sst_stats, _ = run_when(p, sst=True)
    assert plain_verdict == sst_verdict
    assert sst_stats["nodes"] < plain_stats["nodes"]


def test_lex_mode_verifies():
    p = set_packing_problem(4)
    verdict, stats, _ = run_when(p, lex=True)
    assert verdict.value == Rat(-1)
    assert stats["cuts"] == 3


def test_sst_emitter_skips_asymmetric_pairs():
    p = boxed_problem(3, [ineq({1: 1, 2: 1}, LE, 1)], {1: -1, 2: -1, 3: -5})
    writer = CertWriter(p)
    cuts = emit_sst_cuts(writer, p, BoundTable.scan(p))
    assert [cid for cid, _ in cuts] != []
    # only the 1<->2 swap is a symmetry here
    assert len(cuts) == 1


def test_lex_ladder_rejects_non_symmetry():
    p = boxed_problem(2, [ineq({1: 1, 2: 2}, LE, 2)], {1: -1, 2: -1})
    with pytest.raises(NotASymmetry):
        emit_lex_constraint(CertWriter(p), p, [1, 2], {1: 2, 2: 1}, 0, 1)


def test_cover_emitter_rejects_non_cover():
    p = boxed_problem(2, [ineq({1: 1, 2: 1}, LE, 3)], {1: -1, 2: -1})
    with pytest.raises(NotACover):
        emit_cover_cut(CertWriter(p), p, 1, [1, 2])


def test_reduced_cost_fixing_multiplier_errors():
    # min -x1 over x1 <= 3/2: the sole reduced cost closes to zero
    p = boxed_problem(1, [ineq({1: 1}, LE, Rat(3, 2))], {1: -1}, hi=2)
    writer = CertWriter(p)
    writer.add(SolStep([Rat(1)]))
    with pytest.raises(MultiplierSignError):
        emit_reduced_cost_fixing(writer, p, {1: Rat(1)}, 1, Rat(-1))
    with pytest.raises(MultiplierSignError):
        emit_reduced_cost_fixing(writer, p, {1: Rat(-1)}, 1, Rat(-1))


def test_reduced_cost_fixing_continuous_variant():
    # without integrality the emitter keeps the fractional bound
    cons = {1: Linear(ineq({1: 2, 2: 2}, LE, 3)),
            2: Linear(ineq({1: 1}, LE, 2)), 3: Linear(ineq({1: 1}, GE, 0)),
            4: Linear(ineq({2: 1}, LE, 2)), 5: Linear(ineq({2: 1}, GE, 0))}
    p = Problem(2, set(), LinExpr({1: Rat(-2), 2: Rat(-1)}), cons)
    writer = CertWriter(p)
    writer.add(SolStep([Rat(1), Rat(0)]))
    cid, bound = emit_reduced_cost_fixing(writer, p, {1: Rat(1)}, 2, Rat(-2))
    assert bound == ineq({2: 1}, LE, 1, strict=True)


def test_split_cut_emitter():
    p = knapsack_problem()
    writer = CertWriter(p)
    cut = ineq({1: 1, 2: 1}, LE, 1)
    cid, got = emit_split_cut(writer, p,
                              pi_terms={1: 1, 2: 1}, pi0=1,
                              left_pairs=[(("assume", 1), Rat(1))],
                              right_pairs=[(("id", 1), Rat(1)), (("assume", 1), Rat(2))],
                              cut=cut)
    cert = Certifier(p, writer)
    cert.register_row(cid, got)
    verdict = cert.run()
    report = verify_text(writer.text())
    assert report.status == "verified" and report.verdict == verdict


def test_generator_checker_closure_smoke():
    rng = random.Random(77)
    for _ in range(30):
        p = random_problem(rng, max_n=6)
        oracle = brute_force_optimum(p)
        verdict, stats, _ = run_when(p)
        if oracle[0] == "infeasible":
            assert verdict.kind == "infeasible"
        else:
            assert verdict.kind == "optimal" and verdict.value == oracle[1]


def test_symmetry_emitters_never_change_the_verdict():
    rng = random.Random(91)
    for size in (3, 4, 5):
        for trial in range(4):
            # random fully symmetric instance: symmetric rows, symmetric cost
            rows = []
            for _ in range(rng.randint(1, 3)):
                c1 = rng.randint(1, 3)
                rows.append(ineq({j: c1 for j in range(1, size + 1)}, LE,
                                 rng.randint(0, 3 * size)))
            if rng.random() < 0.6:
                c2 = rng.randint(1, 2)
                rows.extend(ineq({i: c2, j: c2}, LE, rng.randint(1, 4))
                            for i in range(1, size + 1)
                            for j in range(i + 1, size + 1))
            p = boxed_problem(size, rows, {j: -1 for j in range(1, size + 1)},
                              hi=rng.randint(1, 3))
            base, _, _ = run_when(p)
            for mode in ({"sst": True}, {"lex": True}):
                got, _, _ = run_when(p, **mode)
                assert got == base, (size, trial, mode)


def test_cut_families_verify():
    p = boxed_problem(3, [ineq({1: 2, 2: 2, 3: 2}, LE, 3),
                          ineq({1: 1, 2: 1, 3: 1}, LE, Rat(5, 2))],
                      {1: -1, 2: -1, 3: -1})
    verdict, stats, text = run_when(p, cuts=("cg", "cover"))
    assert stats["cuts"] >= 2
    assert verdict == run_when(p)[0]


def test_equality_backed_bounds_in_emitters():
    # a lower bound coming from an equality row must be cited with a signed
    # multiplier; exercised through reduced-cost elimination and the ladder
    cons = {1: Linear(ineq({1: 1, 2: 1}, LE, 2)),
            2: Linear(ineq({2: 1}, EQ, 1)),
            3: Linear(ineq({1: 1}, LE, 2)),
            4: Linear(ineq({1: 1}, GE, 0)),
            5: Linear(ineq({2: 1}, LE, 2)),
            6: Linear(ineq({2: 1}, GE, 0))}
    p = Problem(2, {1, 2}, LinExpr({1: Rat(-1), 2: Rat(-1)}), cons)
    writer = CertWriter(p)
    writer.add(SolStep([Rat(1), Rat(1)]))
    table = BoundTable.scan(p)
    assert table.lower[2][2] == Rat(1)  # the equality supplies the bound
    cid, bound = emit_reduced_cost_fixing(writer, p, {1: Rat(2)}, 1, Rat(-2),
                                          bounds=table)
    assert bound == ineq({1: 1}, LE, 0)
    certifier = Certifier(p, writer)
    certifier.z = Rat(-2)
    certifier.register_row(cid, bound)
    verdict = certifier.run()
    report = verify_text(writer.text())
    assert report.status == "verified", report.message
    assert report.verdict == verdict

    # fully fixed symmetric pair: the ladder's absorptions cite the
    # equality rows from both sides
    cons = {1: Linear(ineq({1: 1}, EQ, 1)),
            2: Linear(ineq({2: 1}, EQ, 1)),
            3: Linear(ineq({1: 1}, LE, 1)),
            4: Linear(ineq({1: 1}, GE, 0)),
            5: Linear(ineq({2: 1}, LE, 1)),
            6: Linear(ineq({2: 1}, GE, 0))}
    q = Problem(2, {1, 2}, LinExpr({1: Rat(-1), 2: Rat(-1)}), cons)
    writer = CertWriter(q)
    table = BoundTable.scan(q)
    cid, final = emit_lex_constraint(writer, q, [1, 2], {1: 2, 2: 1}, 0, 1,
                                     bounds=table)
    verdict, text = _finish_search(writer, q, [(cid, final)])
    report = verify_text(text)
    assert report.status == "verified", report.message


def _finish_search(writer, problem, extra):
    certifier = Certifier(problem, writer)
    for cid, cut in extra:
        certifier.register_row(cid, cut)
    verdict = certifier.run()
    return verdict, writer.text()


def test_cover_cut_on_row_with_outside_terms():
    # negative and positive coefficients outside the cover are absorbed
    # into their bounds, shifting the capacity the cover must exceed
    p = boxed_problem(3, [ineq({1: 2, 2: 2, 3: -1}, LE, 2)], {1: -1, 2: -1, 3: 0})
    writer = CertWriter(p)
    cid, cut = emit_cover_cut(writer, p, 1, [1, 2])
    assert cut == ineq({1: 1, 2: 1}, LE, 1)  # capacity shifts to 3 with x3 = 1
    verdict, stats, _ = run_when(p, cuts=("cover",))
    assert verdict.value == brute_force_optimum(p)[1]
    # with a wider outside variable the same cover stops being one
    q = boxed_problem(3, [ineq({1: 2, 2: 2, 3: -2}, LE, 1)], {1: -1, 2: -1, 3: 0},
                      hi=2)
    with pytest.raises(NotACover):
        emit_cover_cut(CertWriter(q), q, 1, [1, 2])


def test_cover_cut_requires_binary_cover_variables():
    p = boxed_problem(2, [ineq({1: 2, 2: 2}, LE, 3)], {1: -1, 2: -1}, hi=2)
    with pytest.raises(NotACover):
        emit_cover_cut(CertWriter(p), p, 1, [1, 2])
