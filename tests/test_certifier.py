"""Certifying solver and derivation emitters."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mipcert.certfile import serialize, verify_text
from mipcert.certifier import (
    BoundTable,
    Certifier,
    CertWriter,
    _Bound,
    _Infeasible,
    emit_cg_cut,
    emit_cover_cut,
    emit_lex_constraint,
    emit_order_tree,
    emit_sst_cuts,
    is_formulation_symmetry,
    solve_and_certify,
)
from mipcert.errors import (
    CertifyOptionError,
    MalformedProblem,
    NonIntegralProblem,
    NotACover,
    TooLarge,
    UnboundedVariable,
)
from mipcert.exact import (EQ, GE, LE, Inequality, LinExpr, Rat, ceil_int, falsity, floor_int,
                           linear_combine)
from mipcert.model import Linear, Problem
from mipcert.oracle import brute_force_optimum
from mipcert.rules import ExtendStep, ImplicStep, ResolveStep, SolStep, Subproof, Verdict

from appendix import finish, reduced_cost_fixing, split_cut_certificate
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
        Certifier(CertWriter(p))
    p2 = Problem(1, {1}, LinExpr({1: Rat(1)}),
                 {1: Linear(ineq({1: 1}, LE, 1))})
    with pytest.raises(UnboundedVariable):
        Certifier(CertWriter(p2)).run()


def test_an_objective_outside_the_dimension_is_a_malformed_problem():
    p = Problem(1, {1}, LinExpr({2: 1}), {1: Linear(ineq({1: 1}, LE, 1)),
                                          2: Linear(ineq({1: 1}, GE, 0))})
    with pytest.raises(MalformedProblem, match=r"objective references x2 outside \[1, 1\]"):
        solve_and_certify(p)


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


def test_sst_emitter_skips_asymmetric_pairs():
    p = boxed_problem(3, [ineq({1: 1, 2: 1}, LE, 1)], {1: -1, 2: -1, 3: -5})
    writer = CertWriter(p)
    cuts = emit_sst_cuts(writer)
    assert [cid for cid, _ in cuts] != []
    # only the 1<->2 swap is a symmetry here
    assert len(cuts) == 1


def test_a_ladder_over_a_non_symmetry_is_written_and_rejected():
    # the swap maps row 1, x1 + 2 x2 <= 2, to 2 x1 + x2 <= 2, which is not
    # a row: the emitter writes the ladder, and the verifier refuses it
    p = boxed_problem(2, [ineq({1: 1, 2: 2}, LE, 2)], {1: -1, 2: -1})
    writer = CertWriter(p)
    emit_order_tree(writer, [1, 2])
    cid, final = emit_lex_constraint(writer, [1, 2], {1: 2, 2: 1})
    _, text = finish(writer, [(cid, final)])
    report = verify_text(text)
    assert report.status == "rejected"
    assert report.message == ("step 2 (line 11): MissingSubproof: "
                              "no subproof for image of constraint 1")


def ladder_when(problem, sigma, perm):
    """The ladder over `sigma` under the order tree of x_1..x_n, closed by
    search; asserts that it verifies, and returns (verdict, final row)."""
    writer = CertWriter(problem)
    emit_order_tree(writer, list(range(1, problem.n + 1)))
    cid, final = emit_lex_constraint(writer, sigma, perm)
    verdict, text = finish(writer, [(cid, final)])
    report = verify_text(text)
    assert report.status == "verified", report.message
    assert report.verdict == verdict
    assert text.count("DOM ") == len(sigma)
    return verdict, final


def test_lex_ladder_over_fixed_variables():
    # x1 = x2 = 1 by their bounds: weights of high - low + 1 = 1 would
    # cancel the swap out of the second rung, leaving a 0 >= 0 comparison
    # that no strict order can prove
    p = boxed_problem(2, [ineq({1: 1, 2: 1}, LE, 5)], {1: -1, 2: -1}, lo=1, hi=1)
    verdict, final = ladder_when(p, [1, 2], {1: 2, 2: 1})
    assert verdict.value == Rat(-2) and final == ineq({1: 1, 2: -1}, GE, 0)


def test_order_tree_needs_citable_upper_bounds():
    p = Problem(2, {1, 2}, LinExpr(), {1: Linear(ineq({1: 1}, LE, 1)),
                                       2: Linear(ineq({2: 1}, GE, 0))})
    with pytest.raises(UnboundedVariable, match=r"no citable upper bound for x\[2\]"):
        emit_order_tree(CertWriter(p), [1, 2])


def _swap_pair(integral, lo, hi):
    """x1, x2 with the rows given by `lo` / `hi` (None: no such row) and
    no objective, so that swapping them is a formulation symmetry."""
    rows = [ineq({j: 1}, rel, bound) for j in (1, 2)
            for rel, bound in ((GE, lo), (LE, hi)) if bound is not None]
    cons = {cid: Linear(iq) for cid, iq in enumerate(rows, start=1)}
    return Problem(2, integral, LinExpr(), cons)


def test_lex_ladder_refuses_variables_it_cannot_weigh():
    writer = CertWriter(_swap_pair({1, 2}, None, 1))
    with pytest.raises(UnboundedVariable, match=r"no citable lower bound for x\[1, 2\]"):
        emit_lex_constraint(writer, [1, 2], {1: 2, 2: 1})
    assert writer.steps == 0


def test_a_ladder_over_crossed_bounds_verifies_infeasible():
    # x1 and x2 each lie in [1, 0]: the ladder's weights span no value, and
    # every rung holds because the crossed rows empty the box
    p = _swap_pair({1, 2}, 1, 0)
    assert brute_force_optimum(p)[0] == "infeasible"
    verdict, _ = ladder_when(p, [1, 2], {1: 2, 2: 1})
    assert verdict == Verdict("infeasible")


def test_cli_certifies_crossed_bounds_with_sst(tmp_path, capsys):
    from mipcert.cli import main

    prob = tmp_path / "crossed.prob"
    prob.write_text(serialize(_swap_pair({1, 2}, 1, 0), []))
    out = tmp_path / "x.cert"
    assert main(["certify", str(prob), "-o", str(out), "--sst", "--check"]) == 0
    assert "self-check: VERIFIED infeasible" in capsys.readouterr().out


def _strict_box_problem(n, rows=()):
    """x_1..x_n in [0, 3), the upper sides given only by strict rows, with
    a uniform objective and the symmetric `rows` added."""
    bounds = [ineq({j: 1}, rel, bound, rel == LE) for j in range(1, n + 1)
              for rel, bound in ((GE, 0), (LE, 3))]
    cons = {cid: Linear(iq) for cid, iq in enumerate([*rows, *bounds], start=1)}
    return Problem(n, set(range(1, n + 1)), LinExpr({j: -1 for j in range(1, n + 1)}), cons)


def test_strict_unit_bounds_are_cited():
    # x_j < 3 is a citable upper bound of value 3: plain, sst and the
    # one-rung ladder prove the same optimum, and every rung of a cycle
    # ladder over such bounds is accepted
    p = _strict_box_problem(2, [ineq({1: 1, 2: 1}, LE, 3)])
    expected = Verdict(*brute_force_optimum(p)[:2])
    for options, cuts in (({}, 0), ({"sst": True}, 1)):
        verdict, stats, _ = run_when(p, **options)
        assert verdict == expected and stats["cuts"] == cuts, options
    assert ladder_when(p, [1], {1: 2, 2: 1})[0] == expected
    for size in (2, 3, 4):
        q = _strict_box_problem(size)
        assert CertWriter(q).bounds.upper[size][2] == 3
        sigma = list(range(1, size + 1))
        verdict, _ = ladder_when(q, sigma, {j: j % size + 1 for j in sigma})
        assert verdict == Verdict(*brute_force_optimum(q)[:2]), size


def test_lex_ladder_over_a_four_cycle():
    # every position differs from its image, so a rung's subproofs pin
    # some position twice and cite the line that pinned it first
    p = boxed_problem(4, [ineq({1: 1, 2: 1, 3: 1, 4: 1}, LE, 2)], {j: -1 for j in range(1, 5)})
    writer = CertWriter(p)
    emit_order_tree(writer, [1, 2, 3, 4])
    cid, final = emit_lex_constraint(writer, [1, 2, 3, 4], {1: 2, 2: 3, 3: 4, 4: 1})
    assert final == ineq({1: 4, 2: 2, 3: 1, 4: -7}, GE, 0)
    verdict, text = finish(writer, [(cid, final)])
    report = verify_text(text)
    assert report.status == "verified", report.message
    assert report.verdict == verdict == Verdict("optimal", Rat(-2))


def test_cover_emitter_rejects_non_cover():
    for row, message in [(ineq({1: 1, 2: 1}, LE, 3), "do not exceed the remaining capacity"),
                         (ineq({1: 2, 2: 2}, EQ, 2), "work on inequality rows")]:
        writer = CertWriter(boxed_problem(2, [row], {1: -1, 2: -1}))
        with pytest.raises(NotACover, match=message):
            emit_cover_cut(writer, 1, [1, 2])
        assert writer.steps == 0


@pytest.mark.parametrize("row, status, message", [
    # x3 is not in the row: it enters with coefficient 0, and the cut holds
    (ineq({1: 2, 2: 2}, LE, 3), "verified", ""),
    # pinning x2 to one enters the row with multiplier -2, which the
    # verifier refuses on an inequality premise
    (ineq({1: 2, 2: -2, 3: 3}, LE, 1), "rejected",
     "step 2 (line 14): NegativeMultiplierOnInequality: multiplier -2 on inequality premise"),
])
def test_the_verifier_judges_a_cover_the_emitter_does_not(row, status, message):
    writer = CertWriter(boxed_problem(3, [row], {1: -1, 2: -1, 3: -1}))
    cid, cut = emit_cover_cut(writer, 1, [1, 2, 3])
    assert cut == ineq({1: 1, 2: 1, 3: 1}, LE, 2)
    _, text = finish(writer, [(cid, cut)])
    report = verify_text(text)
    assert (report.status, report.message) == (status, message)


def test_reduced_cost_fixing_continuous_variant():
    # without integrality the emitter keeps the fractional bound
    cons = {1: Linear(ineq({1: 2, 2: 2}, LE, 3)),
            2: Linear(ineq({1: 1}, LE, 2)), 3: Linear(ineq({1: 1}, GE, 0)),
            4: Linear(ineq({2: 1}, LE, 2)), 5: Linear(ineq({2: 1}, GE, 0))}
    p = Problem(2, set(), LinExpr({1: Rat(-2), 2: Rat(-1)}), cons)
    writer = CertWriter(p)
    writer.add(SolStep([Rat(1), Rat(0)]))
    cid, bound = reduced_cost_fixing(writer, {1: Rat(1)}, 2, Rat(-2))
    assert bound == ineq({2: 1}, LE, 1, strict=True)


def test_split_cut_emitter():
    verdict, text = split_cut_certificate()
    report = verify_text(text)
    assert report.status == "verified" and report.verdict == verdict


def test_number_over_the_digit_limit_is_an_error():
    # the third rung's weights are (10^3000 + 1)^2, 6001 digits
    hi = 10 ** 3000
    p = boxed_problem(3, [], {1: -1, 2: -1, 3: -1}, hi=hi)
    with pytest.raises(TooLarge, match="4300 digits, Python's int/str conversion limit"):
        emit_lex_constraint(CertWriter(p), [1, 2, 3], {1: 2, 2: 3, 3: 1})


@pytest.mark.parametrize("options, named", [
    # `sst` is the one symmetry option: there is no `lex` parameter
    ({"sst": True, "lex": True}, "unexpected keyword argument 'lex'"),
    ({"cuts": ("cg", "gomory")}, "unknown cut family 'gomory'; the families are cg, cover"),
])
def test_conflicting_or_unknown_options_are_refused(options, named):
    error = TypeError if "lex" in options else CertifyOptionError
    with pytest.raises(error, match=named):
        solve_and_certify(set_packing_problem(3), **options)


@pytest.mark.parametrize("flags, named", [
    # no such flag: argparse's usage error, before the problem is read
    (["--sst", "--lex"], "unrecognized arguments: --lex"),
    (["--cuts", "cg,gomory"], "unknown cut family 'gomory'"),
])
def test_cli_refuses_conflicting_or_unknown_options(tmp_path, capsys, flags, named):
    from mipcert.certfile import serialize
    from mipcert.cli import main

    prob = tmp_path / "packing.prob"
    prob.write_text(serialize(set_packing_problem(3), []))
    out = tmp_path / "x.cert"
    argv = ["certify", str(prob), "-o", str(out), *flags]
    if "--lex" in flags:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        code, prefix = exit_info.value.code, "usage: "
    else:
        code, prefix = main(argv), "ERROR: "
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(prefix) and named in err
    assert not out.exists()


def test_cli_refuses_a_problem_with_an_implication_row(tmp_path, capsys):
    from mipcert.cli import main

    prob = tmp_path / "implication.prob"
    prob.write_text("VAR 2\nINT 1 2\nOBJ 1 1\nCON 1 >= 1 0 0\nCON 2 <= 1 0 1\n"
                    "CON 3 >= 0 1 0\nCON 4 <= 0 1 1\nIMP 5 { 1 0 >= 1 } => 0 1 >= 1\n")
    out = tmp_path / "x.cert"
    assert main(["certify", str(prob), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "ERROR: certifying solver supports linear rows only\n"
    assert not out.exists()


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def wide_bnb_problem(n, seed=3):
    """min sum c_j x_j over sum x <= n, binary, c_j in {1, 2, 3}: a search
    tree n levels deep with one pruned right branch per level."""
    rng = random.Random(seed)
    return boxed_problem(n, [ineq({j: 1 for j in range(1, n + 1)}, LE, n)],
                         {j: rng.randint(1, 3) for j in range(1, n + 1)})


def test_wide_bnb_certificate_grows_about_quadratically():
    # one leaf per level, each citing O(n) assumptions and bounds: a dense
    # row per assumption would make it n^3 (a ratio near 5.6 here)
    size = {n: len(solve_and_certify(wide_bnb_problem(n))[1].encode()) for n in (20, 40)}
    assert size[40] / size[20] < 4.5


def test_wide_bnb_formats_each_branching_assumption_once(monkeypatch):
    # every leaf restates its path's O(n) assumptions; the writer slices the
    # ones it shares with the previous leaf out of that leaf's header, so
    # the rows formatted grow about linearly (about as n^2 when each leaf
    # formats its whole list)
    from mipcert import certfile

    fmt_ineq, calls = certfile.fmt_ineq, []

    def counted(iq, n):
        calls.append(n)
        return fmt_ineq(iq, n)

    monkeypatch.setattr(certfile, "fmt_ineq", counted)
    count = {}
    for n in (20, 80):
        calls.clear()
        solve_and_certify(wide_bnb_problem(n))
        count[n] = len(calls)
    assert count[80] / count[20] < 4.5


def test_the_writer_prints_restated_assumptions_as_serialize_does():
    # the writer slices the groups an IMPLIC shares at the front with the
    # last one out of its header, but not across an EXT: a row may take the
    # other spelling under the new dimension
    p = boxed_problem(2, [], {1: 1})
    a, b, c = ineq({1: 1}, LE, 0), ineq({1: 1, 2: 1}, GE, 1), ineq({2: 1}, LE, 0, strict=True)
    sub = Subproof([("lin", [(("assume", 1), 1)])], falsity())
    steps = [ImplicStep(7, [a, b], sub), ImplicStep(8, [a, b, c], sub),
             ImplicStep(9, [ineq({1: 1}, LE, 0), b], sub), ResolveStep(10, 8, 3, 9, 1),
             ImplicStep(11, [c], sub), ImplicStep(12, [c, a], sub), ExtendStep(),
             ImplicStep(13, [c, a], sub)]
    writer = CertWriter(p)
    for step in steps:
        writer.add(step)
    assert writer.text() == serialize(p, steps)
    assert "IMPLIC 12 { 0 1 < 0 ; 1 0 <= 0 }" in writer.lines
    assert "IMPLIC 13 { 2:1 < 0 ; 1:1 <= 0 }" in writer.lines


def test_wide_search_needs_no_deep_stack():
    # the search tree is n levels deep; with the recursion limit a few dozen
    # frames above this test's own depth, neither the search nor the proof
    # emission may take a frame per level
    n = 120
    p = wide_bnb_problem(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        verdict, text, stats = solve_and_certify(p)
        report = verify_text(text)
    finally:
        sys.setrecursionlimit(limit)
    assert stats["nodes"] > n
    assert report.status == "verified", report.message
    assert verdict == report.verdict == Verdict("optimal", Rat(0))


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
            got, _, _ = run_when(p, sst=True)
            assert got == base, (size, trial)


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
    assert writer.bounds.lower[2][2] == Rat(1)  # the equality supplies the bound
    cid, bound = reduced_cost_fixing(writer, {1: Rat(2)}, 1, Rat(-2))
    assert bound == ineq({1: 1}, LE, 0)
    certifier = Certifier(writer)
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
    emit_order_tree(writer, [1, 2])
    cid, final = emit_lex_constraint(writer, [1, 2], {1: 2, 2: 1})
    verdict, text = finish(writer, [(cid, final)])
    report = verify_text(text)
    assert report.status == "verified", report.message


@pytest.mark.parametrize("coeff", [2, -2])
@pytest.mark.parametrize("rel, strict, sides", [
    (LE, False, 1), (GE, False, 1), (EQ, False, 2), (LE, True, 1), (GE, True, 1)])
def test_bound_pairs_contribute_their_side(rel, strict, sides, coeff):
    # the row cited by upper_pair(1, 1) contributes x1 <= ub, and by
    # lower_pair(1, 1) -x1 <= -lb, whatever its relation and sign; a strict
    # row is cited too, and its pair contributes the strict bound at the
    # row's own value
    row = ineq({1: coeff}, rel, 6, strict)
    table = BoundTable.scan(Problem(1, {1}, LinExpr(), {1: Linear(row)}))
    found = 0
    for store, pair, sign in ((table.upper, table.upper_pair, 1),
                              (table.lower, table.lower_pair, -1)):
        if 1 in store:
            found += 1
            ref, mult = pair(1, 1)
            got = linear_combine([(row, mult)])
            assert ref == ("id", 1)
            assert got.lhs.terms == {1: sign} and got.rhs == sign * store[1][2]
            assert got.strict == strict and abs(store[1][2]) == 3
    assert found == sides


@pytest.mark.parametrize("strict", [False, True])
def test_cover_cut_over_strict_upper_bounds(strict):
    # x_j < 2 bounds an integral x_j by one, as x_j <= 1 does: the same
    # cover cut is written, its pinning lines citing each strict bound
    # through one rounded line of its own
    hi = 2 if strict else 1
    bounds = [ineq({j: 1}, rel, bound, strict and rel == LE) for j in (1, 2)
              for rel, bound in ((GE, 0), (LE, hi))]
    cons = {cid: Linear(iq) for cid, iq in
            enumerate([ineq({1: 2, 2: 2}, LE, 3), *bounds], start=1)}
    p = Problem(2, {1, 2}, LinExpr({1: -1, 2: -1}), cons)
    writer = CertWriter(p)
    _, cut = emit_cover_cut(writer, 1, [1, 2])
    assert cut == ineq({1: 1, 2: 1}, LE, 1)
    assert sum(line.strip() == "ROUND" for line in writer.lines) == (2 if strict else 0)
    verdict, stats, _ = run_when(p, cuts=("cg", "cover"))
    assert verdict == Verdict("optimal", -1) == Verdict(*brute_force_optimum(p)[:2])
    assert stats["cuts"] == 1


def test_cover_cut_on_row_with_outside_terms():
    # a negative coefficient outside the cover is absorbed into its upper
    # bound, shifting the capacity the cover must exceed (a positive one:
    # test_cover_cut_absorbs_a_strict_outside_bound)
    p = boxed_problem(3, [ineq({1: 2, 2: 2, 3: -1}, LE, 2)], {1: -1, 2: -1, 3: 0})
    writer = CertWriter(p)
    cid, cut = emit_cover_cut(writer, 1, [1, 2])
    assert cut == ineq({1: 1, 2: 1}, LE, 1)  # capacity shifts to 3 with x3 = 1
    verdict, stats, _ = run_when(p, cuts=("cover",))
    assert verdict.value == brute_force_optimum(p)[1]
    # with a wider outside variable the same cover stops being one
    q = boxed_problem(3, [ineq({1: 2, 2: 2, 3: -2}, LE, 1)], {1: -1, 2: -1, 3: 0},
                      hi=2)
    with pytest.raises(NotACover):
        emit_cover_cut(CertWriter(q), 1, [1, 2])


@pytest.mark.parametrize("strict", [False, True], ids=["weak", "strict"])
def test_cover_cut_absorbs_a_strict_outside_bound(strict):
    # a positive outside term: x3 >= 1 takes one unit of the capacity 4,
    # which the cover's 2 + 2 then exceeds.  x3 > 0 bounds an integral x3
    # alike: the cover's 2 + 2 only meets the capacity 4 - 0 read off that
    # row, and the strict slack premise makes the high side's combination
    # 0 < 0.  Either derivation cites x3's lower bound row
    x3_low = ineq({3: 1}, GE, 0, strict) if strict else ineq({3: 1}, GE, 1)
    r = boxed_problem(3, [ineq({1: 2, 2: 2, 3: 1}, LE, 4), x3_low], {1: -1, 2: -1, 3: -1})
    writer = CertWriter(r)
    cid, cut = emit_cover_cut(writer, 1, [1, 2])
    assert cut == ineq({1: 1, 2: 1}, LE, 1) and writer.bounds.lower[3][0] == 2
    verdict, text = finish(writer, [(cid, cut)])
    report = verify_text(text)
    assert report.status == "verified", report.message
    assert report.verdict == verdict == Verdict("optimal", brute_force_optimum(r)[1])


@pytest.mark.parametrize("strict_first", [False, True], ids=["weak first", "strict first"])
def test_a_strict_bound_row_is_cited_over_a_weak_row_of_the_same_value(strict_first):
    # x3 >= 0 and x3 > 0 tie in value, and the strict row is the tighter:
    # it is cited in either order, so the cover's 2 + 2 meets the capacity
    # 4 - 0 under a strict slack premise, as in the test above
    weak, strict = ineq({3: 1}, GE, 0), ineq({3: 1}, GE, 0, True)
    lows = [strict, weak] if strict_first else [weak, strict]
    r = boxed_problem(3, [ineq({1: 2, 2: 2, 3: 1}, LE, 4), *lows], {1: -1, 2: -1, 3: -1})
    writer = CertWriter(r)
    cid, cut = emit_cover_cut(writer, 1, [1, 2])
    assert cut == ineq({1: 1, 2: 1}, LE, 1)
    assert writer.bounds.lower[3] == (2 if strict_first else 3, 1, 0, True)
    verdict, text = finish(writer, [(cid, cut)])
    report = verify_text(text)
    assert report.status == "verified", report.message
    assert report.verdict == verdict == Verdict("optimal", brute_force_optimum(r)[1])


def test_cover_cut_requires_binary_cover_variables():
    p = boxed_problem(2, [ineq({1: 2, 2: 2}, LE, 3)], {1: -1, 2: -1}, hi=2)
    with pytest.raises(NotACover):
        emit_cover_cut(CertWriter(p), 1, [1, 2])


def test_reduced_cost_fixing_cancels_a_negative_cost_through_an_upper_bound():
    # min x1 - x2: below the incumbent -1 at (1, 2), x1 - x2 < -1 and
    # x2 <= 2 give x1 < 1, so x1 <= 0
    p = boxed_problem(2, [ineq({1: 1, 2: 1}, LE, 3)], {1: 1, 2: -1}, hi=2)
    writer = CertWriter(p)
    writer.add(SolStep([Rat(1), Rat(2)]))
    cid, bound = reduced_cost_fixing(writer, {}, 1, Rat(-1))
    assert bound == ineq({1: 1}, LE, 0)
    certifier = Certifier(writer)
    certifier.z = Rat(-1)
    certifier.register_row(cid, bound)
    verdict = certifier.run()
    report = verify_text(writer.text())
    assert report.status == "verified", report.message
    assert report.verdict == verdict == Verdict("optimal", brute_force_optimum(p)[1])


# --- propagation by event against the sweep it replaced ------------------------

def _sweep_propagate(rows, box):
    """The certifier's former propagation, kept as the oracle: sweep every
    row until nothing changes.  Rows are (cid, terms, rhs, strict, sign) in
    <=-form; the box maps j to [lower, upper] _Bounds."""
    changed = True
    while changed:
        changed = False
        for cid, terms, rhs, strict, sign in rows:
            if not terms:
                if rhs < 0 or (strict and rhs <= 0):
                    raise _Infeasible(None)
                continue
            minact = Rat(0)
            for j, c in terms.items():
                minact += c * (box[j][0] if c > 0 else box[j][1]).val
            if minact > rhs or (strict and minact >= rhs):
                raise _Infeasible(None)
            if len(terms) == 1 and not strict:
                continue
            for j, c in terms.items():
                upper = c > 0
                cur = box[j][1] if upper else box[j][0]
                rest = minact - c * (box[j][0].val if upper else box[j][1].val)
                raw = (rhs - rest) / c
                if upper:
                    val = Rat(floor_int(raw, strict))
                    improved = val < cur.val
                else:
                    val = Rat(ceil_int(raw, strict))
                    improved = val > cur.val
                if not improved:
                    continue
                box[j][1 if upper else 0] = _Bound(val, None)
                if box[j][0].val > box[j][1].val:
                    raise _Infeasible(None)
                changed = True


def values(box):
    return {j: [bound.val for bound in ends] for j, ends in box.items()}


def _outcome(propagate, box):
    try:
        propagate(box)
    except _Infeasible:
        return "infeasible"
    return "feasible"


coefficients = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))
oracle_rows = st.lists(st.tuples(
    st.dictionaries(st.integers(1, 4), coefficients, max_size=4),
    st.sampled_from([LE, GE, EQ]), st.integers(-6, 8), st.booleans()), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(oracle_rows, st.integers(-2, 0), st.integers(0, 3), st.lists(st.tuples(
    st.integers(1, 4), st.booleans()), max_size=4))
def test_event_propagation_reaches_the_sweep_fixpoint(rows, lo, hi, branches):
    n = 4
    problem = boxed_problem(n, [ineq(terms, rel, rhs, strict and rel != EQ)
                                for terms, rel, rhs, strict in rows], {}, lo=lo, hi=hi)
    certifier = Certifier(CertWriter(problem))
    certifier._split_fractional_equalities()
    old_rows = [(cid, {e // 2: Rat(c) for e, c in zip(ends, coeffs)}, Rat(rhs), strict, sign)
                for cid, ends, coeffs, rhs, strict, sign in certifier.rows]

    def as_old(box):
        return {j: [_Bound(Rat(box[2 * j].val), None), _Bound(Rat(box[2 * j + 1].val), None)]
                for j in range(1, n + 1)}

    box = certifier._root_box()
    assumptions, trail = [], []
    queue = range(len(certifier.rows))
    # the root, then a path of children, as the search takes them
    for var, left in [(None, None), *branches]:
        if var is not None:
            lower, upper = box[2 * var].val, box[2 * var + 1].val
            if lower == upper:
                continue
            queue = certifier._child(assumptions, box, trail, var, (lower + upper) // 2,
                                     LE if left else GE)
        old_box = as_old(box)
        old = _outcome(lambda b: _sweep_propagate(old_rows, b), old_box)
        new = _outcome(lambda b: certifier._propagate(b, queue, trail), box)
        assert new == old
        if new == "infeasible":
            break
        assert values(as_old(box)) == values(old_box)
        assert all(type(box[e].val) is int for e in range(2, 2 * n + 2))
