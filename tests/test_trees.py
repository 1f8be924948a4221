"""Branching trees: consistency checks and order evaluation."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mipcert import rules
from mipcert.certfile import verify_text
from mipcert.certifier import solve_and_certify
from mipcert.exact import EQ, GE, LE, Inequality, LinExpr, Rat, unit_bound
from mipcert.model import IntegralMarker, Linear
from mipcert.trees import (
    UNIVERSE,
    AffineMap,
    Box,
    BranchTree,
    TreeNode,
    check_tree_consistency,
    dcn_and_compare,
    expr_range,
    propagate_box,
    trivial_tree,
)

from helpers import (
    bound_rows,
    no_proof,
    random_consistent_tree,
    random_point,
    set_packing_problem,
    strict_at,
    weak_at,
)


def _core(n, lo=0, hi=3):
    cons, ub, lb = bound_rows(n, lo, hi)
    next_id = 2 * n + 1
    for j in range(1, n + 1):
        cons[next_id] = IntegralMarker(j)
        next_id += 1
    return cons, ub, lb


def const_map(values):
    """Point witness: x -> values, as a zero-matrix affine map."""
    return AffineMap({j: ({}, Rat(v)) for j, v in enumerate(values, start=1)})


def test_trivial_tree_consistent():
    core, _, _ = _core(2)
    assert check_tree_consistency(trivial_tree(), core, 2, {}, {1, 2}) == []


def test_two_way_integral_split_consistent():
    core, ub, lb = _core(1, 0, 1)
    tree = BranchTree({
        1: TreeNode(None, UNIVERSE, (1,)),
        2: TreeNode(1, (1, LE, Rat(0)), (1,)),
        3: TreeNode(1, (1, GE, Rat(1)), (1,)),
    }, 1)
    refs = {(1, 1): ub[1]}
    assert check_tree_consistency(tree, core, 1, refs, {1}) == []


def test_continuous_split_fails_disjointness():
    core, ub, lb = _core(1, 0, 1)
    core = {k: v for k, v in core.items() if not isinstance(v, IntegralMarker)}
    tree = BranchTree({
        1: TreeNode(None, UNIVERSE, (1,)),
        2: TreeNode(1, (1, LE, Rat(0)), (1,)),
        3: TreeNode(1, (1, GE, Rat(0)), (1,)),
    }, 1)
    refs = {(1, 1): ub[1]}
    report = check_tree_consistency(tree, core, 1, refs, set())
    assert any("overlap" in r or "integrality" in r for r in report)


def test_gap_between_children_detected():
    core, ub, lb = _core(1, 0, 3)
    tree = BranchTree({
        1: TreeNode(None, UNIVERSE, (1,)),
        2: TreeNode(1, (1, LE, Rat(0)), (1,)),
        3: TreeNode(1, (1, GE, Rat(2)), (1,)),
    }, 1)
    refs = {(1, 1): ub[1]}
    report = check_tree_consistency(tree, core, 1, refs, {1})
    assert any("uncovered" in r for r in report)


def test_missing_bound_citation_detected():
    core, ub, lb = _core(2)
    tree = BranchTree({1: TreeNode(None, UNIVERSE, (1, -2))}, 1)
    report = check_tree_consistency(tree, core, 2, {(1, 1): ub[1]}, {1, 2})
    assert any("no cited bound" in r for r in report)
    # a lower-bound citation cannot stand in for an upper bound
    report = check_tree_consistency(tree, core, 2, {(1, 1): lb[1], (1, -2): lb[2]},
                                    {1, 2})
    assert any("not a finite upper bound" in r for r in report)
    assert check_tree_consistency(tree, core, 2,
                                  {(1, 1): ub[1], (1, -2): lb[2]}, {1, 2}) == []


def test_branch_variable_must_appear_in_parent_sigma():
    core, ub, lb = _core(2)
    tree = BranchTree({
        1: TreeNode(None, UNIVERSE, (2,)),
        2: TreeNode(1, (1, LE, Rat(0)), (2,)),
        3: TreeNode(1, (1, GE, Rat(1)), (2,)),
    }, 1)
    refs = {(1, 2): ub[2]}
    report = check_tree_consistency(tree, core, 2, refs, {1, 2})
    assert any("missing from sigma" in r for r in report)


def test_sigma_prefix_violation_detected():
    core, ub, lb = _core(2)
    tree = BranchTree({
        1: TreeNode(None, UNIVERSE, (1,)),
        2: TreeNode(1, (1, LE, Rat(1)), (2,)),
        3: TreeNode(1, (1, GE, Rat(2)), (1, 2)),
    }, 1)
    refs = {(1, 1): ub[1], (2, 2): ub[2], (3, 2): ub[2]}
    report = check_tree_consistency(tree, core, 2, refs, {1, 2})
    assert any("does not extend" in r for r in report)


def _root_and_children(*branches):
    """A root comparing x1, with one child per branch (node ids 2, 3, ...)."""
    nodes = {1: TreeNode(None, UNIVERSE, (1,))}
    for nid, branch in enumerate(branches, start=2):
        nodes[nid] = TreeNode(1, branch, (1,))
    return nodes


# (nodes, bound references beyond 1@x1 at the root, the whole report); the
# core bounds 0 <= x_j <= 3 (ids 1-4) and marks x1, x2 integral
TREE_VIOLATIONS = {
    # a BranchTree lists each node under its one parent, so a cycle of
    # parent links is never reached from the root
    "parent cycle": ({1: TreeNode(None, UNIVERSE, ()), 2: TreeNode(3, UNIVERSE, ()),
                      3: TreeNode(2, UNIVERSE, ())}, {},
                     ["nodes [2, 3] unreachable from the root"]),
    "duplicate sigma variable": ({1: TreeNode(None, UNIVERSE, (1, -1))}, {(1, -1): 2},
                                 ["node 1: duplicate variables in sigma"]),
    "sigma entry out of range": ({1: TreeNode(None, UNIVERSE, (1, 3))}, {(1, 3): 3},
                                 ["node 1: sigma entry 3 out of range",
                                  "node 1: constraint 3 is not a finite upper bound on x3"]),
    "malformed branch": (_root_and_children((3, LE, Rat(0))), {},
                         ["node 2: malformed branching bound",
                          "node 2: single-child branch not implied by any core constraint"]),
    "unimplied single child": (_root_and_children((1, LE, Rat(1))), {},
                               ["node 2: single-child branch not implied by any core constraint"]),
    "U sibling": (_root_and_children(UNIVERSE, (1, LE, Rat(1))), {},
                  ["node 2: sibling branches must constrain a variable"]),
    "mixed branch variables": (_root_and_children((1, LE, Rat(1)), (2, GE, Rat(2))), {},
                               ["node 1: children branch on different variables"]),
    "not one upper and one lower": (_root_and_children((1, LE, Rat(1)), (1, LE, Rat(2))), {},
                                    ["node 1: children must split into one upper and one "
                                     "lower bound"]),
}


@pytest.mark.parametrize("case", TREE_VIOLATIONS)
def test_tree_violation_messages(case):
    nodes, refs, expected = TREE_VIOLATIONS[case]
    core, ub, _ = _core(2)
    refs = {(1, 1): ub[1], **refs}
    assert check_tree_consistency(BranchTree(nodes, 1), core, 2, refs, {1, 2}) == expected


def test_consistency_stable_under_core_additions():
    rng = random.Random(21)
    n = 4
    core, ub, lb = _core(n)
    for _ in range(50):
        tree, refs = random_consistent_tree(rng, n, 0, 3, ub, lb)
        assert check_tree_consistency(tree, core, n, refs, set(range(1, n + 1))) == []
        extended = dict(core)
        extra_id = max(core) + 1
        terms = {j: Rat(rng.randint(-3, 3)) for j in range(1, n + 1)}
        extended[extra_id] = Linear(Inequality(LinExpr(terms), LE, Rat(rng.randint(0, 9))))
        assert check_tree_consistency(tree, extended, n, refs, set(range(1, n + 1))) == []


def test_dcn_trivial_tree_weak():
    res = dcn_and_compare(trivial_tree(), Box.point([Rat(0), Rat(0)]),
                          const_map([5, 7]), Rat(1), "weak", {}, no_proof)
    assert res.verified
    strict = dcn_and_compare(trivial_tree(), Box.point([Rat(0), Rat(0)]),
                             const_map([5, 7]), Rat(1), "strict", {}, no_proof)
    assert not strict.verified


def test_dcn_gap_certificate_channels():
    # one node, sigma (1, 2): a swapping witness needs a certified gap at
    # entry 1; a relational premise cannot be captured by the box, so the
    # step supplies a derivation checked through the prove callback
    from mipcert.exact import dominates

    tree = BranchTree({1: TreeNode(None, UNIVERSE, (1, 2))}, 1)
    w = AffineMap.permutation({1: 2, 2: 1})

    def prover(premise):
        return lambda payload, target: dominates(payload, target)

    strong = Inequality(LinExpr({2: Rat(1), 1: Rat(-1)}), GE, Rat(1))
    res = dcn_and_compare(tree, Box(2), w, Rat(1), "strict",
                          {1: {"gap": strong}}, prover(strong))
    assert res.verified
    weak_premise = Inequality(LinExpr({2: Rat(1), 1: Rat(-1)}), GE, Rat(0))
    res = dcn_and_compare(tree, Box(2), w, Rat(1), "strict",
                          {1: {"gap": weak_premise}}, prover(weak_premise))
    assert not res.verified  # the supplied gap has no eps margin
    res = dcn_and_compare(tree, Box(2), w, Rat(1), "strict", {}, no_proof)
    assert not res.verified  # no evidence at all


def test_dcn_interval_channel_on_pinned_boxes():
    # with the box pinning both coordinates the interval channel suffices
    tree = BranchTree({1: TreeNode(None, UNIVERSE, (1, 2))}, 1)
    w = AffineMap.permutation({1: 2, 2: 1})
    box = propagate_box([Inequality(LinExpr({1: Rat(1)}), LE, Rat(0)),
                         Inequality(LinExpr({1: Rat(1)}), GE, Rat(0)),
                         Inequality(LinExpr({2: Rat(1)}), LE, Rat(2)),
                         Inequality(LinExpr({2: Rat(1)}), GE, Rat(2))],
                        2, {1, 2})
    res = dcn_and_compare(tree, box, w, Rat(1), "strict", {}, no_proof)
    assert res.verified  # x = (0, 2): the swap gains 2 at the first entry


def test_dcn_point_agreement_small():
    rng = random.Random(22)
    n = 4
    core, ub, lb = _core(n)
    agree = 0
    for _ in range(400):
        tree, refs = random_consistent_tree(rng, n, 0, 3, ub, lb)
        assert check_tree_consistency(tree, core, n, refs, set(range(1, n + 1))) == []
        x = random_point(rng, n, 0, 3)
        y = random_point(rng, n, 0, 3)
        box = Box.point(x)
        w = const_map(y)
        for mode, direct in (("weak", weak_at), ("strict", strict_at)):
            mine = dcn_and_compare(tree, box, w, Rat(1), mode, {}, no_proof).verified
            truth = direct(tree, Rat(1), y, x)
            assert mine == truth, (mode, x, y)
            agree += 1
    assert agree == 800


def test_order_conservative_on_boxes():
    # whenever the diver verifies a relation over a box, every concrete
    # point of the box satisfies it
    rng = random.Random(23)
    n = 3
    core, ub, lb = _core(n)
    verified_seen = 0
    for _ in range(1500):
        tree, refs = random_consistent_tree(rng, n, 0, 3, ub, lb, levels=2)
        lo = [rng.randint(0, 3) for _ in range(n)]
        hi = [min(3, l + rng.randint(0, 2)) for l in lo]
        ineqs = []
        for j in range(n):
            ineqs.append(Inequality(LinExpr({j + 1: Rat(1)}), GE, Rat(lo[j])))
            ineqs.append(Inequality(LinExpr({j + 1: Rat(1)}), LE, Rat(hi[j])))
        box = propagate_box(ineqs, n, set(range(1, n + 1)))
        perm = dict(enumerate(rng.sample(range(1, n + 1), n), start=1))
        offsets = [rng.randint(0, 1) for _ in range(n)]
        w = AffineMap({j: ({perm[j]: Rat(1)}, Rat(offsets[j - 1]))
                       for j in range(1, n + 1)})
        for mode, direct in (("weak", weak_at), ("strict", strict_at)):
            res = dcn_and_compare(tree, box, w, Rat(1), mode, {}, no_proof)
            if not res.verified:
                continue
            verified_seen += 1
            for _ in range(8):
                x = [Rat(rng.randint(lo[j], hi[j])) for j in range(n)]
                y = [x[perm[j + 1] - 1] + offsets[j] for j in range(n)]
                if any(v < 0 or v > 3 for v in y):
                    continue  # witness image leaves the core region
                assert direct(tree, Rat(1), y, x), (mode, x, y)
    assert verified_seen > 50


def test_order_properties_randomized():
    # reflexivity / transitivity of the weak order, irreflexivity /
    # transitivity of the strict one, and the mixed chain property
    rng = random.Random(24)
    n = 4
    core, ub, lb = _core(n)
    for _ in range(300):
        tree, refs = random_consistent_tree(rng, n, 0, 3, ub, lb)
        eps = Rat(1)
        pts = [random_point(rng, n, 0, 3) for _ in range(4)]
        for x in pts:
            assert weak_at(tree, eps, x, x)
            assert not strict_at(tree, eps, x, x)
        for x in pts:
            for y in pts:
                for z in pts:
                    if weak_at(tree, eps, z, y) and weak_at(tree, eps, y, x):
                        assert weak_at(tree, eps, z, x)
                    if strict_at(tree, eps, z, y) and strict_at(tree, eps, y, x):
                        assert strict_at(tree, eps, z, x)
                    if strict_at(tree, eps, z, y) and weak_at(tree, eps, y, x):
                        assert strict_at(tree, eps, z, x)


# --- box propagation against the per-term implementation it replaced ---

def _oracle_propagate_box(inequalities, dim, integral_vars):
    """propagate_box as it was before the activity rewrite: every term
    recomputes the range of the rest of its row."""
    box = Box(dim)
    rows = []
    for iq in inequalities:
        for terms, rhs, strict in iq.le_halves():
            if len(terms) == 1:
                j, upper, bound = unit_bound(terms, rhs)
                if upper:
                    box.tighten_upper(j, bound, strict)
                else:
                    box.tighten_lower(j, bound, strict)
            elif terms:
                rows.append((terms, rhs, strict))
    for j in integral_vars:
        if 1 <= j <= dim:
            box.round_integral(j)
    for _ in range(4):
        if box.empty:
            break
        changed = False
        for terms, rhs, strict in rows:
            for j, c in terms.items():
                rest = {k: v for k, v in terms.items() if k != j}
                lo, lo_strict, _, _ = expr_range(rest, Rat(0), box)
                if lo is None:
                    continue
                bound = (rhs - lo) / c
                strict_end = strict or lo_strict
                before = box.interval(j)
                if c > 0:
                    box.tighten_upper(j, bound, strict_end)
                else:
                    box.tighten_lower(j, bound, strict_end)
                if j in integral_vars:
                    box.round_integral(j)
                if box.interval(j) != before:
                    changed = True
        if not changed:
            break
    return box


def _assert_same_box(box, oracle):
    assert box.empty == oracle.empty
    for j in range(1, box.dim + 1):
        assert box.interval(j) == oracle.interval(j), j
    assert not any(isinstance(v, float) for v in box.lo + box.hi)


_RATIONALS = st.builds(Rat, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3]))
_SLACKS = st.builds(Rat, st.integers(-1, 6), st.sampled_from([1, 1, 2, 3]))


def _at(terms, point):
    return sum(c * point[j - 1] for j, c in terms.items())


@st.composite
def _row_sets(draw):
    """Unit bounds on some ends of some variables (the others stay
    unbounded), then rows over several variables, with rational
    coefficients, every relation, strict ends and a random integral set.
    Right-hand sides sit a drawn slack from a drawn point, so most sets
    are feasible and some, with negative slack, are empty."""
    dim = draw(st.integers(1, 5))
    point = [draw(_RATIONALS) for _ in range(dim)]
    ineqs = []
    for j in range(1, dim + 1):
        for rel, sign in ((LE, 1), (GE, -1)):
            if draw(st.booleans()):
                rhs = point[j - 1] + sign * draw(_SLACKS)
                ineqs.append(Inequality(LinExpr({j: Rat(1)}), rel, rhs, draw(st.booleans())))
    for _ in range(draw(st.integers(0, 6))):
        support = draw(st.lists(st.integers(1, dim), min_size=1, max_size=dim, unique=True))
        terms = {j: draw(_RATIONALS) for j in support}
        rel = draw(st.sampled_from([LE, GE, EQ]))
        if rel == EQ:
            ineqs.append(Inequality(LinExpr(terms), EQ, _at(terms, point)))
            continue
        sign = 1 if rel == LE else -1
        ineqs.append(Inequality(LinExpr(terms), rel, _at(terms, point) + sign * draw(_SLACKS),
                                draw(st.booleans())))
    order = draw(st.permutations(range(len(ineqs))))
    integral = draw(st.sets(st.integers(1, dim)))
    return [ineqs[i] for i in order], dim, integral


@settings(max_examples=400, deadline=None)
@given(_row_sets())
def test_activity_propagation_matches_the_per_term_oracle(case):
    ineqs, dim, integral = case
    _assert_same_box(propagate_box(ineqs, dim, integral),
                     _oracle_propagate_box(ineqs, dim, integral))


def test_strengthening_boxes_match_the_oracle(monkeypatch):
    # every box a RED, DOM or DEL C step builds, on the pinned SST
    # certificate and on a fresh one at n=8
    calls = []

    def checked(inequalities, dim, integral_vars):
        box = propagate_box(inequalities, dim, integral_vars)
        _assert_same_box(box, _oracle_propagate_box(inequalities, dim, integral_vars))
        calls.append(dim)
        return box

    monkeypatch.setattr(rules, "propagate_box", checked)
    golden = Path(__file__).parent / "golden" / "set_packing_3_sst.cert"
    assert verify_text(golden.read_text(encoding="utf-8")).status == "verified"
    pinned = len(calls)
    _, text, _ = solve_and_certify(set_packing_problem(8), sst=True)
    assert verify_text(text).status == "verified"
    assert 0 < pinned < len(calls)


def test_unmoved_constraints_are_their_own_images():
    w = AffineMap.permutation({1: 2, 2: 1, 3: 3})
    fixed = Linear(Inequality(LinExpr({3: Rat(1), 4: Rat(2)}), LE, Rat(5)))
    assert w.apply_constraint(fixed) is fixed
    moved = Linear(Inequality(LinExpr({1: Rat(1), 3: Rat(2)}), LE, Rat(5)))
    image = w.apply_constraint(moved)
    assert image == Linear(Inequality(LinExpr({2: Rat(1), 3: Rat(2)}), LE, Rat(5)))
