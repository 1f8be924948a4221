"""Branching trees: consistency checks and order evaluation."""

import random
from collections import Counter
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mipcert import rules, trees
from mipcert.certfile import parse_text, verify_text
from mipcert.certifier import solve_and_certify
from mipcert.exact import EQ, GE, LE, Inequality, LinExpr, Rat, ceil_int, floor_int, unit_bound
from mipcert.model import (
    Configuration,
    Implication,
    IntegralMarker,
    Linear,
    initial_configuration,
)
from mipcert.rules import apply_step
from mipcert.trees import (
    TIGHTENINGS_PER_END,
    UNIVERSE,
    AffineMap,
    Box,
    BranchTree,
    PoolBox,
    TreeNode,
    check_tree_consistency,
    dcn_and_compare,
    expr_range,
    propagate_box,
    trivial_tree,
)

from helpers import (
    bound_rows,
    growth,
    no_proof,
    point_box,
    pool_box,
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
# core bounds 0 <= x_j <= 3 (ids 1-4), marks x1, x2 integral (ids 5, 6) and
# holds x1 + x2 <= 3 (id 7)
TREE_VIOLATIONS = {
    # a BranchTree lists each node under its one parent, so a cycle of
    # parent links is never reached from the root
    "parent cycle": ({1: TreeNode(None, UNIVERSE, ()), 2: TreeNode(3, UNIVERSE, ()),
                      3: TreeNode(2, UNIVERSE, ())}, {},
                     ["nodes [2, 3] unreachable from the root"]),
    "duplicate sigma variable": ({1: TreeNode(None, UNIVERSE, (1, -1))}, {(1, -1): 2},
                                 ["node 1: duplicate variables in sigma"]),
    "sigma entry out of range": ({1: TreeNode(None, UNIVERSE, (1, 3))}, {(1, 3): 3},
                                 ["node 1: sigma entry 3 out of range"]),
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
    "sibling regions overlap": (_root_and_children((1, LE, Rat(2)), (1, GE, Rat(1))), {},
                                ["node 1: sibling regions overlap (1 <= 2)"]),
    "two roots": ({1: TreeNode(None, UNIVERSE, ()), 2: TreeNode(None, UNIVERSE, ())}, {},
                  ["tree must have exactly one root with no parent"]),
    "branching root": ({1: TreeNode(None, (1, LE, Rat(1)), (1,))}, {},
                       ["root 1 must carry no branching constraint"]),
    "two-variable citation": ({1: TreeNode(None, UNIVERSE, (1,))}, {(1, 1): 7},
                              ["node 1: constraint 7 is not a finite upper bound on x1"]),
    "marker citation": ({1: TreeNode(None, UNIVERSE, (1,))}, {(1, 1): 5},
                        ["node 1: constraint 5 is not a finite upper bound on x1"]),
}


@pytest.mark.parametrize("case", TREE_VIOLATIONS)
def test_tree_violation_messages(case):
    nodes, refs, expected = TREE_VIOLATIONS[case]
    core, ub, _ = _core(2)
    core[7] = Linear(Inequality(LinExpr({1: 1, 2: 1}), LE, 3))
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


def _wide_node_text(k):
    """k variables, each bounded above by its own row, and one TREE step:
    a root NODE line of k sigma entries and k bound references."""
    rows = "".join(f"CON {j} <= {j}:1 1\n" for j in range(1, k + 1))
    sigma = " ".join(str(j) for j in range(1, k + 1))
    refs = " ".join(f"{j}@{j}" for j in range(1, k + 1))
    return f"VAR {k}\n{rows}TREE\n  NODE 1 - U : {sigma} : {refs}\n"


def test_a_node_line_is_read_and_checked_in_time_linear_in_its_text():
    # 8 times the entries take about 8 times the time, not 64: the reader
    # splits the line at its ':' separators, and each entry is checked once
    report = verify_text(_wide_node_text(5))
    assert report.stats["by_rule"] == {"TREE": 1}, report.message
    assert report.message == "certificate ended without a GOAL step"
    def make(k):
        text = _wide_node_text(k)
        return lambda: verify_text(text)

    ratio = growth(make, 2000)
    assert ratio < 20, ratio


def test_out_of_range_entries_are_skipped_in_linear_time():
    # each out-of-range entry is reported once and skipped by the range
    # test itself, so k of them cost time linear in k
    def make(k):
        tree = BranchTree({1: TreeNode(None, UNIVERSE, range(2, k + 2))}, 1)
        return lambda: check_tree_consistency(tree, {}, 1, {}, set())

    assert make(2)() == ["node 1: sigma entry 2 out of range",
                         "node 1: sigma entry 3 out of range"]
    ratio = growth(make, 1000)
    assert ratio < 20, ratio


def test_dcn_trivial_tree_weak():
    res = dcn_and_compare(trivial_tree(), point_box([Rat(0), Rat(0)]),
                          const_map([5, 7]), Rat(1), "weak", {}, no_proof)
    assert res.verified
    strict = dcn_and_compare(trivial_tree(), point_box([Rat(0), Rat(0)]),
                             const_map([5, 7]), Rat(1), "strict", {}, no_proof)
    assert not strict.verified


def test_dcn_gap_certificate_channels():
    # one node, sigma (1, 2): a swapping witness needs a certified gap at
    # entry 1; a relational premise cannot be captured by the box, so the
    # step supplies a derivation checked through the prove callback
    from mipcert.errors import SubproofFailed
    from mipcert.exact import dominates

    tree = BranchTree({1: TreeNode(None, UNIVERSE, (1, 2))}, 1)
    w = AffineMap.permutation({1: 2, 2: 1})

    def prover(payload, target):
        if not dominates(payload, target):
            raise SubproofFailed("the evidence does not imply the target")

    strong = Inequality(LinExpr({2: Rat(1), 1: Rat(-1)}), GE, Rat(1))
    res = dcn_and_compare(tree, Box(), w, Rat(1), "strict",
                          {1: {"gap": strong}}, prover)
    assert res.verified
    weak_premise = Inequality(LinExpr({2: Rat(1), 1: Rat(-1)}), GE, Rat(0))
    with pytest.raises(SubproofFailed):  # the supplied gap has no eps margin
        dcn_and_compare(tree, Box(), w, Rat(1), "strict",
                        {1: {"gap": weak_premise}}, prover)
    res = dcn_and_compare(tree, Box(), w, Rat(1), "strict", {}, no_proof)
    assert not res.verified  # no evidence at all


def test_dcn_interval_channel_on_pinned_boxes():
    # with the box pinning both coordinates the interval channel suffices
    tree = BranchTree({1: TreeNode(None, UNIVERSE, (1, 2))}, 1)
    w = AffineMap.permutation({1: 2, 2: 1})
    box = pool_box([Inequality(LinExpr({1: Rat(1)}), LE, Rat(0)),
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
        box = point_box(x)
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
        box = pool_box(ineqs, n, set(range(1, n + 1)))
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


# --- box propagation: sound, and no looser than the four-sweep loop ---

def _oracle_propagate_box(inequalities, dim, integral_vars):
    """The box of the four-sweep loop that event-driven propagation
    replaced, in its per-term form: every term recomputes the range of the
    rest of its row."""
    box = Box()

    def tighten(j, upper, bound, strict):
        end = 2 * j + upper
        if box.tightens(end, bound, strict):
            box.set_end(end, bound, strict)

    def round_integral(j):
        lo, lo_strict, hi, hi_strict = box.interval(j)
        if lo is not None:
            tighten(j, False, ceil_int(lo, lo_strict), False)
        if hi is not None:
            tighten(j, True, floor_int(hi, hi_strict), False)

    rows = []
    for iq in inequalities:
        for terms, sign, rhs, strict in iq.le_halves():
            if len(terms) == 1:
                j, upper, bound = unit_bound(terms, sign, rhs)
                tighten(j, upper, bound, strict)
            elif terms:
                rows.append(({j: sign * c for j, c in terms.items()}, rhs, strict))
    for j in integral_vars:
        if 1 <= j <= dim:
            round_integral(j)
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
                before = box.interval(j)
                tighten(j, c > 0, bound, strict or lo_strict)
                if j in integral_vars:
                    round_integral(j)
                if box.interval(j) != before:
                    changed = True
        if not changed:
            break
    return box


def _tighter_end(value, strict, than, than_strict, upper):
    """True iff the end (value, strict) is at least as tight as (than,
    than_strict): None is unbounded, and an open end is tighter than a
    closed one at the same value."""
    if than is None:
        return True
    if value is None:
        return False
    if value != than:
        return value < than if upper else value > than
    return strict or not than_strict


def _assert_no_looser(box, oracle):
    """Every end of `box` is at least as tight as the oracle's: the loop
    reached a fixpoint inside the four-sweep box."""
    if box.empty:
        return
    assert not oracle.empty
    for j in {end >> 1 for end in chain(box.ends, oracle.ends)}:
        lo, lo_strict, hi, hi_strict = box.interval(j)
        olo, olo_strict, ohi, ohi_strict = oracle.interval(j)
        assert _tighter_end(lo, lo_strict, olo, olo_strict, False), j
        assert _tighter_end(hi, hi_strict, ohi, ohi_strict, True), j
    assert not any(isinstance(v, float) for v, _ in box.ends.values())


def _in_box(point, box):
    if box.empty:
        return False
    for j, v in enumerate(point, start=1):
        lo, lo_strict, hi, hi_strict = box.interval(j)
        if lo is not None and (v < lo or (lo_strict and v == lo)):
            return False
        if hi is not None and (v > hi or (hi_strict and v == hi)):
            return False
    return True


def _assert_sound(box, inequalities, values):
    """Every point of the lattice `values` (one sequence of values per
    variable) that satisfies the inequalities lies in the box."""
    for point in product(*values):
        x = [None, *point]
        if all(iq.holds_at(x) for iq in inequalities):
            assert _in_box(point, box), point


_RATIONALS = st.builds(Rat, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3]))
_SLACKS = st.builds(Rat, st.integers(-1, 6), st.sampled_from([1, 1, 2, 3]))
_HALVES = st.builds(Rat, st.integers(-4, 4), st.just(2))


def _at(terms, point):
    return sum(c * point[j - 1] for j, c in terms.items())


@st.composite
def _row_sets(draw, bounded=False):
    """Unit bounds on some ends of some variables (the others stay
    unbounded), then rows over several variables, with rational
    coefficients, every relation, strict ends and a random integral set.
    Right-hand sides sit a drawn slack from a drawn point, so most sets
    are feasible and some, with negative slack, are empty.  A `bounded`
    set has at most three variables, each with both unit bounds within 2
    of a point on the half-integer grid."""
    dim = draw(st.integers(1, 3 if bounded else 5))
    point = [draw(_HALVES if bounded else _RATIONALS) for _ in range(dim)]
    ineqs = []
    for j in range(1, dim + 1):
        for rel, sign in ((LE, 1), (GE, -1)):
            if bounded or draw(st.booleans()):
                slack = draw(_HALVES.map(abs) if bounded else _SLACKS)
                ineqs.append(Inequality(LinExpr({j: Rat(1)}), rel, point[j - 1] + sign * slack,
                                        draw(st.booleans())))
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
    return [ineqs[i] for i in order], dim, integral, point


def _grid(point, integral):
    """Per variable, the values a bounded row set allows: the integers, or
    the multiples of 1/3, within 2 of the point."""
    values = []
    for j, p in enumerate(point, start=1):
        if j in integral:
            values.append(range(ceil_int(p - 2, False), floor_int(p + 2, False) + 1))
        else:
            values.append([p + Rat(k, 3) for k in range(-6, 7)])
    return values


@settings(max_examples=300, deadline=None)
@given(_row_sets(bounded=True))
def test_propagation_keeps_every_lattice_point(case):
    ineqs, dim, integral, point = case
    box = pool_box(ineqs, dim, integral)
    _assert_sound(box, ineqs, _grid(point, integral))
    if not box.capped:
        _assert_no_looser(box, _oracle_propagate_box(ineqs, dim, integral))


@settings(max_examples=400, deadline=None)
@given(_row_sets())
def test_propagation_is_no_looser_than_the_oracle(case):
    ineqs, dim, integral, _ = case
    box = pool_box(ineqs, dim, integral)
    if not box.capped:
        _assert_no_looser(box, _oracle_propagate_box(ineqs, dim, integral))


def test_a_descending_chain_stops_at_the_cap():
    # x1 <= x2 - 1 and x2 <= x1 descend forever below x1 <= 10: each end
    # moves TIGHTENINGS_PER_END times, and the box says it was capped
    ineqs = [Inequality(LinExpr({1: 1, 2: -1}), LE, -1),
             Inequality(LinExpr({2: 1, 1: -1}), LE, 0),
             Inequality(LinExpr({1: 1}), LE, 10)]
    box = pool_box(ineqs, 2, {1, 2})
    assert box.capped and not box.empty
    assert box.ends == {3: (10 - TIGHTENINGS_PER_END, False),
                        5: (11 - TIGHTENINGS_PER_END, False)}


def test_a_false_termless_premise_empties_the_box():
    # 0 < 0, the negation of 0 >= 0, and 0 <= -1 admit no point; 0 <= 0 does
    empty = LinExpr()
    for iq, is_empty in ((Inequality(empty, LE, 0, strict=True), True),
                         (Inequality(empty, LE, -1), True),
                         (Inequality(empty, GE, 1), True),
                         (Inequality(empty, LE, 0), False),
                         (Inequality(empty, EQ, 0), False)):
        assert pool_box([iq], 1, set()).empty is is_empty, iq


def _check_boxes(monkeypatch, values):
    """Check every box a RED or DOM step builds: it holds every point of
    the lattice `values` that its rows admit, and, never capped here, is no
    looser than the oracle's.  Returns the list of checked boxes."""
    calls = []

    def checked(cfg, negations):
        box = propagate_box(cfg, negations)
        ineqs = [c.ineq for c in chain(cfg.core.values(), cfg.derived.values())
                 if isinstance(c, Linear)] + list(negations)
        assert cfg.integral_vars() == set(range(1, cfg.dim + 1))
        _assert_sound(box, ineqs, [values] * cfg.dim)
        assert not box.capped
        _assert_no_looser(box, _oracle_propagate_box(ineqs, cfg.dim, cfg.integral_vars()))
        calls.append(box)
        return box

    monkeypatch.setattr(rules, "propagate_box", checked)
    return calls


def test_strengthening_boxes_are_sound_and_no_looser_than_the_oracle(monkeypatch):
    # on the pinned SST certificate and on a fresh one at n=8, where every
    # variable is binary
    calls = _check_boxes(monkeypatch, (0, 1))
    golden = Path(__file__).parent / "golden" / "set_packing_3_sst.cert"
    assert verify_text(golden.read_text(encoding="utf-8")).status == "verified"
    pinned = len(calls)
    _, text, _ = solve_and_certify(set_packing_problem(8), sst=True)
    assert verify_text(text).status == "verified"
    assert 0 < pinned < len(calls)


# --- the pool box kept across steps: each rebuild is taken ---

# min -x1 over x1, x2 in [0, 3], integral
_PROBLEM = """VAR 2
INT 1 2
OBJ -1 0
CON 1 <= 1 0 3
CON 2 >= 1 0 0
CON 3 <= 0 1 3
CON 4 >= 0 1 0
"""
# after the solution x1 = 1, the objective cutoff x1 >= 2 raises x1's
# lower end from 0 to 2
_CUTOFF = """SOL 1 0
IMPLIC {0}
  LIN OBJ:1
  ROUND
  -> 1 0 >= 2
"""
# the negation of x1 >= 1 meets the cutoff 7: DOM 8 passes as "premises
# are contradictory on the box", and only while row 7 is in the pool
_CUTOFF_PROBLEM = _PROBLEM + _CUTOFF.format(7) + "DOM 8 1 0 >= 1\nDEL A 8\n"
# the solution x1 = 3 is optimal
_CUTOFF_FINISH = """SOL 3 0
IMPLIC 20
  LIN OBJ:1 1:1
  -> 0 0 <= -1
GOAL 20
"""
# DEL C deletes the cutoff with the witness x1 <- 2: the moved bounds and
# the self image hold trivially, and the objective condition x1 <= 2
# follows from the negation x1 < 2
_DEL_C = """XFER {0}
DEL C {0}
  WITNESS 1 <- 0 0 2
  SUB 1
    LIN 2:0
    -> 0 0 <= 1
  SUB 2
    LIN 2:0
    -> 0 0 >= -2
  SUB OBJ
    LIN N1:1
    -> 1 0 <= 2
  SUB SELF
    LIN 2:0
    -> 0 0 >= 0
"""
_DEL_C_7 = _DEL_C.format(7)


def _dom_reasons(monkeypatch):
    """Record the reason of every order check."""
    reasons = []

    def recorded(*args):
        result = dcn_and_compare(*args)
        reasons.append(result.reason)
        return result

    monkeypatch.setattr(rules, "dcn_and_compare", recorded)
    return reasons


def test_dominance_of_a_true_termless_row_meets_its_false_negation(monkeypatch):
    # the negation 0 < 0 of 0 >= 0 empties the box: the step is verified
    # as "premises are contradictory on the box", not refused with
    # "no strict gap at node 1"
    reasons = _dom_reasons(monkeypatch)
    report = verify_text(_PROBLEM + "DOM 7 0 0 >= 0\n")
    assert report.message == "certificate ended without a GOAL step"
    assert reasons == ["premises are contradictory on the box"]


@pytest.mark.parametrize("middle", ["", "DEL A 7\n", _DEL_C_7])
def test_a_departed_tightening_row_rebuilds_the_pool_box(monkeypatch, middle):
    reasons = _dom_reasons(monkeypatch)
    report = verify_text(_CUTOFF_PROBLEM + middle + "DOM 9 1 0 >= 1\n" + _CUTOFF_FINISH)
    if not middle:
        assert report.status == "verified" and str(report.verdict) == "Optimal(-3)"
        assert reasons == ["premises are contradictory on the box"] * 2
        return
    # row 7 left the pool, so DOM 9 has no cutoff to meet
    line = (_CUTOFF_PROBLEM + middle).count("\n") + 1
    assert report.status == "rejected"
    assert report.message.endswith(
        f"(line {line}): StrictOrderUndetermined: no strict gap at node 1")
    assert reasons[0] == "premises are contradictory on the box"


# x1 >= x2 breaks the symmetry of x1 and x2, and DEL C removes it by the
# swap: its image x2 >= x1 follows from the negation x1 < x2
_DEL_C_SYMMETRY_BREAKER = """VAR 2
INT 1 2
OBJ -1 -1
CON 1 <= 1 0 3
CON 2 >= 1 0 0
CON 3 <= 0 1 3
CON 4 >= 0 1 0
CON 5 >= 1 -1 0
DOM 8 0 0 >= 0
DEL A 8
DEL C 5
  WITNESS 1 <- 0 1 0
  WITNESS 2 <- 1 0 0
  SUB SELF
    LIN N1:1
    -> -1 1 >= 0
"""


# the cutoff 8 enters after the pool box was built, and DEL C removes it
# before a strengthening step reads it
_DEL_C_NEW_ROW = _PROBLEM + "DOM 7 0 0 >= 0\nDEL A 7\n" + _CUTOFF.format(8) + _DEL_C.format(8)


@pytest.mark.parametrize("text", [_CUTOFF_PROBLEM + _DEL_C_7, _DEL_C_NEW_ROW,
                                  _DEL_C_SYMMETRY_BREAKER],
                         ids=["tightening row", "new row", "watched row"])
def test_a_del_c_step_builds_no_box_and_runs_no_dive(monkeypatch, text):
    # with no sigma entry in the tree the order condition holds whatever
    # the box: only the one DOM step before DEL C builds a box and dives
    calls = _check_boxes(monkeypatch, range(4))
    reasons = _dom_reasons(monkeypatch)
    report = verify_text(text)
    assert report.message == "certificate ended without a GOAL step"
    assert [box.empty for box in calls] == [True]
    assert reasons == ["premises are contradictory on the box"]


# after EXT, RED 11 bounds the new x3 by the witness x3 <- 0, and DOM 12
# repeats it: its negation x3 > 0 meets row 11, which entered the kept box
_EXTENSION = _CUTOFF_PROBLEM + """EXT
RED 11 0 0 1 <= 0
  WITNESS 3 <- 0 0 0 0
  SUB SELF
    LIN 2:0
    -> 0 0 0 <= 0
DOM 12 0 0 1 <= 0
""" + _CUTOFF_FINISH.replace("0 0 <= -1", "0 0 0 <= -1").replace("SOL 3 0", "SOL 3 0 0")


def _counted_builds(monkeypatch):
    """Record `cfg.max_id` at every PoolBox build."""
    builds = []
    build = PoolBox.__init__

    def counted(box, cfg):
        builds.append(cfg.max_id)
        build(box, cfg)

    monkeypatch.setattr(PoolBox, "__init__", counted)
    return builds


def test_an_extension_between_strengthening_steps_keeps_the_pool_box(monkeypatch):
    # no live row reads the new variable, so the box DOM 8 built stays exact
    builds = _counted_builds(monkeypatch)
    report = verify_text(_EXTENSION)
    assert report.status == "verified", report.message
    assert str(report.verdict) == "Optimal(-3)"
    assert builds == [7]


_ROW_8 = "IMPLIC 8\n  LIN 1:1\n  -> 1 0 <= 3\n"
_ROW_9 = "IMPLIC 9\n  LIN 3:1\n  -> 0 1 <= 3\n"


def _sum_row(cid):
    return f"IMPLIC {cid}\n  LIN 1:1 3:1\n  -> 1 1 <= 6\n"


def test_the_pool_box_journal_stays_bounded_by_the_live_set():
    # after DOM 7 builds the pool box, each row of the chain enters the
    # journal and is dropped from it at its DEL A: none reaches `left`
    chain_steps = "".join(_sum_row(k) + f"DEL A {k - 1}\n" for k in range(9, 2009))
    problem, steps = parse_text(_PROBLEM + "DOM 7 0 0 >= 0\n" + _ROW_8 + chain_steps
                                + "DOM 2009 0 0 >= 0\n")
    cfg = initial_configuration(problem)
    for step in steps:
        apply_step(cfg, step)
        box = cfg.pool_box
        assert box is None or len(box.entered) + len(box.left) <= len(cfg.core) + len(cfg.derived)
    assert cfg.pool_box.entered == {2009: cfg.lookup(2009)} and cfg.pool_box.left == []


def test_a_row_that_enters_and_leaves_between_syncs_causes_no_rebuild(monkeypatch):
    builds = _counted_builds(monkeypatch)
    # the cutoff row 8 would have tightened x1's lower end, had a sync read it
    report = verify_text(_PROBLEM + "DOM 7 0 0 >= 0\n" + _CUTOFF.format(8)
                         + "DEL A 8\nDOM 9 0 0 >= 0\n")
    assert report.message == "certificate ended without a GOAL step"
    assert builds == [6]


def test_rows_that_entered_are_read_in_entry_order(monkeypatch):
    # XFER 9 before XFER 8 reorders the core map, not the journal: DOM 7
    # and rows 8, 9 and 10 entered in id order
    propagated = []
    propagate = trees._propagate

    def recorded(box, rows, *args):
        propagated.append([row[0] for row in rows])
        propagate(box, rows, *args)

    monkeypatch.setattr(trees, "_propagate", recorded)
    report = verify_text(_PROBLEM + "DOM 7 0 0 >= 0\n" + _ROW_8 + _ROW_9 + _sum_row(10)
                         + "XFER 9\nXFER 8\nDOM 11 0 0 >= 0\n")
    assert report.message == "certificate ended without a GOAL step"
    # the sync of DOM 11, then the propagation of its negation
    assert propagated[-2:] == [[7, 8, 9, 10], [None]]


def test_rows_transferred_in_reverse_keep_the_box_a_rebuild_gives():
    # in the box [0, 10]^3, rows 10 and 11 tighten ends that the other
    # reads, and row 12 reads ends that both tighten
    core, _, _ = _core(3, 0, 10)
    cfg = Configuration(core, {}, LinExpr(), None, trivial_tree(), 1, 3)
    propagate_box(cfg, [])
    for cid, terms, rel, rhs in [(10, {1: 1, 2: 1}, LE, 4), (11, {2: 1, 3: -1}, GE, 1),
                                 (12, {1: 1, 3: 1}, GE, 2)]:
        cfg.add(cid, Linear(Inequality(LinExpr(terms), rel, Rat(rhs))))
    for cid in (12, 11, 10):
        cfg.transfer(cid)
    assert list(cfg.pool_box.entered) == [10, 11, 12]
    assert cfg.pool_box.sync(cfg)
    rebuilt = PoolBox(cfg)
    assert cfg.pool_box.box.ends == rebuilt.box.ends
    assert [rebuilt.box.interval(j) for j in (1, 2, 3)] == [
        (0, False, 3, False), (1, False, 4, False), (0, False, 3, False)]
    assert {10, 11} <= rebuilt.tighteners


def test_a_box_built_outside_a_rule_is_journaled():
    # propagate_box makes the pool the configuration journals behind, so a
    # caller that builds the box directly gets a box that stays current
    problem, steps = parse_text(_PROBLEM + _ROW_8)
    cfg = initial_configuration(problem)
    trees.propagate_box(cfg, [])
    apply_step(cfg, steps[0])
    assert cfg.pool_box.entered == {8: cfg.lookup(8)}
    assert cfg.pool() == Counter([*cfg.core.values(), *cfg.derived.values()])


def test_unmoved_constraints_are_their_own_images():
    w = AffineMap.permutation({1: 2, 2: 1, 3: 3})
    fixed = Linear(Inequality(LinExpr({3: Rat(1), 4: Rat(2)}), LE, Rat(5)))
    assert w.apply_constraint(fixed) is fixed
    moved = Linear(Inequality(LinExpr({1: Rat(1), 3: Rat(2)}), LE, Rat(5)))
    image = w.apply_constraint(moved)
    assert image == Linear(Inequality(LinExpr({2: Rat(1), 3: Rat(2)}), LE, Rat(5)))
    assert not w.moves(fixed) and w.moves(moved)
    # an implication is moved when its assumptions read a moved variable
    implication = Implication([Inequality(LinExpr({2: Rat(1)}), GE, Rat(1))],
                              Inequality(LinExpr({3: Rat(1)}), LE, Rat(0)))
    assert w.moves(implication)
    other = AffineMap.permutation({4: 5, 5: 4})
    assert not other.moves(moved) and not other.moves(implication)
    assert other.apply_constraint(implication) is implication
    with pytest.raises(ValueError, match="integrality markers"):
        w.apply_constraint(IntegralMarker(1))


@pytest.mark.parametrize("n", [4, 8, 12])
def test_witness_checks_map_only_the_targets_a_witness_moves(monkeypatch, n):
    _, text, _ = solve_and_certify(set_packing_problem(n), sst=True)
    mapped = []
    apply_constraint = AffineMap.apply_constraint

    def spy(w, c):
        mapped.append(w.moves(c))
        return apply_constraint(w, c)

    monkeypatch.setattr(AffineMap, "apply_constraint", spy)
    report = verify_text(text)
    assert report.status == "verified", report.message
    # n - 1 DOM steps, one per adjacent pair of the chain, each mapping the
    # rows on its two swapped variables: n - 1 packing rows and two bounds
    # per variable, one row shared; a step count quadratic in n fails this
    assert mapped == [True] * (n - 1) * (2 * n + 1)


# --- relabelling witnesses: images rename keys ---
#
# A relabelling's image must be the one the normalising LinExpr composes:
# equal, hash equal, with an int wherever a value is integral.

_COEFFS = [1, -1, 2, -3, Rat(1, 2), Rat(-1, 2), Rat(3, 2), Rat(1, 3), Rat(2, 3), Rat(-2, 3)]
# outputs and sources in 1..4; rows also read x5, which no map moves
_relabellings = st.dictionaries(st.integers(1, 4), st.integers(1, 4), max_size=4)


@st.composite
def _inequalities(draw):
    terms = draw(st.dictionaries(st.integers(1, 5), st.sampled_from(_COEFFS), max_size=4))
    rel = draw(st.sampled_from([LE, GE, EQ]))
    strict = rel != EQ and draw(st.booleans())
    return Inequality(LinExpr(terms), rel, draw(st.sampled_from(_COEFFS)), strict)


_constraints = st.one_of(
    _inequalities().map(Linear),
    st.builds(Implication, st.lists(_inequalities(), min_size=1, max_size=2), _inequalities()))


def _composed(relabel, ineq):
    """The image of `ineq` under x_j -> x_relabel[j], summed by hand and
    normalised by LinExpr."""
    acc = {}
    for j, c in ineq.lhs.terms.items():
        k = relabel.get(j, j)
        acc[k] = acc.get(k, 0) + c
    return Inequality(LinExpr(acc), ineq.rel, ineq.rhs, ineq.strict)


def _parts(c):
    """The inequalities of a Linear or Implication constraint."""
    return [c.ineq] if isinstance(c, Linear) else [*c.assumptions, c.consequent]


def _value_types(ineq):
    return {j: type(c) for j, c in ineq.lhs.terms.items()}, type(ineq.rhs), type(ineq.lhs.const)


@settings(max_examples=300, deadline=None)
@given(_relabellings, _constraints)
def test_a_relabelling_image_is_the_normalised_composition(relabel, c):
    w = AffineMap({j: ({src: 1}, 0) for j, src in relabel.items()})
    assert w.relabel == relabel
    image = w.apply_constraint(c)
    parts = [_composed(relabel, iq) for iq in _parts(c)]
    expected = Linear(parts[0]) if isinstance(c, Linear) else Implication(parts[:-1], parts[-1])
    assert image == expected and hash(image) == hash(expected)
    for got, want in zip(_parts(image), _parts(expected)):
        assert _value_types(got) == _value_types(want)
        assert got.lhs.const == 0 and 0 not in got.lhs.terms.values()
    assert (image is c) == (not w.moves(c))


def test_a_collision_sums_through_the_normalising_path():
    # x1 -> x2 while x2 stays: two terms land on x2 and are summed
    w = AffineMap({1: ({2: 1}, 0)})
    halves = Linear(Inequality(LinExpr({1: Rat(1, 2), 2: Rat(1, 2)}), LE, 1))
    image = w.apply_constraint(halves)
    assert image == Linear(Inequality(LinExpr({2: 1}), LE, 1))
    assert type(image.ineq.lhs.terms[2]) is int
    cancel = Linear(Inequality(LinExpr({1: Rat(1, 3), 2: Rat(-1, 3), 3: 1}), GE, 0))
    assert w.apply_constraint(cancel).ineq.lhs.terms == {3: 1}
    objective = LinExpr({1: Rat(2, 3), 2: Rat(1, 3)}, 5)
    assert w.apply_expr(objective) == LinExpr({2: 1}, 5)


@pytest.mark.parametrize("rows", [
    {1: ({2: 2}, 0)},                     # a coefficient of 2
    {1: ({2: 1}, 1)},                     # a non-zero offset
    {1: ({1: 1, 2: 1}, 0)},               # a row of two variables
    {1: ({2: 1}, 0), 2: ({1: 1}, Rat(1, 2))},
    {1: ({}, 3)},                         # a constant row
], ids=["coefficient", "offset", "two variables", "one general row", "constant"])
def test_a_map_that_is_not_a_relabelling_takes_the_general_path(rows, monkeypatch):
    w = AffineMap(rows)
    assert w.relabel is None
    monkeypatch.setattr(trees, "renamed", None)   # the relabelling path would fail
    ineq = Inequality(LinExpr({1: 1, 2: Rat(1, 2), 3: 1}), LE, 4)
    acc, const = {}, 0
    for j, c in ineq.lhs.terms.items():
        coeffs, offset = w.row(j)
        const += c * offset
        for k, a in coeffs.items():
            acc[k] = acc.get(k, 0) + c * a
    expected = Inequality(LinExpr(acc, const), LE, 4)
    assert w.apply_ineq(ineq) == expected
    assert w.apply_constraint(Linear(ineq)) == Linear(expected)


def test_relabellings_and_an_objective_image():
    # rows are normalised first, so Rat(1) and 1 are the same coefficient
    assert AffineMap({1: ({2: Rat(1)}, Rat(0))}).relabel == {1: 2}
    assert AffineMap().relabel == {}
    swap = AffineMap.permutation({1: 2, 2: 1})
    assert swap.relabel == {1: 2, 2: 1}
    # an objective keeps its constant
    assert swap.apply_expr(LinExpr({1: 2, 3: Rat(1, 2)}, 5)) == LinExpr({2: 2, 3: Rat(1, 2)}, 5)
