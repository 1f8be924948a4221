"""Swap classes and the moved-rows symmetry test, against the pairwise loop
and the full-row multiset test they replaced."""

import random
from collections import Counter

import mipcert.certifier as certifier_module
from mipcert.certifier import (
    Certifier,
    CertWriter,
    emit_order_tree,
    is_formulation_symmetry,
    solve_and_certify,
    swap_classes,
)
from mipcert.exact import GE, LE, Inequality, LinExpr, Rat
from mipcert.model import Linear, Problem
from mipcert.rules import DeleteStep, EpsStep, StrengthenStep, Subproof
from mipcert.trees import AffineMap, signed_form

from helpers import boxed_problem, set_packing_problem


def full_row_symmetry(problem, perm):
    """The former test: map every row, and match the images against the
    multiset of all rows."""
    w = AffineMap.permutation(perm)
    if w.apply_expr(problem.objective) != problem.objective:
        return False
    if {perm.get(j, j) for j in problem.integral} != problem.integral:
        return False
    remaining = Counter(problem.constraints.values())
    for c in problem.constraints.values():
        image = w.apply_constraint(c)
        if remaining[image] == 0:
            return False
        remaining[image] -= 1
    return True


def pairwise_pairs(problem):
    """Every pair k < j whose swap passes the full-row test."""
    return [(k, j) for k in range(1, problem.n) for j in range(k + 1, problem.n + 1)
            if full_row_symmetry(problem, {k: j, j: k})]


def class_pairs(problem):
    leader = swap_classes(problem)
    return [(k, j) for k in range(1, problem.n) for j in range(k + 1, problem.n + 1)
            if leader[k] == leader[j]]


def pairwise_sst_text(problem):
    """`solve_and_certify(problem, sst=True)` with the former cut loop: one
    full-row test per pair, interleaved with the emission."""
    writer = CertWriter(problem)
    certifier = Certifier(writer)
    eps = Rat(1, 2)
    emit_order_tree(writer, list(range(1, problem.n + 1)))
    writer.add(EpsStep(eps))
    for k, j in pairwise_pairs(problem):
        w = AffineMap.permutation({k: j, j: k})
        cut = Inequality(LinExpr({k: 1, j: -1}), GE, -eps)
        gap = Subproof([("lin", [(("neg", 1), 1)])],
                       Inequality(signed_form(w, k), GE, eps))
        dom_id = writer.fresh()
        writer.add(StrengthenStep(dom_id, Linear(cut), w, {}, {k: {"gap": gap}},
                                  dominance=True))
        rounded = Inequality(LinExpr({k: 1, j: -1}), GE, 0)
        impl_id = writer.derive(
            [], Subproof([("lin", [(("id", dom_id), 1)]), ("round",)], rounded))
        writer.add(DeleteStep("a", [dom_id]))
        certifier.register_row(impl_id, rounded)
    certifier.run()
    return writer.text()


def _swapped(iq, k, j):
    terms = {(j if v == k else k if v == j else v): c for v, c in iq.lhs.terms.items()}
    return Inequality(LinExpr(terms), iq.rel, iq.rhs)


def partly_symmetric_problem(rng):
    """Rows closed under the swaps within a random partition of the
    variables into 1-4 classes, with a class-constant objective; then, half
    of the time, one symmetry broken through the objective, the integral
    set or one extra row.  Returns (problem, the break applied or None)."""
    n = rng.randint(3, 6)
    order = rng.sample(range(1, n + 1), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
    classes = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    swaps = [(c[i], c[i + 1]) for c in classes for i in range(len(c) - 1)]
    rows = set()
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(range(1, n + 1), rng.randint(1, 3))
        terms = {v: Rat(rng.choice([1, 1, 2, -1])) for v in support}
        pending = [Inequality(LinExpr(terms), rng.choice([LE, LE, GE]),
                              Rat(rng.randint(0, 3)))]
        while pending:
            iq = pending.pop()
            if iq not in rows:
                rows.add(iq)
                pending.extend(_swapped(iq, k, j) for k, j in swaps)
    cost = {id(c): rng.randint(-3, 1) for c in classes}
    objective = {v: cost[id(c)] for c in classes for v in c}
    broken = rng.choice([None, None, None, "objective", "integral", "row"])
    if broken == "objective":
        v = rng.randint(1, n)
        objective[v] += rng.choice([-1, 1])
    elif broken == "row":
        rows.add(Inequality(LinExpr({rng.randint(1, n): Rat(1), rng.randint(1, n): Rat(2)}),
                            LE, Rat(2)))
    rows = sorted(rows, key=repr)
    problem = boxed_problem(n, rows, objective)
    if broken == "integral":
        problem.integral.discard(rng.randint(1, n))
    return problem, broken


def test_swap_classes_match_the_pairwise_loop():
    rng = random.Random(16)
    seen = Counter()
    for trial in range(60):
        problem, broken = partly_symmetric_problem(rng)
        pairs = pairwise_pairs(problem)
        assert class_pairs(problem) == pairs, (trial, broken)
        seen[bool(pairs), broken] += 1
        if broken != "integral" and trial % 3 == 0:
            _, text, _ = solve_and_certify(problem, sst=True)
            assert text == pairwise_sst_text(problem), (trial, broken)
    # both outcomes occur, and every kind of break was drawn
    assert seen[True, None] and seen[False, "objective"] + seen[False, "row"]
    assert {broken for _, broken in seen} == {None, "objective", "integral", "row"}


def test_one_symmetry_test_per_class_and_variable(monkeypatch):
    calls = []
    original = certifier_module.is_formulation_symmetry

    def counted(problem, perm):
        calls.append(perm)
        return original(problem, perm)

    monkeypatch.setattr(certifier_module, "is_formulation_symmetry", counted)
    assert swap_classes(set_packing_problem(6)) == [0, 1, 1, 1, 1, 1, 1]
    assert len(calls) == 5
    calls.clear()
    # no symmetry at all: every pair is tested, once
    asym = boxed_problem(4, [], {1: -1, 2: -2, 3: -3, 4: -4})
    assert swap_classes(asym) == [0, 1, 2, 3, 4] and len(calls) == 6


def _random_map(rng, n):
    kind = rng.choice(["2-cycle", "3-cycle", "map"])
    if kind == "2-cycle":
        k, j = rng.sample(range(1, n + 1), 2)
        return kind, {k: j, j: k}
    if kind == "3-cycle":
        a, b, c = rng.sample(range(1, n + 1), 3)
        return kind, {a: b, b: c, c: a}
    # not a bijection, such as {1: 2}
    size = rng.randint(1, 2)
    return kind, dict(zip(rng.sample(range(1, n + 1), size),
                          rng.choices(range(1, n + 1), k=size)))


def test_moved_rows_test_matches_the_full_row_test():
    rng = random.Random(61)
    seen = Counter()
    for _ in range(150):
        problem, _ = partly_symmetric_problem(rng)
        if rng.random() < 0.4:
            # let maps that are not bijections reach the row comparison
            problem.integral = set()
            problem.objective = LinExpr()
        kind, perm = _random_map(rng, problem.n)
        got = is_formulation_symmetry(problem, perm)
        assert got == full_row_symmetry(problem, perm), perm
        seen[kind, got] += 1
    assert seen["2-cycle", True] and seen["2-cycle", False]
    assert seen["3-cycle", True] and seen["3-cycle", False]
    assert seen["map", False]


def test_a_map_that_is_not_a_bijection_can_leave_the_rows_alone():
    # x2 := x1 moves no row that reads only x1, so both tests pass it; a row
    # on x2 maps onto x1's row, which is then counted twice, and both fail it
    row = Linear(Inequality(LinExpr({1: Rat(1)}), LE, Rat(1)))
    problem = Problem(2, set(), LinExpr(), {1: row})
    assert is_formulation_symmetry(problem, {1: 2}) and full_row_symmetry(problem, {1: 2})
    problem.constraints[2] = Linear(Inequality(LinExpr({2: Rat(1)}), LE, Rat(1)))
    assert not is_formulation_symmetry(problem, {1: 2})
    assert not full_row_symmetry(problem, {1: 2})
