"""Swap classes, the sst chain of order cuts and the moved-rows symmetry
test, against the pairwise loop and the full-row multiset test they
replaced."""

import random
from collections import Counter
from collections.abc import Mapping

import mipcert.certifier as certifier_module
from mipcert.certifier import (
    Certifier,
    CertWriter,
    emit_lex_constraint,
    emit_order_tree,
    emit_sst_cuts,
    is_formulation_symmetry,
    row_key,
    solve_and_certify,
    swap_classes,
)
from mipcert.certfile import parse_text, verify_text
from mipcert.exact import GE, LE, Inequality, LinExpr, Rat, falsity
from mipcert.model import Implication, Linear, Problem
from mipcert.oracle import brute_force_optimum
from mipcert.rules import (
    DeleteStep,
    EpsStep,
    ImplicStep,
    StrengthenStep,
    Subproof,
    Verdict,
)
from mipcert.trees import AffineMap, signed_form

from appendix import finish, ineq
from helpers import boxed_problem, random_problem, set_packing_problem


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
    full-row test per pair, interleaved with the emission of the pair's
    DOM step, which states x_k >= x_j and rounds its gap to the initial eps."""
    writer = CertWriter(problem)
    certifier = Certifier(writer)
    emit_order_tree(writer, list(range(1, problem.n + 1)))
    for k, j in pairwise_pairs(problem):
        w = AffineMap.permutation({k: j, j: k})
        cut = Inequality(LinExpr({k: 1, j: -1}), GE, 0)
        gap = Subproof([("lin", [(("neg", 1), 1)]), ("round",)],
                       Inequality(signed_form(w, k), GE, 1))
        cid = writer.fresh()
        writer.add(StrengthenStep(cid, Linear(cut), w, {}, {k: {"gap": gap}},
                                  dominance=True))
        certifier.register_row(cid, cut)
    certifier.run()
    return writer.text()


def step_counts(text):
    """The leaves (IMPLIC steps that derive falsity), IMPLIC steps and DOM
    steps of a certificate."""
    _, steps = parse_text(text)
    implics = [s for s in steps if isinstance(s, ImplicStep)]
    return {"leaves": sum(s.sub.target == falsity() for s in implics),
            "IMPLIC": len(implics),
            "DOM": sum(isinstance(s, StrengthenStep) and s.dominance for s in steps)}


def test_the_one_rung_ladder_of_each_adjacent_swap_is_the_sst_step():
    # set packing's one class holds consecutive indices, so its chain is the
    # adjacent swaps; the ladder over [k] of the swap (k, k+1) writes the
    # chain's DOM step for that pair, and so the same certificate
    for n, size in ((6, 1576), (12, 3964)):
        problem = set_packing_problem(n)
        _, sst_text, _ = solve_and_certify(problem, sst=True)
        writer = CertWriter(problem)
        emit_order_tree(writer, list(range(1, n + 1)))
        ladders = [emit_lex_constraint(writer, [k], {k: k + 1, k + 1: k}) for k in range(1, n)]
        sst_writer = CertWriter(problem)
        assert emit_sst_cuts(sst_writer) == ladders
        assert sst_writer.lines == writer.lines
        verdict, text = finish(writer, ladders)
        assert text == sst_text and len(sst_text) == size
        assert verify_text(text).verdict == verdict == Verdict("optimal", Rat(-1))
        assert step_counts(sst_text)["DOM"] == n - 1


def test_sst_writes_the_plain_certificate_without_a_symmetric_swap():
    # no chain link, so no comparison tree and no cut: byte for byte plain
    problems = [random_problem(random.Random(0)),
                boxed_problem(3, [ineq({1: 1, 2: 2, 3: 3}, LE, 4)], {1: -1, 2: -1, 3: -1})]
    for problem in problems:
        assert swap_classes(problem) == list(range(problem.n + 1))
        _, plain, _ = solve_and_certify(problem)
        _, text, stats = solve_and_certify(problem, sst=True)
        assert text == plain and stats["cuts"] == 0


def test_each_sst_cut_is_one_dom_step():
    # no eps step, and no DOM row is deleted: each is the cut itself, one
    # for each member of the class but the last
    _, steps = parse_text(solve_and_certify(set_packing_problem(6), sst=True)[1])
    dom_ids = {s.new_id for s in steps if isinstance(s, StrengthenStep) and s.dominance}
    deleted = {i for s in steps if isinstance(s, DeleteStep) for i in s.ids}
    assert len(dom_ids) == 5 and not dom_ids & deleted
    assert not any(isinstance(s, EpsStep) for s in steps)


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
            pairwise = pairwise_sst_text(problem)
            chain_report, pairwise_report = verify_text(text), verify_text(pairwise)
            assert chain_report.status == pairwise_report.status == "verified"
            assert chain_report.verdict == pairwise_report.verdict, (trial, broken)
            assert (step_counts(text)["leaves"]
                    == step_counts(pairwise)["leaves"]), (trial, broken)
    # both outcomes occur, and every kind of break was drawn
    assert seen[True, None] and seen[False, "objective"] + seen[False, "row"]
    assert {broken for _, broken in seen} == {None, "objective", "integral", "row"}


def test_the_chain_writes_fewer_cuts_and_no_more_leaves_than_the_pairwise_loop():
    # per class of m members the chain writes m - 1 DOM steps where the
    # pairwise loop wrote m(m - 1)/2, here over classes of non-consecutive
    # indices too; the search closes with no more leaves or IMPLIC steps,
    # and both certificates prove the oracle's verdict
    rng = random.Random(27)
    seen = Counter()
    for trial in range(300):
        problem, broken = partly_symmetric_problem(rng)
        if broken == "integral":  # the certifier refuses it
            continue
        classes = {}
        for j, leader in enumerate(swap_classes(problem)[1:], start=1):
            classes.setdefault(leader, []).append(j)
        oracle = Verdict(*brute_force_optimum(problem)[:2])
        chain = solve_and_certify(problem, sst=True)[1]
        pairwise = pairwise_sst_text(problem)
        for text in (chain, pairwise):
            report = verify_text(text)
            assert report.status == "verified", (trial, report.message)
            assert report.verdict == oracle, trial
        got, ref = step_counts(chain), step_counts(pairwise)
        assert got["leaves"] <= ref["leaves"] and got["IMPLIC"] <= ref["IMPLIC"], trial
        assert got["DOM"] == sum(len(c) - 1 for c in classes.values()), trial
        seen["fewer DOM"] += got["DOM"] < ref["DOM"]
        seen["gapped class"] += any(c[-1] - c[0] >= len(c) for c in classes.values())
    assert seen["fewer DOM"] and seen["gapped class"]


def test_one_symmetry_test_per_class_and_variable(monkeypatch):
    calls = []
    original = certifier_module.is_formulation_symmetry

    def counted(problem, perm, readers=None):
        calls.append(perm)
        return original(problem, perm, readers)

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


class CountedRows(Mapping):
    """A constraint map that counts the rows it hands out."""

    def __init__(self, rows):
        self.rows, self.handed = rows, 0

    def __getitem__(self, cid):
        self.handed += 1
        return self.rows[cid]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def test_each_swap_test_reads_only_the_rows_it_moves(monkeypatch):
    # the swap of x_k and x_j moves the rows that read either: 2n - 3 pair
    # rows and four bound rows, not all n(n-1)/2 + 2n; the one full pass is
    # the variable->rows index, built once per problem
    original = certifier_module.is_formulation_symmetry
    for n in (6, 24):
        problem = set_packing_problem(n)
        rows = problem.constraints = CountedRows(problem.constraints)
        reads = []

        def counted(*args, rows=rows, reads=reads):
            before = rows.handed
            result = original(*args)
            reads.append(rows.handed - before)
            return result

        monkeypatch.setattr(certifier_module, "is_formulation_symmetry", counted)
        assert swap_classes(problem) == [0] + [1] * n
        assert reads == [2 * n + 1] * (n - 1)
        assert rows.handed == len(rows) + sum(reads)


def _swapped_row(c, k, j):
    if isinstance(c, Linear):
        return Linear(_swapped(c.ineq, k, j))
    return Implication([_swapped(a, k, j) for a in c.assumptions],
                       _swapped(c.consequent, k, j))


def enriched(problem, rng):
    """Add to `problem` a Linear and an Implication row with fractional
    coefficients and right-hand sides, some strict, closed under its
    symmetric swaps; then state one of the added rows, or all of them, a
    second time.  Returns which."""
    def draw():
        support = rng.sample(range(1, problem.n + 1), rng.randint(1, 2))
        terms = {v: Rat(rng.choice([1, -2, 3]), rng.choice([1, 2, 3])) for v in support}
        return Inequality(LinExpr(terms), rng.choice([LE, GE]),
                          Rat(rng.randint(-2, 4), rng.choice([1, 2])), rng.random() < 0.3)

    swaps = pairwise_pairs(problem)
    extra, pending = [], [Linear(draw()), Implication([draw()], draw())]
    while pending:
        c = pending.pop()
        if c not in extra:
            extra.append(c)
            pending.extend(_swapped_row(c, k, j) for k, j in swaps)
    twice = rng.choice(["one", "all"])
    extra += [rng.choice(extra)] if twice == "one" else list(extra)
    for c in extra:
        problem.constraints[max(problem.constraints) + 1] = c
    return twice


def test_moved_rows_test_matches_the_full_row_test():
    rng = random.Random(61)
    seen = Counter()
    for _ in range(150):
        problem, _ = partly_symmetric_problem(rng)
        twice = enriched(problem, rng)
        if rng.random() < 0.4:
            # let maps that are not bijections reach the row comparison
            problem.integral = set()
            problem.objective = LinExpr()
        kind, perm = _random_map(rng, problem.n)
        got = is_formulation_symmetry(problem, perm)
        assert got == full_row_symmetry(problem, perm), perm
        seen[kind, got] += 1
        seen[twice, got] += 1
        # rows and their images share a key exactly when they are equal
        w = AffineMap.permutation(perm)
        rows = list(problem.constraints.values())
        pool = rows + [w.apply_constraint(c) for c in rows]
        keyed = [(row_key(c), c) for c in pool]
        for key, a in keyed:
            for other, b in keyed:
                assert (key == other) == (a == b), (a, b)
        seen["implication", got] += any(isinstance(c, Implication) and w.moves(c)
                                        for c in rows)
    assert seen["2-cycle", True] and seen["2-cycle", False]
    assert seen["3-cycle", True] and seen["3-cycle", False]
    assert seen["map", False]
    assert seen["implication", True] and seen["implication", False]
    assert seen["one", True] and seen["one", False] and seen["all", True]


def test_a_map_that_is_not_a_bijection_can_leave_the_rows_alone():
    # x2 := x1 moves no row that reads only x1, so both tests pass it; a row
    # on x2 maps onto x1's row, which is then counted twice, and both fail it
    row = Linear(Inequality(LinExpr({1: Rat(1)}), LE, Rat(1)))
    problem = Problem(2, set(), LinExpr(), {1: row})
    assert is_formulation_symmetry(problem, {1: 2}) and full_row_symmetry(problem, {1: 2})
    problem.constraints[2] = Linear(Inequality(LinExpr({2: Rat(1)}), LE, Rat(1)))
    assert not is_formulation_symmetry(problem, {1: 2})
    assert not full_row_symmetry(problem, {1: 2})
