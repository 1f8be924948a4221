"""Brute-force oracle."""

import itertools
import random
import time

import pytest

from mipcert.certfile import verify_stream
from mipcert.errors import MalformedProblem, NonIntegralProblem, TooLarge
from mipcert.exact import EQ, GE, LE, Inequality, LinExpr, Rat
from mipcert.model import Implication, Linear, Problem, evaluate, point
from mipcert.oracle import brute_force_optimum

from helpers import boxed_problem, knapsack_problem, random_problem


def test_knapsack_optimum():
    result = brute_force_optimum(knapsack_problem())
    assert result == ("optimal", Rat(-1), (Rat(1), Rat(0)))


def test_infeasible_pair():
    rows = [Inequality(LinExpr({1: Rat(1)}), GE, Rat(1)),
            Inequality(LinExpr({1: Rat(1)}), LE, Rat(0))]
    p = boxed_problem(1, rows, {1: 1})
    assert brute_force_optimum(p) == ("infeasible",)


def test_eight_binaries_fast():
    p = boxed_problem(8, [Inequality(LinExpr({j: Rat(1) for j in range(1, 9)}),
                                     LE, Rat(3))],
                      {j: -1 for j in range(1, 9)})
    t0 = time.perf_counter()
    result = brute_force_optimum(p)
    elapsed = time.perf_counter() - t0
    assert result[0] == "optimal" and result[1] == Rat(-3)
    assert elapsed < 0.1


def test_requires_integrality():
    p = Problem(1, set(), LinExpr({1: Rat(1)}),
                {1: Linear(Inequality(LinExpr({1: Rat(1)}), LE, Rat(1)))})
    with pytest.raises(NonIntegralProblem):
        brute_force_optimum(p)


def test_unbounded_lattice_rejected():
    p = Problem(1, {1}, LinExpr({1: Rat(1)}),
                {1: Linear(Inequality(LinExpr({1: Rat(1)}), LE, Rat(1)))})
    with pytest.raises(TooLarge):
        brute_force_optimum(p)


def test_too_many_points_rejected():
    p = boxed_problem(8, [], {j: 1 for j in range(1, 9)}, lo=0, hi=30)
    with pytest.raises(TooLarge):
        brute_force_optimum(p)


@pytest.mark.parametrize("objective, row, message", [
    ({2: 1}, {1: 1}, "objective references x2 outside [1, 1]"),
    ({1: 1}, {2: 1}, "constraint 1 references x2 outside [1, 1]"),
    # x0 would land in x1's slot of the bound lists: ('infeasible',)
    ({1: 1}, {0: 1}, "constraint 1 references x0 outside [1, 1]"),
])
def test_malformed_problem_is_refused(objective, row, message):
    p = boxed_problem(1, [Inequality(LinExpr(row), GE, Rat(5))], objective)
    with pytest.raises(MalformedProblem) as info:
        brute_force_optimum(p)
    assert str(info.value) == message
    report = verify_stream(p, iter([]))
    assert (report.status, report.message) == ("error", f"malformed problem: {message}")


def test_negative_dimension_is_refused():
    # the parser refuses `VAR -1`, so only a library Problem gets this far
    p = Problem(-1, set(), LinExpr(), {})
    with pytest.raises(MalformedProblem, match="^negative dimension$"):
        brute_force_optimum(p)
    report = verify_stream(p, iter([]))
    assert (report.status, report.message) == ("error", "malformed problem: negative dimension")


def test_implication_constraints_respected():
    imp = Implication([Inequality(LinExpr({1: Rat(1)}), GE, Rat(1))],
                      Inequality(LinExpr({2: Rat(1)}), GE, Rat(1)))
    p = boxed_problem(2, [], {1: -1, 2: 1})
    extra = max(p.constraints) + 1
    p.constraints[extra] = imp
    result = brute_force_optimum(p)
    # taking x1 = 1 forces x2 = 1, a wash; staying at zero is also 0
    assert result[0] == "optimal" and result[1] == Rat(0)


def test_value_invariant_under_variable_permutation():
    rng = random.Random(31)
    for _ in range(25):
        p = random_problem(rng, max_n=5)
        base = brute_force_optimum(p)
        perm = list(range(1, p.n + 1))
        rng.shuffle(perm)
        mapping = {j: perm[j - 1] for j in range(1, p.n + 1)}

        def remap_expr(e):
            return LinExpr({mapping[j]: c for j, c in e.terms.items()}, e.const)

        cons = {}
        for cid, c in p.constraints.items():
            iq = c.ineq
            cons[cid] = Linear(Inequality(remap_expr(iq.lhs), iq.rel, iq.rhs, iq.strict))
        q = Problem(p.n, set(range(1, p.n + 1)), remap_expr(p.objective), cons)
        other = brute_force_optimum(q)
        assert base[0] == other[0]
        if base[0] == "optimal":
            assert base[1] == other[1]


def _reference_optimum(problem, lo, hi):
    """Every point of the box [lo, hi] in `itertools.product` order (the last
    variable fastest); the first point with the least objective wins."""
    best = None
    for x in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        pt = point(x)
        if all(evaluate(pt, c) for c in problem.constraints.values()):
            value = problem.objective.evaluate(pt)
            if best is None or value < best[0]:
                best = (value, x)
    return ("infeasible",) if best is None else ("optimal", *best)


def _number(rng, bound, fractional):
    if fractional and rng.random() < 0.5:
        return Rat(rng.randint(-3 * bound, 3 * bound), rng.randint(2, 5))
    return rng.randint(-bound, bound)


def _row(rng, n, bound, fractional):
    terms = {j: _number(rng, bound, fractional)
             for j in range(1, n + 1) if rng.random() < 0.75}
    rel = rng.choice([LE, LE, GE, EQ])
    strict = rel != EQ and rng.random() < 0.3
    return Inequality(LinExpr(terms), rel, _number(rng, 4 * bound, fractional), strict)


def _differential_case(rng, kind):
    """A seeded bounded problem of one kind, and its box."""
    n = rng.randint(1, 4)
    lo = [rng.randint(-2, 1) for _ in range(n)]
    hi = [l + rng.randint(0, 3) for l in lo]
    bound = 10 ** 18 if kind == "wide" else 4
    fractional = kind == "fractional"
    rows = [_row(rng, n, bound, fractional) for _ in range(rng.randint(0, 3))]
    if kind == "infeasible":
        # an even activity pinned to an odd value
        even = LinExpr({j: 2 * rng.randint(1, 3) for j in range(1, n + 1)})
        odd = 2 * rng.randint(-4, 4) + 1
        rows += [Inequality(even, LE, odd), Inequality(even, GE, odd)]
    cons = {}
    for iq in rows:
        cons[len(cons) + 1] = Linear(iq)
    for j in range(1, n + 1):
        cons[len(cons) + 1] = Linear(Inequality(LinExpr({j: 1}), LE, hi[j - 1]))
        cons[len(cons) + 1] = Linear(Inequality(LinExpr({j: 1}), GE, lo[j - 1]))
    if kind == "implication":
        for _ in range(rng.randint(1, 2)):
            cons[len(cons) + 1] = Implication([_row(rng, n, 3, True)], _row(rng, n, 3, True))
    objective = LinExpr({j: _number(rng, bound, fractional) for j in range(1, n + 1)},
                        _number(rng, 5, True))
    return Problem(n, set(range(1, n + 1)), objective, cons), lo, hi


def test_search_matches_an_exhaustive_reference():
    """The pruned search against plain enumeration, value and argmin, on
    fractional, strict, implication-bearing, 10^18-coefficient and
    infeasible instances with fractional objective constants."""
    rng = random.Random(2024)
    kinds = ("integral", "fractional", "implication", "wide", "infeasible")
    outcomes = []
    for _ in range(120):
        for kind in kinds:
            problem, lo, hi = _differential_case(rng, kind)
            expected = _reference_optimum(problem, lo, hi)
            result = brute_force_optimum(problem)
            assert result == expected, (kind, problem.objective, problem.constraints)
            assert [type(v) for v in result[1:2]] == [type(v) for v in expected[1:2]]
            outcomes.append(result[0])
    assert 0.2 < outcomes.count("optimal") / len(outcomes) < 0.8


def test_deep_search_and_the_empty_problem():
    """About 5,000 levels, all but three fixed by their bounds, run without
    recursion; the 0-variable problem has the empty point."""
    n = 5000
    free = (1, 2500, n)
    rows = [Inequality(LinExpr({j: 1 for j in free}), LE, 2)]
    rows += [Inequality(LinExpr({j: 1}), GE, 1) for j in range(1, n + 1) if j not in free]
    objective = {j: 1 for j in range(1, n + 1)}
    objective.update({1: -1, 2500: -2, n: -3})
    status, value, argmin = brute_force_optimum(boxed_problem(n, rows, objective))
    assert (status, value) == ("optimal", (n - 3) - 5)
    assert argmin == tuple(0 if j == 1 else 1 for j in range(1, n + 1))

    assert brute_force_optimum(Problem(0, set(), LinExpr({}, Rat(5, 2)), {})) == \
        ("optimal", Rat(5, 2), ())
    falsity = Linear(Inequality(LinExpr(), LE, -1))
    assert brute_force_optimum(Problem(0, set(), LinExpr(), {1: falsity})) == ("infeasible",)
