"""Problem statement, constraint kinds, and configuration plumbing."""

import random

import pytest

from mipcert.errors import IdNotIncreasing, MalformedProblem, NotNegatable
from mipcert.exact import EQ, GE, LE, Inequality, LinExpr, Rat
from mipcert.model import (
    Implication,
    IntegralMarker,
    Linear,
    Problem,
    evaluate,
    initial_configuration,
    negate,
    point,
)
from mipcert.trees import check_tree_consistency

from helpers import knapsack_problem


def ineq(terms, rel, rhs, strict=False):
    return Inequality(LinExpr({j: Rat(c) for j, c in terms.items()}), rel, Rat(rhs), strict)


def test_initial_configuration_knapsack():
    cfg = initial_configuration(knapsack_problem())
    # one row, four bound rows, two integrality markers
    assert len(cfg.core) == 7
    assert sum(isinstance(c, IntegralMarker) for c in cfg.core.values()) == 2
    assert cfg.z is None
    assert cfg.eps == 1
    assert cfg.derived == {}
    assert cfg.dim == 2
    assert check_tree_consistency(cfg.tree, cfg.core, cfg.dim, {},
                                  cfg.integral_vars()) == []


def test_initial_configuration_empty_core():
    cfg = initial_configuration(Problem(2, set(), LinExpr({1: Rat(1)}), {}))
    assert cfg.core == {}
    assert cfg.z is None


def test_initial_configuration_bad_objective():
    with pytest.raises(MalformedProblem):
        initial_configuration(Problem(2, set(), LinExpr({3: Rat(1)}), {}))


def _problem_reading(j, where):
    """A 2-variable problem whose `where` reads x_j, and is fine otherwise."""
    row = ineq({j: 1}, GE, 0)
    ok = ineq({1: 1}, GE, 0)
    objective = LinExpr({j: Rat(1)} if where == "objective" else {1: Rat(1)})
    cons = {1: Linear(row if where == "row" else ok)}
    if where == "assumption":
        cons[2] = Implication([ok, row], ok)
    elif where == "consequent":
        cons[2] = Implication([ok], row)
    return Problem(2, set(), objective, cons)


@pytest.mark.parametrize("where, what", [
    ("objective", "objective"), ("row", "constraint 1"),
    ("assumption", "constraint 2"), ("consequent", "constraint 2")])
@pytest.mark.parametrize("j", [0, -1, 3])
def test_problem_rows_read_only_x1_to_xn(j, where, what):
    # x_0 and x_-1 would index another variable's slot in a box or a bound list
    with pytest.raises(MalformedProblem) as info:
        initial_configuration(_problem_reading(j, where))
    assert str(info.value) == f"{what} references x{j} outside [1, 2]"
    _problem_reading(2, where).validate()


def test_negate_linear():
    out = negate(Linear(ineq({1: 1, 2: 1}, LE, 1)))
    assert out == [ineq({1: 1, 2: 1}, GE, 1, strict=True)]
    back = negate(Linear(out[0]))
    assert back == [ineq({1: 1, 2: 1}, LE, 1)]


def test_negate_implication():
    imp = Implication([ineq({1: 1}, GE, 1)], ineq({2: 1}, LE, 0))
    out = negate(imp)
    assert out == [ineq({1: 1}, GE, 1), ineq({2: 1}, GE, 0, strict=True)]


def test_negate_rejects_markers_and_equalities():
    with pytest.raises(NotNegatable):
        negate(IntegralMarker(1))
    with pytest.raises(NotNegatable):
        negate(Linear(ineq({1: 1}, EQ, 1)))


def test_evaluate_examples():
    assert evaluate(point([1, 0]), Linear(ineq({1: 2, 2: 2}, LE, 3)))
    assert not evaluate(point([Rat(1, 2), 0]), IntegralMarker(1))
    imp = Implication([ineq({1: 1}, GE, 1)], ineq({2: 1}, LE, 0))
    assert evaluate(point([0, 5]), imp)        # assumption fails, vacuous
    assert not evaluate(point([1, 5]), imp)
    assert evaluate(point([1, 0]), imp)


def test_negate_complements_evaluation():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randint(1, 3)
        terms = {j: Rat(rng.randint(-3, 3)) for j in range(1, n + 1)}
        iq = Inequality(LinExpr(terms), rng.choice([LE, GE]),
                        Rat(rng.randint(-4, 4)), rng.random() < 0.4)
        c = Linear(iq)
        pt = point([Rat(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])
        holds = evaluate(pt, c)
        negated_holds = all(p.holds_at(pt) for p in negate(c))
        assert holds != negated_holds


def test_id_discipline():
    cfg = initial_configuration(knapsack_problem())
    top = cfg.max_id
    row = Linear(ineq({1: 1}, LE, 1))
    cfg.add(top + 1, row)
    with pytest.raises(IdNotIncreasing):
        cfg.add(top + 1, row)
    cfg.remove(top + 1)
    with pytest.raises(IdNotIncreasing):
        cfg.add(top + 1, row)  # ids never return, even after deletion
    cfg.add(top + 2, row)


def test_inequality_hash_is_cached_and_structural():
    rng = random.Random(17)
    for _ in range(50):
        terms = {j: Rat(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(1, 5)}
        rel = rng.choice([LE, GE, EQ])
        rhs = Rat(rng.randint(-9, 9), rng.randint(1, 4))
        # built separately, from copies, with the terms in another order
        a = ineq(terms, rel, rhs)
        b = ineq(dict(reversed(list(terms.items()))), rel, rhs)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash((a.lhs, a.rel, a.rhs, a.strict))
        assert hash(a) == hash(a) == a._hash   # the second call reads the cache
        # a Linear's hash is its Inequality's
        assert hash(Linear(a)) == hash(Linear(b)) == hash(a)
    c = ineq({1: 1}, LE, 1)
    assert c._hash is None
    assert {Linear(c): 1}[Linear(ineq({1: 1}, LE, 1))] == 1
    assert c._hash == hash((LinExpr({1: 1}), LE, 1, False))


def test_constructor_and_problem_guards():
    with pytest.raises(ValueError, match="empty assumption list"):
        Implication([], ineq({1: 1}, LE, 1))
    p = knapsack_problem()
    p.constraints[99] = IntegralMarker(1)
    with pytest.raises(MalformedProblem, match="integrality belongs in `integral`"):
        p.validate()


def test_constraint_reprs_and_marker_equality():
    row = ineq({1: 1, 2: -2}, LE, 3)
    assert repr(Linear(row)) == "Linear(1*x1 + -2*x2 <= 3)"
    assert repr(IntegralMarker(4)) == "IntegralMarker(x4)"
    implication = Implication([ineq({1: 1}, GE, 1)], ineq({2: 1}, LE, 0, strict=True))
    assert repr(implication) == "Implication([1*x1 >= 1] ~> 1*x2 < 0)"
    assert IntegralMarker(1) == IntegralMarker(1)
    assert (IntegralMarker(1) == Linear(ineq({1: 1}, LE, 1))) is False
