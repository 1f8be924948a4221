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
    cfg.alloc(top + 1)
    cfg.derived[top + 1] = Linear(ineq({1: 1}, LE, 1))
    with pytest.raises(IdNotIncreasing):
        cfg.alloc(top + 1)
    del cfg.derived[top + 1]
    with pytest.raises(IdNotIncreasing):
        cfg.alloc(top + 1)  # ids never return, even after deletion
    cfg.alloc(top + 2)
