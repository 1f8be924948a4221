"""Exact arithmetic layer: combination, rounding, domination."""

import random

import pytest

from mipcert.errors import (
    DimensionMismatch,
    NegativeMultiplierOnInequality,
    NonIntegralCoefficient,
    NonIntegralVariable,
    NotRoundable,
)
from mipcert.exact import (
    EQ,
    GE,
    LE,
    Inequality,
    LinExpr,
    Rat,
    ceil_int,
    dominates,
    falsity,
    floor_int,
    linear_combine,
    round_integral,
)


def ineq(terms, rel, rhs, strict=False):
    return Inequality(LinExpr({j: Rat(c) for j, c in terms.items()}), rel, Rat(rhs), strict)


def test_scaling():
    out = linear_combine([(ineq({1: 2, 2: 2}, LE, 3), Rat(1, 2))])
    assert out == ineq({1: 1, 2: 1}, LE, Rat(3, 2))


def test_cancellation():
    out = linear_combine([(ineq({1: 1}, LE, 1), Rat(1)),
                          (ineq({1: -1}, LE, 0), Rat(1))])
    assert out == ineq({}, LE, 1)


def test_reduced_cost_style_combination():
    # strict objective premise plus a row multiplier cancels a column and
    # stays strict: hand-checked on min -2x1 - x2 over 2x1 + 2x2 <= 3
    obj = ineq({1: -2, 2: -1}, LE, -2, strict=True)
    row = ineq({1: 2, 2: 2}, LE, 3)
    out = linear_combine([(obj, Rat(1)), (row, Rat(1))])
    assert out == ineq({2: 1}, LE, 1, strict=True)
    assert out.strict


def test_combine_negative_multiplier_rejected():
    with pytest.raises(NegativeMultiplierOnInequality):
        linear_combine([(ineq({1: 1}, LE, 1), Rat(-1))])


def test_combine_equality_takes_any_sign():
    eq = ineq({1: 1, 2: 1}, EQ, 1)
    out = linear_combine([(eq, Rat(-2))])
    assert out == ineq({1: -2, 2: -2}, EQ, -2)


def test_combine_mixed_relation_is_le():
    out = linear_combine([(ineq({1: 1}, EQ, 1), Rat(1)),
                          (ineq({2: 1}, LE, 1), Rat(1))])
    assert out.rel == LE


def test_combine_dimension_check():
    with pytest.raises(DimensionMismatch):
        linear_combine([(ineq({3: 1}, LE, 1), Rat(1))], dim=2)


def test_round_floor():
    out = round_integral(ineq({1: 1, 2: 1}, LE, Rat(3, 2)), {1, 2})
    assert out == ineq({1: 1, 2: 1}, LE, 1)


def test_round_strict_to_weak():
    out = round_integral(ineq({1: 1, 2: 1}, GE, 1, strict=True), {1, 2})
    assert out == ineq({1: 1, 2: 1}, GE, 2)


def test_round_strict_integer_rhs():
    out = round_integral(ineq({1: 2}, LE, 4, strict=True), {1})
    assert out == ineq({1: 2}, LE, 3)


def test_round_rejects_fractional_coefficient():
    with pytest.raises(NonIntegralCoefficient):
        round_integral(ineq({1: Rat(1, 2)}, LE, 1), {1})


def test_round_rejects_continuous_variable():
    with pytest.raises(NonIntegralVariable):
        round_integral(ineq({1: 1}, LE, Rat(1, 2)), {2})


def test_round_rejects_equality():
    with pytest.raises(NotRoundable):
        round_integral(ineq({1: 1}, EQ, 1), {1})


def test_dominates_scaled():
    assert dominates(ineq({1: 1}, LE, 1), ineq({1: 2}, LE, 3))


def test_falsity_dominates_everything():
    assert dominates(falsity(), ineq({1: 5, 2: -7}, GE, 100))
    assert dominates(ineq({}, LE, 0, strict=True), ineq({1: 1}, LE, -50))


def test_dominates_weaker_rhs_rejected():
    assert not dominates(ineq({1: 1}, LE, 2), ineq({1: 1}, LE, 1))


def test_dominates_strictness():
    weak, strict = ineq({1: 1}, LE, 1), ineq({1: 1}, LE, 1, strict=True)
    assert dominates(strict, weak)
    assert not dominates(weak, strict)
    assert dominates(ineq({1: 1}, LE, 0), strict)


def test_dominates_equality_sides():
    eq = ineq({1: 1, 2: 2}, EQ, 3)
    assert dominates(eq, ineq({1: 1, 2: 2}, LE, 3))
    assert dominates(eq, ineq({1: -1, 2: -2}, LE, -3))
    assert dominates(eq, ineq({1: 2, 2: 4}, EQ, 6))
    assert not dominates(ineq({1: 1, 2: 2}, LE, 3), eq)


def _random_ineq(rng, n, allow_eq=True):
    terms = {j: Rat(rng.randint(-4, 4)) for j in rng.sample(range(1, n + 1), rng.randint(1, n))}
    rel = rng.choice([LE, GE, EQ] if allow_eq else [LE, GE])
    strict = rel != EQ and rng.random() < 0.3
    return Inequality(LinExpr(terms), rel, Rat(rng.randint(-6, 6)), strict)


def _holds(iq, pt):
    return iq.holds_at(pt)


class _Pt:
    def __init__(self, vals):
        self.vals = vals

    def __getitem__(self, j):
        return self.vals[j - 1]


def test_linear_combine_soundness_randomized():
    # points satisfying every premise satisfy the combination
    rng = random.Random(7)
    checked = 0
    for _ in range(10_000):
        n = rng.randint(1, 4)
        premises = []
        for _ in range(rng.randint(1, 3)):
            iq = _random_ineq(rng, n)
            mult = Rat(rng.randint(0, 3)) if iq.rel != EQ else Rat(rng.randint(-3, 3))
            premises.append((iq, mult))
        pt = _Pt([Rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
        if not all(_holds(iq, pt) for iq, _ in premises):
            continue
        out = linear_combine(premises)
        assert _holds(out, pt)
        checked += 1
    assert checked > 1000


def test_round_integral_soundness_randomized():
    rng = random.Random(8)
    checked = 0
    for _ in range(5000):
        n = rng.randint(1, 4)
        terms = {j: Rat(rng.randint(-4, 4)) for j in range(1, n + 1)}
        iq = Inequality(LinExpr(terms), rng.choice([LE, GE]),
                        Rat(rng.randint(-8, 8), rng.randint(1, 3)),
                        rng.random() < 0.4)
        # the rounding primitives against integer enumeration, on both sides
        q = iq.rhs
        for strict in (False, True):
            assert floor_int(q, strict) == max(
                k for k in range(-10, 11) if (k < q if strict else k <= q))
            assert ceil_int(q, strict) == min(
                k for k in range(-10, 11) if (k > q if strict else k >= q))
        pt = _Pt([Rat(rng.randint(-3, 3)) for _ in range(n)])
        if not _holds(iq, pt):
            continue
        out = round_integral(iq, set(range(1, n + 1)))
        assert _holds(out, pt)
        checked += 1
    assert checked > 500


def test_dominates_soundness_randomized():
    rng = random.Random(9)
    checked = 0
    for _ in range(10_000):
        n = rng.randint(1, 3)
        d = _random_ineq(rng, n)
        t = _random_ineq(rng, n)
        if not dominates(d, t):
            continue
        for _ in range(5):
            pt = _Pt([Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])
            if _holds(d, pt):
                assert _holds(t, pt)
        checked += 1
    assert checked > 100


def test_rat_arithmetic_exact_on_wide_values():
    rng = random.Random(10)
    for _ in range(200):
        a = Rat(rng.getrandbits(256), rng.getrandbits(64) + 1)
        b = Rat(rng.getrandbits(256), rng.getrandbits(64) + 1)
        assert (a + b) - b == a
        assert (a * b) / b == a or b == 0
