"""Exact arithmetic layer: combination, rounding, domination."""

import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mipcert.errors import (
    NegativeMultiplierOnInequality,
    NonIntegralCoefficient,
    NonIntegralVariable,
    NotRoundable,
)
from mipcert.exact import (
    EQ,
    GE,
    LE,
    RELATIONS,
    Inequality,
    LinExpr,
    Rat,
    add_terms,
    ceil_int,
    dominates,
    falsity,
    floor_int,
    fmt,
    linear_combine,
    rat,
    renamed,
    round_integral,
)

from helpers import assert_normal


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


def test_a_sum_whose_terms_cancel_keeps_no_table():
    # a dict keeps the table it grew to when its keys are popped, so a line
    # of 71 premises whose terms all cancel would hold 70 slots for none
    n = 70
    premises = [(ineq({j: 1 for j in range(1, n + 1)}, LE, n), 1)]
    premises += [(ineq({j: 1}, GE, 0), 1) for j in range(1, n + 1)]
    out = linear_combine(premises)
    assert out == ineq({}, LE, n)
    assert sys.getsizeof(out.lhs.terms) == sys.getsizeof({})


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


def test_rat_is_int_where_integral():
    assert type(rat(Fraction(4, 2))) is int and rat(Fraction(4, 2)) == 2
    assert type(rat(Fraction(1, 2))) is Fraction and rat(Fraction(1, 2)) == Fraction(1, 2)
    assert type(rat(-7)) is int
    # the certificate's text is read by certfile alone
    with pytest.raises(TypeError, match="str '1/2' is not an exact value"):
        rat("1/2")


def test_floats_are_refused():
    iq = ineq({1: 1}, LE, 1)
    with pytest.raises(TypeError):
        LinExpr({1: 0.5})
    with pytest.raises(TypeError):
        Inequality(LinExpr({1: 1}), LE, 0.5)
    with pytest.raises(TypeError):
        linear_combine([(iq, 0.5)])


# The oracle: the Fraction-only kernel the int-where-integral one replaced,
# on plain (terms, rel, rhs, strict) forms whose values are all Fractions.

def _oracle_form(terms, rel, rhs, strict):
    return ({j: Fraction(c) for j, c in terms.items() if c}, rel, Fraction(rhs),
            strict and rel != EQ)


def _oracle_le_halves(form):
    terms, rel, rhs, strict = form
    neg = {j: -c for j, c in terms.items()}
    if rel == EQ:
        return [(terms, rhs, False), (neg, -rhs, False)]
    return [(terms, rhs, strict) if rel == LE else (neg, -rhs, strict)]


def _oracle_add(acc, terms, mult):
    for j, c in terms.items():
        v = acc.get(j, Fraction(0)) + c * mult
        if v:
            acc[j] = v
        else:
            acc.pop(j, None)


def _oracle_combine(premises):
    acc = {}
    rhs = Fraction(0)
    strict = False
    all_eq = True
    for form, mult in premises:
        mult = Fraction(mult)
        if form[1] == EQ:
            _oracle_add(acc, form[0], mult)
            rhs += form[2] * mult
            continue
        all_eq = False
        if mult < 0:
            raise NegativeMultiplierOnInequality("negative multiplier")
        if mult == 0:
            continue
        (terms, b, st_), = _oracle_le_halves(form)
        _oracle_add(acc, terms, mult)
        rhs += b * mult
        strict = strict or st_
    rel = EQ if all_eq else LE
    return acc, rel, rhs, strict if rel == LE else False


def _oracle_round(form, integral_vars):
    terms, rel, rhs, strict = form
    if rel == EQ:
        raise NotRoundable("equality")
    for j, c in terms.items():
        if j not in integral_vars:
            raise NonIntegralVariable(f"x{j}")
        if c.denominator != 1:
            raise NonIntegralCoefficient(f"x{j}")
    if rel == LE:
        new_rhs = math.ceil(rhs) - 1 if strict else math.floor(rhs)
    else:
        new_rhs = math.floor(rhs) + 1 if strict else math.ceil(rhs)
    return terms, rel, Fraction(new_rhs), False


def _oracle_scale(derived_terms, target_terms):
    if len(derived_terms) != len(target_terms):
        return None
    if not target_terms:
        return Fraction(1)
    j, tc = next(iter(target_terms.items()))
    if j not in derived_terms:
        return None
    s = tc / derived_terms[j]
    if s <= 0 or any(target_terms.get(k) != dc * s for k, dc in derived_terms.items()):
        return None
    return s


def _oracle_dominates(derived, target):
    d_terms, d_rel, d_rhs, _ = derived
    if not d_terms and (d_rhs != 0 if d_rel == EQ else any(
            b < 0 or (st_ and b <= 0) for _, b, st_ in _oracle_le_halves(derived))):
        return True
    if target[1] == EQ:
        if d_rel != EQ:
            return False
        for sign in (1, -1):
            s = _oracle_scale({j: sign * c for j, c in d_terms.items()}, target[0])
            if s is not None:
                return sign * d_rhs * s == target[2]
        return False
    (t_terms, t_rhs, t_strict), = _oracle_le_halves(target)
    for terms, rhs, strict in _oracle_le_halves(derived):
        s = _oracle_scale(terms, t_terms)
        if s is not None and (rhs * s < t_rhs or (rhs * s == t_rhs and (not t_strict or strict))):
            return True
    return False


def _outcome(function, *args):
    """The result of the call, or the class of the exception it raised."""
    try:
        return function(*args)
    except Exception as e:
        return type(e)


def _assert_exact(iq):
    """Integral values are ints, the others Fractions."""
    for v in [*iq.lhs.terms.values(), iq.rhs]:
        assert type(v) is (int if v.denominator == 1 else Fraction)


def _as_form(iq):
    return dict(iq.lhs.terms), iq.rel, iq.rhs, iq.strict


# mixed spellings of one value: int, integral Fraction, non-integral Fraction
_values = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(Fraction),
                    st.fractions(min_value=-6, max_value=6, max_denominator=4))
_rows = st.tuples(st.dictionaries(st.integers(1, 3), _values, max_size=3),
                  st.sampled_from(RELATIONS), _values, st.booleans())


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_rows, _values), min_size=1, max_size=3),
       st.sets(st.integers(1, 3)), _rows)
def test_kernel_matches_the_fraction_oracle(premises, integral, target):
    kernel = [(Inequality(LinExpr(terms), rel, rhs, strict and rel != EQ), mult)
              for (terms, rel, rhs, strict), mult in premises]
    oracle = [(_oracle_form(*row), mult) for row, mult in premises]
    got, expected = _outcome(linear_combine, kernel), _outcome(_oracle_combine, oracle)
    if isinstance(expected, type):
        assert got is expected
        return
    assert _as_form(got) == expected
    _assert_exact(got)
    rounded = _outcome(round_integral, got, integral)
    rounded_expected = _outcome(_oracle_round, expected, integral)
    if isinstance(rounded_expected, type):
        assert rounded is rounded_expected
    else:
        assert _as_form(rounded) == rounded_expected
        _assert_exact(rounded)
    terms, rel, rhs, strict = target
    kernel_target = Inequality(LinExpr(terms), rel, rhs, strict and rel != EQ)
    oracle_target = _oracle_form(*target)
    _assert_exact(kernel_target)
    assert dominates(got, kernel_target) == _oracle_dominates(expected, oracle_target)
    assert dominates(kernel_target, got) == _oracle_dominates(oracle_target, expected)
    if not isinstance(rounded_expected, type):
        assert (dominates(rounded, kernel_target)
                == _oracle_dominates(rounded_expected, oracle_target))


def _combine_by_halves(premises):
    """linear_combine as a premise-by-premise loop over `le_halves` and
    `add_terms`; the reference for its one-pass sum."""
    acc, rhs, strict, all_eq = {}, 0, False, True
    for ineq, mult in premises:
        mult = rat(mult)
        terms, sign, b, st_ = ineq.le_halves()[0]
        if ineq.rel != EQ:
            all_eq = False
            if mult < 0:
                raise NegativeMultiplierOnInequality(f"multiplier {fmt(mult)} on inequality premise")
            if mult == 0:
                continue
            strict = strict or st_
        add_terms(acc, terms, sign * mult)
        rhs += b * mult
    rel = EQ if all_eq else LE
    return Inequality(LinExpr(acc), rel, rhs, strict and rel == LE)


class _Reached(list):
    """A premise list that records the index of the last premise read."""

    def __iter__(self):
        for i, premise in enumerate(list.__iter__(self)):
            self.reached = i
            yield premise


_coefficients = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)).filter(bool)
# multipliers: ints, zeros of either type, and fractions of denominators up
# to 12, so that the denominators of one line mix coprime and shared factors
_multipliers = st.one_of(st.integers(-2, 3), st.just(Rat(0)),
                         st.builds(Rat, st.integers(-24, 24), st.integers(1, 12)))
# few variables, so that terms cancel; one-variable rows are bounds
_premises = st.tuples(st.dictionaries(st.integers(1, 3), _coefficients, max_size=3),
                      st.sampled_from(RELATIONS), _coefficients | st.just(0), st.booleans(),
                      _multipliers)


@settings(max_examples=600, deadline=None)
@given(st.lists(_premises, min_size=1, max_size=6))
# fractional coefficients and rhs under coprime multipliers: the second
# widens the common denominator after the first is summed
@example([({1: Rat(1, 2), 2: 1}, LE, Rat(1, 3), False, Rat(2, 3)),
          ({1: Rat(3, 4)}, GE, Rat(-1, 5), True, Rat(5, 7))])
# equalities under negative fractional multipliers, the sum cancelling
@example([({1: Rat(1, 2), 2: Rat(2, 3)}, EQ, Rat(1, 6), False, Rat(-4, 9)),
          ({1: 2, 2: Rat(8, 3)}, EQ, Rat(2, 3), False, Rat(1, 9))])
# a negative multiplier following a fractional one, whole or fractional
@example([({1: 1}, LE, 1, False, Rat(1, 2)), ({2: 1}, GE, 0, False, -1)])
@example([({1: 1, 2: 1}, LE, 1, True, Rat(1, 3)), ({2: 1}, LE, 0, False, Rat(-1, 2))])
# zero multipliers beside fractional ones
@example([({1: 1}, LE, 1, True, 0), ({1: 1}, GE, 0, False, Rat(0)),
          ({1: 2}, LE, 3, False, Rat(1, 2))])
# other exact numbers are summed exactly, and named as they normalise
@example([({1: 1}, LE, 1, False, Decimal("0.25")), ({1: 1}, LE, 2, False, Rat(1, 3))])
@example([({1: 1}, LE, 1, False, Rat(1, 3)), ({1: 1}, LE, 2, False, Decimal("-0.25"))])
def test_one_pass_combination_matches_the_premise_by_premise_sum(drawn):
    premises = [(Inequality(LinExpr(terms), rel, rhs, strict and rel != EQ), mult)
                for terms, rel, rhs, strict, mult in drawn]
    got, expected = _Reached(premises), _Reached(premises)
    try:
        want = _combine_by_halves(expected)
    except NegativeMultiplierOnInequality as e:
        with pytest.raises(NegativeMultiplierOnInequality) as raised:
            linear_combine(got)
        assert str(raised.value) == str(e) and got.reached == expected.reached
        return
    result = linear_combine(got)
    assert result == want and result.strict == want.strict
    _assert_exact(result)


def test_constructor_guards():
    with pytest.raises(ValueError, match="bad relation '<>'"):
        Inequality(LinExpr({1: 1}), "<>", 0)
    with pytest.raises(ValueError, match="equality cannot be strict"):
        Inequality(LinExpr({1: 1}), EQ, 0, strict=True)
    with pytest.raises(ValueError, match="empty premise list"):
        linear_combine([])


def test_scaling_by_zero_is_the_zero_expression():
    zero = LinExpr({1: 3, 2: Rat(-1, 2)}, 5).scale(0)
    assert zero.is_zero() and zero == LinExpr()


def test_repr_shows_a_nonzero_constant():
    assert repr(LinExpr({3: Rat(-1, 2), 1: 2}, 5)) == "2*x1 + -1/2*x3 + 5"
    assert repr(LinExpr({1: 1})) == "1*x1" and repr(LinExpr()) == "0"


def test_any_exact_number_is_normalised():
    # a Decimal is exact, so it converts like a Fraction does
    assert rat(Decimal("0.25")) == Rat(1, 4)
    two = rat(Decimal("2"))
    assert two == 2 and type(two) is int
    with pytest.raises(TypeError, match="not an exact value"):
        rat(0.25)


# ints beside Fractions, among them 1/2 and 3/2, which even multipliers
# make integral
_mixed_coefficients = st.sampled_from([1, -1, 2, -3, Rat(1, 2), Rat(-1, 2), Rat(3, 2), Rat(2, 3)])
_mixed_multipliers = st.sampled_from([0, 1, 2, 4, Rat(1, 2), Rat(1, 3), Rat(3, 4), Rat(4, 2)])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(
    st.dictionaries(st.integers(1, 3), _mixed_coefficients, min_size=1, max_size=3),
    st.sampled_from(RELATIONS), _mixed_coefficients, _mixed_multipliers), min_size=1, max_size=4))
# an int multiple of 1/2, alone and beside an int row: the sum is integral
@example([({1: Rat(1, 2)}, LE, 1, 2)])
@example([({1: Rat(1, 2), 2: 1}, GE, Rat(1, 2), 2), ({2: 3}, LE, 1, 1)])
# the terms cancel, over one common denominator and without one
@example([({1: Rat(1, 2)}, LE, 0, 2), ({1: 1}, GE, 0, 1)])
@example([({1: 1, 2: 1}, LE, 0, Rat(1, 2)), ({1: 1}, GE, 0, Rat(1, 2))])
def test_every_combination_is_normal(drawn):
    result = linear_combine([(Inequality(LinExpr(terms), rel, rhs), mult)
                             for terms, rel, rhs, mult in drawn])
    assert_normal(result.lhs)
    assert type(result.rhs) is (int if result.rhs.denominator == 1 else Fraction)


def test_a_renamed_row_is_normal():
    row = Inequality(LinExpr({1: Rat(1, 2), 2: 3}), LE, 1)
    image = renamed(row, {1: 2, 2: 1})
    assert image == Inequality(LinExpr({2: Rat(1, 2), 1: 3}), LE, 1)
    assert_normal(image.lhs)
    assert renamed(row, {1: 2}) is None
