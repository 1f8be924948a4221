"""Exact rational arithmetic: sparse linear expressions, strictness-aware
inequalities, and the linear-combination / rounding / domination engine that
every rule checker is built on.

All values are immutable after construction; every operation returns a new
object, so concurrent use is safe.
"""

import math
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    NegativeMultiplierOnInequality,
    NonIntegralCoefficient,
    NonIntegralVariable,
    NotRoundable,
)

# Rationals are stdlib Fractions: always lowest terms, positive denominator,
# canonical equality.
Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)

LE = "<="
GE = ">="
EQ = "="

RELATIONS = (LE, GE, EQ)


def rat(value) -> Rat:
    """Parse a rational from 'p', '-p', or 'p/q' (also accepts ints/Rats)."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, int):
        return Rat(value)
    return Rat(str(value))


def fmt(q: Rat) -> str:
    """Canonical text form: 'p' or 'p/q'."""
    return str(q)


def is_int(q: Rat) -> bool:
    return q.denominator == 1


def floor_int(q: Rat, strict: bool) -> int:
    """Largest integer at most q, or below q when strict."""
    return math.ceil(q) - 1 if strict else math.floor(q)


def ceil_int(q: Rat, strict: bool) -> int:
    """Smallest integer at least q, or above q when strict."""
    return math.floor(q) + 1 if strict else math.ceil(q)


def unit_bound(terms, rhs):
    """(j, upper, value) for the one-variable <=-half `c*x_j <= rhs`: an
    upper bound x_j <= value when c > 0, a lower bound x_j >= value when
    c < 0."""
    (j, c), = terms.items()
    return j, c > 0, rhs / c


class LinExpr:
    """Sparse linear expression: map var-index -> coefficient, plus a constant.

    No zero coefficients are stored, so equality is structural.  Variable
    indices are 1-based.
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=ZERO):
        clean = {}
        if terms:
            for j, c in (terms.items() if isinstance(terms, dict) else terms):
                if c == 0:
                    continue
                acc = clean.get(j, ZERO) + c
                if acc == 0:
                    clean.pop(j, None)
                else:
                    clean[j] = acc
        self.terms = clean
        self.const = Rat(const)

    def __eq__(self, other):
        return (
            isinstance(other, LinExpr)
            and self.terms == other.terms
            and self.const == other.const
        )

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.const))

    def __repr__(self):
        parts = [f"{fmt(c)}*x{j}" for j, c in sorted(self.terms.items())]
        if self.const != 0 or not parts:
            parts.append(fmt(self.const))
        return " + ".join(parts)

    def is_zero(self) -> bool:
        return not self.terms and self.const == 0

    def coeff(self, j: int) -> Rat:
        return self.terms.get(j, ZERO)

    def max_var(self) -> int:
        return max(self.terms, default=0)

    def scale(self, s: Rat) -> "LinExpr":
        if s == 0:
            return LinExpr()
        return LinExpr({j: c * s for j, c in self.terms.items()}, self.const * s)

    def add(self, other: "LinExpr") -> "LinExpr":
        acc = dict(self.terms)
        for j, c in other.terms.items():
            v = acc.get(j, ZERO) + c
            if v == 0:
                acc.pop(j, None)
            else:
                acc[j] = v
        return LinExpr(acc, self.const + other.const)

    def sub(self, other: "LinExpr") -> "LinExpr":
        return self.add(other.scale(Rat(-1)))

    def evaluate(self, values) -> Rat:
        """values is a 1-based sequence (index 0 unused or a dict)."""
        total = self.const
        for j, c in self.terms.items():
            total += c * values[j]
        return total


class Inequality:
    """Linear constraint `lhs REL rhs` with an optional strict flag.

    The lhs constant is folded into the rhs at construction, so `lhs` has a
    zero constant.  `=` is never strict.  The empty-lhs falsity forms are
    `0 <= -1` (weak) and `0 < 0` (strict).
    """

    __slots__ = ("lhs", "rel", "rhs", "strict")

    def __init__(self, lhs: LinExpr, rel: str, rhs, strict: bool = False):
        if rel not in RELATIONS:
            raise ValueError(f"bad relation {rel!r}")
        if rel == EQ and strict:
            raise ValueError("equality cannot be strict")
        rhs = Rat(rhs) - lhs.const
        if lhs.const != 0:
            lhs = LinExpr(lhs.terms)
        self.lhs = lhs
        self.rel = rel
        self.rhs = rhs
        self.strict = strict

    def __eq__(self, other):
        return (
            isinstance(other, Inequality)
            and self.rel == other.rel
            and self.strict == other.strict
            and self.rhs == other.rhs
            and self.lhs == other.lhs
        )

    def __hash__(self):
        return hash((self.lhs, self.rel, self.rhs, self.strict))

    def __repr__(self):
        op = {LE: "<" if self.strict else "<=",
              GE: ">" if self.strict else ">=",
              EQ: "="}[self.rel]
        return f"{self.lhs!r} {op} {fmt(self.rhs)}"

    def max_var(self) -> int:
        return self.lhs.max_var()

    def le_form(self):
        """Orient to <=: returns (terms, rhs, strict).  Not defined for =."""
        if self.rel == EQ:
            raise ValueError("le_form of an equality")
        if self.rel == LE:
            return self.lhs.terms, self.rhs, self.strict
        neg = {j: -c for j, c in self.lhs.terms.items()}
        return neg, -self.rhs, self.strict

    def le_halves(self):
        """All <=-oriented halves: one for <=/>=, two for =."""
        if self.rel == EQ:
            neg = {j: -c for j, c in self.lhs.terms.items()}
            return [(self.lhs.terms, self.rhs, False), (neg, -self.rhs, False)]
        return [self.le_form()]

    def is_falsity(self) -> bool:
        """True iff the constraint has an empty lhs and excludes everything."""
        if self.lhs.terms:
            return False
        if self.rel == EQ:
            return self.rhs != 0
        _, rhs, strict = self.le_form()
        return rhs < 0 or (strict and rhs <= 0)

    def holds_at(self, values) -> bool:
        v = self.lhs.evaluate(values)
        if self.rel == EQ:
            return v == self.rhs
        if self.rel == LE:
            return v < self.rhs if self.strict else v <= self.rhs
        return v > self.rhs if self.strict else v >= self.rhs


def falsity() -> Inequality:
    return Inequality(LinExpr(), LE, Rat(-1))


def linear_combine(premises, dim=None) -> Inequality:
    """Nonnegative combination of inequalities (signed for equalities).

    Returns the coefficient-wise sum oriented as `<=` (or `=` when every
    premise is an equality).  The result is strict iff some strict premise
    enters with a positive multiplier.
    """
    if not premises:
        raise ValueError("empty premise list")
    acc = {}
    rhs = ZERO
    strict = False
    all_eq = True

    def accumulate(terms, mult):
        for j, c in terms.items():
            v = acc.get(j, ZERO) + c * mult
            if v == 0:
                acc.pop(j, None)
            else:
                acc[j] = v

    for ineq, mult in premises:
        mult = Rat(mult)
        if dim is not None and ineq.max_var() > dim:
            raise DimensionMismatch(
                f"premise references x{ineq.max_var()} beyond dimension {dim}")
        if ineq.rel == EQ:
            accumulate(ineq.lhs.terms, mult)
            rhs += ineq.rhs * mult
            continue
        all_eq = False
        if mult < 0:
            raise NegativeMultiplierOnInequality(
                f"multiplier {fmt(mult)} on inequality premise")
        if mult == 0:
            continue
        terms, b, st = ineq.le_form()
        accumulate(terms, mult)
        rhs += b * mult
        strict = strict or st

    rel = EQ if all_eq else LE
    return Inequality(LinExpr(acc), rel, rhs, strict if rel == LE else False)


def round_integral(ineq: Inequality, integral_vars) -> Inequality:
    """Round the rhs of an integer-coefficient inequality over integral vars.

    Weak `a*x <= b` becomes `a*x <= floor(b)`; strict `a*x < b` becomes weak
    `a*x <= ceil(b) - 1`.  Symmetric for >=.
    """
    if ineq.rel == EQ:
        raise NotRoundable("cannot round an equality")
    for j, c in ineq.lhs.terms.items():
        if j not in integral_vars:
            raise NonIntegralVariable(f"x{j} is not integral")
        if not is_int(c):
            raise NonIntegralCoefficient(f"coefficient {fmt(c)} on x{j}")
    rounding = floor_int if ineq.rel == LE else ceil_int
    new_rhs = Rat(rounding(ineq.rhs, ineq.strict))
    return Inequality(LinExpr(ineq.lhs.terms), ineq.rel, new_rhs, False)


def _match_scale(derived_terms, target_terms):
    """Positive s with s*derived == target, or None."""
    if len(derived_terms) != len(target_terms):
        return None
    if not target_terms:
        return ONE
    j, tc = next(iter(target_terms.items()))
    dc = derived_terms.get(j)
    if dc is None:
        return None
    s = tc / dc
    if s <= 0:
        return None
    for j, dc in derived_terms.items():
        if target_terms.get(j) != dc * s:
            return None
    return s


def dominates(derived: Inequality, target: Inequality) -> bool:
    """True iff `derived` syntactically implies `target`.

    Both are normalized to <=-form; the lhs must match up to one positive
    scaling and the scaled rhs must be at least as tight, with strictness of
    `derived` at least as strong when the rhs values are equal.  A falsity
    dominates everything.  Total predicate: never raises.
    """
    if derived.is_falsity():
        return True
    if target.rel == EQ:
        if derived.rel != EQ:
            return False
        # equalities scale with either sign
        s = _match_scale(derived.lhs.terms, target.lhs.terms)
        if s is None:
            neg = {j: -c for j, c in derived.lhs.terms.items()}
            s = _match_scale(neg, target.lhs.terms)
            if s is None:
                return False
            return -derived.rhs * s == target.rhs
        return derived.rhs * s == target.rhs
    t_terms, t_rhs, t_strict = target.le_form()
    halves = derived.le_halves()
    for d_terms, d_rhs, d_strict in halves:
        s = _match_scale(d_terms, t_terms)
        if s is None:
            continue
        scaled = d_rhs * s
        if scaled < t_rhs:
            return True
        if scaled == t_rhs and (not t_strict or d_strict):
            return True
    return False
