"""Exact rational arithmetic: sparse linear expressions, strictness-aware
inequalities, and the linear-combination / rounding / domination engine that
every rule checker is built on.

A value is an int where it is integral and a Fraction only where it is not:
every coefficient, right-hand side and multiplier goes through one
normalizer (`normal_expr` only keeps values that went through it).  `/` on
two ints gives a float, so every division is `quotient`.  All values are
immutable after construction; every operation returns a new object, so
concurrent use is safe.
"""

import decimal
import math
import sys
from fractions import Fraction

from .errors import (
    NegativeMultiplierOnInequality,
    NonIntegralCoefficient,
    NonIntegralVariable,
    NotRoundable,
    TooLarge,
)

# the type of the values that are not integral
Rat = Fraction

LE = "<="
GE = ">="
EQ = "="

RELATIONS = (LE, GE, EQ)


def rat(value):
    """`value` as an exact number: an int when it is integral, else a Rat.
    A float is refused, since it is not exact, and so is text: certfile
    reads the numbers of a certificate."""
    if type(value) is int:
        return value
    if type(value) is not Rat:
        if isinstance(value, (float, str)):
            raise TypeError(f"{type(value).__name__} {value!r} is not an exact value")
        value = Rat(value)
    return value.numerator if value.denominator == 1 else value


def fmt(q: Rat) -> str:
    """Canonical text form: 'p' or 'p/q'."""
    try:
        return str(q)
    except ValueError:  # str() of a Fraction fails only at the digit limit
        raise TooLarge(f"cannot print a number of more than {sys.get_int_max_str_digits()} "
                       "digits, Python's int/str conversion limit") from None


# leading characters an error message shows of a long token or number
SHOWN_CHARS = 40


def fmt_shown(q: Rat) -> str:
    """fmt(q), or, for a number over the int/str digit limit, its leading
    digits in scientific notation and the reason."""
    try:
        return fmt(q)
    except TooLarge as e:
        # Decimal converts ints without the digit limit
        approx = decimal.Context(prec=SHOWN_CHARS).divide(
            decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
        return f"about {approx} ({e})"


def is_int(q: Rat) -> bool:
    return q.denominator == 1


def floor_int(q: Rat, strict: bool) -> int:
    """Largest integer at most q, or below q when strict."""
    return math.ceil(q) - 1 if strict else math.floor(q)


def ceil_int(q: Rat, strict: bool) -> int:
    """Smallest integer at least q, or above q when strict."""
    return math.floor(q) + 1 if strict else math.ceil(q)


def quotient(num, c):
    """num / c, exact and normalized: `/` on two ints would give a float."""
    if type(num) is int and type(c) is int:
        return num // c if num % c == 0 else Rat(num, c)
    return rat(num / c)


def unit_bound(terms, sign, rhs):
    """(j, upper, value) for the one-variable <=-half `sign*c*x_j <= rhs`:
    an upper bound x_j <= value when sign*c > 0, a lower bound x_j >= value
    when sign*c < 0."""
    (j, c), = terms.items()
    c *= sign
    return j, c > 0, quotient(rhs, c)


class LinExpr:
    """Sparse linear expression: map var-index -> coefficient, plus a constant.

    No zero coefficients are stored, so equality is structural.  Variable
    indices are 1-based.
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=0):
        self.terms = {j: c if type(c) is int else rat(c)
                      for j, c in terms.items() if c} if terms else {}
        self.const = const if type(const) is int else rat(const)

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

    def scale(self, s: Rat) -> "LinExpr":
        if s == 0:
            return LinExpr()
        return LinExpr({j: c * s for j, c in self.terms.items()}, self.const * s)

    def add(self, other: "LinExpr") -> "LinExpr":
        acc = dict(self.terms)
        add_terms(acc, other.terms, 1)
        return LinExpr(acc, self.const + other.const)

    def sub(self, other: "LinExpr") -> "LinExpr":
        return self.add(other.scale(-1))

    def evaluate(self, values) -> Rat:
        """values is a 1-based sequence (index 0 unused or a dict)."""
        total = self.const
        for j, c in self.terms.items():
            total += c * values[j]
        return rat(total)


class Inequality:
    """Linear constraint `lhs REL rhs` with an optional strict flag.

    The lhs constant is folded into the rhs at construction, so `lhs` has a
    zero constant.  `=` is never strict.  The empty-lhs falsity forms are
    `0 <= -1` (weak) and `0 < 0` (strict).  The hash is computed on first
    use and kept: it hashes every coefficient, and the live set and the
    assumption lists of RESOLVE are hashed again and again.
    """

    __slots__ = ("lhs", "rel", "rhs", "strict", "_hash")

    def __init__(self, lhs: LinExpr, rel: str, rhs, strict: bool = False):
        if rel not in RELATIONS:
            raise ValueError(f"bad relation {rel!r}")
        if rel == EQ and strict:
            raise ValueError("equality cannot be strict")
        rhs = rat(rhs)
        if lhs.const:
            rhs = rat(rhs - lhs.const)
            lhs = LinExpr(lhs.terms)
        self.lhs = lhs
        self.rel = rel
        self.rhs = rhs
        self.strict = strict
        self._hash = None

    def __eq__(self, other):
        return (
            isinstance(other, Inequality)
            and self.rel == other.rel
            and self.strict == other.strict
            and self.rhs == other.rhs
            and self.lhs == other.lhs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.lhs, self.rel, self.rhs, self.strict))
        return self._hash

    def __repr__(self):
        op = {LE: "<" if self.strict else "<=",
              GE: ">" if self.strict else ">=",
              EQ: "="}[self.rel]
        return f"{self.lhs!r} {op} {fmt(self.rhs)}"

    def le_halves(self):
        """The <=-halves `sign * lhs <= rhs`, as (terms, sign, rhs, strict):
        one for <= and >=, two for =.  Every half reads `lhs.terms`."""
        terms, rhs = self.lhs.terms, self.rhs
        if self.rel == LE:
            return ((terms, 1, rhs, self.strict),)
        if self.rel == GE:
            return ((terms, -1, -rhs, self.strict),)
        return ((terms, 1, rhs, False), (terms, -1, -rhs, False))

    def le_form(self):
        """The one <=-half of an inequality as (terms, rhs, strict), with
        its terms negated for >=."""
        (terms, sign, rhs, strict), = self.le_halves()
        if sign == -1:
            terms = {j: -c for j, c in terms.items()}
        return terms, rhs, strict

    def is_falsity(self) -> bool:
        """True iff the constraint has an empty lhs and excludes everything."""
        if self.lhs.terms:
            return False
        return any(rhs < 0 or (strict and rhs <= 0) for _, _, rhs, strict in self.le_halves())

    def holds_at(self, values) -> bool:
        v = self.lhs.evaluate(values)
        if self.rel == EQ:
            return v == self.rhs
        if self.rel == LE:
            return v < self.rhs if self.strict else v <= self.rhs
        return v > self.rhs if self.strict else v >= self.rhs


def normal_expr(terms, const=0) -> LinExpr:
    """A LinExpr that keeps the dict `terms`, whose values are normal (no 0,
    each integral one an int): the one bypass of __init__'s normalising pass."""
    expr = LinExpr.__new__(LinExpr)
    expr.terms, expr.const = terms, const
    return expr


def renamed(x, names):
    """`x`, a LinExpr or an Inequality, with each key j of its (lhs) terms
    renamed to names.get(j, j); None when two keys get one name, since their
    sum must be normalised.  The values are x's own, so they stay normal."""
    lhs = x if type(x) is LinExpr else x.lhs
    # a loop, not a comprehension: under Python 3.11 a comprehension's own
    # frame costs more than renaming the one or two terms of a typical row
    terms = {}
    name = names.get
    for j, c in lhs.terms.items():
        terms[name(j, j)] = c
    if len(terms) < len(lhs.terms):
        return None
    expr = normal_expr(terms, lhs.const)
    if lhs is x:
        return expr
    ineq = Inequality.__new__(Inequality)
    ineq.lhs, ineq.rel, ineq.rhs, ineq.strict, ineq._hash = expr, x.rel, x.rhs, x.strict, None
    return ineq


def falsity() -> Inequality:
    return Inequality(LinExpr(), LE, -1)


def add_terms(acc, terms, mult):
    """Add mult * terms into the dict `acc`, dropping terms that cancel."""
    for j, c in terms.items():
        v = acc.get(j, 0) + c * mult
        if v:
            acc[j] = v
        else:
            acc.pop(j, None)


def linear_combine(premises) -> Inequality:
    """Nonnegative combination of inequalities (signed for equalities).

    Returns the coefficient-wise sum oriented as `<=` (or `=` when every
    premise is an equality).  The result is strict iff some strict premise
    enters with a positive multiplier.  Every premise is summed into one
    dict in this one loop, each multiplier scaled to an int by the lcm `d`
    of the denominators read so far, and the sum is divided by `d` once.
    """
    if not premises:
        raise ValueError("empty premise list")
    acc = {}
    rhs = 0
    d = 1
    strict = False
    all_eq = True
    for ineq, mult in premises:
        if type(mult) is not int:
            mult = rat(mult)
            q = mult.denominator
            if d % q:
                # widen d to lcm(d, q), rescaling what is summed so far
                f = q // math.gcd(d, q)
                d *= f
                rhs *= f
                for j in acc:
                    acc[j] *= f
            mult = mult.numerator * (d // q)
        elif d != 1:
            mult *= d
        rel = ineq.rel
        if rel != EQ:
            all_eq = False
            if mult < 0:
                raise NegativeMultiplierOnInequality(
                    f"multiplier {fmt(quotient(mult, d))} on inequality premise")
            if mult == 0:
                continue
            strict = strict or ineq.strict
        # negating the multiplier of a >= row orients it as le_halves would;
        # an equality enters as stated, with a multiplier of either sign
        if rel == GE:
            mult = -mult
        rhs += ineq.rhs * mult
        for j, c in ineq.lhs.terms.items():
            v = acc.get(j, 0) + c * mult
            if v:
                acc[j] = v
            else:
                acc.pop(j, None)

    rel = EQ if all_eq else LE
    if d != 1:
        acc = {j: quotient(c, d) for j, c in acc.items()}  # normal, and none is 0
        rhs = quotient(rhs, d)
    elif Rat in map(type, acc.values()):  # an int times a Fraction may be integral
        return Inequality(LinExpr(acc), rel, rhs, strict)
    # a dict keeps the table it grew to when its keys are popped, so a sum
    # whose terms all cancel keeps a fresh empty dict instead
    return Inequality(normal_expr(acc or {}), rel, rhs, strict)


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
    return Inequality(ineq.lhs, ineq.rel, rounding(ineq.rhs, ineq.strict), False)


def _match_scale(derived_terms, target_terms, sign):
    """Positive s with s*sign*derived == target, or None."""
    if len(derived_terms) != len(target_terms):
        return None
    if not target_terms:
        return 1
    j, tc = next(iter(target_terms.items()))
    dc = derived_terms.get(j)
    if dc is None:
        return None
    # m = s*sign scales the derived terms onto the target's
    m = quotient(tc, dc)
    if m * sign <= 0:
        return None
    for j, dc in derived_terms.items():
        if target_terms.get(j) != dc * m:
            return None
    return m * sign


def dominates(derived: Inequality, target: Inequality) -> bool:
    """True iff `derived` syntactically implies `target`.

    Both are read as <=-halves; the lhs must match up to one positive
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
        for sign in (1, -1):
            s = _match_scale(derived.lhs.terms, target.lhs.terms, sign)
            if s is not None:
                return sign * derived.rhs * s == target.rhs
        return False
    (t_terms, t_sign, t_rhs, t_strict), = target.le_halves()
    for d_terms, d_sign, d_rhs, d_strict in derived.le_halves():
        s = _match_scale(d_terms, t_terms, d_sign * t_sign)
        if s is None:
            continue
        scaled = d_rhs * s
        if scaled < t_rhs:
            return True
        if scaled == t_rhs and (not t_strict or d_strict):
            return True
    return False
