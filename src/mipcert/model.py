"""Problem statement, the three constraint kinds, and the live proof state."""

from .errors import (
    DimensionMismatch,
    IdNotIncreasing,
    MalformedProblem,
    NotNegatable,
    UnknownId,
)
from .exact import EQ, GE, LE, Inequality, LinExpr, Rat, is_int


class Linear:
    """A linear inequality or equality constraint."""

    __slots__ = ("ineq",)

    def __init__(self, ineq: Inequality):
        self.ineq = ineq

    def __eq__(self, other):
        return isinstance(other, Linear) and self.ineq == other.ineq

    def __hash__(self):
        return hash(("lin", self.ineq))

    def __repr__(self):
        return f"Linear({self.ineq!r})"


class IntegralMarker:
    """Integrality restriction on one variable."""

    __slots__ = ("var",)

    def __init__(self, var: int):
        self.var = var

    def __eq__(self, other):
        return isinstance(other, IntegralMarker) and self.var == other.var

    def __hash__(self):
        return hash(("int", self.var))

    def __repr__(self):
        return f"IntegralMarker(x{self.var})"


class Implication:
    """[assumptions ~> consequent]: if every assumption holds, so does the
    consequent.  Assumptions are inline inequalities (nonempty list); the
    empty-assumption case is stored as Linear instead."""

    __slots__ = ("assumptions", "consequent")

    def __init__(self, assumptions, consequent: Inequality):
        assumptions = tuple(assumptions)
        if not assumptions:
            raise ValueError("empty assumption list: store as Linear")
        self.assumptions = assumptions
        self.consequent = consequent

    def __eq__(self, other):
        return (
            isinstance(other, Implication)
            and self.assumptions == other.assumptions
            and self.consequent == other.consequent
        )

    def __hash__(self):
        return hash(("imp", self.assumptions, self.consequent))

    def __repr__(self):
        return f"Implication({list(self.assumptions)!r} ~> {self.consequent!r})"


def make_constraint(assumptions, consequent: Inequality):
    """Implication when assumptions are present, Linear otherwise."""
    if assumptions:
        return Implication(assumptions, consequent)
    return Linear(consequent)


def constraint_max_var(c) -> int:
    if isinstance(c, Linear):
        return c.ineq.max_var()
    if isinstance(c, IntegralMarker):
        return c.var
    m = c.consequent.max_var()
    for a in c.assumptions:
        m = max(m, a.max_var())
    return m


class Problem:
    """min objective over the intersection of the constraints.

    `constraints` maps explicit ids to Linear / Implication constraints;
    `integral` lists variable indices carrying an integrality restriction
    (materialized as IntegralMarker constraints in the initial proof state).
    """

    def __init__(self, n: int, integral, objective: LinExpr, constraints):
        self.n = n
        self.integral = set(integral)
        self.objective = objective
        self.constraints = dict(constraints)

    def validate(self):
        if self.n < 0:
            raise MalformedProblem("negative dimension")
        for j in self.integral:
            if not 1 <= j <= self.n:
                raise MalformedProblem(f"integral marker on x{j} outside [1, {self.n}]")
        if self.objective.max_var() > self.n:
            raise MalformedProblem(
                f"objective references x{self.objective.max_var()} in a {self.n}-var problem")
        for cid, c in self.constraints.items():
            if isinstance(c, IntegralMarker):
                raise MalformedProblem("integrality belongs in `integral`, not the constraint list")
            if constraint_max_var(c) > self.n:
                raise MalformedProblem(
                    f"constraint {cid} references x{constraint_max_var(c)} "
                    f"in a {self.n}-var problem")


class Configuration:
    """The live proof state: core and derived constraint maps, objective
    expression g, incumbent bound z (None means +infinity), branching tree,
    eps, and the current dimension.

    Ids are unique across core+derived and never reused after deletion;
    enforced by requiring every new id to exceed the largest id ever seen.

    The integral set is computed once, at construction: integrality markers
    come only from the initial state, deletion refuses them, negation (and
    so redundance and dominance) rejects them, and every other rule creates
    or moves Linear and Implication constraints only.
    """

    def __init__(self, core, derived, g, z, tree, eps, dim):
        self.core = core
        self.derived = derived
        self.g = g
        self.z = z
        self.tree = tree
        self.eps = eps
        self.dim = dim
        self.max_id = max([0, *core.keys(), *derived.keys()])
        self._integral = frozenset(
            c.var for c in (*core.values(), *derived.values())
            if isinstance(c, IntegralMarker))

    def alloc(self, new_id: int):
        if new_id <= self.max_id:
            raise IdNotIncreasing(
                f"id {new_id} not above the largest id seen ({self.max_id})")
        self.max_id = new_id

    def lookup(self, cid: int):
        if cid in self.core:
            return self.core[cid]
        if cid in self.derived:
            return self.derived[cid]
        raise UnknownId(f"no live constraint with id {cid}")

    def integral_vars(self):
        return self._integral

    def live_count(self) -> int:
        return len(self.core) + len(self.derived)


def initial_configuration(problem: Problem):
    """Starting state: core = problem constraints plus integrality markers,
    no derived constraints, g = objective, z = +infinity, the single-root
    trivial tree, eps = 1."""
    from .trees import trivial_tree  # local import to avoid a cycle

    problem.validate()
    core = dict(problem.constraints)
    next_id = max(core, default=0) + 1
    for j in sorted(problem.integral):
        core[next_id] = IntegralMarker(j)
        next_id += 1
    return Configuration(
        core=core,
        derived={},
        g=problem.objective,
        z=None,
        tree=trivial_tree(),
        eps=Rat(1),
        dim=problem.n,
    )


def negate(c):
    """Premise list whose conjunction describes the complement of `c`.

    Linear `a*x <= b` negates to the strict `a*x > b`; an implication negates
    to its assumptions plus the negated consequent.  Equalities and
    integrality markers are not negatable (split an equality into two
    inequalities first)."""
    if isinstance(c, Linear):
        iq = c.ineq
        if iq.rel == EQ:
            raise NotNegatable("split the equality into two inequalities before negating")
        flipped = GE if iq.rel == LE else LE
        # complement of a weak inequality is strict, and vice versa
        return [Inequality(iq.lhs, flipped, iq.rhs, not iq.strict)]
    if isinstance(c, Implication):
        return list(c.assumptions) + negate(Linear(c.consequent))
    raise NotNegatable("integrality markers cannot be negated")


def evaluate(values, c, dim=None) -> bool:
    """Exact membership test of a point in a constraint."""
    if dim is not None and constraint_max_var(c) > dim:
        raise DimensionMismatch(
            f"constraint references x{constraint_max_var(c)} beyond dimension {dim}")
    if isinstance(c, Linear):
        return c.ineq.holds_at(values)
    if isinstance(c, IntegralMarker):
        return is_int(values[c.var])
    if all(a.holds_at(values) for a in c.assumptions):
        return c.consequent.holds_at(values)
    return True


def point(values):
    """1-based access wrapper over a dense 0-based vector of rationals."""
    return _Point([Rat(v) for v in values])


class _Point:
    __slots__ = ("vals",)

    def __init__(self, vals):
        self.vals = vals

    def __getitem__(self, j):
        if not 1 <= j <= len(self.vals):
            raise DimensionMismatch(f"x{j} outside solution of length {len(self.vals)}")
        return self.vals[j - 1]

    def __len__(self):
        return len(self.vals)

    def __iter__(self):
        return iter(self.vals)
