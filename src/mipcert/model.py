"""Problem statement, the three constraint kinds, and the live proof state."""

from collections import Counter
from itertools import chain

from .errors import (
    IdNotIncreasing,
    MalformedProblem,
    NotNegatable,
    UnknownId,
)
from .exact import EQ, GE, LE, Inequality, LinExpr, is_int, rat


class Linear:
    """A linear inequality or equality constraint.  Its hash is the one its
    Inequality keeps, read without a second method call once computed: the
    strengthening rules and the symmetry checks hash rows again and again."""

    __slots__ = ("ineq",)

    def __init__(self, ineq: Inequality):
        self.ineq = ineq

    def __eq__(self, other):
        return isinstance(other, Linear) and self.ineq == other.ineq

    def __hash__(self):
        cached = self.ineq._hash
        return hash(self.ineq) if cached is None else cached

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


def constraint_vars(c):
    """The variable indices a constraint reads."""
    if isinstance(c, Linear):
        return c.ineq.lhs.terms
    if isinstance(c, IntegralMarker):
        return (c.var,)
    return chain(c.consequent.lhs.terms, *(a.lhs.terms for a in c.assumptions))


def check_indices(indices, dim, what, error):
    """Raise `error` unless every variable index in `indices` is in [1, dim].
    Rows enter the proof state only through this check; see Configuration."""
    for j in indices:
        if not 1 <= j <= dim:
            raise error(f"{what} references x{j} outside [1, {dim}]")


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
        check_indices(self.objective.terms, self.n, "objective", MalformedProblem)
        for cid, c in self.constraints.items():
            if isinstance(c, IntegralMarker):
                raise MalformedProblem("integrality belongs in `integral`, not the constraint list")
            check_indices(constraint_vars(c), self.n, f"constraint {cid}", MalformedProblem)


class Configuration:
    """The live proof state: core and derived constraint maps, objective
    expression g, incumbent bound z (None means +infinity), branching tree,
    eps, and the current dimension.

    Rules write the live set only through `add`, `transfer` and `remove`.
    They keep the multiset of live constraints current once `pool()` has
    made it, and journal into the pool box (`pool_box`, a `trees.PoolBox`,
    whose builder makes the pool) once it exists.  `add` refuses an id not
    above every id seen, so ids are never reused.

    The integral set is computed once, at construction: integrality markers
    come only from the initial state, deletion refuses them, negation (and
    so redundance and dominance) rejects them, and every other rule creates
    or moves Linear and Implication constraints only.

    Every live constraint, the objective g and the tree read only
    x_1..x_dim.  Each is checked once, where it enters, by `check_indices`:
    the problem in `Problem.validate`; a new IMPLIC, RED or DOM constraint,
    an OBJSWAP objective and a RED, DOM or DEL C witness (its output rows
    and the variables they read) in the rule checkers; a new tree in
    `check_tree_consistency`.  RESOLVE, XFER and DEL only recombine, move
    or drop live rows, and only EXT changes dim, growing it.  So every
    premise a subproof cites, every witness image and every order-evidence
    target is in range by construction, and the kernel (`linear_combine`,
    `evaluate`) checks no index.
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
        self._pool = None
        self.pool_box = None

    def add(self, cid: int, c):
        """Make `c` a derived constraint under the new id `cid`."""
        if cid <= self.max_id:
            raise IdNotIncreasing(f"id {cid} not above the largest id seen ({self.max_id})")
        self.max_id = cid
        self.derived[cid] = c
        if self._pool is not None:
            self._pool[c] += 1
            if self.pool_box is not None:
                self.pool_box.entered[cid] = c

    def transfer(self, cid: int):
        """Move the derived constraint `cid` to the core set."""
        self.core[cid] = self.derived.pop(cid)

    def remove(self, cid: int):
        """Drop the live constraint `cid`; its id is never used again."""
        c = (self.core if cid in self.core else self.derived).pop(cid)
        pool = self._pool
        if pool is not None:
            pool[c] -= 1
            if not pool[c]:
                del pool[c]
            box = self.pool_box
            if box is not None and box.entered.pop(cid, None) is None:
                box.left.append((cid, c))

    def pool(self):
        """The multiset of live constraints (a Counter), made on first use."""
        if self._pool is None:
            self._pool = Counter(chain(self.core.values(), self.derived.values()))
        return self._pool

    def lookup(self, cid: int):
        if cid in self.core:
            return self.core[cid]
        if cid in self.derived:
            return self.derived[cid]
        raise UnknownId(f"no live constraint with id {cid}")

    def integral_vars(self):
        return self._integral


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
        eps=1,
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


def evaluate(values, c) -> bool:
    """Exact membership test of a point in a constraint."""
    if isinstance(c, Linear):
        return c.ineq.holds_at(values)
    if isinstance(c, IntegralMarker):
        return is_int(values[c.var])
    if all(a.holds_at(values) for a in c.assumptions):
        return c.consequent.holds_at(values)
    return True


def point(values):
    """The 1-based list of the rationals in the 0-based sequence `values`,
    as `LinExpr.evaluate` reads it."""
    return [None, *map(rat, values)]
