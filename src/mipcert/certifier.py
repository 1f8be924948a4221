"""Reference certifying solver for desk-scale bounded pure-integer programs,
plus emitters for cut derivations, reduced-cost fixing, symmetry-order cuts,
and lexicographic comparison ladders.

The solver runs a propagation-plus-branching search and writes every
deduction as a checkable step: leaves close with an implied contradiction
(aggregation of rows and bound facts, or the strict objective-bound premise
after an incumbent update), interior nodes close by resolution, and the run
ends with a goal step.  Emitted certificates are self-contained (problem
header included) and pass the verifier.
"""

import math
from collections import Counter

from .certfile import fmt_problem, fmt_step
from .errors import (
    MalformedDisjunction,
    MultiplierSignError,
    NonIntegralProblem,
    NotACover,
    NotASymmetry,
    UnboundedSigmaVariable,
    UnboundedVariable,
)
from .exact import (
    EQ,
    GE,
    LE,
    Inequality,
    LinExpr,
    Rat,
    ceil_int,
    falsity,
    floor_int,
    is_int,
    linear_combine,
    round_integral,
    unit_bound,
)
from .model import Linear, Problem, point
from .rules import (
    DeleteStep,
    EpsStep,
    GoalStep,
    ImplicStep,
    ResolveStep,
    SolStep,
    StrengthenStep,
    Subproof,
    TreeStep,
    Verdict,
)
from .trees import AffineMap, BranchTree, TreeNode, UNIVERSE, signed_form


class CertWriter:
    """Accumulates canonical certificate text and allocates increasing ids."""

    def __init__(self, problem: Problem):
        self.n = problem.n
        self.lines = fmt_problem(problem)
        self.next_id = max(problem.constraints, default=0) + len(problem.integral) + 1
        self.steps = 0

    def fresh(self) -> int:
        cid = self.next_id
        self.next_id += 1
        return cid

    def add(self, step):
        step_lines, self.n = fmt_step(step, self.n)
        self.lines.extend(step_lines)
        self.steps += 1

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# Citable bounds
# ---------------------------------------------------------------------------

class BoundTable:
    """Per-variable citable bounds from weak single-variable core rows.

    Each side stores (constraint id, denominator, bound value); a premise
    pair contributing lambda times the variable cites the id with multiplier
    lambda/denominator.  For equality rows the lower side's denominator is
    negative: equalities contribute their stored terms, so the flip happens
    through the (sign-free) multiplier rather than the orientation."""

    def __init__(self):
        self.upper = {}
        self.lower = {}

    @classmethod
    def scan(cls, problem: Problem):
        table = cls()
        for cid, c in problem.constraints.items():
            if not isinstance(c, Linear) or c.ineq.strict:
                continue
            iq = c.ineq
            if len(iq.lhs.terms) != 1:
                continue
            for terms, rhs, _ in iq.le_halves():
                j, upper, value = unit_bound(terms, rhs)
                half_coeff = terms[j]
                if upper:
                    den = half_coeff
                    cur = table.upper.get(j)
                    if cur is None or value < cur[2]:
                        table.upper[j] = (cid, den, value)
                else:
                    den = half_coeff if iq.rel == EQ else -half_coeff
                    cur = table.lower.get(j)
                    if cur is None or value > cur[2]:
                        table.lower[j] = (cid, den, value)
        return table

    def require(self, variables, side):
        store = self.upper if side == "upper" else self.lower
        missing = sorted(v for v in set(variables) if v not in store)
        if missing:
            raise UnboundedVariable(f"no citable {side} bound for x{missing}")

    def upper_pair(self, var, mult):
        """Premise pair contributing +mult*x_var (<= mult*ub)."""
        cid, coeff, _ = self.upper[var]
        return (("id", cid), mult / coeff)

    def lower_pair(self, var, mult):
        """Premise pair contributing -mult*x_var (<= -mult*lb)."""
        cid, coeff, _ = self.lower[var]
        return (("id", cid), mult / coeff)

    def eliminate(self, var, kappa):
        """Pair cancelling the term kappa*x_var inside a <=-aggregation."""
        if kappa > 0:
            return self.lower_pair(var, kappa)
        return self.upper_pair(var, -kappa)


# ---------------------------------------------------------------------------
# Formulation symmetry
# ---------------------------------------------------------------------------

def is_formulation_symmetry(problem: Problem, perm: dict) -> bool:
    """Variable permutation paired with some row permutation leaving the
    constraint data, objective, and variable types invariant."""
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


# ---------------------------------------------------------------------------
# Search with reason tracking
# ---------------------------------------------------------------------------

class _Bound:
    """A live bound with its justification: source is ("id", cid) or
    ("assume", k) for directly citable unit bounds, else a _Fact."""

    __slots__ = ("var", "upper", "val", "source")

    def __init__(self, var, upper, val, source):
        self.var = var
        self.upper = upper
        self.val = val
        self.source = source


class _Fact:
    """A derived inequality: one aggregation, optionally rounded."""

    __slots__ = ("pairs", "rounded")

    def __init__(self, pairs, rounded):
        self.pairs = pairs      # [(source, mult)], sources as in _Bound
        self.rounded = rounded


class _ProofBuilder:
    """Linearizes a fact DAG into chained subproof steps."""

    def __init__(self):
        self.steps = []
        self.memo = {}

    def ref(self, source):
        if isinstance(source, _Bound):
            source = source.source
        if isinstance(source, _Fact):
            return self.emit(source)
        return source

    def emit(self, fact: _Fact):
        key = id(fact)
        if key in self.memo:
            return self.memo[key]
        pairs = [(self.ref(src), mult) for src, mult in fact.pairs]
        self.steps.append(("lin", pairs))
        if fact.rounded:
            self.steps.append(("round",))
        ref = ("step", len(self.steps))
        self.memo[key] = ref
        return ref


def _fact_subproof(fact: _Fact, target: Inequality) -> Subproof:
    builder = _ProofBuilder()
    builder.emit(fact)
    return Subproof(builder.steps, target)


class _Infeasible(Exception):
    def __init__(self, fact):
        self.fact = fact


class Certifier:
    """Propagation + branching search emitting a certificate as it runs.

    Bounds carry their derivations; a contradiction aggregates the row with
    the supporting bounds, recursively expanding derived bounds into chained
    subproof lines at emission time.
    """

    def __init__(self, problem: Problem, writer: CertWriter, node_limit=500_000):
        if problem.integral != set(range(1, problem.n + 1)):
            raise NonIntegralProblem("certifying solver requires all-integer variables")
        for c in problem.constraints.values():
            if not isinstance(c, Linear):
                raise NonIntegralProblem("certifying solver supports linear rows only")
        self.problem = problem
        self.writer = writer
        self.node_limit = node_limit
        self.nodes = 0
        self.z = None
        self.best = None
        self.rows = []   # (cid, terms, rhs, strict, cite_mult_sign), <=-oriented
        self._fold_skip = set()
        for cid, c in problem.constraints.items():
            self.register_row(cid, c.ineq)

    def register_row(self, cid, iq: Inequality):
        # the citation sign is -1 only for the negated half of an equality;
        # <= / >= premises are oriented by the combiner itself
        if iq.rel == EQ:
            self.rows.append((cid, dict(iq.lhs.terms), iq.rhs, False, Rat(1)))
            neg = {j: -v for j, v in iq.lhs.terms.items()}
            self.rows.append((cid, neg, -iq.rhs, False, Rat(-1)))
        else:
            terms, rhs, strict = iq.le_form()
            self.rows.append((cid, dict(terms), rhs, strict, Rat(1)))

    # -- root box ----------------------------------------------------------

    def _split_fractional_equalities(self):
        """A rounded bound cannot come straight out of an equality premise
        (the aggregation stays an equality); derive both weak halves as
        their own constraints first and fold bounds from those."""
        for cid, c in sorted(self.problem.constraints.items()):
            iq = c.ineq
            if iq.rel != EQ or len(iq.lhs.terms) != 1:
                continue
            (j, coeff), = iq.lhs.terms.items()
            if is_int(iq.rhs / coeff):
                continue
            self._fold_skip.add(cid)
            for rel, mult in ((LE, Rat(1)), (GE, Rat(1))):
                half = Inequality(LinExpr({j: Rat(1)}), rel, iq.rhs / coeff)
                new_id = self.writer.fresh()
                self.writer.add(ImplicStep(
                    new_id, [],
                    Subproof([("lin", [(("id", cid), Rat(1) / coeff)])], half)))
                self.register_row(new_id, half)

    def _root_box(self):
        box = {j: [None, None] for j in range(1, self.problem.n + 1)}
        for cid, terms, rhs, strict, sign in self.rows:
            if len(terms) != 1 or cid in self._fold_skip:
                continue
            j, upper, raw = unit_bound(terms, rhs)
            coeff = terms[j]
            val = Rat(floor_int(raw, strict) if upper else ceil_int(raw, strict))
            rounded = strict or raw != val
            if coeff in (1, -1) and sign == 1 and not rounded:
                source = ("id", cid)
            else:
                source = _Fact([(("id", cid), sign / abs(coeff))], rounded)
            bound = _Bound(j, upper, val, source)
            slot = 1 if upper else 0
            cur = box[j][slot]
            if cur is None or (upper and val < cur.val) or (not upper and val > cur.val):
                box[j][slot] = bound
        missing = [j for j in box if box[j][0] is None or box[j][1] is None]
        if missing:
            raise UnboundedVariable(f"variables {missing} lack finite citable bounds")
        return box

    # -- propagation -------------------------------------------------------

    def _propagate(self, box):
        """Tighten in place; raises _Infeasible carrying a contradiction."""
        changed = True
        while changed:
            changed = False
            for cid, terms, rhs, strict, sign in self.rows:
                if not terms:
                    if rhs < 0 or (strict and rhs <= 0):
                        raise _Infeasible(_Fact([(("id", cid), sign or Rat(1))], False))
                    continue
                supports = {}
                minact = Rat(0)
                for j, c in terms.items():
                    b = box[j][0] if c > 0 else box[j][1]
                    minact += c * b.val
                    supports[j] = b
                if minact > rhs or (strict and minact >= rhs):
                    pairs = [(("id", cid), sign)]
                    pairs += [(supports[j], abs(c)) for j, c in terms.items()]
                    raise _Infeasible(_Fact(pairs, False))
                if len(terms) == 1 and not strict:
                    continue  # already folded into the root box
                for j, c in terms.items():
                    upper = c > 0
                    cur = box[j][1] if upper else box[j][0]
                    rest = minact - c * (box[j][0].val if upper else box[j][1].val)
                    raw = (rhs - rest) / c
                    if upper:
                        val = Rat(floor_int(raw, strict))
                        improved = val < cur.val
                    else:
                        val = Rat(ceil_int(raw, strict))
                        improved = val > cur.val
                    if not improved:
                        continue
                    rounded = strict or raw != val
                    pairs = [(("id", cid), sign / abs(c))]
                    for k, ck in terms.items():
                        if k != j:
                            pairs.append((supports[k], abs(ck) / abs(c)))
                    fact = _Fact(pairs, rounded)
                    box[j][1 if upper else 0] = _Bound(j, upper, val, fact)
                    lo, hi = box[j][0], box[j][1]
                    if lo.val > hi.val:
                        raise _Infeasible(_Fact([(lo, Rat(1)), (hi, Rat(1))], False))
                    changed = True

    def _objective_prune_fact(self, box):
        """Contradiction from the strict incumbent premise, if provable."""
        if self.z is None:
            return None
        g = self.problem.objective
        minact = g.const
        pairs = [(("obj",), Rat(1))]
        for j, c in g.terms.items():
            b = box[j][0] if c > 0 else box[j][1]
            minact += c * b.val
            pairs.append((b, abs(c)))
        if minact >= self.z:
            return _Fact(pairs, False)
        return None

    # -- search ------------------------------------------------------------

    def _close_leaf(self, assumptions, fact):
        new_id = self.writer.fresh()
        self.writer.add(ImplicStep(new_id, [a for a, _ in assumptions],
                                   _fact_subproof(fact, falsity())))
        return new_id

    def _node(self, assumptions, box):
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise RuntimeError("search node limit exceeded")
        try:
            self._propagate(box)
        except _Infeasible as inf:
            return self._close_leaf(assumptions, inf.fact)
        fact = self._objective_prune_fact(box)
        if fact is not None:
            return self._close_leaf(assumptions, fact)
        unfixed = [j for j in box if box[j][0].val != box[j][1].val]
        if not unfixed:
            values = [box[j][0].val for j in sorted(box)]
            # a propagation fixpoint with no violated row is feasible; it
            # improves on z, otherwise the objective prune above fired
            self.writer.add(SolStep(values))
            self.z = self.problem.objective.evaluate(point(values))
            self.best = tuple(values)
            return self._close_leaf(assumptions, self._objective_prune_fact(box))
        branch_var = min(unfixed)
        lo, hi = box[branch_var][0].val, box[branch_var][1].val
        mid = Rat(math.floor((lo + hi) / 2))
        k = len(assumptions) + 1

        left = Inequality(LinExpr({branch_var: Rat(1)}), LE, mid)
        left_box = {j: list(v) for j, v in box.items()}
        left_box[branch_var][1] = _Bound(branch_var, True, mid, ("assume", k))
        left_id = self._node(assumptions + [(left, k)], left_box)

        right = Inequality(LinExpr({branch_var: Rat(1)}), GE, mid + 1)
        right_box = {j: list(v) for j, v in box.items()}
        right_box[branch_var][0] = _Bound(branch_var, False, mid + 1, ("assume", k))
        right_id = self._node(assumptions + [(right, k)], right_box)

        new_id = self.writer.fresh()
        self.writer.add(ResolveStep(new_id, left_id, k, right_id, k))
        self.writer.add(DeleteStep("a", [left_id, right_id]))
        return new_id

    def run(self):
        self._split_fractional_equalities()
        root_id = self._node([], self._root_box())
        self.writer.add(GoalStep(root_id))
        if self.z is None:
            return Verdict("infeasible")
        return Verdict("optimal", self.z)


# ---------------------------------------------------------------------------
# Symmetry-order cut chain
# ---------------------------------------------------------------------------

def emit_order_tree(writer: CertWriter, order, bounds: BoundTable):
    """Install a one-node tree whose root compares the given variables in
    sequence (positive entries, so upper bounds are cited)."""
    bounds.require(order, "upper")
    refs = {(1, j): bounds.upper[j][0] for j in order}
    writer.add(TreeStep(BranchTree({1: TreeNode(None, UNIVERSE, tuple(order))}, 1),
                        refs))


def emit_sst_cuts(writer: CertWriter, problem: Problem, bounds: BoundTable,
                  eps=Rat(1, 2)):
    """Stabilizer-chain order cuts x_k >= x_j - eps for the formulation
    symmetries swapping k and j, each rounded to the integral x_k >= x_j.

    Installs the comparison tree, shrinks eps below one, and returns
    [(constraint id, inequality)] for the rounded cuts."""
    n = problem.n
    emit_order_tree(writer, list(range(1, n + 1)), bounds)
    writer.add(EpsStep(eps))
    cuts = []
    for k in range(1, n):
        for j in range(k + 1, n + 1):
            perm = {k: j, j: k}
            if not is_formulation_symmetry(problem, perm):
                continue
            w = AffineMap.permutation(perm)
            cut = Inequality(LinExpr({k: Rat(1), j: Rat(-1)}), GE, -eps)
            gap = Subproof([("lin", [(("neg", 1), Rat(1))])],
                           Inequality(signed_form(w, k), GE, eps))
            dom_id = writer.fresh()
            writer.add(StrengthenStep(dom_id, Linear(cut), w, {}, {k: {"gap": gap}},
                                      dominance=True))
            rounded = Inequality(LinExpr({k: Rat(1), j: Rat(-1)}), GE, Rat(0))
            impl_id = writer.fresh()
            writer.add(ImplicStep(
                impl_id, [],
                Subproof([("lin", [(("id", dom_id), Rat(1))]), ("round",)], rounded)))
            writer.add(DeleteStep("a", [dom_id]))
            cuts.append((impl_id, rounded))
    return cuts


# ---------------------------------------------------------------------------
# Lexicographic comparison ladder
# ---------------------------------------------------------------------------

def emit_lex_constraint(writer: CertWriter, problem: Problem, sigma, perm,
                        low, high, bounds=None, install_tree=True, eps=Rat(1)):
    """Derive the weighted comparison constraint forcing the variable
    sequence `sigma` to be lexicographically no smaller than its image under
    the permutation, for integer variables confined to [low, high].

    Builds the inductive dominance ladder over prefix lengths, deleting each
    superseded prefix constraint, and returns (final id, final inequality).
    """
    if bounds is None:
        bounds = BoundTable.scan(problem)
    if not is_formulation_symmetry(problem, perm):
        raise NotASymmetry("the supplied permutation is not a formulation symmetry")
    low, high = Rat(low), Rat(high)
    delta = high - low + 1
    if delta < 1:
        raise UnboundedVariable("empty variable domain")
    inv = {v: k for k, v in perm.items()}
    u = list(sigma)
    v = [inv.get(s, s) for s in sigma]
    involved = sorted(set(u) | set(v))
    if any(s not in problem.integral for s in involved):
        raise NonIntegralProblem(f"comparison variables {involved} must be integral")
    try:
        bounds.require(involved, "upper")
        bounds.require(involved, "lower")
    except UnboundedVariable as e:
        raise UnboundedSigmaVariable(str(e)) from None
    for s in involved:
        if bounds.upper[s][2] > high or bounds.lower[s][2] < low:
            raise UnboundedSigmaVariable(
                f"x{s} is not confined to [{low}, {high}] by its cited bounds")
    if install_tree:
        emit_order_tree(writer, u, bounds)
    w = AffineMap.permutation(perm)
    ell = len(u)

    def comparison(k):
        e = LinExpr()
        for i in range(k):
            e = e.add(LinExpr({u[i]: delta ** (k - 1 - i)}))
            e = e.add(LinExpr({v[i]: -(delta ** (k - 1 - i))}))
        return Inequality(e, GE, Rat(0))

    prev_id = None
    final = None
    for k in range(1, ell + 1):
        final = comparison(k)
        proofs = _LadderProofs(k, u, v, delta, bounds, prev_id, eps)
        evidence = {}
        for i in range(1, k):
            if u[i - 1] == v[i - 1]:
                continue
            evidence[u[i - 1]] = {"geq": proofs.direction_subproof("geq", i),
                                  "leq": proofs.direction_subproof("leq", i)}
        if u[k - 1] != v[k - 1]:
            evidence[u[k - 1]] = {"gap": proofs.gap_subproof(w)}
        new_id = writer.fresh()
        writer.add(StrengthenStep(new_id, Linear(final), w, {}, evidence,
                                  dominance=True))
        if prev_id is not None:
            writer.add(DeleteStep("a", [prev_id]))
        prev_id = new_id
    return prev_id, final


class _LadderProofs:
    """Chained per-position equality and gap derivations for rung k.

    Within a rung the negation premise N1 is the violated k-term comparison
    and the previous rung is citable by id.  Position i is pinned by
    cancelling positions j < i (alternating directions) and absorbing
    positions j > i into the variable bounds, then rounding; coefficients
    stay unit so the rounding is always applicable.
    """

    def __init__(self, k, u, v, delta, bounds, prev_id, eps):
        self.k = k
        self.u = u
        self.v = v
        self.delta = delta
        self.bounds = bounds
        self.prev_id = prev_id
        self.eps = eps

    def _fixed(self, i):
        return self.u[i - 1] == self.v[i - 1]

    def _absorb(self, plus_var, minus_var, mult):
        """Pairs adding mult*(x_plus - x_minus) <= mult*(ub - lb)."""
        return [self.bounds.upper_pair(plus_var, mult),
                self.bounds.lower_pair(minus_var, mult)]

    def _build(self, builder, want, i):
        """leq: v_i - u_i <= 0;  geq: u_i - v_i <= 0."""
        key = (want, i)
        if key in builder.memo:
            return builder.memo[key]
        k, delta = self.k, self.delta
        pairs = []
        if want == "leq":
            # previous rung, <=-form: sum_{j<k} delta^{k-1-j}(v_j - u_j) <= 0
            scale = Rat(1) / delta ** (k - 1 - i)
            pairs.append((("id", self.prev_id), scale))
            for j in range(1, i):
                if not self._fixed(j):
                    pairs.append((self._build(builder, "geq", j),
                                  delta ** (k - 1 - j) * scale))
            for j in range(i + 1, k):
                if not self._fixed(j):
                    pairs.extend(self._absorb(self.u[j - 1], self.v[j - 1],
                                              delta ** (k - 1 - j) * scale))
        else:
            # negation premise, <=-form: sum_{j<=k} delta^{k-j}(u_j - v_j) < 0
            scale = Rat(1) / delta ** (k - i)
            pairs.append((("neg", 1), scale))
            for j in range(1, i):
                if not self._fixed(j):
                    pairs.append((self._build(builder, "leq", j),
                                  delta ** (k - j) * scale))
            for j in range(i + 1, k + 1):
                if not self._fixed(j):
                    pairs.extend(self._absorb(self.v[j - 1], self.u[j - 1],
                                              delta ** (k - j) * scale))
        builder.steps.append(("lin", pairs))
        builder.steps.append(("round",))
        ref = ("step", len(builder.steps))
        builder.memo[key] = ref
        return ref

    def direction_subproof(self, want, i):
        builder = _ProofBuilder()
        self._build(builder, want, i)
        form = LinExpr({self.v[i - 1]: Rat(1)}).sub(LinExpr({self.u[i - 1]: Rat(1)}))
        rel = GE if want == "geq" else LE
        return Subproof(builder.steps, Inequality(form, rel, Rat(0)))

    def gap_subproof(self, w):
        builder = _ProofBuilder()
        pairs = [(("neg", 1), Rat(1))]
        for j in range(1, self.k):
            if not self._fixed(j):
                pairs.append((self._build(builder, "leq", j),
                              Rat(self.delta ** (self.k - j))))
        builder.steps.append(("lin", pairs))
        builder.steps.append(("round",))
        target = Inequality(signed_form(w, self.u[self.k - 1]), GE, self.eps)
        return Subproof(builder.steps, target)


# ---------------------------------------------------------------------------
# Cut emitters
# ---------------------------------------------------------------------------

def emit_cg_cut(writer: CertWriter, problem: Problem, sources):
    """Aggregate the cited rows with the given multipliers and round the
    right-hand side over the integral variables."""
    premises = [(problem.constraints[cid].ineq, Rat(m)) for cid, m in sources]
    rounded = round_integral(linear_combine(premises), problem.integral)
    sub = Subproof([("lin", [(("id", cid), Rat(m)) for cid, m in sources]),
                    ("round",)], rounded)
    new_id = writer.fresh()
    writer.add(ImplicStep(new_id, [], sub))
    return new_id, rounded


def emit_cover_cut(writer: CertWriter, problem: Problem, row_id, cover,
                   bounds=None):
    """Split derivation of the cover inequality sum_{j in C} x_j <= |C| - 1:
    trivial on the low side; on the high side every cover variable is pinned
    to one and the row is exceeded, a contradiction.

    Cover variables must be binary; other variables in the row are absorbed
    into their bounds, so the cover must exceed the worst-case remaining
    capacity."""
    if bounds is None:
        bounds = BoundTable.scan(problem)
    row = problem.constraints[row_id].ineq
    if row.rel == EQ:
        raise NotACover("cover derivations work on inequality rows")
    terms, rhs, _ = row.le_form()
    cover = sorted(cover)
    if any(terms.get(j, Rat(0)) <= 0 for j in cover):
        raise NotACover("cover variables need positive row coefficients")
    bounds.require(cover, "upper")
    if any(bounds.upper[j][2] != 1 for j in cover):
        raise NotACover("cover variables must have upper bound one")
    outside = sorted(k for k, v in terms.items() if k not in cover and v != 0)
    bounds.require([k for k in outside if terms[k] > 0], "lower")
    bounds.require([k for k in outside if terms[k] < 0], "upper")
    slack_pairs = []
    capacity = rhs
    for k in outside:
        if terms[k] > 0:
            slack_pairs.append(bounds.lower_pair(k, terms[k]))
            capacity -= terms[k] * bounds.lower[k][2]
        else:
            slack_pairs.append(bounds.upper_pair(k, -terms[k]))
            capacity -= terms[k] * bounds.upper[k][2]
    if sum(terms[j] for j in cover) <= capacity:
        raise NotACover("selected variables do not exceed the remaining capacity")
    size = len(cover)
    lhs = LinExpr({j: Rat(1) for j in cover})
    cut = Inequality(lhs, LE, Rat(size - 1))
    a_low = Inequality(lhs, LE, Rat(size - 1))
    a_high = Inequality(lhs, GE, Rat(size))

    id1 = writer.fresh()
    writer.add(ImplicStep(id1, [a_low],
                          Subproof([("lin", [(("assume", 1), Rat(1))])], cut)))
    steps = []
    fix_ref = {}
    for j in cover:
        pairs = [(("assume", 1), Rat(1))]
        for k in cover:
            if k != j:
                pairs.append(bounds.upper_pair(k, Rat(1)))
        steps.append(("lin", pairs))
        fix_ref[j] = ("step", len(steps))
    steps.append(("lin", [(("id", row_id), Rat(1))] +
                  [(fix_ref[j], terms[j]) for j in cover] + slack_pairs))
    id2 = writer.fresh()
    writer.add(ImplicStep(id2, [a_high], Subproof(steps, cut)))
    id3 = writer.fresh()
    writer.add(ResolveStep(id3, id1, 1, id2, 1))
    return id3, cut


def emit_flowcover_cut(writer: CertWriter, problem: Problem, sum_row_id,
                       arc_rows, x_of, y_of, caps, cover, bounds=None):
    """Split derivation of the flow-cover inequality on a single-node flow
    structure: `sum_row_id` bounds the total flow by b, `arc_rows[j]` is
    y_j <= caps[j]*x_j, and the arcs in `cover` exceed b jointly.

    Derivation: an outer split on whether every high-capacity cover arc is
    open; when not, an inner split on the cover capacity in use, each side
    aggregating to the same inequality.
    """
    if bounds is None:
        bounds = BoundTable.scan(problem)
    sum_row = problem.constraints[sum_row_id].ineq
    sum_terms, b, _ = sum_row.le_form()
    cover = sorted(cover)
    lam = sum(caps[j] for j in cover) - b
    if lam <= 0:
        raise NotACover("cover arcs do not exceed the node capacity")
    if not is_int(b) or any(not is_int(Rat(caps[j])) for j in cover):
        raise MalformedDisjunction("integer capacities required for the nested split")
    if any(x_of[j] not in problem.integral for j in cover):
        raise MalformedDisjunction("arc indicators must be integral")
    strong = [j for j in cover if caps[j] >= lam]
    outside = sorted(set(sum_terms) - {y_of[j] for j in cover})
    bounds.require([x_of[j] for j in cover], "upper")
    bounds.require(outside, "lower")

    x_sum = LinExpr({x_of[j]: Rat(1) for j in strong})
    a_cover = Inequality(x_sum, GE, Rat(len(strong)))
    a_low = Inequality(x_sum, LE, Rat(len(strong) - 1))
    lhs = LinExpr({y_of[j]: Rat(1) for j in cover})
    rhs = b
    for j in strong:
        if caps[j] > lam:
            lhs = lhs.add(LinExpr({x_of[j]: -(caps[j] - lam)}))
            rhs -= caps[j] - lam
    cut = Inequality(lhs, LE, rhs)

    # case A: all high-capacity arcs open
    steps = []
    fix_ref = {}
    for j in strong:
        pairs = [(("assume", 1), Rat(1))]
        for k in strong:
            if k != j:
                pairs.append(bounds.upper_pair(x_of[k], Rat(1)))
        steps.append(("lin", pairs))
        fix_ref[j] = ("step", len(steps))
    pairs = [(("id", sum_row_id), Rat(1))]
    for v in outside:
        pairs.append(bounds.lower_pair(v, Rat(1)))
    for j in strong:
        if caps[j] > lam:
            pairs.append((fix_ref[j], caps[j] - lam))
    steps.append(("lin", pairs))
    idA = writer.fresh()
    writer.add(ImplicStep(idA, [a_cover], Subproof(steps, cut)))

    def inter_pairs():
        out = [(("assume", 1), Rat(lam))]
        for j in cover:
            if j not in strong:
                out.append(bounds.upper_pair(x_of[j], caps[j]))
        return out

    flow_lhs = LinExpr({x_of[j]: caps[j] for j in cover})
    a2_low = Inequality(flow_lhs, LE, b)
    a2_high = Inequality(flow_lhs, GE, b + 1)

    # case B1: cover arcs within capacity -> bound flows by the arc rows
    steps = [("lin", inter_pairs()),
             ("lin", [(("id", arc_rows[j]), Rat(1)) for j in cover]),
             ("lin", [(("step", 1), Rat(1)), (("step", 2), Rat(1))])]
    idB1 = writer.fresh()
    writer.add(ImplicStep(idB1, [a_low, a2_low], Subproof(steps, cut)))

    # case B2: they exceed it -> the node row absorbs the difference
    steps = [("lin", inter_pairs())]
    pairs = [(("id", sum_row_id), Rat(1))]
    for v in outside:
        pairs.append(bounds.lower_pair(v, Rat(1)))
    steps.append(("lin", pairs))
    steps.append(("lin", [(("step", 1), Rat(1)), (("step", 2), Rat(1)),
                          (("assume", 2), Rat(1))]))
    idB2 = writer.fresh()
    writer.add(ImplicStep(idB2, [a_low, a2_high], Subproof(steps, cut)))

    idB = writer.fresh()
    writer.add(ResolveStep(idB, idB1, 2, idB2, 2))
    idT = writer.fresh()
    writer.add(ResolveStep(idT, idB, 1, idA, 1))
    return idT, cut


def emit_reduced_cost_fixing(writer: CertWriter, problem: Problem, duals, var,
                             incumbent, bounds=None):
    """Bound a variable from the strict incumbent premise: aggregate the
    objective bound with the cited rows, cancel the remaining reduced costs
    through variable bounds, scale by the target's reduced cost, and round
    when the variable is integral."""
    if bounds is None:
        bounds = BoundTable.scan(problem)
    reduced = LinExpr(dict(problem.objective.terms))
    for cid, mult in duals.items():
        mult = Rat(mult)
        if mult < 0:
            raise MultiplierSignError("row multipliers must be nonnegative")
        row = problem.constraints[cid].ineq
        if row.rel == EQ:
            terms, rhs = row.lhs.terms, row.rhs
        else:
            terms, rhs, _ = row.le_form()
        reduced = reduced.add(LinExpr(terms).scale(mult))
    cbar = reduced.coeff(var)
    if cbar <= 0:
        raise MultiplierSignError(
            f"reduced cost of x{var} is {cbar}; a positive value is required")
    pairs = [(("obj",), Rat(1) / cbar)]
    for cid, mult in duals.items():
        pairs.append((("id", cid), Rat(mult) / cbar))
    for k, coeff in reduced.terms.items():
        if k != var:
            pairs.append(bounds.eliminate(k, coeff / cbar))
    # replay the aggregation to state the resulting bound exactly
    obj_premise = Inequality(problem.objective, LE, Rat(incumbent), strict=True)
    replay = [(obj_premise, Rat(1) / cbar)]
    for (ref, mult) in pairs[1:]:
        replay.append((problem.constraints[ref[1]].ineq, mult))
    result = linear_combine(replay)
    steps = [("lin", pairs)]
    if var in problem.integral:
        result = round_integral(result, problem.integral)
        steps.append(("round",))
    new_id = writer.fresh()
    writer.add(ImplicStep(new_id, [], Subproof(steps, result)))
    return new_id, result


def emit_split_cut(writer: CertWriter, problem: Problem, pi_terms, pi0,
                   left_pairs, right_pairs, cut: Inequality):
    """Generic disjunctive cut: prove the cut under `pi x <= pi0` and under
    `pi x >= pi0 + 1`, then resolve."""
    pi0 = Rat(pi0)
    lhs = LinExpr({j: Rat(c) for j, c in pi_terms.items()})
    if not is_int(pi0) or any(j not in problem.integral or not is_int(c)
                              for j, c in lhs.terms.items()):
        raise MalformedDisjunction(
            "split disjunctions need integer data on integral variables")
    a1 = Inequality(lhs, LE, pi0)
    a2 = Inequality(lhs, GE, pi0 + 1)
    id1 = writer.fresh()
    writer.add(ImplicStep(id1, [a1], Subproof([("lin", left_pairs)], cut)))
    id2 = writer.fresh()
    writer.add(ImplicStep(id2, [a2], Subproof([("lin", right_pairs)], cut)))
    id3 = writer.fresh()
    writer.add(ResolveStep(id3, id1, 1, id2, 1))
    return id3, cut


# ---------------------------------------------------------------------------
# Top-level driver
# ---------------------------------------------------------------------------

def solve_and_certify(problem: Problem, sst=False, lex=False, cuts=(),
                      node_limit=500_000):
    """Branch-and-bound with certificate emission.

    `sst` emits the symmetry-order cut chain up front; `lex` emits collapsed
    comparison ladders for the adjacent-swap formulation symmetries; `cuts`
    names strengthening families applied to the rows ("cg" rounds rows with
    fractional right-hand sides, "cover" derives full-support cover cuts).
    Returns (verdict, certificate text, stats).
    """
    writer = CertWriter(problem)
    certifier = Certifier(problem, writer, node_limit=node_limit)
    stats = {"cuts": 0}
    bounds = None
    extra = []
    if sst:
        bounds = bounds or BoundTable.scan(problem)
        extra.extend(emit_sst_cuts(writer, problem, bounds))
    elif lex:
        bounds = bounds or BoundTable.scan(problem)
        installed = False
        for k in range(1, problem.n):
            perm = {k: k + 1, k + 1: k}
            if not is_formulation_symmetry(problem, perm):
                continue
            if not installed:
                emit_order_tree(writer, list(range(1, problem.n + 1)), bounds)
                installed = True
            cid, cut = emit_lex_constraint(
                writer, problem, [k, k + 1], perm,
                bounds.lower[k][2], bounds.upper[k][2],
                bounds=bounds, install_tree=False)
            extra.append((cid, cut))
    if "cg" in cuts:
        for row_id, c in sorted(problem.constraints.items()):
            if not isinstance(c, Linear) or c.ineq.rel == EQ or c.ineq.strict:
                continue
            terms, rhs, _ = c.ineq.le_form()
            if len(terms) < 2 or is_int(rhs):
                continue
            if all(j in problem.integral and is_int(v) for j, v in terms.items()):
                extra.append(emit_cg_cut(writer, problem, [(row_id, Rat(1))]))
    if "cover" in cuts:
        bounds = bounds or BoundTable.scan(problem)
        for row_id, c in sorted(problem.constraints.items()):
            if not isinstance(c, Linear) or c.ineq.rel == EQ or c.ineq.strict:
                continue
            terms, _, _ = c.ineq.le_form()
            support = sorted(j for j, v in terms.items() if v > 0)
            if len(support) < 2:
                continue
            try:
                extra.append(emit_cover_cut(writer, problem, row_id, support,
                                            bounds=bounds))
            except (NotACover, UnboundedVariable):
                continue
    for cid, cut in extra:
        certifier.register_row(cid, cut)
    stats["cuts"] = len(extra)
    verdict = certifier.run()
    stats["nodes"] = certifier.nodes
    stats["steps"] = writer.steps
    stats["best"] = certifier.best
    return verdict, writer.text(), stats
