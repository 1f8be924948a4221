"""Reference certifying solver for desk-scale bounded pure-integer programs,
plus emitters for rounding and cover cuts, symmetry-order cuts, and
lexicographic comparison ladders.

The solver runs a propagation-plus-branching search and writes every
deduction as a checkable step: leaves close with an implied contradiction
(aggregation of rows and bound facts, or the strict objective-bound premise
after an incumbent update), interior nodes close by resolution, and the run
ends with a goal step.  Emitted certificates are self-contained (problem
header included) and pass the verifier.  The worked derivations the solver
never runs (single-node flow covers, reduced-cost fixing, split cuts) are
test fixtures, in `tests/appendix.py`.  The solver does not run the ladder
either: `sst` orders each symmetric pair with one DOM step, the ladder's
one-rung case.  The ladder stays here because `bench/spans.py` binds it.
"""

from collections import Counter, deque

from .certfile import fmt_problem, fmt_step
from .errors import CertifyOptionError, NonIntegralProblem, NotACover, UnboundedVariable
from .exact import (
    EQ,
    GE,
    LE,
    Inequality,
    LinExpr,
    ceil_int,
    falsity,
    floor_int,
    is_int,
    linear_combine,
    quotient,
    rat,
    round_integral,
    unit_bound,
)
from .model import Implication, Linear, Problem, constraint_vars, point
from .rules import (
    DeleteStep,
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
    """Accumulates canonical certificate text about one problem and
    allocates increasing ids.  The problem header is formatted by `text`,
    so a problem the certifier refuses is never formatted.  The assumption
    list and header line of the last IMPLIC written under the current
    dimension are kept, so that the next IMPLIC slices the header text of
    the branching assumptions the two share instead of formatting them
    again."""

    __slots__ = ("problem", "n", "lines", "next_id", "steps", "_bounds",
                 "_assumed", "_head")

    def __init__(self, problem: Problem):
        self.problem = problem
        self.n = problem.n
        self.lines = []
        self.next_id = max(problem.constraints, default=0) + len(problem.integral) + 1
        self.steps = 0
        self._bounds = None
        self._assumed, self._head = (), None

    @property
    def bounds(self) -> "BoundTable":
        """The problem's citable bounds, scanned on first use."""
        if self._bounds is None:
            self._bounds = BoundTable.scan(self.problem)
        return self._bounds

    def fresh(self) -> int:
        cid = self.next_id
        self.next_id += 1
        return cid

    def add(self, step):
        step_lines, n = fmt_step(step, self.n, self._assumed, self._head)
        if n != self.n:
            self.n, self._assumed, self._head = n, (), None
        elif isinstance(step, ImplicStep):
            self._assumed, self._head = step.assumptions, step_lines[0]
        self.lines.extend(step_lines)
        self.steps += 1

    def derive(self, assumptions, subproof: Subproof) -> int:
        """Write an IMPLIC step under a fresh id; returns the id."""
        new_id = self.fresh()
        self.add(ImplicStep(new_id, assumptions, subproof))
        return new_id

    def resolve(self, id1, id2, k) -> int:
        """Write a RESOLVE step on assumption k under a fresh id; returns the id."""
        new_id = self.fresh()
        self.add(ResolveStep(new_id, id1, k, id2, k))
        return new_id

    def text(self) -> str:
        self._assumed, self._head = (), None
        return "\n".join(fmt_problem(self.problem) + self.lines) + "\n"


# ---------------------------------------------------------------------------
# Citable bounds
# ---------------------------------------------------------------------------

class BoundTable:
    """Per-variable citable bounds from single-variable core rows.

    Each side stores (constraint id, denominator, bound value, strict); a
    premise pair contributing lambda times the variable (minus lambda times
    it for a lower bound) cites the id with multiplier lambda/denominator.
    A cited row contributes its stated coefficient times the multiplier,
    negated for >=, since the combiner orients >= itself and takes an
    equality as stated; so an equality's lower side has a negative
    denominator.  A strict row keeps its own value and is marked strict:
    its pair contributes the strict bound."""

    def __init__(self):
        self.upper = {}
        self.lower = {}

    @classmethod
    def scan(cls, problem: Problem):
        table = cls()
        for cid, c in problem.constraints.items():
            if not isinstance(c, Linear) or len(c.ineq.lhs.terms) != 1:
                continue
            iq = c.ineq
            (coeff,) = iq.lhs.terms.values()
            if iq.rel == GE:
                coeff = -coeff
            for terms, sign, rhs, strict in iq.le_halves():
                j, upper, value = unit_bound(terms, sign, rhs)
                # on a tie in value the strict row is the tighter
                if upper:
                    cur = table.upper.get(j)
                    if cur is None or (value, not strict) < (cur[2], not cur[3]):
                        table.upper[j] = (cid, coeff, value, strict)
                else:
                    cur = table.lower.get(j)
                    if cur is None or (value, strict) > (cur[2], cur[3]):
                        table.lower[j] = (cid, -coeff, value, strict)
        return table

    def require(self, variables, side):
        store = self.upper if side == "upper" else self.lower
        missing = sorted(v for v in set(variables) if v not in store)
        if missing:
            raise UnboundedVariable(f"no citable {side} bound for x{missing}")

    def upper_pair(self, var, mult):
        """Premise pair contributing +mult*x_var (<= mult*ub)."""
        cid, coeff, *_ = self.upper[var]
        return (("id", cid), quotient(mult, coeff))

    def lower_pair(self, var, mult):
        """Premise pair contributing -mult*x_var (<= -mult*lb)."""
        cid, coeff, *_ = self.lower[var]
        return (("id", cid), quotient(mult, coeff))


# ---------------------------------------------------------------------------
# Formulation symmetry
# ---------------------------------------------------------------------------

def row_key(c):
    """Hashable key of a Linear or Implication row or an Inequality: two
    share a key exactly when they are equal, and no `__eq__` of theirs runs."""
    if type(c) is Linear:
        c = c.ineq
    elif type(c) is Implication:
        return tuple(map(row_key, (*c.assumptions, c.consequent)))
    return c.rel, c.strict, c.rhs, frozenset(c.lhs.terms.items())


def row_readers(problem: Problem):
    """Map each variable to the ids of the problem's rows that read it."""
    readers = {}
    for cid, c in problem.constraints.items():
        for j in constraint_vars(c):
            readers.setdefault(j, []).append(cid)
    return readers


def is_formulation_symmetry(problem: Problem, perm: dict, readers=None) -> bool:
    """Variable permutation paired with some row permutation leaving the
    constraint data, objective, and variable types invariant.

    Only the rows that read an output of the map are compared, by
    `row_key`; `readers` (`row_readers(problem)` when not given) finds them.
    Every other row is its own image, so it cancels from both sides."""
    w = AffineMap.permutation(perm)
    if w.apply_expr(problem.objective) != problem.objective:
        return False
    if {perm.get(j, j) for j in problem.integral} != problem.integral:
        return False
    if readers is None:
        readers = row_readers(problem)
    ids = {cid for j in w.outputs for cid in readers.get(j, ())}
    moved = [problem.constraints[cid] for cid in ids]
    remaining = Counter(map(row_key, moved))
    for c in moved:
        image = row_key(w.apply_constraint(c))
        if remaining[image] == 0:
            return False
        remaining[image] -= 1
    return True


def swap_classes(problem: Problem):
    """The classes of x_1..x_n under the swaps that are formulation
    symmetries, as a list mapping each variable to its class's smallest
    member (entry 0 unused).

    The symmetries form a group, and for distinct k, j, l the swap (k l) is
    (j l)(k j)(j l); so swapping within a class is a symmetry and the
    classes partition the variables.  Each variable is tested against one
    member of each class found so far, and joins the first that passes.
    `row_readers` runs once, so each test reads only the rows it moves."""
    leader = list(range(problem.n + 1))
    readers = row_readers(problem)
    for j in range(2, problem.n + 1):
        for r in range(1, j):
            if leader[r] == r and is_formulation_symmetry(problem, {r: j, j: r}, readers):
                leader[j] = r
                break
    return leader


# ---------------------------------------------------------------------------
# Search with reason tracking
# ---------------------------------------------------------------------------

class _Bound:
    """A live bound with its justification: source is ("id", cid) or
    ("assume", k) for directly citable unit bounds, else a _Fact."""

    __slots__ = ("val", "source")

    def __init__(self, val, source):
        self.val = val
        self.source = source


class _Fact:
    """A derived inequality: one aggregation, optionally rounded."""

    __slots__ = ("pairs", "rounded")

    def __init__(self, pairs, rounded):
        self.pairs = pairs      # [(source, mult)], sources as in _Bound
        self.rounded = rounded


class _ProofBuilder:
    """Chained subproof lines; linearizes a fact DAG into them.  `memo` maps
    what a line derives to its reference, so nothing is derived twice."""

    def __init__(self):
        self.steps = []
        self.memo = {}

    def line(self, pairs, rounded=False):
        """Append a LIN line, rounded when asked; returns its reference."""
        self.steps.append(("lin", pairs))
        if rounded:
            self.steps.append(("round",))
        return ("step", len(self.steps))

    def emit(self, fact: _Fact):
        """Lines for `fact`, after lines for the derived facts it cites, in
        pair order; returns the reference of its line."""
        memo = self.memo
        stack = [fact]
        while stack:
            top = stack[-1]
            sources = [src.source if isinstance(src, _Bound) else src for src, _ in top.pairs]
            pending = [src for src in sources if isinstance(src, _Fact) and id(src) not in memo]
            if pending:
                stack.extend(reversed(pending))
                continue
            stack.pop()
            if id(top) not in memo:
                pairs = [(memo[id(src)] if isinstance(src, _Fact) else src, mult)
                         for src, (_, mult) in zip(sources, top.pairs)]
                memo[id(top)] = self.line(pairs, top.rounded)
        return memo[id(fact)]


def _fact_subproof(fact: _Fact, target: Inequality) -> Subproof:
    builder = _ProofBuilder()
    builder.emit(fact)
    return Subproof(builder.steps, target)


class _Infeasible(Exception):
    def __init__(self, fact):
        self.fact = fact


def _read_end(j, c):
    """The box end the minimum activity of c * x_j reads: x_j's lower bound
    (end 2j) when c > 0, its upper bound (end 2j + 1) otherwise."""
    return 2 * j + (c < 0)


class Certifier:
    """Propagation + branching search emitting a certificate as it runs.

    Bounds carry their derivations; a contradiction aggregates the row with
    the supporting bounds, recursively expanding derived bounds into chained
    subproof lines at emission time.  A box is a list of `_Bound`s indexed
    by end: 2j is x_j's lower bound, 2j + 1 its upper bound.
    """

    def __init__(self, writer: CertWriter, node_limit=500_000):
        problem = writer.problem
        problem.validate()
        # counts over the input, so that a refusal allocates nothing per variable
        n = problem.n
        if len(problem.integral) != n:
            raise NonIntegralProblem("certifying solver requires all-integer variables")
        bounded = set()   # the variables of one-variable rows; `_root_box` checks their bounds
        for c in problem.constraints.values():
            if not isinstance(c, Linear):
                raise NonIntegralProblem("certifying solver supports linear rows only")
            if len(c.ineq.lhs.terms) == 1:
                bounded.update(c.ineq.lhs.terms)
        if len(bounded) < n:
            missing = next(j for j in range(1, n + 1) if j not in bounded)
            raise UnboundedVariable(f"variable x{missing} lacks finite citable bounds")
        self.problem = problem
        self.writer = writer
        self.node_limit = node_limit
        self.nodes = 0
        self.z = None
        # (cid, read ends, coefficients, rhs, strict, cite_mult_sign), <=-oriented
        self.rows = []
        self._watch = [[] for _ in range(2 * n + 2)]   # end -> rows reading it
        self._fold_skip = set()
        g = problem.objective
        self._objective = ([_read_end(j, c) for j, c in g.terms.items()],
                           list(g.terms.values()), g.const)
        for cid, c in problem.constraints.items():
            self.register_row(cid, c.ineq)

    def register_row(self, cid, iq: Inequality):
        # the citation sign is -1 only for the negated half of an equality;
        # <= / >= premises are oriented by the combiner itself
        for cite, (terms, sign, rhs, strict) in zip((1, -1), iq.le_halves()):
            if sign == 1:
                coeffs = tuple(terms.values())
            else:
                coeffs = tuple([-c for c in terms.values()])
            ends = tuple([_read_end(j, c) for j, c in zip(terms, coeffs)])
            for e in ends:
                self._watch[e].append(len(self.rows))
            self.rows.append((cid, ends, coeffs, rhs, strict, cite))

    # -- root box ----------------------------------------------------------

    def _split_fractional_equalities(self):
        """A rounded bound cannot come straight out of an equality premise
        (the aggregation stays an equality); derive both weak halves as
        their own constraints first and fold bounds from those."""
        for cid, c in sorted(self.problem.constraints.items()):
            iq = c.ineq
            if iq.rel != EQ or len(iq.lhs.terms) != 1:
                continue
            j, _, value = unit_bound(iq.lhs.terms, 1, iq.rhs)
            if is_int(value):
                continue
            self._fold_skip.add(cid)
            cite = [("lin", [(("id", cid), quotient(1, iq.lhs.terms[j]))])]
            for rel in (LE, GE):
                half = Inequality(LinExpr({j: 1}), rel, value)
                new_id = self.writer.derive([], Subproof(cite, half))
                self.register_row(new_id, half)

    def _root_box(self):
        n = self.problem.n
        box = [None] * (2 * n + 2)
        for cid, ends, coeffs, rhs, strict, sign in self.rows:
            if len(ends) != 1 or cid in self._fold_skip:
                continue
            (e,), (coeff,) = ends, coeffs
            _, upper, raw = unit_bound({e >> 1: coeff}, 1, rhs)
            val = floor_int(raw, strict) if upper else ceil_int(raw, strict)
            rounded = strict or raw != val
            if coeff in (1, -1) and sign == 1 and not rounded:
                source = ("id", cid)
            else:
                source = _Fact([(("id", cid), quotient(sign, abs(coeff)))], rounded)
            cur = box[e ^ 1]   # the row bounds the end it does not read
            if cur is None or (upper and val < cur.val) or (not upper and val > cur.val):
                box[e ^ 1] = _Bound(val, source)
        missing = [j for j in range(1, n + 1) if box[2 * j] is None or box[2 * j + 1] is None]
        if missing:
            raise UnboundedVariable(f"variables {missing} lack finite citable bounds")
        return box

    # -- propagation -------------------------------------------------------

    def _propagate(self, box, queue):
        """Visit the rows at the positions in `queue`, in order, tightening
        the box in place; a tightened end queues the rows that read it,
        once.  Raises _Infeasible carrying a contradiction."""
        rows, watch = self.rows, self._watch
        queued = set(queue)
        pending = deque(queue)
        while pending:
            pos = pending.popleft()
            queued.discard(pos)
            cid, ends, coeffs, rhs, strict, sign = rows[pos]
            # the minimum activity, and the most one term can move it
            act = span = 0
            for e, c in zip(ends, coeffs):
                read = box[e].val
                act += c * read
                move = c * (box[e ^ 1].val - read)
                if move > span:
                    span = move
            slack = rhs - act
            if slack < 0 or (strict and slack == 0):
                pairs = [(("id", cid), sign)]
                pairs += [(box[e], abs(c)) for e, c in zip(ends, coeffs)]
                raise _Infeasible(_Fact(pairs, False))
            # box ends are integers, so a term tightens its variable only
            # if it can move the activity by more than the slack, or by as
            # much in a strict row.  A weak one-variable row never can: it
            # was folded into the root box.
            if span < slack or (span == slack and not strict):
                continue
            # slack >= 0 (> 0 when strict) keeps each new end on the far
            # side of the end its term read, so no tightening empties the box
            for e, c in zip(ends, coeffs):
                other = e ^ 1
                raw = box[e].val + quotient(slack, c)
                if c > 0:
                    val = floor_int(raw, strict)
                    improved = val < box[other].val
                else:
                    val = ceil_int(raw, strict)
                    improved = val > box[other].val
                if not improved:
                    continue
                rounded = strict or raw != val
                pairs = [(("id", cid), quotient(sign, abs(c)))]
                pairs += [(box[k], quotient(abs(ck), abs(c)))
                          for k, ck in zip(ends, coeffs) if k != e]
                box[other] = _Bound(val, _Fact(pairs, rounded))
                for p in watch[other]:
                    if p not in queued:
                        queued.add(p)
                        pending.append(p)

    def _objective_prune_fact(self, box):
        """Contradiction from the strict incumbent premise, if provable."""
        if self.z is None:
            return None
        ends, coeffs, const = self._objective
        if const + sum(c * box[e].val for e, c in zip(ends, coeffs)) < self.z:
            return None
        return _Fact([(("obj",), 1)] + [(box[e], abs(c)) for e, c in zip(ends, coeffs)],
                     False)

    # -- search ------------------------------------------------------------

    def _visit(self, assumptions, box, queue):
        """Close the node and return the id of its refutation, or return
        (branch variable, split value) when it has to branch."""
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise RuntimeError("search node limit exceeded")
        try:
            self._propagate(box, queue)
            fact = self._objective_prune_fact(box)
        except _Infeasible as inf:
            fact = inf.fact
        if fact is None:
            n = self.problem.n
            for j in range(1, n + 1):
                lo, hi = box[2 * j].val, box[2 * j + 1].val
                if lo != hi:
                    return j, (lo + hi) // 2
            values = [box[2 * j].val for j in range(1, n + 1)]
            # a propagation fixpoint with no violated row is feasible; it
            # improves on z, otherwise the objective prune above fired
            self.writer.add(SolStep(values))
            self.z = self.problem.objective.evaluate(point(values))
            fact = self._objective_prune_fact(box)
        return self.writer.derive(assumptions, _fact_subproof(fact, falsity()))

    def _child(self, frame, rel):
        """Assumptions, box and queue of the child x <= mid (rel LE) or
        x >= mid + 1 (rel GE) of a branching node.  The parent's box is a
        propagation fixpoint and the child changes one end of it, so only
        the rows reading that end are queued."""
        assumptions, box, var, mid, _ = frame
        val = mid if rel == LE else mid + 1
        end = 2 * var + (rel == LE)
        child_box = box[:]
        child_box[end] = _Bound(val, ("assume", len(assumptions) + 1))
        return (assumptions + [Inequality(LinExpr({var: 1}), rel, val)],
                child_box, self._watch[end])

    def _search(self, box):
        """Depth-first search, left child first, over an explicit stack of
        branching nodes [assumptions, box, variable, split value, left id];
        a node whose children are both refuted closes by RESOLVE and deletes
        them.  Returns the id refuting the root."""
        stack = []
        node = ([], box, range(len(self.rows)))
        while True:
            result = self._visit(*node)
            if isinstance(result, tuple):
                stack.append([node[0], node[1], *result, None])
                node = self._child(stack[-1], LE)
                continue
            while stack and stack[-1][4] is not None:
                assumptions, *_, left_id = stack.pop()
                right_id = result
                result = self.writer.resolve(left_id, right_id, len(assumptions) + 1)
                self.writer.add(DeleteStep("a", [left_id, right_id]))
            if not stack:
                return result
            stack[-1][4] = result
            node = self._child(stack[-1], GE)

    def run(self):
        self._split_fractional_equalities()
        root_id = self._search(self._root_box())
        self.writer.add(GoalStep(root_id))
        if self.z is None:
            return Verdict("infeasible")
        return Verdict("optimal", self.z)


# ---------------------------------------------------------------------------
# Symmetry-order cut chain
# ---------------------------------------------------------------------------

def emit_order_tree(writer: CertWriter, order):
    """Install a one-node tree whose root compares the given variables in
    sequence (positive entries, so upper bounds are cited)."""
    writer.bounds.require(order, "upper")
    refs = {(1, j): writer.bounds.upper[j][0] for j in order}
    writer.add(TreeStep(BranchTree({1: TreeNode(None, UNIVERSE, tuple(order))}, 1),
                        refs))


def emit_sst_cuts(writer: CertWriter):
    """Stabilizer-chain order cuts as a chain over each swap class
    c1 < c2 < ... < cm: x_ci >= x_c(i+1) for i < m, in increasing c_i.
    Each cut x_k >= x_j is one DOM step whose witness swaps k and j, a
    formulation symmetry, and whose gap proof rounds the negation
    x_k - x_j < 0 to x_j - x_k >= 1, the initial eps.  The chain implies
    the cut of every other pair of the class by transitivity: it is the
    transitive reduction of the pairwise cuts.

    Installs the comparison tree when the chain has a link, so that a
    problem without a symmetric swap gets no step, and returns
    [(constraint id, inequality)] for the cuts."""
    n = writer.problem.n
    leader = swap_classes(writer.problem)
    # (k, j) for each member k and the next member j of its class, from a
    # pass down the indices that keeps each class's last member seen
    links, last = [], {}
    for j in range(n, 0, -1):
        if leader[j] in last:
            links.append((j, last[leader[j]]))
        last[leader[j]] = j
    if links:
        emit_order_tree(writer, list(range(1, n + 1)))
    cuts = []
    for k, j in reversed(links):
        w = AffineMap.permutation({k: j, j: k})
        cut = Inequality(LinExpr({k: 1, j: -1}), GE, 0)
        gap = Subproof([("lin", [(("neg", 1), 1)]), ("round",)],
                       Inequality(signed_form(w, k), GE, 1))
        cid = writer.fresh()
        writer.add(StrengthenStep(cid, Linear(cut), w, {}, {k: {"gap": gap}},
                                  dominance=True))
        cuts.append((cid, cut))
    return cuts


# ---------------------------------------------------------------------------
# Lexicographic comparison ladder
# ---------------------------------------------------------------------------

def emit_lex_constraint(writer: CertWriter, sigma, perm):
    """Derive the weighted comparison constraint forcing the variable
    sequence `sigma` to be lexicographically no smaller than its image under
    the permutation.  The rungs' weights come from the cited bounds of the
    involved variables: [low, high] spans the smallest lower bound and the
    largest upper bound.

    Builds the inductive dominance ladder over prefix lengths, deleting each
    superseded prefix constraint, and returns (final id, final inequality).
    The comparison tree over `sigma` must be installed first (see
    `emit_order_tree`).  The ladder is written for any `perm` and cites no
    image: under a formulation symmetry every image is a problem row, and
    otherwise the verifier rejects it.  The solver does not call it: the
    one-rung ladder of a swap (k, j) over [k] is the step `emit_sst_cuts`
    writes for that pair.
    """
    bounds = writer.bounds
    inv = {v: k for k, v in perm.items()}
    u = list(sigma)
    v = [inv.get(s, s) for s in sigma]
    involved = sorted(set(u) | set(v))
    bounds.require(involved, "upper")
    bounds.require(involved, "lower")
    low = min(bounds.lower[s][2] for s in involved)
    high = max(bounds.upper[s][2] for s in involved)
    # weights above high - low order the prefixes lexicographically; at
    # least 2, so that a variable at two positions of a prefix keeps a
    # nonzero coefficient (with 1, a swap of fixed variables cancels to 0)
    delta = max(high - low + 1, 2)
    w = AffineMap.permutation(perm)

    def comparison(k):
        e = LinExpr()
        for i in range(k):
            e = e.add(LinExpr({u[i]: delta ** (k - 1 - i)}))
            e = e.add(LinExpr({v[i]: -(delta ** (k - 1 - i))}))
        return Inequality(e, GE, 0)

    def differs(i):
        return u[i - 1] != v[i - 1]

    # Rung k proves per-position equalities under its negation premise N1
    # (the violated k-term comparison), citing the previous rung by id.
    # Position i is pinned by cancelling positions j < i (alternating
    # directions) and absorbing positions j > i into the variable bounds,
    # then rounding; coefficients stay unit so the rounding always applies.
    # These functions read the rung k and prev_id of the loop below.
    def pinned(builder, want, i):
        """Line deriving v_i - u_i <= 0 (leq) or u_i - v_i <= 0 (geq)."""
        if (want, i) in builder.memo:
            return builder.memo[want, i]
        if want == "leq":
            # previous rung, <=-form: sum_{j<k} delta^{k-1-j}(v_j - u_j) <= 0
            base, top, other, plus, minus = ("id", prev_id), k - 1, "geq", u, v
        else:
            # negation premise, <=-form: sum_{j<=k} delta^{k-j}(u_j - v_j) < 0
            base, top, other, plus, minus = ("neg", 1), k, "leq", v, u
        scale = quotient(1, delta ** (top - i))
        pairs = [(base, scale)]
        for j in range(1, i):
            if differs(j):
                pairs.append((pinned(builder, other, j), delta ** (top - j) * scale))
        for j in range(i + 1, top + 1):
            if differs(j):
                mult = delta ** (top - j) * scale
                pairs += [bounds.upper_pair(plus[j - 1], mult),
                          bounds.lower_pair(minus[j - 1], mult)]
        builder.memo[want, i] = ref = builder.line(pairs, rounded=True)
        return ref

    def direction_subproof(want, i):
        builder = _ProofBuilder()
        pinned(builder, want, i)
        form = LinExpr({v[i - 1]: 1}).sub(LinExpr({u[i - 1]: 1}))
        return Subproof(builder.steps, Inequality(form, GE if want == "geq" else LE, 0))

    def gap_subproof():
        builder = _ProofBuilder()
        pairs = [(("neg", 1), 1)]
        for j in range(1, k):
            if differs(j):
                pairs.append((pinned(builder, "leq", j), delta ** (k - j)))
        builder.line(pairs, rounded=True)
        return Subproof(builder.steps, Inequality(signed_form(w, u[k - 1]), GE, 1))

    prev_id = None
    final = None
    for k in range(1, len(u) + 1):
        final = comparison(k)
        evidence = {u[i - 1]: {"geq": direction_subproof("geq", i),
                               "leq": direction_subproof("leq", i)}
                    for i in range(1, k) if differs(i)}
        if differs(k):
            evidence[u[k - 1]] = {"gap": gap_subproof()}
        new_id = writer.fresh()
        writer.add(StrengthenStep(new_id, Linear(final), w, {}, evidence,
                                  dominance=True))
        if prev_id is not None:
            writer.add(DeleteStep("a", [prev_id]))
        prev_id = new_id
    return prev_id, final


# ---------------------------------------------------------------------------
# Cut emitters
# ---------------------------------------------------------------------------

def emit_cg_cut(writer: CertWriter, sources):
    """Aggregate the cited rows with the given multipliers and round the
    right-hand side over the integral variables."""
    premises = [(writer.problem.constraints[cid].ineq, rat(m)) for cid, m in sources]
    rounded = round_integral(linear_combine(premises), writer.problem.integral)
    sub = Subproof([("lin", [(("id", cid), rat(m)) for cid, m in sources]),
                    ("round",)], rounded)
    return writer.derive([], sub), rounded


def _pin_to_one(builder, variables, bounds):
    """Under assumption A1, sum of `variables` >= their number, derive
    x_v >= 1 for each v from the upper bounds of one on the others; a cited
    bound other than x_k <= 1, such as x_k < 2, is first rounded to it on a
    line of its own.  Returns {v: reference}."""
    ones = {}
    for k in variables:
        pair = bounds.upper_pair(k, 1)
        if bounds.upper[k][2:] != (1, False):
            pair = (builder.line([pair], rounded=True), 1)
        ones[k] = pair
    return {v: builder.line([(("assume", 1), 1)] + [ones[k] for k in variables if k != v])
            for v in variables}


def _resolve_split(writer, low, low_steps, high, high_steps, target):
    """Derive `target` under `low` and under `high`, which split on one
    left-hand side, then resolve the split away; returns the id of the
    resolvent."""
    low_id = writer.derive([low], Subproof(low_steps, target))
    high_id = writer.derive([high], Subproof(high_steps, target))
    return writer.resolve(low_id, high_id, 1)


def emit_cover_cut(writer: CertWriter, row_id, cover):
    """Split derivation of the cover inequality sum_{j in C} x_j <= |C| - 1:
    trivial on the low side; on the high side every cover variable is pinned
    to one and the row is exceeded, a contradiction.

    Cover variables must be binary: their cited upper bounds round down to
    one (the split needs them integral, which the verifier checks).  Other
    variables in the row are absorbed into their bounds, so the cover must
    exceed the worst-case remaining capacity, or meet it when one of those
    bounds is strict."""
    problem, bounds = writer.problem, writer.bounds
    row = problem.constraints[row_id].ineq
    if row.rel == EQ:
        raise NotACover("cover derivations work on inequality rows")
    terms, rhs, _ = row.le_form()
    cover = sorted(cover)
    bounds.require(cover, "upper")
    if any(floor_int(*bounds.upper[j][2:]) != 1 for j in cover):
        raise NotACover("cover variables must have upper bound one")
    outside = sorted(k for k, v in terms.items() if k not in cover and v != 0)
    bounds.require([k for k in outside if terms[k] > 0], "lower")
    bounds.require([k for k in outside if terms[k] < 0], "upper")
    slack_pairs = []
    capacity = rhs
    strict = False
    for k in outside:
        if terms[k] > 0:
            slack_pairs.append(bounds.lower_pair(k, terms[k]))
            _, _, value, st = bounds.lower[k]
        else:
            slack_pairs.append(bounds.upper_pair(k, -terms[k]))
            _, _, value, st = bounds.upper[k]
        capacity -= terms[k] * value
        strict = strict or st
    # a strict cited bound makes the combination strict, so a cover that
    # only meets the capacity still ends in the falsity 0 < 0
    weight = sum(terms.get(j, 0) for j in cover)
    if weight < capacity or (weight == capacity and not strict):
        raise NotACover("selected variables do not exceed the remaining capacity")
    size = len(cover)
    lhs = LinExpr({j: 1 for j in cover})
    cut = Inequality(lhs, LE, size - 1)
    high = _ProofBuilder()
    fix_ref = _pin_to_one(high, cover, bounds)
    high.line([(("id", row_id), 1)] +
              [(fix_ref[j], terms.get(j, 0)) for j in cover] + slack_pairs)
    new_id = _resolve_split(writer, cut, [("lin", [(("assume", 1), 1)])],
                            Inequality(lhs, GE, size), high.steps, cut)
    return new_id, cut


# ---------------------------------------------------------------------------
# Top-level driver
# ---------------------------------------------------------------------------

def _row_cuts(writer: CertWriter, cuts):
    """Emit the `cuts` families' cuts from the weak inequality rows, each
    family in row id order; returns [(id, cut)]."""
    problem = writer.problem
    rows = [(row_id, c.ineq.le_form()) for row_id, c in sorted(problem.constraints.items())
            if isinstance(c, Linear) and c.ineq.rel != EQ and not c.ineq.strict]
    extra = []
    if "cg" in cuts:
        for row_id, (terms, rhs, _) in rows:
            if len(terms) < 2 or is_int(rhs):
                continue
            if all(is_int(v) for v in terms.values()):
                extra.append(emit_cg_cut(writer, [(row_id, 1)]))
    if "cover" in cuts:
        for row_id, (terms, _, _) in rows:
            support = sorted(j for j, v in terms.items() if v > 0)
            if len(support) < 2:
                continue
            try:
                extra.append(emit_cover_cut(writer, row_id, support))
            except (NotACover, UnboundedVariable):
                continue
    return extra


CUT_FAMILIES = ("cg", "cover")


def solve_and_certify(problem: Problem, sst=False, cuts=(), node_limit=500_000):
    """Branch-and-bound with certificate emission.

    `sst` emits the symmetry-order cut chain up front; `cuts` names
    strengthening families applied to the rows ("cg" rounds rows with
    fractional right-hand sides, "cover" derives full-support cover cuts).
    Returns (verdict, certificate text, stats).
    """
    unknown = [name for name in cuts if name not in CUT_FAMILIES]
    if unknown:
        raise CertifyOptionError(f"unknown cut family {unknown[0]!r}; "
                                 f"the families are {', '.join(CUT_FAMILIES)}")
    writer = CertWriter(problem)
    certifier = Certifier(writer, node_limit=node_limit)
    extra = emit_sst_cuts(writer) if sst else []
    if cuts:
        extra.extend(_row_cuts(writer, cuts))
    for cid, cut in extra:
        certifier.register_row(cid, cut)
    verdict = certifier.run()
    stats = {"cuts": len(extra), "nodes": certifier.nodes, "steps": writer.steps}
    return verdict, writer.text(), stats
