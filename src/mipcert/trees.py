"""Consistent branching trees, their machine checks, and symbolic evaluation
of the tree-induced weak/strict solution orders for affine witnesses under
partial (box) information.

Branching constraints are restricted to single-variable bounds `x_j <= beta`
or `x_j >= beta` (or the whole space); nodes with two or more children must
branch on an integral variable.  This keeps the covering and disjointness
checks decidable by exact interval arithmetic.
"""

from .exact import (
    GE,
    LE,
    Inequality,
    LinExpr,
    Rat,
    ceil_int,
    dominates,
    floor_int,
    fmt,
    is_int,
    unit_bound,
)
from .model import Implication, Linear

UNIVERSE = None  # branch value for unconstrained nodes


class TreeNode:
    __slots__ = ("parent", "branch", "sigma")

    def __init__(self, parent, branch, sigma):
        self.parent = parent          # node id or None for the root
        self.branch = branch          # (var, "<="|">=", Rat) or UNIVERSE
        self.sigma = tuple(sigma)     # signed variable indices

    def __eq__(self, other):
        return (
            isinstance(other, TreeNode)
            and self.parent == other.parent
            and self.branch == other.branch
            and self.sigma == other.sigma
        )


class BranchTree:
    def __init__(self, nodes, root):
        self.nodes = nodes            # id -> TreeNode
        self.root = root
        kids = {nid: [] for nid in nodes}
        for nid, node in nodes.items():
            if node.parent is not None and node.parent in kids:
                kids[node.parent].append(nid)
        self.kids = kids

    def children(self, nid):
        return self.kids[nid]

    def is_leaf(self, nid):
        return not self.kids[nid]

    def subtree_entries(self, nid):
        """All signed sigma entries occurring at nid or below."""
        out = set()
        stack = [nid]
        while stack:
            v = stack.pop()
            out.update(self.nodes[v].sigma)
            stack.extend(self.kids[v])
        return out


def trivial_tree() -> BranchTree:
    return BranchTree({1: TreeNode(None, UNIVERSE, ())}, 1)


def branch_inequality(branch) -> Inequality:
    var, rel, beta = branch
    return Inequality(LinExpr({var: Rat(1)}), rel, beta)


# ---------------------------------------------------------------------------
# Boxes: per-variable rational intervals with strict-endpoint flags
# ---------------------------------------------------------------------------

class Box:
    """Closed-or-open rational intervals per variable, possibly unbounded.

    lo[j] / hi[j] are Rat or None (unbounded); the strict flags mark open
    endpoints.  Indices are 1-based.
    """

    def __init__(self, dim):
        self.dim = dim
        self.lo = [None] * (dim + 1)
        self.hi = [None] * (dim + 1)
        self.lo_strict = [False] * (dim + 1)
        self.hi_strict = [False] * (dim + 1)
        self.empty = False

    @classmethod
    def point(cls, values):
        box = cls(len(values))
        for j, v in enumerate(values, start=1):
            box.lo[j] = box.hi[j] = Rat(v)
        return box

    def interval(self, j):
        return self.lo[j], self.lo_strict[j], self.hi[j], self.hi_strict[j]

    def tighten_lower(self, j, value, strict):
        cur = self.lo[j]
        if cur is None or value > cur or (value == cur and strict and not self.lo_strict[j]):
            self.lo[j] = value
            self.lo_strict[j] = strict
            self._sync(j)

    def tighten_upper(self, j, value, strict):
        cur = self.hi[j]
        if cur is None or value < cur or (value == cur and strict and not self.hi_strict[j]):
            self.hi[j] = value
            self.hi_strict[j] = strict
            self._sync(j)

    def _sync(self, j):
        lo, hi = self.lo[j], self.hi[j]
        if lo is not None and hi is not None:
            if lo > hi or (lo == hi and (self.lo_strict[j] or self.hi_strict[j])):
                self.empty = True

    def round_integral(self, j):
        """Shrink x_j's interval to its integer points."""
        lo, hi = self.lo[j], self.hi[j]
        if lo is not None:
            self.lo[j], self.lo_strict[j] = Rat(ceil_int(lo, self.lo_strict[j])), False
        if hi is not None:
            self.hi[j], self.hi_strict[j] = Rat(floor_int(hi, self.hi_strict[j])), False
        self._sync(j)


def expr_range(terms, const, box):
    """Exact range of a linear form over a box: (lo, lo_strict, hi, hi_strict),
    None endpoints meaning unbounded."""
    lo, hi = Rat(const), Rat(const)
    lo_strict = hi_strict = False
    for j, c in terms.items():
        bl, bls, bh, bhs = box.interval(j)
        if c > 0:
            contrib_lo, cls_, contrib_hi, chs = bl, bls, bh, bhs
        else:
            contrib_lo, cls_, contrib_hi, chs = bh, bhs, bl, bls
        if lo is not None:
            if contrib_lo is None:
                lo = None
            else:
                lo += c * contrib_lo
                lo_strict = lo_strict or cls_
        if hi is not None:
            if contrib_hi is None:
                hi = None
            else:
                hi += c * contrib_hi
                hi_strict = hi_strict or chs
    return lo, lo_strict, hi, hi_strict


_PROPAGATION_ROUNDS = 4


def propagate_box(inequalities, dim, integral_vars):
    """Over-approximating box for the solution set of the given inequalities:
    single-variable bounds first, then a few rounds of activity-based
    tightening, with integral rounding throughout."""
    box = Box(dim)
    rows = []
    for iq in inequalities:
        for terms, rhs, strict in iq.le_halves():
            if len(terms) == 1:
                j, upper, bound = unit_bound(terms, rhs)
                if upper:
                    box.tighten_upper(j, bound, strict)
                else:
                    box.tighten_lower(j, bound, strict)
            elif terms:
                rows.append((terms, rhs, strict))
    for j in integral_vars:
        if 1 <= j <= dim:
            box.round_integral(j)
    for _ in range(_PROPAGATION_ROUNDS):
        if box.empty:
            break
        changed = False
        for terms, rhs, strict in rows:
            for j, c in terms.items():
                rest = {k: v for k, v in terms.items() if k != j}
                lo, lo_strict, _, _ = expr_range(rest, Rat(0), box)
                if lo is None:
                    continue
                bound = (rhs - lo) / c
                st = strict or lo_strict
                before = box.interval(j)
                if c > 0:
                    box.tighten_upper(j, bound, st)
                else:
                    box.tighten_lower(j, bound, st)
                if j in integral_vars:
                    box.round_integral(j)
                if box.interval(j) != before:
                    changed = True
        if not changed:
            break
    return box


# ---------------------------------------------------------------------------
# Affine witnesses
# ---------------------------------------------------------------------------

class AffineMap:
    """x -> Qx + q, stored sparsely: `rows` maps an output index j to
    (coeff dict, offset).  Missing rows act as the identity."""

    def __init__(self, rows=None):
        self.rows = {}
        for j, (coeffs, offset) in (rows or {}).items():
            coeffs = {k: Rat(c) for k, c in coeffs.items() if c != 0}
            self.rows[j] = (coeffs, Rat(offset))

    def row(self, j):
        if j in self.rows:
            return self.rows[j]
        return {j: Rat(1)}, Rat(0)

    def max_var(self):
        m = 0
        for j, (coeffs, _) in self.rows.items():
            m = max(m, j, *coeffs.keys()) if coeffs else max(m, j)
        return m

    @classmethod
    def permutation(cls, perm):
        """Witness for x -> gamma(x), i.e. output j takes the old value of
        gamma^{-1}(j).  `perm` maps j -> gamma(j) over a 1-based domain."""
        inv = {v: k for k, v in perm.items()}
        rows = {}
        for j, src in inv.items():
            if src != j:
                rows[j] = ({src: Rat(1)}, Rat(0))
        return cls(rows)

    def apply_expr(self, expr: LinExpr) -> LinExpr:
        """Compose: (expr o w)(x) = expr(w(x))."""
        acc = {}
        const = expr.const
        for j, c in expr.terms.items():
            coeffs, offset = self.row(j)
            const += c * offset
            for k, q in coeffs.items():
                v = acc.get(k, Rat(0)) + c * q
                if v == 0:
                    acc.pop(k, None)
                else:
                    acc[k] = v
        return LinExpr(acc, const)

    def apply_ineq(self, ineq: Inequality) -> Inequality:
        composed = self.apply_expr(ineq.lhs)
        return Inequality(composed, ineq.rel, ineq.rhs, ineq.strict)

    def apply_constraint(self, c):
        if isinstance(c, Linear):
            return Linear(self.apply_ineq(c.ineq))
        if isinstance(c, Implication):
            return Implication(
                [self.apply_ineq(a) for a in c.assumptions],
                self.apply_ineq(c.consequent),
            )
        raise ValueError("integrality markers are checked structurally, not composed")

    def integral_row_ok(self, j, input_integral):
        """w(x)_j is an integer whenever x is integral on `input_integral`."""
        coeffs, offset = self.row(j)
        if not is_int(offset):
            return False
        for k, c in coeffs.items():
            if k not in input_integral or not is_int(c):
                return False
        return True


# ---------------------------------------------------------------------------
# Tree consistency
# ---------------------------------------------------------------------------

def _bounds_var(c, var, upper):
    """True iff `c` is a Linear constraint on exactly `var` that bounds it
    from above (`upper`) or from below."""
    if not isinstance(c, Linear) or set(c.ineq.lhs.terms) != {var}:
        return False
    return any(unit_bound(terms, rhs)[1] == upper
               for terms, rhs, _ in c.ineq.le_halves())


def check_tree_consistency(tree: BranchTree, core, dim, bound_refs, integral_vars):
    """Violation report (list of strings; empty means consistent).

    `core` maps ids to constraints, `bound_refs` maps (node-id, signed entry)
    to the id of a core constraint bounding that entry's variable from the
    relevant side.  Every entry needs a citation at the node introducing it.
    Multi-way branching is allowed on `integral_vars` only.
    """
    problems = []

    # structure: one root, acyclic, connected (T1); root unconstrained (T2)
    roots = [nid for nid, n in tree.nodes.items() if n.parent is None]
    if not tree.nodes or roots != [tree.root] or len(roots) != 1:
        problems.append("tree must have exactly one root with no parent")
        return problems
    if tree.nodes[tree.root].branch is not UNIVERSE:
        problems.append(f"root {tree.root} must carry no branching constraint")
    seen = set()
    stack = [tree.root]
    while stack:
        v = stack.pop()
        if v in seen:
            problems.append(f"node {v} reachable twice (cycle)")
            return problems
        seen.add(v)
        stack.extend(tree.children(v))
    if seen != set(tree.nodes):
        missing = sorted(set(tree.nodes) - seen)
        problems.append(f"nodes {missing} unreachable from the root")
        return problems

    for nid, node in tree.nodes.items():
        # sigma shape (T4)
        absvals = [abs(s) for s in node.sigma]
        if len(set(absvals)) != len(absvals):
            problems.append(f"node {nid}: duplicate variables in sigma")
        for s in node.sigma:
            if s == 0 or abs(s) > dim:
                problems.append(f"node {nid}: sigma entry {s} out of range")
        # prefix growth (T5)
        if node.parent is not None:
            psig = tree.nodes[node.parent].sigma
            if node.sigma[: len(psig)] != psig:
                problems.append(f"node {nid}: sigma does not extend its parent's")
        # branch shape
        if node.branch is not UNIVERSE:
            var, rel, beta = node.branch
            if not 1 <= var <= dim or rel not in (LE, GE):
                problems.append(f"node {nid}: malformed branching bound")
        # boundedness citations (T6), for entries introduced at this node
        start = len(tree.nodes[node.parent].sigma) if node.parent is not None else 0
        for s in node.sigma[start:]:
            cid = bound_refs.get((nid, s))
            if cid is None or cid not in core:
                problems.append(f"node {nid}: no cited bound for sigma entry {s}")
                continue
            needed = "upper" if s > 0 else "lower"
            if not _bounds_var(core[cid], abs(s), s > 0):
                problems.append(
                    f"node {nid}: constraint {cid} is not a finite {needed} bound on x{abs(s)}")

    # children: covering (T3) and disjointness (T7)
    for nid in tree.nodes:
        kids = tree.children(nid)
        if not kids:
            continue
        if len(kids) == 1:
            child = tree.nodes[kids[0]]
            if child.branch is UNIVERSE:
                continue
            ineq = branch_inequality(child.branch)
            if not any(isinstance(c, Linear) and dominates(c.ineq, ineq)
                       for c in core.values()):
                problems.append(
                    f"node {kids[0]}: single-child branch not implied by any core constraint")
            continue
        branches = []
        for kid in kids:
            b = tree.nodes[kid].branch
            if b is UNIVERSE:
                problems.append(f"node {kid}: sibling branches must constrain a variable")
                break
            branches.append((kid, b))
        else:
            var = branches[0][1][0]
            if any(b[0] != var for _, b in branches):
                problems.append(f"node {nid}: children branch on different variables")
                continue
            sigma = tree.nodes[nid].sigma
            if var not in [abs(s) for s in sigma]:
                problems.append(
                    f"node {nid}: branching variable x{var} missing from sigma")
            if var not in integral_vars:
                problems.append(
                    f"node {nid}: multi-way branching on x{var} needs an integrality marker")
                continue
            uppers = sorted((b[2], kid) for kid, b in branches if b[1] == LE)
            lowers = sorted((b[2], kid) for kid, b in branches if b[1] == GE)
            if len(uppers) != 1 or len(lowers) != 1 or len(branches) != 2:
                problems.append(
                    f"node {nid}: children must split into one upper and one lower bound")
                continue
            beta, _ = uppers[0]
            beta2, _ = lowers[0]
            if beta2 <= beta:
                problems.append(
                    f"node {nid}: sibling regions overlap ({fmt(beta2)} <= {fmt(beta)})")
            if ceil_int(beta2, False) > floor_int(beta, False) + 1:
                problems.append(
                    f"node {nid}: integer gap between {fmt(beta)} and {fmt(beta2)} uncovered")
    return problems


# ---------------------------------------------------------------------------
# Order evaluation: dcn dive and sigma comparison
# ---------------------------------------------------------------------------

class OrderResult:
    __slots__ = ("verified", "reason")

    def __init__(self, verified, reason=""):
        self.verified = verified
        self.reason = reason

    def __bool__(self):
        return self.verified


GAP = "gap"
GEQ = "geq"
LEQ = "leq"

_EQUAL = "equal"
_UNKNOWN = "unknown"


def _box_in_branch(lo, lo_strict, hi, hi_strict, rel, beta):
    if rel == LE:
        return hi is not None and hi <= beta
    return lo is not None and lo >= beta


def signed_form(w: AffineMap, entry: int) -> LinExpr:
    """sign * (w(x)_|entry| - x_|entry|) as a linear form in x."""
    j = abs(entry)
    coeffs, offset = w.row(j)
    terms = dict(coeffs)
    terms[j] = terms.get(j, Rat(0)) - 1
    form = LinExpr(terms, offset)
    if entry < 0:
        form = form.scale(Rat(-1))
    return form


def dcn_and_compare(tree, x_box, w, eps, mode, evidence=None, prove=None):
    """Dive to an over-approximation of the deepest common node of x and
    w(x) for all x in the box, then compare the sigma projections there.

    `mode` is "weak" (preorder) or "strict" (eps-gap order).  `evidence` maps
    signed sigma entries to {"gap": payload, "geq": payload, "leq": payload};
    `prove(payload, target_ineq)` checks a supplied derivation against the
    target linear form (raising on a malformed derivation, returning bool).

    Per position the comparison resolves through three channels: the signed
    difference form is syntactically zero; its exact interval over the box
    decides equality or an eps-gap; or the supplied evidence certifies it.
    Conservative: Verified implies the relation holds for every point of the
    box.
    """
    if evidence is None:
        evidence = {}
    if x_box.empty:
        return OrderResult(True, "premises are contradictory on the box")

    node = tree.root
    while not tree.is_leaf(node):
        kids = tree.children(node)
        if len(kids) == 1:
            # a single child covers the core region, which contains both points
            node = kids[0]
            continue
        var = tree.nodes[kids[0]].branch[0]
        x_int = x_box.interval(var)
        coeffs, offset = w.row(var)
        w_int = expr_range(coeffs, offset, x_box)
        target = None
        for kid in kids:
            _, rel, beta = tree.nodes[kid].branch
            if _box_in_branch(*x_int, rel, beta) and _box_in_branch(*w_int, rel, beta):
                target = kid
                break
        if target is None:
            break
        node = target
    sigma = tree.nodes[node].sigma

    def classify(entry):
        form = signed_form(w, entry)
        if form.is_zero():
            return _EQUAL
        lo, lo_strict, hi, hi_strict = expr_range(form.terms, form.const, x_box)
        if lo == hi == 0 and not lo_strict and not hi_strict:
            return _EQUAL
        if lo is not None and lo >= eps:
            return GAP
        ev = evidence.get(entry, {})
        if GAP in ev and prove is not None:
            gap_target = Inequality(form, GE, eps)
            if prove(ev[GAP], gap_target):
                return GAP
        if GEQ in ev and LEQ in ev and prove is not None:
            if prove(ev[GEQ], Inequality(form, GE, Rat(0))) and \
               prove(ev[LEQ], Inequality(form, LE, Rat(0))):
                return _EQUAL
        return _UNKNOWN

    for i, entry in enumerate(sigma, start=1):
        kind = classify(entry)
        if kind == _EQUAL:
            continue
        if kind == GAP:
            return OrderResult(True, f"gap at position {i} of node {node}")
        return OrderResult(
            False, f"position {i} (entry {entry}) of node {node} undetermined")

    # all sigma positions equal
    if mode == "strict":
        return OrderResult(False, f"no strict gap at node {node}")
    if tree.is_leaf(node):
        return OrderResult(True, f"all positions equal at leaf {node}")
    # the dive stalled above a leaf: equality must extend over every entry
    # that can appear deeper, otherwise the true deepest common node could
    # compare positions we have not constrained
    extra = tree.subtree_entries(node) - set(sigma)
    for entry in sorted(extra, key=abs):
        if classify(entry) != _EQUAL:
            return OrderResult(
                False,
                f"stalled at node {node}; subtree entry {entry} not provably equal")
    return OrderResult(True, f"all subtree entries equal below node {node}")
