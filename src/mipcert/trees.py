"""Consistent branching trees, their machine checks, and symbolic evaluation
of the tree-induced weak/strict solution orders for affine witnesses under
partial (box) information.

Branching constraints are restricted to single-variable bounds `x_j <= beta`
or `x_j >= beta` (or the whole space); nodes with two or more children must
branch on an integral variable.  This keeps the covering and disjointness
checks decidable by exact interval arithmetic.
"""

from collections import deque
from itertools import chain

from .exact import (
    GE,
    LE,
    Inequality,
    LinExpr,
    add_terms,
    ceil_int,
    dominates,
    floor_int,
    fmt,
    is_int,
    quotient,
    rat,
    renamed,
    unit_bound,
)
from .model import Implication, Linear, constraint_vars

UNIVERSE = None  # branch value for unconstrained nodes


class TreeNode:
    __slots__ = ("parent", "branch", "sigma")

    def __init__(self, parent, branch, sigma):
        self.parent = parent          # node id or None for the root
        self.branch = branch          # (var, "<="|">=", Rat) or UNIVERSE
        self.sigma = tuple(sigma)     # signed variable indices


class BranchTree:
    def __init__(self, nodes, root):
        self.nodes = nodes            # id -> TreeNode
        self.root = root
        kids = {nid: [] for nid in nodes}
        for nid, node in nodes.items():
            if node.parent is not None and node.parent in kids:
                kids[node.parent].append(nid)
        self.kids = kids              # id -> child ids, in insertion order

    def walk(self, nid):
        """nid and every node below it, in preorder, children in increasing id."""
        stack = [nid]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(sorted(self.kids[v], reverse=True))


def trivial_tree() -> BranchTree:
    return BranchTree({1: TreeNode(None, UNIVERSE, ())}, 1)


# ---------------------------------------------------------------------------
# Boxes: per-variable rational intervals with strict-endpoint flags
# ---------------------------------------------------------------------------

class Box:
    """Closed-or-open rational intervals per variable, possibly unbounded.

    `ends` maps an end to its (value, strict) pair, an end addressed as the
    certifier does: 2j is x_j's lower end, 2j + 1 its upper end.  An absent
    end is unbounded, so a box holds what it knows, whatever the dimension.
    Values are int or Rat, and integral rounding stores ints; a strict end
    is open.  `capped` marks a box whose propagation refused a tightening
    at TIGHTENINGS_PER_END: every end is still implied, but the box need
    not be a fixpoint of its rows.
    """

    def __init__(self):
        self.ends = {}
        self.empty = False
        self.capped = False

    def copy(self):
        box = Box()
        box.ends, box.empty, box.capped = dict(self.ends), self.empty, self.capped
        return box

    def interval(self, j):
        lo, lo_strict = self.ends.get(2 * j, (None, False))
        hi, hi_strict = self.ends.get(2 * j + 1, (None, False))
        return lo, lo_strict, hi, hi_strict

    def tightens(self, end, value, strict):
        """True iff `value` (open when `strict`) is tighter than the end."""
        cur = self.ends.get(end)
        if cur is None:
            return True
        cur, cur_strict = cur
        if value == cur:
            return strict and not cur_strict
        return value < cur if end & 1 else value > cur

    def set_end(self, end, value, strict):
        """Move the end to `value`; the box is empty once x_j's ends cross."""
        self.ends[end] = value, strict
        lo, lo_strict, hi, hi_strict = self.interval(end >> 1)
        if lo is not None and hi is not None:
            if lo > hi or (lo == hi and (lo_strict or hi_strict)):
                self.empty = True


def expr_range(terms, const, box):
    """Exact range of a linear form over a box: (lo, lo_strict, hi, hi_strict),
    None endpoints meaning unbounded."""
    lo = hi = const
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


# ---------------------------------------------------------------------------
# Box propagation: one event-driven loop over <=-rows
# ---------------------------------------------------------------------------

# A row is (cid, terms, sign, rhs, strict): a <=-half `sign * terms <= rhs`
# from `Inequality.le_halves`, with the id of its constraint (None for a
# negation).

# A row of two or more terms can move one end again and again: the integer
# chain x <= y - 1, y <= x descends forever when nothing bounds it below.
# One propagation run makes at most this many such tightenings of an end
# and refuses the rest, marking the box `capped`.
TIGHTENINGS_PER_END = 64


def _read_ends(row):
    """The ends a row's minimum activity reads: x_j's lower end for a
    positive coefficient, its upper end for a negative one.  A row of one
    term reads none: nothing bounds the rest of it."""
    _, terms, sign, _, _ = row
    if len(terms) < 2:
        return ()
    return [2 * j + (sign * c < 0) for j, c in terms.items()]


def _le_rows(items):
    """The <=-rows of the Linear constraints among (id, constraint) `items`."""
    return [(cid, *half) for cid, c in items if isinstance(c, Linear)
            for half in c.ineq.le_halves()]


def _watched(rows, watch):
    """`rows`, each added to the lists in `watch` of the ends it reads."""
    for row in rows:
        for e in _read_ends(row):
            watch.setdefault(e, []).append(row)
    return rows


def _propagate(box, rows, watches, integral_vars, tighteners=None):
    """Visit `rows` in order, then, until none is left or the box is empty,
    the rows queued by tightenings, tightening the box in place.

    A visit computes the row's minimum activity from the ends its terms
    read; each term then tightens the end of its variable that it does not
    read, with an integral candidate rounded before the comparison, and the
    rows that read that end in one of the `watches` (dicts from ends to
    rows) are queued.  A row may wait in the queue more than once: finding
    it there costs more than the repeated visit, and TIGHTENINGS_PER_END
    bounds the queue as it bounds the visits.  A termless row that no point
    satisfies empties the box.  The ids of the rows that changed the box go
    into `tighteners`."""
    ends = box.ends
    pending = deque(rows)
    tightenings = {}
    while pending and not box.empty:
        row = pending.popleft()
        cid, terms, sign, rhs, strict = row
        if not terms:
            if rhs < 0 or (strict and rhs <= 0):
                box.empty = True
                if tighteners is not None:
                    tighteners.add(cid)
            continue
        # minimum activity: the sum of the finite ends each term reads,
        # how many terms read an unbounded end, and how many a strict one
        act = 0
        unbounded = strict_ends = 0
        for j, c in terms.items():
            c *= sign
            end = ends.get(2 * j + (c < 0))
            if end is None:
                unbounded += 1
            else:
                act += c * end[0]
                strict_ends += end[1]
        if unbounded > 1:
            continue
        several = len(terms) > 1
        # a term tightens the end of its variable that it does not read,
        # so the activity stays exact while the row is visited
        for j, c in terms.items():
            c *= sign
            end = ends.get(2 * j + (c < 0))
            if end is None:
                rest, rest_strict = act, strict_ends > 0
            elif unbounded:
                continue
            else:
                rest, rest_strict = act - c * end[0], strict_ends - end[1] > 0
            bound = quotient(rhs - rest, c)
            st = strict or rest_strict
            if j in integral_vars:
                # x_j's ends are integers already, so rounding the candidate
                # before the comparison rounds the tightened interval
                bound = floor_int(bound, st) if c > 0 else ceil_int(bound, st)
                st = False
            target = 2 * j + (c > 0)
            if not box.tightens(target, bound, st):
                continue
            if several:
                count = tightenings.get(target, 0)
                if count == TIGHTENINGS_PER_END:
                    box.capped = True
                    continue
                tightenings[target] = count + 1
            box.set_end(target, bound, st)
            if tighteners is not None:
                tighteners.add(cid)
            for watch in watches:
                pending.extend(watch.get(target, ()))


class PoolBox:
    """The box of a configuration's live Linear rows, without negations,
    and the watch lists from its ends to the rows that read them.  It is
    kept with the configuration (`Configuration.pool_box`) across
    strengthening steps, and `sync` brings it up to date with the live rows.

    The configuration journals the rows that entered since the last sync
    (`entered`, id -> constraint) and that left (`left`, (id, constraint)
    pairs).  A row that entered is propagated from the box as it is.  A row
    that left without having changed the box since it was built leaves the
    box as it is, since every end is then derived from rows still live.
    Any other departure needs a new PoolBox.  A new dimension needs
    nothing: no live row reads the new variable, which has no ends.
    """

    __slots__ = ("box", "watch", "tighteners", "entered", "left")

    def __init__(self, cfg):
        integral = cfg.integral_vars()
        self.box = Box()
        self.watch = {}          # end -> rows reading it
        self.tighteners = set()  # ids of rows that changed the box
        self.entered = {}
        self.left = []
        cfg.pool()  # the configuration journals into a box only while it keeps a pool
        rows = _watched(_le_rows(chain(cfg.core.items(), cfg.derived.items())), self.watch)
        # the rows of one term or none go first and queue nothing: every
        # row that reads an end is still to be visited
        _propagate(self.box, [r for r in rows if len(r[1]) < 2], (), integral, self.tighteners)
        _propagate(self.box, [r for r in rows if len(r[1]) > 1], (self.watch,), integral,
                   self.tighteners)

    def sync(self, cfg):
        """Read the journal and empty it; False, with the box as it was, if
        that needs a new PoolBox.  The rows that entered are propagated in
        the order they entered, whichever map holds them now: uncapped, the
        box is the greatest common fixpoint of monotone row operators, which
        any visit order reaches, and a kept box equals a rebuilt one, so
        only a run that hits TIGHTENINGS_PER_END can depend on the order."""
        if any(cid in self.tighteners for cid, _ in self.left):
            return False
        for row in _le_rows(self.left):
            for e in _read_ends(row):
                self.watch[e].remove(row)
        fresh = _watched(_le_rows(self.entered.items()), self.watch)
        self.entered = {}
        self.left = []
        _propagate(self.box, fresh, (self.watch,), cfg.integral_vars(), self.tighteners)
        return True


def propagate_box(cfg, negations):
    """Over-approximating box for the points that satisfy every live Linear
    row of `cfg`, the `negations` and integrality: the pool box, brought up
    to date, copied, and propagated from the negations.  Only the negations
    and the rows that read the ends they tighten are visited."""
    pool = cfg.pool_box
    if pool is None or not pool.sync(cfg):
        pool = cfg.pool_box = PoolBox(cfg)
    box = pool.box.copy()
    extra = {}
    rows = _watched([(None, *half) for iq in negations for half in iq.le_halves()], extra)
    _propagate(box, rows, (pool.watch, extra), cfg.integral_vars())
    return box


# ---------------------------------------------------------------------------
# Affine witnesses
# ---------------------------------------------------------------------------

class AffineMap:
    """x -> Qx + q, stored sparsely: `rows` maps an output index j to
    (coeff dict, offset).  Missing rows act as the identity.

    `outputs` holds the output indices.  A map whose every row is
    `{src: 1}` with offset 0 is a relabelling: `relabel` maps each output j
    to its src, and is None for any other map.  Both are decided once, at
    construction, so nothing writes `rows` after it.  Under a relabelling
    an image renames the keys of an expression that is normalised already
    (`exact.renamed`), with no arithmetic."""

    def __init__(self, rows=None):
        self.rows = {}
        for j, (coeffs, offset) in (rows or {}).items():
            coeffs = {k: rat(c) for k, c in coeffs.items() if c != 0}
            self.rows[j] = (coeffs, rat(offset))
        relabel = {}
        for j, (coeffs, offset) in self.rows.items():
            src = next(iter(coeffs), None)
            if offset != 0 or coeffs != {src: 1}:
                relabel = None
                break
            relabel[j] = src
        self.relabel = relabel
        self.outputs = frozenset(self.rows)

    def row(self, j):
        if j in self.rows:
            return self.rows[j]
        return {j: 1}, 0

    def variables(self):
        """The output indices of the rows, and the variables they read."""
        for j, (coeffs, _) in self.rows.items():
            yield j
            yield from coeffs

    def moves(self, c) -> bool:
        """Whether constraint `c` reads an output index of the map.  A
        constraint that does not is its own image."""
        read = c.ineq.lhs.terms if type(c) is Linear else constraint_vars(c)
        return not self.outputs.isdisjoint(read)

    @classmethod
    def permutation(cls, perm):
        """Witness for x -> gamma(x), i.e. output j takes the old value of
        gamma^{-1}(j).  `perm` maps j -> gamma(j) over a 1-based domain."""
        inv = {v: k for k, v in perm.items()}
        rows = {}
        for j, src in inv.items():
            if src != j:
                rows[j] = ({src: 1}, 0)
        return cls(rows)

    def apply_expr(self, expr: LinExpr) -> LinExpr:
        """Compose: (expr o w)(x) = expr(w(x)).  An expression on variables
        the map leaves alone is returned as it is."""
        if self.outputs.isdisjoint(expr.terms):
            return expr
        if self.relabel is not None:
            image = renamed(expr, self.relabel)
            if image is not None:
                return image
        acc = {}
        const = expr.const
        for j, c in expr.terms.items():
            coeffs, offset = self.row(j)
            const += c * offset
            add_terms(acc, coeffs, c)
        return LinExpr(acc, const)

    def apply_ineq(self, ineq: Inequality) -> Inequality:
        if self.outputs.isdisjoint(ineq.lhs.terms):
            return ineq
        if self.relabel is not None:
            image = renamed(ineq, self.relabel)
            if image is not None:
                return image
        return Inequality(self.apply_expr(ineq.lhs), ineq.rel, ineq.rhs, ineq.strict)

    def apply_constraint(self, c):
        """The image of a Linear or Implication constraint; a constraint
        the map leaves alone is returned as it is."""
        if isinstance(c, Linear):
            ineq = self.apply_ineq(c.ineq)
            return c if ineq is c.ineq else Linear(ineq)
        if isinstance(c, Implication):
            assumptions = [self.apply_ineq(a) for a in c.assumptions]
            consequent = self.apply_ineq(c.consequent)
            if consequent is c.consequent and all(
                    a is b for a, b in zip(assumptions, c.assumptions)):
                return c
            return Implication(assumptions, consequent)
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
    return any(unit_bound(terms, sign, rhs)[1] == upper
               for terms, sign, rhs, _ in c.ineq.le_halves())


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
    if roots != [tree.root]:
        problems.append("tree must have exactly one root with no parent")
        return problems
    if tree.nodes[tree.root].branch is not UNIVERSE:
        problems.append(f"root {tree.root} must carry no branching constraint")
    seen = set(tree.walk(tree.root))
    if seen != set(tree.nodes):
        missing = sorted(set(tree.nodes) - seen)
        problems.append(f"nodes {missing} unreachable from the root")
        return problems

    for nid, node in tree.nodes.items():
        # sigma shape (T4)
        absvals = [abs(s) for s in node.sigma]
        if len(set(absvals)) != len(absvals):
            problems.append(f"node {nid}: duplicate variables in sigma")
        problems.extend(f"node {nid}: sigma entry {s} out of range"
                        for s in node.sigma if s == 0 or abs(s) > dim)
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
            if s == 0 or abs(s) > dim:
                continue  # no variable to bound
            cid = bound_refs.get((nid, s))
            if cid is None or cid not in core:
                problems.append(f"node {nid}: no cited bound for sigma entry {s}")
                continue
            needed = "upper" if s > 0 else "lower"
            if not _bounds_var(core[cid], abs(s), s > 0):
                problems.append(
                    f"node {nid}: constraint {cid} is not a finite {needed} bound on x{abs(s)}")

    # children: covering (T3) and disjointness (T7)
    for nid, kids in tree.kids.items():
        if not kids:
            continue
        if len(kids) == 1:
            child = tree.nodes[kids[0]]
            if child.branch is UNIVERSE:
                continue
            var, rel, beta = child.branch
            ineq = Inequality(LinExpr({var: 1}), rel, beta)
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


def _box_in_branch(lo, hi, rel, beta):
    if rel == LE:
        return hi is not None and hi <= beta
    return lo is not None and lo >= beta


def signed_form(w: AffineMap, entry: int) -> LinExpr:
    """sign * (w(x)_|entry| - x_|entry|) as a linear form in x."""
    j = abs(entry)
    coeffs, offset = w.row(j)
    terms = dict(coeffs)
    terms[j] = terms.get(j, 0) - 1
    form = LinExpr(terms, offset)
    if entry < 0:
        form = form.scale(-1)
    return form


def dcn_and_compare(tree, x_box, w, eps, mode, evidence, prove):
    """Dive to an over-approximation of the deepest common node of x and
    w(x) for all x in the box, then compare the sigma projections there.

    `mode` is "weak" (preorder) or "strict" (eps-gap order).  `evidence` maps
    signed sigma entries to {"gap": payload, "geq": payload, "leq": payload};
    `prove(payload, target_ineq)` checks a supplied derivation against the
    target linear form and raises when it fails.

    Per position the comparison resolves through three channels: the signed
    difference form is syntactically zero; its exact interval over the box
    decides equality or an eps-gap; or the supplied evidence certifies it.
    Conservative: Verified implies the relation holds for every point of the
    box.
    """
    if x_box.empty:
        return OrderResult(True, "premises are contradictory on the box")

    node = tree.root
    while kids := tree.kids[node]:
        if len(kids) == 1:
            # a single child covers the core region, which contains both points
            node = kids[0]
            continue
        var = tree.nodes[kids[0]].branch[0]
        x_lo, _, x_hi, _ = x_box.interval(var)
        coeffs, offset = w.row(var)
        w_lo, _, w_hi, _ = expr_range(coeffs, offset, x_box)
        target = None
        for kid in kids:
            _, rel, beta = tree.nodes[kid].branch
            if _box_in_branch(x_lo, x_hi, rel, beta) and _box_in_branch(w_lo, w_hi, rel, beta):
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
        if GAP in ev:
            prove(ev[GAP], Inequality(form, GE, eps))
            return GAP
        if GEQ in ev and LEQ in ev:
            prove(ev[GEQ], Inequality(form, GE, 0))
            prove(ev[LEQ], Inequality(form, LE, 0))
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
    if not tree.kids[node]:
        return OrderResult(True, f"all positions equal at leaf {node}")
    # the dive stalled above a leaf: equality must extend over every entry
    # that can appear deeper, otherwise the true deepest common node could
    # compare positions we have not constrained
    extra = {s for v in tree.walk(node) for s in tree.nodes[v].sigma} - set(sigma)
    for entry in sorted(extra, key=abs):
        if classify(entry) != _EQUAL:
            return OrderResult(
                False,
                f"stalled at node {node}; subtree entry {entry} not provably equal")
    return OrderResult(True, f"all subtree entries equal below node {node}")
