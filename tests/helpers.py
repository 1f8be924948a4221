"""Shared builders and independent reference implementations for the tests.

The order evaluators here work from first principles (explicit leaf location
and lexicographic tuple comparison) so they stay independent of the diving
implementation they are used to check.
"""

import gc
import random
import time

from mipcert.exact import GE, LE, Inequality, LinExpr, Rat, rat
from mipcert.model import Configuration, IntegralMarker, Linear, Problem
from mipcert.trees import UNIVERSE, Box, BranchTree, PoolBox, TreeNode, trivial_tree


def assert_normal(expr):
    """`expr` is what LinExpr.__init__ makes of its own terms and constant:
    it compares and hashes alike, holds no 0 coefficient, and every
    integral value in it is an int."""
    again = LinExpr(dict(expr.terms), expr.const)
    assert expr == again and hash(expr) == hash(again)
    assert all(expr.terms.values())
    for c in [*expr.terms.values(), expr.const]:
        assert type(c) is (int if c.denominator == 1 else Rat)


def no_proof(payload, target):
    """The `prove` callback of an order comparison given no evidence."""
    raise AssertionError("no evidence was supplied, so none can be proved")


def pool_box(inequalities, dim, integral_vars):
    """The box that `PoolBox` builds for a configuration whose live rows are
    `inequalities` over x_1..x_dim, with `integral_vars` marked integral."""
    core = {cid: Linear(iq) for cid, iq in enumerate(inequalities, start=1)}
    core.update((len(core) + k, IntegralMarker(j))
                for k, j in enumerate(sorted(integral_vars), start=1))
    return PoolBox(Configuration(core, {}, LinExpr(), None, trivial_tree(), 1, dim)).box


def point_box(values):
    """The box holding the one point x = `values`."""
    box = Box()
    for j, v in enumerate(values, start=1):
        box.ends[2 * j] = box.ends[2 * j + 1] = (rat(v), False)
    return box


def bound_rows(n, lo, hi, start_id=1):
    """Unit bound rows lo <= x_j <= hi; returns (dict, ub_ids, lb_ids)."""
    cons = {}
    ub, lb = {}, {}
    cid = start_id
    for j in range(1, n + 1):
        cons[cid] = Linear(Inequality(LinExpr({j: Rat(1)}), LE, Rat(hi)))
        ub[j] = cid
        cid += 1
        cons[cid] = Linear(Inequality(LinExpr({j: Rat(1)}), GE, Rat(lo)))
        lb[j] = cid
        cid += 1
    return cons, ub, lb


def boxed_problem(n, rows, obj_terms, lo=0, hi=1, obj_const=0):
    """All-integer problem: given rows, then unit bounds on every variable."""
    cons = {}
    cid = 0
    for iq in rows:
        cid += 1
        cons[cid] = Linear(iq)
    bcons, _, _ = bound_rows(n, lo, hi, start_id=cid + 1)
    cons.update(bcons)
    obj = LinExpr({j: Rat(c) for j, c in obj_terms.items()}, Rat(obj_const))
    return Problem(n, set(range(1, n + 1)), obj, cons)


def knapsack_problem():
    """min -x1 over 2x1 + 2x2 <= 3, binary: optimum -1 at (1, 0)."""
    row = Inequality(LinExpr({1: Rat(2), 2: Rat(2)}), LE, Rat(3))
    return boxed_problem(2, [row], {1: -1})


def set_packing_problem(n):
    """Fully symmetric pairwise packing: min -sum x, x_i + x_j <= 1."""
    rows = [Inequality(LinExpr({i: Rat(1), j: Rat(1)}), LE, Rat(1))
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return boxed_problem(n, rows, {j: -1 for j in range(1, n + 1)})


def random_problem(rng, max_n=8, max_rows=5, lo=0, hi=3, coeff=5):
    n = rng.randint(2, max_n)
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        terms = {j: Rat(rng.randint(-coeff, coeff)) for j in range(1, n + 1)}
        rel = rng.choice([LE, LE, LE, GE])
        rows.append(Inequality(LinExpr(terms), rel, Rat(rng.randint(-10, 15))))
    obj = {j: rng.randint(-coeff, coeff) for j in range(1, n + 1)}
    return boxed_problem(n, rows, obj, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# Direct order evaluation (explicit leaf location, no diving)
# ---------------------------------------------------------------------------

def point_in_branch(branch, x):
    if branch is UNIVERSE:
        return True
    var, rel, beta = branch
    return x[var - 1] <= beta if rel == LE else x[var - 1] >= beta


def leaf_of(tree, x):
    node = tree.root
    while tree.kids[node]:
        nxt = [k for k in tree.kids[node] if point_in_branch(tree.nodes[k].branch, x)]
        assert len(nxt) == 1, f"point {x} lies in {len(nxt)} children of {node}"
        node = nxt[0]
    return node


def path_to_root(tree, node):
    out = []
    while node is not None:
        out.append(node)
        node = tree.nodes[node].parent
    return out


def dcn_of(tree, x, y):
    px = path_to_root(tree, leaf_of(tree, x))
    py = set(path_to_root(tree, leaf_of(tree, y)))
    for node in px:
        if node in py:
            return node
    raise AssertionError("no common node")


def sigma_values(tree, node, x):
    return tuple(Rat(s // abs(s)) * x[abs(s) - 1] for s in tree.nodes[node].sigma)


def lex_strict(a, b, eps):
    """a strictly above b: differ, and the first differing entry leads by eps."""
    if a == b:
        return False
    for av, bv in zip(a, b):
        if av != bv:
            return av >= bv + eps
    return False


def weak_at(tree, eps, y, x):
    """y is order-no-smaller than x."""
    v = dcn_of(tree, x, y)
    sy, sx = sigma_values(tree, v, y), sigma_values(tree, v, x)
    return sy == sx or lex_strict(sy, sx, eps)


def strict_at(tree, eps, y, x):
    v = dcn_of(tree, x, y)
    return lex_strict(sigma_values(tree, v, y), sigma_values(tree, v, x), eps)


# ---------------------------------------------------------------------------
# Random consistent trees over a boxed core
# ---------------------------------------------------------------------------

def random_consistent_tree(rng, n, lo, hi, ub_ids, lb_ids, levels=3):
    """Random tree with `levels` levels of two-way splits on distinct
    variables, sigma lists growing down the tree.  Returns (tree, bound_refs).
    """
    variables = rng.sample(range(1, n + 1), levels)
    nodes = {}
    bound_refs = {}
    next_id = [1]

    def sign_entry(var):
        return var if rng.random() < 0.7 else -var

    def refs_for(nid, entries):
        for s in entries:
            bound_refs[(nid, s)] = ub_ids[abs(s)] if s > 0 else lb_ids[abs(s)]

    def build(parent, branch, sigma, depth):
        nid = next_id[0]
        next_id[0] += 1
        start = len(nodes[parent].sigma) if parent is not None else 0
        nodes[nid] = TreeNode(parent, branch, tuple(sigma))
        refs_for(nid, sigma[start:])
        if depth >= levels:
            return nid
        var = variables[depth]
        child_sigma = list(sigma)
        if var not in [abs(s) for s in child_sigma]:
            child_sigma.append(sign_entry(var))
        # the parent needs the branching variable in its own sigma
        if var not in [abs(s) for s in nodes[nid].sigma]:
            new_sigma = tuple(list(nodes[nid].sigma) + [child_sigma[-1]])
            nodes[nid] = TreeNode(parent, branch, new_sigma)
            refs_for(nid, new_sigma[start:])
        beta = rng.randint(lo, hi - 1)
        if rng.random() < 0.8:
            build(nid, (var, LE, Rat(beta)), child_sigma, depth + 1)
            build(nid, (var, GE, Rat(beta + 1)), child_sigma, depth + 1)
        else:  # sometimes extend sigma further down a chain instead
            extra = [v for v in range(1, n + 1)
                     if v not in [abs(s) for s in child_sigma]]
            if extra:
                child_sigma.append(sign_entry(rng.choice(extra)))
            kid = build(nid, UNIVERSE, child_sigma, depth + 1)
        return nid

    root = build(None, UNIVERSE, [], 0)
    return BranchTree(nodes, root), bound_refs


def random_point(rng, n, lo, hi):
    return [Rat(rng.randint(lo, hi)) for _ in range(n)]


# ---------------------------------------------------------------------------
# Growth of a cost
# ---------------------------------------------------------------------------

def growth(make, k):
    """How many times longer the work that `make(size)` returns, a callable,
    takes at size 8k than at size k: the best of 3 CPU times at each size,
    with the garbage collector off.  About 8 for linear work, 64 for
    quadratic work."""
    def best(size):
        work = make(size)
        times = []
        gc.disable()
        try:
            for _ in range(3):
                t0 = time.process_time()
                work()
                times.append(time.process_time() - t0)
        finally:
            gc.enable()
        return min(times)
    return best(8 * k) / best(k)
