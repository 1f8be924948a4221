"""Seeded input generators for the benchmark workloads.

These are kept apart from the test suite's builders on purpose, so that an
edit to a test can never change what the benchmark measures.  Every
generator takes a `random.Random` and produces the same input for the same
seed.
"""

import copy
import itertools

from mipcert.certfile import fmt_problem, fmt_step, parse_text
from mipcert.exact import GE, LE, Inequality, LinExpr, Rat
from mipcert.model import Implication, Linear, Problem
from mipcert.rules import DeleteStep, ImplicStep, StrengthenStep, TreeStep
from mipcert.trees import TreeNode


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

def boxed_problem(n, rows, obj_terms, hi=1):
    """All-integer problem: the given rows, then 0 <= x_j <= hi for every j."""
    cons = {cid: Linear(iq) for cid, iq in enumerate(rows, start=1)}
    cid = len(rows)
    for j in range(1, n + 1):
        cons[cid + 1] = Linear(Inequality(LinExpr({j: Rat(1)}), LE, Rat(hi)))
        cons[cid + 2] = Linear(Inequality(LinExpr({j: Rat(1)}), GE, Rat(0)))
        cid += 2
    obj = LinExpr({j: Rat(c) for j, c in obj_terms.items()})
    return Problem(n, set(range(1, n + 1)), obj, cons)


def set_packing_problem(rng, n):
    """min -sum x subject to x_i + x_j <= 1 for every pair, binary; the
    optimum is -1.  The seed only shuffles the row order, so the problem
    stays fully symmetric."""
    rows = [Inequality(LinExpr({i: Rat(1), j: Rat(1)}), LE, Rat(1))
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rng.shuffle(rows)
    return boxed_problem(n, rows, {j: -1 for j in range(1, n + 1)})


def wide_bnb_problem(rng, n):
    """min sum c_j x_j subject to sum x <= n, binary, with seeded weights
    c_j in {1, 2, 3}; the optimum is 0 and the search tree is n levels
    deep with one pruned right branch per level."""
    row = Inequality(LinExpr({j: Rat(1) for j in range(1, n + 1)}), LE, Rat(n))
    return boxed_problem(n, [row], {j: rng.randint(1, 3) for j in range(1, n + 1)})


def random_problem(rng):
    """Three random rows over four integer variables in [0, 2], with
    coefficients in [-3, 3]: small enough for the oracle.  The shape is
    fixed so that certificate sizes vary little between seeds."""
    rows = []
    for _ in range(3):
        terms = {j: Rat(rng.randint(-3, 3)) for j in range(1, 5)}
        rel = rng.choice([LE, LE, LE, GE])
        rows.append(Inequality(LinExpr(terms), rel, Rat(rng.randint(-10, 15))))
    return boxed_problem(4, rows, {j: rng.randint(-3, 3) for j in range(1, 5)}, hi=2)


# ---------------------------------------------------------------------------
# Streaming IMPLIC/DEL chain
# ---------------------------------------------------------------------------

STREAM_VARS = 8
STREAM_BULK_ROWS = 180


def stream_certificate(rng, steps_target):
    """A certificate of infeasibility whose live set stays at about 200 rows.

    The problem has 8 integer variables in [0, 3], 180 slack bulk rows, and
    the contradictory pair x1 >= 1, x1 <= 0.  The body is a chain of
    IMPLIC steps, each combining two lower-bound rows with seeded
    multipliers, each deleted right after; the last IMPLIC derives 0 <= -1
    from the contradictory pair.  Returns (problem text, certificate text,
    number of steps).
    """
    n = STREAM_VARS
    zeros = " ".join("0" for _ in range(n))

    def unit(j):
        return " ".join("1" if k == j else "0" for k in range(1, n + 1))

    lines = [f"VAR {n}", "INT " + " ".join(str(j) for j in range(1, n + 1)),
             f"OBJ {zeros}"]
    lower = {}
    cid = 0
    for j in range(1, n + 1):
        lines.append(f"CON {cid + 1} <= {unit(j)} 3")
        lines.append(f"CON {cid + 2} >= {unit(j)} 0")
        lower[j] = cid + 2
        cid += 2
    for _ in range(STREAM_BULK_ROWS):
        cid += 1
        coeffs = " ".join(str(rng.randint(1, 5)) for _ in range(n))
        lines.append(f"CON {cid} <= {coeffs} 200")
    ge_one, le_zero = cid + 1, cid + 2
    lines.append(f"CON {ge_one} >= {unit(1)} 1")
    lines.append(f"CON {le_zero} <= {unit(1)} 0")
    problem_text = "\n".join(lines) + "\n"

    next_id = le_zero + n + 1  # past the integrality markers
    body = []
    pairs = (steps_target - 2) // 2
    for _ in range(pairs):
        j, k = sorted(rng.sample(range(1, n + 1), 2))
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        target = " ".join(str(a) if v == j else str(b) if v == k else "0"
                          for v in range(1, n + 1))
        body.append(f"IMPLIC {next_id}")
        body.append(f"  LIN {lower[j]}:{a} {lower[k]}:{b}")
        body.append(f"  -> {target} >= 0")
        body.append(f"DEL A {next_id}")
        next_id += 1
    body.append(f"IMPLIC {next_id}")
    body.append(f"  LIN {ge_one}:1 {le_zero}:1")
    body.append(f"  -> {zeros} <= -1")
    body.append(f"GOAL {next_id}")
    return problem_text, problem_text + "\n".join(body) + "\n", 2 * pairs + 2


# ---------------------------------------------------------------------------
# Single-token mutations
# ---------------------------------------------------------------------------

def _bump_rhs(iq, delta):
    return Inequality(iq.lhs, iq.rel, iq.rhs + delta, iq.strict)


def _subproofs_of(step):
    if isinstance(step, ImplicStep):
        yield step.sub
    elif isinstance(step, StrengthenStep):
        yield from step.subs.values()
        for entry in step.order_evidence.values():
            yield from entry.values()
    elif isinstance(step, DeleteStep):
        if step.sub is not None:
            yield step.sub
        yield from step.subs.values()


def _mutation_sites(step):
    """Yield one callable per mutation site of a step; calling it applies
    that single-token mutation to the step in place.

    The sites are: a subproof multiplier by +-1, a subproof target or an
    IMPLIC assumption or a strengthening constraint right-hand side by +-1,
    a swap of two witness entries, and a swap of adjacent sigma entries."""
    one = Rat(1)
    for sub in _subproofs_of(step):
        for si, s in enumerate(sub.steps):
            if s[0] != "lin":
                continue
            for pi in range(len(s[1])):
                for delta in (one, -one):
                    def bump_mult(sub=sub, si=si, pi=pi, delta=delta):
                        pairs = list(sub.steps[si][1])
                        ref, mult = pairs[pi]
                        pairs[pi] = (ref, mult + delta)
                        sub.steps[si] = ("lin", pairs)
                    yield bump_mult
        for delta in (one, -one):
            def bump_target(sub=sub, delta=delta):
                sub.target = _bump_rhs(sub.target, delta)
            yield bump_target
    if isinstance(step, ImplicStep):
        for ai in range(len(step.assumptions)):
            for delta in (one, -one):
                def bump_assumption(step=step, ai=ai, delta=delta):
                    step.assumptions[ai] = _bump_rhs(step.assumptions[ai], delta)
                yield bump_assumption
    if isinstance(step, StrengthenStep):
        for delta in (one, -one):
            def bump_constraint(step=step, delta=delta):
                c = step.constraint
                if isinstance(c, Linear):
                    step.constraint = Linear(_bump_rhs(c.ineq, delta))
                else:
                    step.constraint = Implication(
                        c.assumptions, _bump_rhs(c.consequent, delta))
            yield bump_constraint
    if isinstance(step, (StrengthenStep, DeleteStep)) and \
            getattr(step, "witness", None) is not None:
        rows = sorted(step.witness.rows)
        if len(rows) >= 2:
            def swap_rows(w=step.witness.rows, a=rows[0], b=rows[1]):
                w[a], w[b] = w[b], w[a]
            yield swap_rows
        elif len(rows) == 1 and len(step.witness.rows[rows[0]][0]) >= 2:
            def swap_coeffs(w=step.witness.rows, r=rows[0]):
                coeffs, offset = w[r]
                coeffs = dict(coeffs)
                a, b = sorted(coeffs)[:2]
                coeffs[a], coeffs[b] = coeffs[b], coeffs[a]
                w[r] = (coeffs, offset)
            yield swap_coeffs
    if isinstance(step, TreeStep):
        for nid in sorted(step.tree.nodes):
            for i in range(len(step.tree.nodes[nid].sigma) - 1):
                def swap_sigma(nodes=step.tree.nodes, nid=nid, i=i):
                    node = nodes[nid]
                    sigma = list(node.sigma)
                    sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
                    nodes[nid] = TreeNode(node.parent, node.branch, sigma)
                yield swap_sigma


def sampled_mutants(rng, cert_text, count):
    """Up to `count` distinct single-token mutants of a certificate, chosen
    by the seed, as certificate texts in site order.  Each text equals
    `serialize` of the mutated certificate; only the mutated step is
    rendered again."""
    problem, steps = parse_text(cert_text)
    rendered = fmt_problem(problem)
    starts, dims = [], []
    n = problem.n
    for step in steps:
        starts.append(len(rendered))
        dims.append(n)
        lines, n = fmt_step(step, n)
        rendered.extend(lines)
    starts.append(len(rendered))
    sites = [(i, j) for i, step in enumerate(steps)
             for j, _ in enumerate(_mutation_sites(step))]
    out = []
    for i, j in sorted(rng.sample(sites, min(count, len(sites)))):
        step = copy.deepcopy(steps[i])
        next(itertools.islice(_mutation_sites(step), j, None))()
        lines, _ = fmt_step(step, dims[i])
        out.append("\n".join(rendered[:starts[i]] + lines + rendered[starts[i + 1]:]) + "\n")
    return out
