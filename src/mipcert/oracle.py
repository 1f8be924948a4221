"""Brute-force ground truth for bounded pure-integer instances."""

import numpy as np

from .errors import NonIntegralProblem, TooLarge
from .exact import LE, Inequality, Rat, ceil_int, floor_int, is_int, unit_bound
from .model import Implication, IntegralMarker, Linear, Problem, point

LATTICE_LIMIT = 10 ** 7
_CHUNK = 1 << 16


def integer_bounds(problem: Problem):
    """Tightest integer bounds implied by single-variable constraints.

    Returns (lows, highs) as 0-based lists; raises TooLarge when some
    variable has no finite bound on either side.
    """
    lo = [None] * problem.n
    hi = [None] * problem.n
    for c in problem.constraints.values():
        if not isinstance(c, Linear):
            continue
        iq = c.ineq
        if len(iq.lhs.terms) != 1:
            continue
        for terms, rhs, strict in iq.le_halves():
            j, upper, bound = unit_bound(terms, rhs)
            if upper:
                v = floor_int(bound, strict)
                hi[j - 1] = v if hi[j - 1] is None else min(hi[j - 1], v)
            else:
                v = ceil_int(bound, strict)
                lo[j - 1] = v if lo[j - 1] is None else max(lo[j - 1], v)
    missing = [j + 1 for j in range(problem.n) if lo[j] is None or hi[j] is None]
    if missing:
        raise TooLarge(f"variables {missing} lack finite bounds; lattice is infinite")
    return lo, hi


def brute_force_optimum(problem: Problem):
    """Exhaustively enumerate the integer lattice within the stated bounds.

    Returns ("optimal", value, argmin) or ("infeasible",).  The argmin is the
    first minimizer in lexicographic lattice order.
    """
    if problem.integral != set(range(1, problem.n + 1)):
        raise NonIntegralProblem("oracle requires every variable to be integral")
    lo, hi = integer_bounds(problem)
    widths = [h - l + 1 for l, h in zip(lo, hi)]
    size = 1
    for w in widths:
        if w <= 0:
            return ("infeasible",)
        size *= w
    if size > LATTICE_LIMIT:
        raise TooLarge(f"lattice has {size} points (limit {LATTICE_LIMIT})")

    rows = []
    implications = []
    for c in problem.constraints.values():
        if isinstance(c, Linear):
            rows.append(c.ineq)
        elif isinstance(c, Implication):
            implications.append(c)
        elif isinstance(c, IntegralMarker):
            continue
    fractional = any(
        not is_int(v)
        for iq in rows + [x for imp in implications
                          for x in (*imp.assumptions, imp.consequent)]
        for v in (*iq.lhs.terms.values(), iq.rhs)
    ) or any(not is_int(v) for v in problem.objective.terms.values())

    if implications or fractional or _too_wide(problem, rows, lo, hi):
        return _enumerate_exact(problem, lo, hi, size)
    return _enumerate_fast(problem, rows, lo, hi, size)


def _too_wide(problem, rows, lo, hi):
    """Row activities must stay far inside int64 for the vectorized path."""
    limit = 1 << 52
    span = max([1, *map(abs, lo), *map(abs, hi)])
    for iq in rows + [Linear(Inequality(problem.objective, LE, Rat(0))).ineq]:
        weight = sum(abs(c) for c in iq.lhs.terms.values()) * span + abs(iq.rhs)
        if weight > limit:
            return True
    return False


def _lattice_points(lo, widths, offset, count):
    """Mixed-radix decode of lattice indices [offset, offset+count)."""
    n = len(lo)
    idx = np.arange(offset, offset + count, dtype=np.int64)
    pts = np.empty((count, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        pts[:, j] = idx % widths[j] + lo[j]
        idx //= widths[j]
    return pts


def _enumerate_fast(problem, rows, lo, hi, size):
    n = problem.n
    widths = [h - l + 1 for l, h in zip(lo, hi)]
    mats = []
    for iq in rows:
        for terms, rhs, strict in iq.le_halves():
            a = np.zeros(n, dtype=np.int64)
            for j, c in terms.items():
                a[j - 1] = int(c)
            mats.append((a, int(rhs), strict))
    c_vec = np.zeros(n, dtype=np.int64)
    for j, c in problem.objective.terms.items():
        c_vec[j - 1] = int(c)

    best_val = None
    best_arg = None
    for offset in range(0, size, _CHUNK):
        count = min(_CHUNK, size - offset)
        pts = _lattice_points(lo, widths, offset, count)
        feasible = np.ones(count, dtype=bool)
        for a, rhs_int, strict in mats:
            lhs = pts @ a
            feasible &= (lhs < rhs_int) if strict else (lhs <= rhs_int)
            if not feasible.any():
                break
        if not feasible.any():
            continue
        vals = pts @ c_vec
        vals_f = vals[feasible]
        arg_rows = np.flatnonzero(feasible)
        k = int(np.argmin(vals_f))
        cand_val = int(vals_f[k])
        if best_val is None or cand_val < best_val:
            best_val = cand_val
            best_arg = [int(v) for v in pts[arg_rows[k]]]
    if best_val is None:
        return ("infeasible",)
    value = Rat(best_val) + problem.objective.const
    return ("optimal", value, tuple(Rat(v) for v in best_arg))


def _enumerate_exact(problem, lo, hi, size):
    n = problem.n
    constraints = [c for c in problem.constraints.values()
                   if not isinstance(c, IntegralMarker)]
    best_val = None
    best_arg = None
    counters = list(lo)

    from .model import evaluate
    for _ in range(size):
        pt = point([Rat(v) for v in counters])
        if all(evaluate(pt, c) for c in constraints):
            val = problem.objective.evaluate(pt)
            if best_val is None or val < best_val:
                best_val = val
                best_arg = tuple(Rat(v) for v in counters)
        # odometer increment, last variable fastest
        for j in range(n - 1, -1, -1):
            counters[j] += 1
            if counters[j] <= hi[j]:
                break
            counters[j] = lo[j]
    if best_val is None:
        return ("infeasible",)
    return ("optimal", best_val, best_arg)
