"""Brute-force ground truth for bounded pure-integer instances.

One exact depth-first search visits the lattice within the stated bounds in
lexicographic order, x1 slowest and xn fastest.  Each `<=`-half of a Linear
row, and the objective as a strict half below the best value found, keeps
its least activity: assigned variables count at their values, the others at
whichever bound minimizes their term.  A value of x_k that leaves some half
violated is skipped, with all larger ones when the half's coefficient on x_k
is positive.  Implications are checked at full assignments.  The search
shares no code with the verifier or the certifier, so it can judge both.
"""

from .errors import NonIntegralProblem, TooLarge
from .exact import ceil_int, floor_int, unit_bound
from .model import Implication, Linear, Problem, evaluate, point

LATTICE_LIMIT = 10 ** 7


def integer_bounds(problem: Problem):
    """Tightest integer bounds implied by single-variable constraints.

    Returns (lows, highs) as 0-based lists; raises TooLarge when some
    variable has no finite bound on either side.
    """
    # the bounds found, by variable, so that a variable without both is
    # refused before anything is allocated per variable
    lo, hi = {}, {}
    for c in problem.constraints.values():
        if not isinstance(c, Linear) or len(c.ineq.lhs.terms) != 1:
            continue
        for terms, sign, rhs, strict in c.ineq.le_halves():
            j, upper, bound = unit_bound(terms, sign, rhs)
            if upper:
                v = floor_int(bound, strict)
                hi[j] = min(hi.get(j, v), v)
            else:
                v = ceil_int(bound, strict)
                lo[j] = max(lo.get(j, v), v)
    n = problem.n
    if len(lo) < n or len(hi) < n:
        missing = next(j for j in range(1, n + 1) if j not in lo or j not in hi)
        raise TooLarge(f"variable x{missing} lacks finite bounds; lattice is infinite")
    return [lo[j] for j in range(1, n + 1)], [hi[j] for j in range(1, n + 1)]


def brute_force_optimum(problem: Problem):
    """Exhaustively search the integer lattice within the stated bounds.

    Returns ("optimal", value, argmin) or ("infeasible",).  The argmin is the
    first minimizer in lexicographic lattice order.  A problem that fails
    `Problem.validate` raises MalformedProblem.
    """
    problem.validate()
    # validate keeps the markers in [1, n], so n of them mark every variable
    if len(problem.integral) != problem.n:
        raise NonIntegralProblem("oracle requires every variable to be integral")
    lo, hi = integer_bounds(problem)
    size = 1
    for l, h in zip(lo, hi):
        if h < l:
            return ("infeasible",)
        size *= h - l + 1
    if size > LATTICE_LIMIT:
        raise TooLarge(f"lattice has {size} points (limit {LATTICE_LIMIT})")

    n = problem.n
    objective = problem.objective.terms
    # the objective comes last, strict below a value no point reaches
    halves = [h for c in problem.constraints.values() if isinstance(c, Linear)
              for h in c.ineq.le_halves()]
    halves.append((objective, 1, 1 + sum(max(c * lo[j - 1], c * hi[j - 1])
                                         for j, c in objective.items()), True))
    # slack[r]: rhs minus the least activity of half r.  It only falls as
    # variables are fixed, so a half violated here is violated below too.
    slack = []
    occurs = [[] for _ in range(n)]
    for r, (terms, sign, rhs, strict) in enumerate(halves):
        for j, c in terms.items():
            c *= sign
            least = c * (lo[j - 1] if c > 0 else hi[j - 1])
            rhs -= least
            occurs[j - 1].append((r, c, least, strict))
        if rhs < 0 or (strict and rhs <= 0):
            return ("infeasible",)
        slack.append(rhs)
    # a new best value lowers the objective's rhs, so every x_k checks it,
    # with a zero coefficient where the objective does not read x_k
    for k, occurrences in enumerate(occurs):
        if k + 1 not in objective:
            occurrences.append((len(halves) - 1, 0, 0, True))
    implications = [c for c in problem.constraints.values() if isinstance(c, Implication)]

    best = None
    x = [None] * n
    top = list(hi)   # x_k's last value worth trying under the current prefix
    k = 0
    while k >= 0:
        if k == n:
            # every half holds: the objective is below the best value found
            if all(evaluate(point(x), imp) for imp in implications):
                best = tuple(x)
                slack[-1] = 0
            k -= 1
            continue
        old = x[k]
        new = lo[k] if old is None else old + 1
        if new > top[k]:
            _move(occurs[k], slack, old, None)
            x[k], top[k] = None, hi[k]
            k -= 1
            continue
        fits, more = _move(occurs[k], slack, old, new)
        x[k] = new
        if fits:
            k += 1
        elif not more:
            top[k] = new
    if best is None:
        return ("infeasible",)
    return ("optimal", problem.objective.evaluate(point(best)), best)


def _move(occurrences, slack, old, new):
    """Move x_k's term in every half it occurs in from value `old` to `new`,
    None standing for the bound that minimizes the term.  Returns (fits,
    more): whether every such half can still hold, and whether one that
    cannot might at a larger x_k (a negative coefficient)."""
    fits = more = True
    for r, c, least, strict in occurrences:
        s = (slack[r] + (least if old is None else c * old)
             - (least if new is None else c * new))
        slack[r] = s
        if s < 0 or (strict and s <= 0):
            fits = False
            more = more and c < 0
    return fits, more
