"""The worked derivations of the paper's appendix, and a split cut, as
complete certificates: each derivation is written into a `CertWriter`, and
the certifying solver closes the problem with the derived row.

The library emits the rounding and cover cuts (`emit_cg_cut`,
`emit_cover_cut`).  The single-node flow cover, the reduced-cost fixing and
the split cut are written here, since no solver run needs them.  These
writers refuse nothing: the verifier judges what they write, and
tests/golden/ pins it byte for byte."""

from mipcert.certifier import (
    Certifier,
    CertWriter,
    _pin_to_one,
    _ProofBuilder,
    emit_cg_cut,
    emit_cover_cut,
)
from mipcert.exact import GE, LE, Inequality, LinExpr, Rat, linear_combine, quotient, round_integral
from mipcert.model import Linear, Problem
from mipcert.rules import SolStep, Subproof

from helpers import boxed_problem, knapsack_problem


def ineq(terms, rel, rhs, strict=False):
    return Inequality(LinExpr({j: Rat(c) for j, c in terms.items()}), rel, Rat(rhs), strict)


def finish(writer, extra):
    """Close the writer's problem by search, with the rows `extra`
    ([(id, inequality)]) derived already: (verdict, text)."""
    certifier = Certifier(writer)
    for cid, cut in extra:
        certifier.register_row(cid, cut)
    verdict = certifier.run()
    return verdict, writer.text()


def flowcover_cut(writer, sum_row_id, arc_rows, x_of, y_of, caps, cover):
    """Split derivation of the flow-cover inequality on a single-node flow
    structure: `sum_row_id` bounds the total flow by b, `arc_rows[j]` is
    y_j <= caps[j]*x_j, and the arcs in `cover` exceed b jointly, by lam.

    An outer split on whether every high-capacity cover arc is open; when
    not, an inner split on the cover capacity in use, each side aggregating
    to the same inequality.  Returns (id, cut)."""
    bounds = writer.bounds
    sum_terms, b, _ = writer.problem.constraints[sum_row_id].ineq.le_form()
    cover = sorted(cover)
    lam = sum(caps[j] for j in cover) - b
    strong = [j for j in cover if caps[j] >= lam]
    outside = sorted(set(sum_terms) - {y_of[j] for j in cover})

    x_sum = LinExpr({x_of[j]: 1 for j in strong})
    a_cover = Inequality(x_sum, GE, len(strong))
    a_low = Inequality(x_sum, LE, len(strong) - 1)
    lhs = LinExpr({y_of[j]: 1 for j in cover})
    rhs = b
    for j in strong:
        if caps[j] > lam:
            lhs = lhs.add(LinExpr({x_of[j]: -(caps[j] - lam)}))
            rhs -= caps[j] - lam
    cut = Inequality(lhs, LE, rhs)

    node_row = [(("id", sum_row_id), 1)] + [bounds.lower_pair(v, 1) for v in outside]

    # case A: all high-capacity arcs open
    case_a = _ProofBuilder()
    fix_ref = _pin_to_one(case_a, [x_of[j] for j in strong], bounds)
    case_a.line(node_row + [(fix_ref[x_of[j]], caps[j] - lam)
                            for j in strong if caps[j] > lam])
    id_a = writer.derive([a_cover], Subproof(case_a.steps, cut))

    # case B, split on the cover capacity in use: within it the arc rows
    # bound the flows (B1), beyond it the node row absorbs the difference (B2)
    in_use = [(("assume", 1), lam)] + [bounds.upper_pair(x_of[j], caps[j])
                                       for j in cover if j not in strong]

    def case_b(flow_bound, extra):
        case = _ProofBuilder()
        s1, s2 = case.line(in_use), case.line(flow_bound)
        case.line([(s1, 1), (s2, 1), *extra])
        return case.steps

    flow_lhs = LinExpr({x_of[j]: caps[j] for j in cover})
    id_b1 = writer.derive([a_low, Inequality(flow_lhs, LE, b)], Subproof(
        case_b([(("id", arc_rows[j]), 1) for j in cover], []), cut))
    id_b2 = writer.derive([a_low, Inequality(flow_lhs, GE, b + 1)], Subproof(
        case_b(node_row, [(("assume", 2), 1)]), cut))
    id_b = writer.resolve(id_b1, id_b2, 2)
    return writer.resolve(id_b, id_a, 1), cut


def reduced_cost_fixing(writer, duals, var, incumbent):
    """Bound x_var from the strict incumbent premise: aggregate the objective
    bound with the rows `duals` ({id: multiplier}), cancel the remaining
    reduced costs through variable bounds, scale by x_var's reduced cost,
    and round when x_var is integral.  Returns (id, bound)."""
    problem, bounds = writer.problem, writer.bounds
    reduced = LinExpr(dict(problem.objective.terms))
    for cid, mult in duals.items():
        # an equality's first half has sign 1: it enters as stated
        terms, sign, _, _ = problem.constraints[cid].ineq.le_halves()[0]
        reduced = reduced.add(LinExpr(terms).scale(sign * mult))
    cbar = reduced.terms[var]
    pairs = [(("obj",), quotient(1, cbar))]
    pairs += [(("id", cid), quotient(mult, cbar)) for cid, mult in duals.items()]
    for k, coeff in reduced.terms.items():
        if k == var:
            continue
        kappa = quotient(coeff, cbar)   # the pair cancels kappa * x_k
        pairs.append(bounds.lower_pair(k, kappa) if kappa > 0 else bounds.upper_pair(k, -kappa))
    # replay the aggregation to state the resulting bound exactly
    replay = [(Inequality(problem.objective, LE, incumbent, strict=True), quotient(1, cbar))]
    replay += [(problem.constraints[ref[1]].ineq, mult) for ref, mult in pairs[1:]]
    result = linear_combine(replay)
    steps = [("lin", pairs)]
    if var in problem.integral:
        result = round_integral(result, problem.integral)
        steps.append(("round",))
    return writer.derive([], Subproof(steps, result)), result


def flowcover_problem():
    """y3 + y4 <= 3, with y3 <= 2 x1 and y4 <= 2 x2; x binary, y in [0, 2]."""
    rows = [ineq({3: 1, 4: 1}, LE, 3), ineq({3: 1, 1: -2}, LE, 0), ineq({4: 1, 2: -2}, LE, 0)]
    cons = {cid: Linear(iq) for cid, iq in enumerate(rows, start=1)}
    for var, hi in ((1, 1), (2, 1), (3, 2), (4, 2)):
        cons[len(cons) + 1] = Linear(ineq({var: 1}, LE, hi))
        cons[len(cons) + 1] = Linear(ineq({var: 1}, GE, 0))
    return Problem(4, {1, 2, 3, 4}, LinExpr({3: Rat(-1), 4: Rat(-1)}), cons)


def appendix_certificates():
    """The four worked derivations as complete certificates:
    {name: (verdict, text)}."""
    out = {}

    w = CertWriter(boxed_problem(2, [ineq({1: 1, 2: 1}, LE, Rat(3, 2))], {1: -1, 2: -1}))
    cid, cut = emit_cg_cut(w, [(1, Rat(1))])
    assert cut == ineq({1: 1, 2: 1}, LE, 1)
    out["cg"] = finish(w, [(cid, cut)])

    w = CertWriter(knapsack_problem())
    cid, cut = emit_cover_cut(w, 1, [1, 2])
    assert cut == ineq({1: 1, 2: 1}, LE, 1)
    out["cover"] = finish(w, [(cid, cut)])

    w = CertWriter(flowcover_problem())
    cid, cut = flowcover_cut(w, 1, {1: 2, 2: 3}, {1: 1, 2: 2}, {1: 3, 2: 4},
                             {1: 2, 2: 2}, [1, 2])
    assert cut == ineq({1: -1, 2: -1, 3: 1, 4: 1}, LE, 1)
    out["flowcover"] = finish(w, [(cid, cut)])

    w = CertWriter(boxed_problem(2, [ineq({1: 2, 2: 2}, LE, 3)], {1: -2, 2: -1}, hi=2))
    w.add(SolStep([Rat(1), Rat(0)]))
    cid, bound = reduced_cost_fixing(w, {1: 1}, 2, -2)
    assert bound == ineq({2: 1}, LE, 0)
    certifier = Certifier(w)
    certifier.z = Rat(-2)
    certifier.register_row(cid, bound)
    out["rcf"] = (certifier.run(), w.text())
    return out


def split_cut_certificate():
    """The knapsack closed with the split cut x1 + x2 <= 1, derived under
    x1 + x2 <= 1 and under x1 + x2 >= 2, then resolved: (verdict, text)."""
    writer = CertWriter(knapsack_problem())
    cut = ineq({1: 1, 2: 1}, LE, 1)
    low_id = writer.derive([cut], Subproof([("lin", [(("assume", 1), 1)])], cut))
    high_id = writer.derive([ineq({1: 1, 2: 1}, GE, 2)],
                            Subproof([("lin", [(("id", 1), 1), (("assume", 1), 2)])], cut))
    return finish(writer, [(writer.resolve(low_id, high_id, 1), cut)])
