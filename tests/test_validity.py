"""Meta-soundness: walk accepted certificates and check, after every step,
that the proof state still satisfies the validity conditions by exhaustive
enumeration.

On bounded all-integer instances the integrality markers make every
constraint-set intersection a finite lattice, so the conditions are exactly
decidable: the incumbent is witnessed, the core preserves the reachable
objective values below the incumbent, and every improving core point has an
order-no-smaller surviving point in the derived set.
"""

import itertools
import random

from mipcert.certfile import parse_text
from mipcert.certifier import (
    CertWriter,
    Certifier,
    emit_lex_constraint,
    emit_order_tree,
    solve_and_certify,
)
from mipcert.exact import Rat
from mipcert.model import evaluate, initial_configuration, point
from mipcert.oracle import integer_bounds
from mipcert.rules import ExtendStep, apply_step

from appendix import finish
from helpers import (
    boxed_problem,
    knapsack_problem,
    random_problem,
    set_packing_problem,
    weak_at,
)
from test_rules import dominated_column_problem, dominated_column_step, ineq


def lattice(problem):
    lo, hi = integer_bounds(problem)
    axes = [range(l, h + 1) for l, h in zip(lo, hi)]
    return [tuple(Rat(v) for v in vals) for vals in itertools.product(*axes)]


def _min_value(expr, pts):
    best = None
    for x in pts:
        v = expr.evaluate(point(x))
        if best is None or v < best:
            best = v
    return best


def assert_valid(problem, cfg, pts, markers):
    feas = [x for x in pts
            if all(evaluate(point(x), c) for c in problem.constraints.values())]
    core_pts = [x for x in pts
                if all(evaluate(point(x), c) for c in cfg.core.values())]
    both_pts = [x for x in core_pts
                if all(evaluate(point(x), c) for c in cfg.derived.values())]
    z = cfg.z
    # the incumbent is witnessed by a feasible point
    if z is not None:
        assert any(problem.objective.evaluate(point(x)) <= z for x in feas)
    # below the incumbent, the transformed core reaches the same values
    min_f = _min_value(problem.objective, feas)
    min_g = _min_value(cfg.g, core_pts)
    below_f = min_f is not None and (z is None or min_f < z)
    below_g = min_g is not None and (z is None or min_g < z)
    assert below_f == below_g
    if below_f:
        assert min_f == min_g
    # every improving core point has an order-no-smaller survivor
    for x in core_pts:
        gx = cfg.g.evaluate(point(x))
        if z is not None and gx >= z:
            continue
        if x in both_pts:
            continue  # the point survives itself (the order is reflexive)
        ok = any(weak_at(cfg.tree, cfg.eps, list(y), list(x))
                 and cfg.g.evaluate(point(y)) <= gx
                 for y in both_pts)
        assert ok, f"point {x} lost without an order-no-smaller survivor"


def walk_certificate(text):
    problem, steps = parse_text(text)
    pts = lattice(problem)
    markers = set(problem.integral)
    cfg = initial_configuration(problem)
    assert_valid(problem, cfg, pts, markers)
    for i, step in enumerate(steps):
        if isinstance(step, ExtendStep):
            return  # the lattice view does not extend
        verdict = apply_step(cfg, step)
        assert_valid(problem, cfg, pts, markers)
    assert verdict is not None


def test_validity_knapsack():
    _, text, _ = solve_and_certify(knapsack_problem())
    walk_certificate(text)


def test_validity_symmetry_chain():
    problem = set_packing_problem(3)
    _, text, _ = solve_and_certify(problem, sst=True)
    walk_certificate(text)
    # the one-rung ladder of each adjacent swap writes the same certificate
    writer = CertWriter(problem)
    emit_order_tree(writer, [1, 2, 3])
    ladders = [emit_lex_constraint(writer, [k], {k: k + 1, k + 1: k}) for k in (1, 2)]
    assert finish(writer, ladders)[1] == text


def test_validity_lex_ladder():
    row = ineq({1: 1, 2: 1, 3: 1}, "<=", 5)
    problem = boxed_problem(3, [row], {1: -1, 2: -1, 3: -1}, hi=2)
    writer = CertWriter(problem)
    emit_order_tree(writer, [1, 2, 3])
    cid, final = emit_lex_constraint(writer, [1, 2, 3], {1: 2, 2: 3, 3: 1})
    certifier = Certifier(writer)
    certifier.register_row(cid, final)
    certifier.run()
    walk_certificate(writer.text())


def test_validity_column_fixing():
    # the shifted column must be free above, so the lattice view is a
    # window: losers in the small window map to survivors in the big one
    p = dominated_column_problem()
    cfg = initial_configuration(p)
    step = dominated_column_step(cfg.max_id + 1)
    apply_step(cfg, step)
    small = [(Rat(a), Rat(b)) for a in range(0, 4) for b in range(0, 4)]
    big = [(Rat(a), Rat(b)) for a in range(0, 9) for b in range(0, 9)]
    core_pts = [x for x in small
                if all(evaluate(point(x), c) for c in cfg.core.values())]
    both_pts = [x for x in big
                if all(evaluate(point(x), c) for c in cfg.core.values())
                and all(evaluate(point(x), c) for c in cfg.derived.values())]
    for x in core_pts:
        gx = cfg.g.evaluate(point(x))
        assert any(weak_at(cfg.tree, cfg.eps, list(y), list(x))
                   and cfg.g.evaluate(point(y)) <= gx
                   for y in both_pts), x


def test_validity_random_certificates():
    rng = random.Random(4242)
    checked = 0
    for _ in range(12):
        problem = random_problem(rng, max_n=3, max_rows=3, lo=0, hi=2, coeff=3)
        _, text, _ = solve_and_certify(problem)
        walk_certificate(text)
        checked += 1
    assert checked == 12


def test_validity_identity_witness_strengthening():
    # an implied constraint introduced with the identity witness, justified
    # by a derivation from the negation premise and the row
    text = """VAR 2
INT 1 2
OBJ -1 0
CON 1 <= 2 2 3
CON 2 <= 1 0 1
CON 3 >= 1 0 0
CON 4 <= 0 1 1
CON 5 >= 0 1 0
RED 8 2 2 <= 4
  SUB SELF
    LIN 1:1
    -> 2 2 <= 4
SOL 1 0
IMPLIC 9 { 1 0 <= 0 }
  LIN OBJ:1 A1:1
  -> 0 0 <= -1
IMPLIC 10 { 1 0 >= 1 }
  LIN OBJ:1 2:1
  -> 0 0 <= -1
RESOLVE 11 9:1 10:1
GOAL 11
"""
    from mipcert.certfile import verify_text
    report = verify_text(text)
    assert report.status == "verified", report.message
    walk_certificate(text)
