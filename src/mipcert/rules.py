"""One checker per transition rule, plus the goal check.

Each checker consumes the live configuration and a parsed proof step; it
either mutates the configuration or raises a CheckError describing the first
violated condition.  Rule application is strictly sequential per
configuration.
"""

from .errors import (
    ConsequentsDiffer,
    ConsistencyViolation,
    CoverCheckFailed,
    DerivedSetNonEmpty,
    DimensionMismatch,
    IdentityCheckFailed,
    InfeasibleSolution,
    MissingSubproof,
    NoContradictionPresent,
    NonEqualityPremise,
    NotImplications,
    NotImproving,
    NotShrinking,
    OrderUndetermined,
    StrictBoundUsedWithInfiniteZ,
    StrictOrderUndetermined,
    SubproofFailed,
    UnknownId,
    UnknownPremiseId,
    VariantPreconditionFailed,
    WitnessNotIntegral,
)
from .exact import (
    EQ,
    GE,
    LE,
    Inequality,
    LinExpr,
    Rat,
    ceil_int,
    dominates,
    floor_int,
    is_int,
    linear_combine,
    round_integral,
)
from .model import (
    Implication,
    IntegralMarker,
    Linear,
    evaluate,
    make_constraint,
    negate,
    point,
)
from .trees import check_tree_consistency, dcn_and_compare, propagate_box


# ---------------------------------------------------------------------------
# Subproofs
# ---------------------------------------------------------------------------

class Subproof:
    """A sequence of combine/round steps over cited premises, closed by a
    domination check against a stated target inequality.

    Steps are ("lin", [(ref, mult), ...]) or ("round",); a round applies to
    the immediately preceding step's result.  Refs are
    ("id", cid) | ("assume", k) | ("neg", k) | ("obj",) | ("step", i).
    """

    __slots__ = ("steps", "target")

    def __init__(self, steps, target: Inequality):
        self.steps = list(steps)
        self.target = target


class PremisePool:
    """Resolves subproof premise references against the configuration."""

    def __init__(self, cfg, allowed_ids, assumptions=(), negations=(), allow_obj=False):
        self.cfg = cfg
        self.allowed_ids = allowed_ids
        self.assumptions = list(assumptions)
        self.negations = list(negations)
        self.allow_obj = allow_obj

    def resolve(self, ref, step_results):
        kind = ref[0]
        if kind == "id":
            cid = ref[1]
            if cid not in self.allowed_ids:
                raise UnknownPremiseId(f"constraint {cid} is not citable here")
            c = self.cfg.lookup(cid)
            if not isinstance(c, Linear):
                raise UnknownPremiseId(f"constraint {cid} is not a linear premise")
            return c.ineq
        if kind == "assume":
            k = ref[1]
            if not 1 <= k <= len(self.assumptions):
                raise UnknownPremiseId(f"no assumption A{k}")
            return self.assumptions[k - 1]
        if kind == "neg":
            k = ref[1]
            if not 1 <= k <= len(self.negations):
                raise UnknownPremiseId(f"no negation premise N{k}")
            return self.negations[k - 1]
        if kind == "obj":
            if not self.allow_obj:
                raise UnknownPremiseId("objective bound premise not available in this rule")
            if self.cfg.z is None:
                raise StrictBoundUsedWithInfiniteZ(
                    "objective bound premise requires a finite incumbent")
            return Inequality(self.cfg.g, LE, self.cfg.z, strict=True)
        if kind == "step":
            i = ref[1]
            if not 1 <= i <= len(step_results):
                raise UnknownPremiseId(f"no earlier subproof step S{i}")
            return step_results[i - 1]
        raise UnknownPremiseId(f"unknown reference {ref!r}")


def run_subproof(sub: Subproof, pool: PremisePool, integral_vars, dim) -> Inequality:
    """Execute the steps and return the final derived inequality."""
    if not sub.steps:
        raise SubproofFailed("empty subproof")
    results = []
    for step in sub.steps:
        if step[0] == "lin":
            premises = [(pool.resolve(ref, results), mult) for ref, mult in step[1]]
            results.append(linear_combine(premises, dim=dim))
        elif step[0] == "round":
            if not results:
                raise SubproofFailed("round with no preceding derivation")
            results.append(round_integral(results[-1], integral_vars))
        else:
            raise SubproofFailed(f"unknown subproof step {step[0]!r}")
    return results[-1]


def check_subproof(sub, pool, integral_vars, dim, expected_target=None, label=""):
    """Run a subproof and verify its stated target (and the expected one)."""
    if expected_target is not None and sub.target != expected_target:
        raise SubproofFailed(
            f"{label}: stated target does not match the required inequality")
    final = run_subproof(sub, pool, integral_vars, dim)
    if not dominates(final, sub.target):
        raise SubproofFailed(f"{label}: derived inequality does not imply the target")
    return True


# ---------------------------------------------------------------------------
# Step payloads
# ---------------------------------------------------------------------------

class ImplicStep:
    def __init__(self, new_id, assumptions, sub):
        self.new_id = new_id
        self.assumptions = list(assumptions)
        self.sub = sub


class ResolveStep:
    def __init__(self, new_id, id1, k1, id2, k2):
        self.new_id = new_id
        self.id1, self.k1 = id1, k1
        self.id2, self.k2 = id2, k2


class SolStep:
    def __init__(self, values):
        self.values = [Rat(v) for v in values]


class ObjSwapStep:
    def __init__(self, new_g, multipliers):
        self.new_g = new_g
        self.multipliers = multipliers


class StrengthenStep:
    """Shared payload of the redundance and dominance rules."""

    def __init__(self, new_id, constraint, witness, subs, order_evidence, dominance):
        self.new_id = new_id
        self.constraint = constraint
        self.witness = witness
        self.subs = dict(subs)                    # key: ("id", cid) | ("self",) | ("obj",)
        self.order_evidence = dict(order_evidence)  # entry -> {"gap"/"geq"/"leq": Subproof}
        self.dominance = dominance


class EpsStep:
    def __init__(self, new_eps):
        self.new_eps = Rat(new_eps)


class TransferStep:
    def __init__(self, cid):
        self.cid = cid


class DeleteStep:
    def __init__(self, variant, ids, sub=None, witness=None, subs=None):
        self.variant = variant
        self.ids = list(ids)
        self.sub = sub
        self.witness = witness
        self.subs = dict(subs or {})


class TreeStep:
    def __init__(self, tree, bound_refs):
        self.tree = tree
        self.bound_refs = dict(bound_refs)


class ExtendStep:
    pass


class GoalStep:
    def __init__(self, cid=None):
        self.cid = cid


class Verdict:
    __slots__ = ("kind", "value")

    def __init__(self, kind, value=None):
        self.kind = kind  # "optimal" | "infeasible"
        self.value = value

    def __eq__(self, other):
        return (
            isinstance(other, Verdict)
            and self.kind == other.kind
            and self.value == other.value
        )

    def __repr__(self):
        if self.kind == "optimal":
            return f"Optimal({self.value})"
        return "Infeasible"


# ---------------------------------------------------------------------------
# Rule checkers
# ---------------------------------------------------------------------------

def _check_dim(cfg, ineq):
    if ineq.max_var() > cfg.dim:
        raise DimensionMismatch(
            f"inequality references x{ineq.max_var()} beyond dimension {cfg.dim}")


def check_implicational(cfg, step: ImplicStep):
    for a in step.assumptions:
        _check_dim(cfg, a)
    _check_dim(cfg, step.sub.target)
    allowed = set(cfg.core) | set(cfg.derived)
    pool = PremisePool(cfg, allowed, assumptions=step.assumptions, allow_obj=True)
    check_subproof(step.sub, pool, cfg.integral_vars(), cfg.dim, label="implication")
    cfg.alloc(step.new_id)
    cfg.derived[step.new_id] = make_constraint(step.assumptions, step.sub.target)


def _integer_cover(a_le: Inequality, a_ge: Inequality, integral_vars):
    """Check that the <=-side and >=-side split assumptions jointly cover
    every value of their (shared) left-hand side."""
    if a_le.lhs != a_ge.lhs:
        raise CoverCheckFailed("split assumptions have different left-hand sides")
    r1, s1 = a_le.rhs, a_le.strict
    r2, s2 = a_ge.rhs, a_ge.strict
    if r2 < r1 or (r2 == r1 and not (s1 and s2)):
        return  # the two halfspaces already cover the reals
    if not all(j in integral_vars for j in a_le.lhs.terms):
        raise CoverCheckFailed("gap between split sides and lhs is not integral")
    if not all(is_int(c) for c in a_le.lhs.terms.values()):
        raise CoverCheckFailed("gap between split sides and lhs has fractional coefficients")
    covered_up_to = floor_int(r1, s1)
    covered_from = ceil_int(r2, s2)
    if covered_from > covered_up_to + 1:
        raise CoverCheckFailed(
            f"integer {covered_up_to + 1} lies in neither split side")


def check_resolution(cfg, step: ResolveStep):
    c1 = cfg.lookup(step.id1)
    c2 = cfg.lookup(step.id2)
    if not isinstance(c1, Implication) or not isinstance(c2, Implication):
        raise NotImplications("resolution requires two implication constraints")
    if not 1 <= step.k1 <= len(c1.assumptions) or not 1 <= step.k2 <= len(c2.assumptions):
        raise CoverCheckFailed("designated split assumption index out of range")
    if c1.consequent != c2.consequent:
        raise ConsequentsDiffer("resolution requires syntactically equal consequents")
    a1 = c1.assumptions[step.k1 - 1]
    a2 = c2.assumptions[step.k2 - 1]
    # orient: one side must upper-bound the shared lhs, the other lower-bound it
    if a1.rel == LE and a2.rel == GE:
        _integer_cover(a1, a2, cfg.integral_vars())
    elif a1.rel == GE and a2.rel == LE:
        _integer_cover(a2, a1, cfg.integral_vars())
    else:
        raise CoverCheckFailed(
            "split assumptions must be a <=/>= pair on a common lhs")
    merged = [a for i, a in enumerate(c1.assumptions) if i != step.k1 - 1]
    for i, a in enumerate(c2.assumptions):
        if i != step.k2 - 1 and a not in merged:
            merged.append(a)
    cfg.alloc(step.new_id)
    cfg.derived[step.new_id] = make_constraint(merged, c1.consequent)


def check_objective_bound(cfg, step: SolStep):
    if len(step.values) != cfg.dim:
        raise DimensionMismatch(
            f"solution has {len(step.values)} entries, dimension is {cfg.dim}")
    pt = point(step.values)
    for cid, c in cfg.core.items():
        if not evaluate(pt, c, dim=cfg.dim):
            raise InfeasibleSolution(f"solution violates core constraint {cid}")
    val = cfg.g.evaluate(pt)
    if cfg.z is not None and val >= cfg.z:
        raise NotImproving(f"objective value {val} does not improve on {cfg.z}")
    cfg.z = val


def check_objective_update(cfg, step: ObjSwapStep):
    if step.new_g.max_var() > cfg.dim:
        raise DimensionMismatch("new objective references a variable past the dimension")
    combo = LinExpr()
    for cid, mult in step.multipliers:
        if cid not in cfg.core:
            raise UnknownId(f"objective update cites {cid}, which is not a core constraint")
        c = cfg.core[cid]
        if not isinstance(c, Linear) or c.ineq.rel != EQ:
            raise NonEqualityPremise(f"constraint {cid} is not an equality")
        contrib = LinExpr(c.ineq.lhs.terms, -c.ineq.rhs).scale(Rat(mult))
        combo = combo.add(contrib)
    if step.new_g.sub(cfg.g) != combo:
        raise IdentityCheckFailed(
            "new objective minus old does not equal the cited combination")
    cfg.g = step.new_g


def _pool_inequalities(cfg, ids):
    out = []
    for cid in ids:
        c = cfg.lookup(cid)
        if isinstance(c, Linear):
            out.append(c.ineq)
    return out


def _check_derivation(cfg, c, sub, allowed_ids, negations, label):
    """`sub` derives constraint `c` from the cited pool: a Linear target
    directly, an implication's consequent under its assumptions."""
    if sub is None:
        raise MissingSubproof(f"no subproof for {label}")
    if isinstance(c, Linear):
        extra, target = (), c.ineq
    else:
        extra, target = c.assumptions, c.consequent
    pool = PremisePool(cfg, allowed_ids, assumptions=extra, negations=negations)
    check_subproof(sub, pool, cfg.integral_vars(), cfg.dim,
                   expected_target=target, label=label)


def _strengthen(cfg, w, subs, order_evidence, dominance, target_ids,
                allowed_ids, negations):
    """Shared body of the redundance and dominance checks (and deletion
    variant c): witness conditions, objective monotonicity, order (strict
    for dominance, weak otherwise)."""
    if w.max_var() > cfg.dim:
        raise DimensionMismatch("witness references a variable past the dimension")
    input_integral = cfg.integral_vars()

    for j in sorted(input_integral):
        if not w.integral_row_ok(j, input_integral):
            raise WitnessNotIntegral(
                f"witness does not preserve integrality of x{j}")

    pool_constraints = [cfg.lookup(cid) for cid in allowed_ids]

    for cid in target_ids:
        c = cfg.lookup(cid)
        if isinstance(c, IntegralMarker):
            continue  # handled by the witness integrality test above
        composed = w.apply_constraint(c)
        if composed == c or any(composed == p for p in pool_constraints):
            continue
        _check_derivation(cfg, composed, subs.get(("id", cid)), allowed_ids,
                          negations, f"image of constraint {cid}")

    gw = w.apply_expr(cfg.g)
    if gw != cfg.g:
        _check_derivation(cfg, Linear(Inequality(gw.sub(cfg.g), LE, Rat(0))),
                          subs.get(("obj",)), allowed_ids, negations,
                          "objective condition")

    box = propagate_box(
        _pool_inequalities(cfg, allowed_ids) + list(negations),
        cfg.dim, input_integral)

    def prove(payload, target):
        _check_derivation(cfg, Linear(target), payload, allowed_ids, negations,
                          "order evidence")
        return True

    mode = "strict" if dominance else "weak"
    result = dcn_and_compare(cfg.tree, box, w, cfg.eps, mode,
                             order_evidence, prove)
    if not result:
        error = StrictOrderUndetermined if dominance else OrderUndetermined
        raise error(result.reason)


def _check_self_image(cfg, c, witness, subs, allowed_ids, negations):
    """ω must map into the new constraint itself (redundance only).

    Unlike the pool constraints, syntactic invariance of the new constraint
    under ω discharges nothing: the hypothesis point violates it, so the
    image must match a pooled constraint or be derived from the pool (which
    holds the negation premises)."""
    composed = witness.apply_constraint(c)
    if any(composed == cfg.lookup(cid) for cid in allowed_ids):
        return
    _check_derivation(cfg, composed, subs.get(("self",)), allowed_ids, negations,
                      "image of the new constraint")


def _check_constraint_dim(cfg, c):
    from .model import constraint_max_var
    if constraint_max_var(c) > cfg.dim:
        raise DimensionMismatch(
            f"constraint references x{constraint_max_var(c)} beyond dimension {cfg.dim}")


def check_strengthening(cfg, step: StrengthenStep):
    """Redundance (weak order; images of every live constraint and of the
    new constraint itself) or dominance (strict order; core images only)."""
    _check_constraint_dim(cfg, step.constraint)
    negations = negate(step.constraint)
    allowed = set(cfg.core) | set(cfg.derived)
    targets = list(cfg.core) if step.dominance else list(cfg.core) + list(cfg.derived)
    _strengthen(cfg, step.witness, step.subs, step.order_evidence, step.dominance,
                targets, allowed, negations)
    if not step.dominance:
        _check_self_image(cfg, step.constraint, step.witness, step.subs,
                          allowed, negations)
    cfg.alloc(step.new_id)
    cfg.derived[step.new_id] = step.constraint


def check_epsilon_shrink(cfg, step: EpsStep):
    if not 0 < step.new_eps < cfg.eps:
        raise NotShrinking(
            f"eps must shrink strictly within (0, {cfg.eps}); got {step.new_eps}")
    cfg.eps = step.new_eps


def check_transfer(cfg, step: TransferStep):
    if step.cid not in cfg.derived:
        raise UnknownId(f"constraint {step.cid} is not a derived constraint")
    cfg.core[step.cid] = cfg.derived.pop(step.cid)


def check_deletion(cfg, step: DeleteStep):
    if step.variant == "a":
        missing = [i for i in step.ids if i not in cfg.derived]
        if missing:
            raise VariantPreconditionFailed(
                f"variant (a) deletes derived constraints only; {missing} are not derived")
        for i in step.ids:
            del cfg.derived[i]
        return
    if len(step.ids) != 1:
        raise VariantPreconditionFailed("core deletion removes a single constraint")
    cid = step.ids[0]
    if cid not in cfg.core:
        raise VariantPreconditionFailed(f"constraint {cid} is not a core constraint")
    c0 = cfg.core[cid]
    if isinstance(c0, IntegralMarker):
        raise VariantPreconditionFailed("integrality markers cannot be deleted")
    remaining = set(cfg.core) - {cid}
    if step.variant == "b":
        if step.sub is None:
            raise VariantPreconditionFailed("variant (b) needs a rederivation subproof")
        _check_derivation(cfg, c0, step.sub, remaining, (), "rederivation")
    elif step.variant == "c":
        if cfg.derived:
            raise VariantPreconditionFailed(
                "variant (c) requires an empty derived set at application")
        if any(tree_node.sigma for tree_node in cfg.tree.nodes.values()):
            raise VariantPreconditionFailed(
                "variant (c) requires empty sigma lists throughout the tree")
        if step.witness is None:
            raise VariantPreconditionFailed("variant (c) needs a witness")
        negations = negate(c0)
        _strengthen(cfg, step.witness, step.subs, order_evidence={}, dominance=False,
                    target_ids=list(remaining), allowed_ids=remaining,
                    negations=negations)
        _check_self_image(cfg, c0, step.witness, step.subs, remaining, negations)
    else:
        raise VariantPreconditionFailed(f"unknown deletion variant {step.variant!r}")
    del cfg.core[cid]


def check_tree_exchange(cfg, step: TreeStep):
    if cfg.derived:
        raise DerivedSetNonEmpty("tree exchange requires an empty derived set")
    violations = check_tree_consistency(step.tree, cfg.core, cfg.dim, step.bound_refs,
                                        cfg.integral_vars())
    if violations:
        raise ConsistencyViolation("; ".join(violations))
    cfg.tree = step.tree


def check_dimension_extension(cfg, step: ExtendStep):
    cfg.dim += 1


def check_goal(cfg, step: GoalStep) -> Verdict:
    def is_contradiction(c):
        return isinstance(c, Linear) and c.ineq.is_falsity()

    if step.cid is not None:
        c = cfg.lookup(step.cid)
        if not is_contradiction(c):
            raise NoContradictionPresent(
                f"constraint {step.cid} is not an empty-set constraint")
    else:
        live = list(cfg.derived.values()) + list(cfg.core.values())
        if not any(is_contradiction(c) for c in live):
            raise NoContradictionPresent("no contradiction among live constraints")
    if cfg.z is None:
        return Verdict("infeasible")
    return Verdict("optimal", cfg.z)


_DISPATCH = {
    ImplicStep: check_implicational,
    ResolveStep: check_resolution,
    SolStep: check_objective_bound,
    ObjSwapStep: check_objective_update,
    StrengthenStep: check_strengthening,
    EpsStep: check_epsilon_shrink,
    TransferStep: check_transfer,
    DeleteStep: check_deletion,
    TreeStep: check_tree_exchange,
    ExtendStep: check_dimension_extension,
    GoalStep: check_goal,
}


def apply_step(cfg, step):
    """Apply one proof step; returns a Verdict for the goal step, else None."""
    check = _DISPATCH.get(type(step))
    if check is None:
        raise TypeError(f"unknown step type {type(step).__name__}")
    return check(cfg, step)
