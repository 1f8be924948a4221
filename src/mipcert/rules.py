"""One checker per transition rule, plus the goal check.

Each checker consumes the live configuration and a parsed proof step; it
either mutates the configuration or raises a CheckError describing the first
violated condition.  Every subproof is checked by `check_derivation`.  Rule
application is strictly sequential per configuration.
"""

from collections import Counter

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
    ceil_int,
    dominates,
    floor_int,
    fmt_shown,
    is_int,
    linear_combine,
    rat,
    round_integral,
)
from .model import (
    Implication,
    IntegralMarker,
    Linear,
    check_indices,
    constraint_vars,
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
        self.steps = steps
        self.target = target


_NUMBERED = {"assume": "assumption A", "neg": "negation premise N", "step": "earlier subproof step S"}


def check_derivation(cfg, c, sub, citable, negations=(), *, allow_obj=False, label):
    """Check that the subproof `sub` derives the constraint `c`: a Linear
    target directly, an implication's consequent from its assumptions
    (A1, A2, ...).  It may cite the ids in `citable` (a container of live
    ids, or `cfg` itself for every live id), the `negations` (N1, N2, ...),
    its own earlier lines (S1, S2, ...) and, with `allow_obj`, the strict
    objective bound g < z (OBJ)."""
    if sub is None:
        raise MissingSubproof(f"no subproof for {label}")
    assumptions, target = ((), c.ineq) if isinstance(c, Linear) else (c.assumptions, c.consequent)
    # the identity test passes IMPLIC, whose target is the stated one
    if sub.target is not target and sub.target != target:
        raise SubproofFailed(
            f"{label}: stated target does not match the required inequality")
    if not sub.steps:
        raise SubproofFailed("empty subproof")
    results = []
    for step in sub.steps:
        if step[0] == "round":
            if not results:
                raise SubproofFailed("round with no preceding derivation")
            results.append(round_integral(results[-1], cfg.integral_vars()))
            continue
        if step[0] != "lin":
            raise SubproofFailed(f"unknown subproof step {step[0]!r}")
        premises = []
        for ref, mult in step[1]:
            kind = ref[0]
            if kind == "id":
                # when every live id is citable, finding the row is the
                # citability test
                if citable is cfg:
                    premise = cfg.core.get(ref[1]) or cfg.derived.get(ref[1])
                elif ref[1] in citable:
                    premise = cfg.lookup(ref[1])
                else:
                    premise = None
                if premise is None:
                    raise UnknownPremiseId(f"constraint {ref[1]} is not citable here")
                if not isinstance(premise, Linear):
                    raise UnknownPremiseId(f"constraint {ref[1]} is not a linear premise")
                premise = premise.ineq
            elif kind == "obj":
                if not allow_obj:
                    raise UnknownPremiseId("objective bound premise not available in this rule")
                if cfg.z is None:
                    raise StrictBoundUsedWithInfiniteZ(
                        "objective bound premise requires a finite incumbent")
                premise = Inequality(cfg.g, LE, cfg.z, strict=True)
            elif kind in _NUMBERED:
                seq = assumptions if kind == "assume" else negations if kind == "neg" else results
                if not 1 <= ref[1] <= len(seq):
                    raise UnknownPremiseId(f"no {_NUMBERED[kind]}{ref[1]}")
                premise = seq[ref[1] - 1]
            else:
                raise UnknownPremiseId(f"unknown reference {ref!r}")
            premises.append((premise, mult))
        results.append(linear_combine(premises))
    if not dominates(results[-1], target):
        raise SubproofFailed(f"{label}: derived inequality does not imply the target")


# ---------------------------------------------------------------------------
# Step payloads
# ---------------------------------------------------------------------------

class ImplicStep:
    def __init__(self, new_id, assumptions, sub):
        self.new_id = new_id
        self.assumptions = assumptions
        self.sub = sub


class ResolveStep:
    def __init__(self, new_id, id1, k1, id2, k2):
        self.new_id = new_id
        self.id1, self.k1 = id1, k1
        self.id2, self.k2 = id2, k2


class SolStep:
    def __init__(self, values):
        self.values = [rat(v) for v in values]


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
        self.subs = subs                      # key: ("id", cid) | ("self",) | ("obj",)
        self.order_evidence = order_evidence  # entry -> {"gap"/"geq"/"leq": Subproof}
        self.dominance = dominance


class EpsStep:
    def __init__(self, new_eps):
        self.new_eps = rat(new_eps)


class TransferStep:
    def __init__(self, cid):
        self.cid = cid


class DeleteStep:
    def __init__(self, variant, ids, sub=None, witness=None, subs=None):
        self.variant = variant
        self.ids = ids
        self.sub = sub
        self.witness = witness
        self.subs = {} if subs is None else subs


class TreeStep:
    def __init__(self, tree, bound_refs):
        self.tree = tree
        self.bound_refs = bound_refs


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
            return f"Optimal({fmt_shown(self.value)})"
        return "Infeasible"


# ---------------------------------------------------------------------------
# Rule checkers
# ---------------------------------------------------------------------------

def check_implicational(cfg, step: ImplicStep):
    c = make_constraint(step.assumptions, step.sub.target)
    check_indices(constraint_vars(c), cfg.dim, "constraint", DimensionMismatch)
    # every live id is citable: the configuration itself is the citable set
    check_derivation(cfg, c, step.sub, cfg, allow_obj=True, label="implication")
    cfg.add(step.new_id, c)


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
    seen = set(merged)
    for i, a in enumerate(c2.assumptions):
        if i != step.k2 - 1 and a not in seen:
            merged.append(a)
            seen.add(a)
    cfg.add(step.new_id, make_constraint(merged, c1.consequent))


def check_objective_bound(cfg, step: SolStep):
    if len(step.values) != cfg.dim:
        raise DimensionMismatch(
            f"solution has {len(step.values)} entries, dimension is {cfg.dim}")
    pt = point(step.values)
    for cid, c in cfg.core.items():
        if not evaluate(pt, c):
            raise InfeasibleSolution(f"solution violates core constraint {cid}")
    val = cfg.g.evaluate(pt)
    if cfg.z is not None and val >= cfg.z:
        raise NotImproving(f"objective value {fmt_shown(val)} does not improve on "
                           f"{fmt_shown(cfg.z)}")
    cfg.z = val


def check_objective_update(cfg, step: ObjSwapStep):
    check_indices(step.new_g.terms, cfg.dim, "new objective", DimensionMismatch)
    combo = LinExpr()
    for cid, mult in step.multipliers:
        if cid not in cfg.core:
            raise UnknownId(f"objective update cites {cid}, which is not a core constraint")
        c = cfg.core[cid]
        if not isinstance(c, Linear) or c.ineq.rel != EQ:
            raise NonEqualityPremise(f"constraint {cid} is not an equality")
        contrib = LinExpr(c.ineq.lhs.terms, -c.ineq.rhs).scale(rat(mult))
        combo = combo.add(contrib)
    if step.new_g.sub(cfg.g) != combo:
        raise IdentityCheckFailed(
            "new objective minus old does not equal the cited combination")
    cfg.g = step.new_g


def _witness_conditions(cfg, w, subs, negations, target_ids, allowed_ids, pooled):
    """The witness conditions of the redundance and dominance checks and of
    deletion variant c, under the `negations` of the constraint they add
    (or delete): the witness preserves integrality, maps every target into
    the pool, and does not raise the objective.  `pooled(c)` is true iff
    one of the constraints that `allowed_ids` names equals `c`."""
    check_indices(w.variables(), cfg.dim, "witness", DimensionMismatch)
    input_integral = cfg.integral_vars()

    # an identity row preserves integrality, so only the map's rows are read
    for j in sorted(w.outputs & input_integral):
        if not w.integral_row_ok(j, input_integral):
            raise WitnessNotIntegral(
                f"witness does not preserve integrality of x{j}")

    for cid in target_ids:
        target = cfg.lookup(cid)
        if isinstance(target, IntegralMarker):
            continue  # handled by the witness integrality test above
        if not w.moves(target):
            continue  # its own image, and every target is in the pool
        # an image needs no subproof when it is citable, and is derived otherwise
        composed = w.apply_constraint(target)
        if not pooled(composed):
            check_derivation(cfg, composed, subs.get(("id", cid)), allowed_ids, negations,
                             label=f"image of constraint {cid}")

    gw = w.apply_expr(cfg.g)
    if gw != cfg.g:
        check_derivation(cfg, Linear(Inequality(gw.sub(cfg.g), LE, 0)),
                         subs.get(("obj",)), allowed_ids, negations,
                         label="objective condition")


def check_strengthening(cfg, step: StrengthenStep):
    """Redundance (weak order; images of every live constraint and of the
    new constraint itself) or dominance (strict order; core images only)."""
    c, w, subs = step.constraint, step.witness, step.subs
    check_indices(constraint_vars(c), cfg.dim, "constraint", DimensionMismatch)
    targets = list(cfg.core) if step.dominance else list(cfg.core) + list(cfg.derived)
    negations = negate(c)
    pooled = cfg.pool().__contains__
    # every live id is citable: the configuration itself is the citable set
    _witness_conditions(cfg, w, subs, negations, targets, cfg, pooled)

    box = propagate_box(cfg, negations)

    def prove(payload, target):
        check_derivation(cfg, Linear(target), payload, cfg, negations,
                         label="order evidence")

    mode = "strict" if step.dominance else "weak"
    result = dcn_and_compare(cfg.tree, box, w, cfg.eps, mode, step.order_evidence, prove)
    if not result:
        error = StrictOrderUndetermined if step.dominance else OrderUndetermined
        raise error(result.reason)

    # Unlike the pool constraints, syntactic invariance of `c` under the
    # witness discharges nothing: the hypothesis point violates it, so its
    # image must match a pooled constraint or be derived from the pool
    # (which holds the negation premises).
    if not step.dominance:
        composed = w.apply_constraint(c)
        if not pooled(composed):
            check_derivation(cfg, composed, subs.get(("self",)), cfg, negations,
                             label="image of the new constraint")
    cfg.add(step.new_id, c)


def check_epsilon_shrink(cfg, step: EpsStep):
    if not 0 < step.new_eps < cfg.eps:
        raise NotShrinking(
            f"eps must shrink strictly within (0, {cfg.eps}); got {step.new_eps}")
    cfg.eps = step.new_eps


def check_transfer(cfg, step: TransferStep):
    if step.cid not in cfg.derived:
        raise UnknownId(f"constraint {step.cid} is not a derived constraint")
    cfg.transfer(step.cid)


class _CoreWithout:
    """The ids of the core set but `cid`, read in place: citable, and
    iterable in the core's order, without a copy of the core."""

    def __init__(self, core, cid):
        self.core, self.cid = core, cid

    def __contains__(self, i):
        return i != self.cid and i in self.core

    def __iter__(self):
        return (i for i in self.core if i != self.cid)


def check_deletion(cfg, step: DeleteStep):
    if step.variant == "a":
        missing = [i for i in step.ids if i not in cfg.derived]
        if missing:
            raise VariantPreconditionFailed(
                f"variant (a) deletes derived constraints only; {missing} are not derived")
        if len(step.ids) > 1 and len(set(step.ids)) < len(step.ids):
            repeated = next(i for i, k in Counter(step.ids).items() if k > 1)
            raise VariantPreconditionFailed(f"variant (a) names constraint {repeated} more than once")
        for i in step.ids:
            cfg.remove(i)
        return
    if len(step.ids) != 1:
        raise VariantPreconditionFailed("core deletion removes a single constraint")
    cid = step.ids[0]
    if cid not in cfg.core:
        raise VariantPreconditionFailed(f"constraint {cid} is not a core constraint")
    c0 = cfg.core[cid]
    if isinstance(c0, IntegralMarker):
        raise VariantPreconditionFailed("integrality markers cannot be deleted")
    remaining = _CoreWithout(cfg.core, cid)
    if step.variant == "b":
        if step.sub is None:
            raise VariantPreconditionFailed("variant (b) needs a rederivation subproof")
        check_derivation(cfg, c0, step.sub, remaining, label="rederivation")
    elif step.variant == "c":
        if cfg.derived:
            raise VariantPreconditionFailed(
                "variant (c) requires an empty derived set at application")
        if any(tree_node.sigma for tree_node in cfg.tree.nodes.values()):
            raise VariantPreconditionFailed(
                "variant (c) requires empty sigma lists throughout the tree")
        if step.witness is None:
            raise VariantPreconditionFailed("variant (c) needs a witness")
        # with no sigma entry in the tree, any two points are equal in its
        # weak order, so the order condition holds and needs no box; the
        # image of the deleted row is checked as redundance checks its own
        negations = negate(c0)
        counts = cfg.pool()

        def pooled(image):
            # the live set is the core set here; leave one copy of c0 out
            return counts[image] > (image == c0)

        _witness_conditions(cfg, step.witness, step.subs, negations, remaining, remaining,
                            pooled)
        composed = step.witness.apply_constraint(c0)
        if not pooled(composed):
            check_derivation(cfg, composed, step.subs.get(("self",)), remaining, negations,
                             label="image of the deleted constraint")
    else:
        raise VariantPreconditionFailed(f"unknown deletion variant {step.variant!r}")
    cfg.remove(cid)


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
