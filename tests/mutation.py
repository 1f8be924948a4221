"""Single-token certificate mutations for the rejection suite.

Each mutation perturbs one token class on a freshly parsed copy of a
certificate: a subproof multiplier by +-1, an inequality right-hand side by
+-1, a swap of witness entries, or a swap of adjacent sigma entries.
"""

from mipcert.certfile import parse_text, serialize
from mipcert.exact import Inequality, Rat
from mipcert.model import Implication, Linear
from mipcert.rules import DeleteStep, ImplicStep, StrengthenStep, TreeStep
from mipcert.trees import TreeNode


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


def _apply_at(steps, site):
    """Apply mutation number `site`; returns True when a site was hit."""
    idx = -1

    def hit():
        nonlocal idx
        idx += 1
        return idx == site

    for step in steps:
        for sub in _subproofs_of(step):
            for si, s in enumerate(sub.steps):
                if s[0] != "lin":
                    continue
                for pi, (ref, mult) in enumerate(s[1]):
                    for delta in (Rat(1), Rat(-1)):
                        if hit():
                            pairs = list(s[1])
                            pairs[pi] = (ref, mult + delta)
                            sub.steps[si] = ("lin", pairs)
                            return True
            for delta in (Rat(1), Rat(-1)):
                if hit():
                    sub.target = _bump_rhs(sub.target, delta)
                    return True
        if isinstance(step, ImplicStep):
            for ai, a in enumerate(step.assumptions):
                for delta in (Rat(1), Rat(-1)):
                    if hit():
                        step.assumptions[ai] = _bump_rhs(a, delta)
                        return True
        if isinstance(step, StrengthenStep):
            c = step.constraint
            for delta in (Rat(1), Rat(-1)):
                if hit():
                    if isinstance(c, Linear):
                        step.constraint = Linear(_bump_rhs(c.ineq, delta))
                    else:
                        step.constraint = Implication(
                            c.assumptions, _bump_rhs(c.consequent, delta))
                    return True
        if isinstance(step, (StrengthenStep, DeleteStep)) and \
                getattr(step, "witness", None) is not None:
            rows = sorted(step.witness.rows)
            if len(rows) >= 2:
                if hit():
                    a, b = rows[0], rows[1]
                    w = step.witness.rows
                    w[a], w[b] = w[b], w[a]
                    return True
            elif len(rows) == 1:
                coeffs, offset = step.witness.rows[rows[0]]
                keys = sorted(coeffs)
                if len(keys) >= 2 and hit():
                    coeffs = dict(coeffs)
                    coeffs[keys[0]], coeffs[keys[1]] = coeffs[keys[1]], coeffs[keys[0]]
                    step.witness.rows[rows[0]] = (coeffs, offset)
                    return True
        if isinstance(step, TreeStep):
            for nid in sorted(step.tree.nodes):
                node = step.tree.nodes[nid]
                for i in range(len(node.sigma) - 1):
                    if hit():
                        sigma = list(node.sigma)
                        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
                        step.tree.nodes[nid] = TreeNode(node.parent, node.branch, sigma)
                        return True
    return False


def mutated_texts(cert_text, stride=1):
    """Yield every single-token mutation of a certificate, as text, or with
    a `stride` above 1 every stride-th one from the first."""
    site = 0
    while True:
        problem, steps = parse_text(cert_text)
        if not _apply_at(steps, site):
            return
        yield serialize(problem, steps)
        site += stride
