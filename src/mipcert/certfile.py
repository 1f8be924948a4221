"""Text certificate format: parser, canonical serializer, and the streaming
verification driver.

The grammar is line oriented.  A problem section declares the instance:

    VAR n
    INT j1 j2 ...
    OBJ c1 ... cn [const]
    CON id REL c1 ... cn rhs [strict]
    IMP id { ineq ; ineq } => ineq

where an inline inequality is `c1 ... cn REL rhs` with REL one of
<=, >=, =, < (strict <=), > (strict >=).  Steps follow, one header line each,
with continuation lines indented by whitespace:

    IMPLIC id { assumptions }     followed by LIN/ROUND lines and `-> target`
    RESOLVE id id1:k1 id2:k2
    SOL v1 ... vn
    OBJSWAP c1 ... cn const USING id:mult ...
    RED id [{ assumps } =>] ineq  followed by WITNESS / SUB / ORDER blocks
    DOM id [{ assumps } =>] ineq  (same blocks as RED)
    EPS q
    XFER id
    DEL A id ... | DEL B id (+ subproof) | DEL C id (+ WITNESS/SUB blocks)
    TREE                          followed by NODE lines
    EXT
    GOAL [id]

Subproof references: a bare integer cites a live constraint, `Ak` the k-th
assumption, `Nk` the k-th negation premise, `Sk` the k-th earlier line of the
same subproof, and `OBJ` the strict objective-bound premise.  Rationals are
`p` or `p/q`.  Full-line comments start with `#`.  Ids are explicit and must
be strictly increasing.
"""

import time

from .errors import CertificateSyntaxError, CheckError, MipcertError
from .exact import EQ, GE, LE, Inequality, LinExpr, Rat, fmt, rat
from .model import (
    Implication,
    Linear,
    Problem,
    initial_configuration,
    make_constraint,
)
from .rules import (
    DeleteStep,
    EpsStep,
    ExtendStep,
    GoalStep,
    ImplicStep,
    ObjSwapStep,
    ResolveStep,
    SolStep,
    StrengthenStep,
    Subproof,
    TransferStep,
    TreeStep,
    apply_step,
)
from .trees import UNIVERSE, AffineMap, BranchTree, TreeNode

PROBLEM_KEYWORDS = {"VAR", "INT", "OBJ", "CON", "IMP"}
STEP_KEYWORDS = {"IMPLIC", "RESOLVE", "SOL", "OBJSWAP", "RED", "DOM",
                 "EPS", "XFER", "DEL", "TREE", "EXT", "GOAL"}

REL_TOKENS = {"<=": (LE, False), ">=": (GE, False), "=": (EQ, False),
              "<": (LE, True), ">": (GE, True)}


class Block:
    __slots__ = ("lineno", "tokens", "body")

    def __init__(self, lineno, tokens, body):
        self.lineno = lineno
        self.tokens = tokens
        self.body = body  # list of (lineno, tokens)


def iter_blocks(lines):
    """Group a line iterable into header + indented continuation blocks."""
    current = None
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indented = raw[0] in " \t"
        tokens = stripped.split()
        if indented:
            if current is None:
                raise CertificateSyntaxError(lineno, "continuation line before any step")
            current.body.append((lineno, tokens))
        else:
            if current is not None:
                yield current
            current = Block(lineno, tokens, [])
    if current is not None:
        yield current


_SHOWN_CHARS = 40


def _shown(token):
    """A token as quoted in an error message, cut short when long."""
    if len(token) <= _SHOWN_CHARS:
        return repr(token)
    return f"{token[:_SHOWN_CHARS]!r}... ({len(token)} characters)"


def _rat(token, lineno):
    try:
        return rat(token)
    except (ValueError, ZeroDivisionError):
        raise CertificateSyntaxError(lineno, f"bad rational {_shown(token)}")


def _int(token, lineno):
    try:
        return int(token)
    except ValueError:
        raise CertificateSyntaxError(lineno, f"bad integer {_shown(token)}")


def _cid(token, lineno):
    value = _int(token, lineno)
    if value < 1:
        raise CertificateSyntaxError(lineno, f"constraint ids are positive; got {value}")
    return value


def parse_ineq(tokens, n, lineno):
    """`c1 ... cn REL rhs [strict]` -> Inequality."""
    if len(tokens) not in (n + 2, n + 3):
        raise CertificateSyntaxError(
            lineno, f"inequality needs {n} coefficients, a relation, and a rhs")
    coeffs = [_rat(t, lineno) for t in tokens[:n]]
    rel_tok = tokens[n]
    if rel_tok not in REL_TOKENS:
        raise CertificateSyntaxError(lineno, f"bad relation {rel_tok!r}")
    rel, strict = REL_TOKENS[rel_tok]
    rhs = _rat(tokens[n + 1], lineno)
    if len(tokens) == n + 3:
        if tokens[n + 2] != "strict":
            raise CertificateSyntaxError(lineno, f"unexpected token {tokens[n+2]!r}")
        if rel == EQ:
            raise CertificateSyntaxError(lineno, "an equality cannot be strict")
        strict = True
    return Inequality(LinExpr({j + 1: c for j, c in enumerate(coeffs)}), rel, rhs, strict)


def fmt_ineq(iq: Inequality, n: int) -> str:
    coeffs = [fmt(iq.lhs.coeff(j)) for j in range(1, n + 1)]
    if iq.rel == EQ:
        op = "="
    elif iq.rel == LE:
        op = "<" if iq.strict else "<="
    else:
        op = ">" if iq.strict else ">="
    return " ".join(coeffs + [op, fmt(iq.rhs)])


def _split_braced(tokens, lineno):
    """Parse `{ ineq ; ineq }` at the front; returns (groups, rest)."""
    if not tokens or tokens[0] != "{":
        raise CertificateSyntaxError(lineno, "expected '{'")
    try:
        close = tokens.index("}")
    except ValueError:
        raise CertificateSyntaxError(lineno, "missing '}'")
    inside = tokens[1:close]
    groups = []
    cur = []
    for t in inside:
        if t == ";":
            if cur:
                groups.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        groups.append(cur)
    return groups, tokens[close + 1:]


def _parse_assumptions(tokens, n, lineno):
    groups, rest = _split_braced(tokens, lineno)
    return [parse_ineq(g, n, lineno) for g in groups], rest


def _parse_ref(token, lineno):
    if token == "OBJ":
        return ("obj",)
    if token and token[0] in "ANS" and token[1:].isdigit():
        kind = {"A": "assume", "N": "neg", "S": "step"}[token[0]]
        return (kind, _int(token[1:], lineno))
    if token.lstrip("-").isdigit():
        return ("id", _int(token, lineno))
    raise CertificateSyntaxError(lineno, f"bad premise reference {token!r}")


def _fmt_ref(ref):
    kind = ref[0]
    if kind == "obj":
        return "OBJ"
    if kind == "id":
        return str(ref[1])
    return {"assume": "A", "neg": "N", "step": "S"}[kind] + str(ref[1])


def _parse_lin_tokens(tokens, lineno):
    pairs = []
    for t in tokens:
        if ":" not in t:
            raise CertificateSyntaxError(lineno, f"LIN term {t!r} needs ref:mult")
        ref_tok, mult_tok = t.split(":", 1)
        pairs.append((_parse_ref(ref_tok, lineno), _rat(mult_tok, lineno)))
    if not pairs:
        raise CertificateSyntaxError(lineno, "empty LIN line")
    return pairs


def parse_subproof(body_lines, n):
    """LIN/ROUND lines closed by a `->` target line."""
    steps = []
    target = None
    for lineno, tokens in body_lines:
        head = tokens[0]
        if head == "LIN":
            steps.append(("lin", _parse_lin_tokens(tokens[1:], lineno)))
        elif head == "ROUND":
            if len(tokens) != 1:
                raise CertificateSyntaxError(lineno, "ROUND takes no arguments")
            steps.append(("round",))
        elif head == "->":
            if target is not None:
                raise CertificateSyntaxError(lineno, "duplicate target line")
            target = parse_ineq(tokens[1:], n, lineno)
        else:
            raise CertificateSyntaxError(lineno, f"unexpected token {head!r} in subproof")
    if target is None:
        raise CertificateSyntaxError(
            body_lines[0][0] if body_lines else 0, "subproof missing its '->' target")
    return Subproof(steps, target)


def fmt_subproof(sub: Subproof, n, indent="  "):
    out = []
    for step in sub.steps:
        if step[0] == "lin":
            terms = " ".join(f"{_fmt_ref(r)}:{fmt(m)}" for r, m in step[1])
            out.append(f"{indent}LIN {terms}")
        else:
            out.append(f"{indent}ROUND")
    out.append(f"{indent}-> {fmt_ineq(sub.target, n)}")
    return out


def _split_sections(body, keywords):
    """Split continuation lines into (keyword-line, following-lines) sections."""
    sections = []
    for lineno, tokens in body:
        if tokens[0] in keywords:
            sections.append(((lineno, tokens), []))
        else:
            if not sections:
                raise CertificateSyntaxError(lineno, f"unexpected line {tokens[0]!r}")
            sections[-1][1].append((lineno, tokens))
    return sections


def _parse_strengthen_body(body, n, lineno):
    witness_rows = {}
    subs = {}
    evidence = {}
    for (hl, htokens), lines in _split_sections(body, {"WITNESS", "SUB", "ORDER"}):
        head = htokens[0]
        if head == "WITNESS":
            if len(htokens) != n + 4 or htokens[2] != "<-":
                raise CertificateSyntaxError(hl, "WITNESS needs `j <- c1..cn const`")
            j = _int(htokens[1], hl)
            if not 1 <= j <= n:
                raise CertificateSyntaxError(hl, f"witness row {j} out of range")
            coeffs = {k + 1: _rat(t, hl) for k, t in enumerate(htokens[3:3 + n])}
            offset = _rat(htokens[3 + n], hl)
            if lines:
                raise CertificateSyntaxError(lines[0][0], "WITNESS takes no body")
            witness_rows[j] = (coeffs, offset)
        elif head == "SUB":
            if len(htokens) != 2:
                raise CertificateSyntaxError(hl, "SUB needs one key")
            key_tok = htokens[1]
            if key_tok == "SELF":
                key = ("self",)
            elif key_tok == "OBJ":
                key = ("obj",)
            else:
                key = ("id", _int(key_tok, hl))
            subs[key] = parse_subproof(lines, n)
        else:  # ORDER
            if len(htokens) != 3 or htokens[2] not in ("GAP", "GEQ", "LEQ"):
                raise CertificateSyntaxError(hl, "ORDER needs `entry GAP|GEQ|LEQ`")
            entry = _int(htokens[1], hl)
            kind = htokens[2].lower()
            evidence.setdefault(entry, {})[kind] = parse_subproof(lines, n)
    return AffineMap(witness_rows), subs, evidence


def _parse_constraint_spec(tokens, n, lineno):
    if tokens and tokens[0] == "{":
        assumptions, rest = _split_braced(tokens, lineno)
        if not rest or rest[0] != "=>":
            raise CertificateSyntaxError(lineno, "expected '=>' after assumptions")
        consequent = parse_ineq(rest[1:], n, lineno)
        return make_constraint([parse_ineq(g, n, lineno) for g in assumptions], consequent)
    return Linear(parse_ineq(tokens, n, lineno))


def fmt_constraint_spec(c, n):
    if isinstance(c, Implication):
        inner = " ; ".join(fmt_ineq(a, n) for a in c.assumptions)
        return f"{{ {inner} }} => {fmt_ineq(c.consequent, n)}"
    return fmt_ineq(c.ineq, n)


def _parse_tree_body(body, lineno):
    nodes = {}
    bound_refs = {}
    root = None
    for ln, tokens in body:
        if tokens[0] != "NODE":
            raise CertificateSyntaxError(ln, "TREE body lines must start with NODE")
        rest = tokens[1:]
        if len(rest) < 3:
            raise CertificateSyntaxError(ln, "NODE needs id, parent, and a branch")
        nid = _int(rest[0], ln)
        parent = None if rest[1] == "-" else _int(rest[1], ln)
        rest = rest[2:]
        if rest[0] == "U":
            branch = UNIVERSE
            rest = rest[1:]
        else:
            if len(rest) < 3 or rest[1] not in ("<=", ">="):
                raise CertificateSyntaxError(ln, "branch must be `U` or `var <=|>= beta`")
            branch = (_int(rest[0], ln), LE if rest[1] == "<=" else GE, _rat(rest[2], ln))
            rest = rest[3:]
        if not rest or rest[0] != ":":
            raise CertificateSyntaxError(ln, "expected ':' before sigma")
        rest = rest[1:]
        sigma = []
        while rest and rest[0] != ":":
            sigma.append(_int(rest[0], ln))
            rest = rest[1:]
        if not rest:
            raise CertificateSyntaxError(ln, "expected ':' before bound references")
        for tok in rest[1:]:
            if "@" not in tok:
                raise CertificateSyntaxError(ln, f"bound reference {tok!r} needs entry@cid")
            e, cid = tok.split("@", 1)
            bound_refs[(nid, _int(e, ln))] = _int(cid, ln)
        if nid in nodes:
            raise CertificateSyntaxError(ln, f"duplicate node id {nid}")
        nodes[nid] = TreeNode(parent, branch, sigma)
        if parent is None:
            if root is not None:
                raise CertificateSyntaxError(ln, "two roots in TREE")
            root = nid
    if root is None:
        raise CertificateSyntaxError(lineno, "TREE has no root node")
    return BranchTree(nodes, root), bound_refs


def _fmt_witness_and_subs(witness: AffineMap, subs, n):
    lines = []
    for j in sorted(witness.rows):
        coeffs, offset = witness.rows[j]
        row = " ".join(fmt(coeffs.get(k, Rat(0))) for k in range(1, n + 1))
        lines.append(f"  WITNESS {j} <- {row} {fmt(offset)}")

    def sub_key(key):
        return (0, key[1]) if key[0] == "id" else (1, key[0])
    for key in sorted(subs, key=sub_key):
        tok = {"self": "SELF", "obj": "OBJ"}.get(key[0], None) or str(key[1])
        lines.append(f"  SUB {tok}")
        lines.extend(fmt_subproof(subs[key], n, indent="    "))
    return lines


def fmt_tree(tree: BranchTree, bound_refs, indent="  "):
    out = []
    order = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(sorted(tree.children(v), reverse=True))
    for nid in order:
        node = tree.nodes[nid]
        parent = "-" if node.parent is None else str(node.parent)
        if node.branch is UNIVERSE:
            branch = "U"
        else:
            var, rel, beta = node.branch
            branch = f"{var} {'<=' if rel == LE else '>='} {fmt(beta)}"
        sigma = " ".join(str(s) for s in node.sigma)
        refs = " ".join(f"{s}@{bound_refs[(nid, s)]}"
                        for s in node.sigma if (nid, s) in bound_refs)
        line = f"{indent}NODE {nid} {parent} {branch} : {sigma} : {refs}".rstrip()
        out.append(line)
    return out


def parse_step(block: Block, n: int):
    """Parse one step block; returns (step, new_dimension)."""
    head = block.tokens[0]
    lineno = block.lineno
    args = block.tokens[1:]

    def no_body():
        if block.body:
            raise CertificateSyntaxError(block.body[0][0], f"{head} takes no body")

    if head == "IMPLIC":
        if not args:
            raise CertificateSyntaxError(lineno, "IMPLIC needs an id")
        new_id = _cid(args[0], lineno)
        rest = args[1:]
        assumptions = []
        if rest:
            assumptions, rest = _parse_assumptions(rest, n, lineno)
            if rest:
                raise CertificateSyntaxError(lineno, "unexpected tokens after assumptions")
        return ImplicStep(new_id, assumptions, parse_subproof(block.body, n)), n
    if head == "RESOLVE":
        if len(args) != 3:
            raise CertificateSyntaxError(lineno, "RESOLVE needs `id id1:k1 id2:k2`")
        no_body()
        new_id = _cid(args[0], lineno)
        pairs = []
        for t in args[1:]:
            if ":" not in t:
                raise CertificateSyntaxError(lineno, f"bad operand {t!r}")
            a, b = t.split(":", 1)
            pairs.append((_int(a, lineno), _int(b, lineno)))
        return ResolveStep(new_id, pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1]), n
    if head == "SOL":
        no_body()
        if len(args) != n:
            raise CertificateSyntaxError(lineno, f"SOL needs {n} values")
        return SolStep([_rat(t, lineno) for t in args]), n
    if head == "OBJSWAP":
        no_body()
        if "USING" not in args:
            raise CertificateSyntaxError(lineno, "OBJSWAP needs a USING clause")
        split = args.index("USING")
        expr_toks = args[:split]
        if len(expr_toks) != n + 1:
            raise CertificateSyntaxError(lineno, f"OBJSWAP needs {n} coefficients and a constant")
        coeffs = {j + 1: _rat(t, lineno) for j, t in enumerate(expr_toks[:n])}
        const = _rat(expr_toks[n], lineno)
        mults = []
        for t in args[split + 1:]:
            if ":" not in t:
                raise CertificateSyntaxError(lineno, f"bad multiplier {t!r}")
            a, b = t.split(":", 1)
            mults.append((_int(a, lineno), _rat(b, lineno)))
        return ObjSwapStep(LinExpr(coeffs, const), mults), n
    if head in ("RED", "DOM"):
        if not args:
            raise CertificateSyntaxError(lineno, f"{head} needs an id")
        new_id = _cid(args[0], lineno)
        constraint = _parse_constraint_spec(args[1:], n, lineno)
        witness, subs, evidence = _parse_strengthen_body(block.body, n, lineno)
        return StrengthenStep(new_id, constraint, witness, subs, evidence,
                              dominance=(head == "DOM")), n
    if head == "EPS":
        no_body()
        if len(args) != 1:
            raise CertificateSyntaxError(lineno, "EPS needs one value")
        return EpsStep(_rat(args[0], lineno)), n
    if head == "XFER":
        no_body()
        if len(args) != 1:
            raise CertificateSyntaxError(lineno, "XFER needs one id")
        return TransferStep(_int(args[0], lineno)), n
    if head == "DEL":
        if not args:
            raise CertificateSyntaxError(lineno, "DEL needs a variant")
        variant = args[0].lower()
        ids = [_int(t, lineno) for t in args[1:]]
        if variant == "a":
            no_body()
            return DeleteStep("a", ids), n
        if not ids or len(ids) != 1:
            raise CertificateSyntaxError(lineno, "core deletion takes a single id")
        if variant == "b":
            return DeleteStep("b", ids, sub=parse_subproof(block.body, n)), n
        if variant == "c":
            witness, subs, evidence = _parse_strengthen_body(block.body, n, lineno)
            if evidence:
                raise CertificateSyntaxError(lineno, "DEL C takes no ORDER blocks")
            return DeleteStep("c", ids, witness=witness, subs=subs), n
        raise CertificateSyntaxError(lineno, f"unknown DEL variant {args[0]!r}")
    if head == "TREE":
        if args:
            raise CertificateSyntaxError(lineno, "TREE takes no arguments")
        tree, bound_refs = _parse_tree_body(block.body, lineno)
        return TreeStep(tree, bound_refs), n
    if head == "EXT":
        no_body()
        if args:
            raise CertificateSyntaxError(lineno, "EXT takes no arguments")
        return ExtendStep(), n + 1
    if head == "GOAL":
        no_body()
        if len(args) > 1:
            raise CertificateSyntaxError(lineno, "GOAL takes at most one id")
        cid = _int(args[0], lineno) if args else None
        return GoalStep(cid), n
    raise CertificateSyntaxError(lineno, f"unknown step {head!r}")


def fmt_step(step, n: int):
    """Canonical text of one step; returns (lines, new_dimension)."""
    if isinstance(step, ImplicStep):
        if step.assumptions:
            inner = " ; ".join(fmt_ineq(a, n) for a in step.assumptions)
            head = f"IMPLIC {step.new_id} {{ {inner} }}"
        else:
            head = f"IMPLIC {step.new_id}"
        return [head, *fmt_subproof(step.sub, n)], n
    if isinstance(step, ResolveStep):
        return [f"RESOLVE {step.new_id} {step.id1}:{step.k1} {step.id2}:{step.k2}"], n
    if isinstance(step, SolStep):
        return ["SOL " + " ".join(fmt(v) for v in step.values)], n
    if isinstance(step, ObjSwapStep):
        coeffs = " ".join(fmt(step.new_g.coeff(j)) for j in range(1, n + 1))
        mults = " ".join(f"{cid}:{fmt(m)}" for cid, m in step.multipliers)
        return [f"OBJSWAP {coeffs} {fmt(step.new_g.const)} USING {mults}"], n
    if isinstance(step, StrengthenStep):
        head = "DOM" if step.dominance else "RED"
        lines = [f"{head} {step.new_id} {fmt_constraint_spec(step.constraint, n)}",
                 *_fmt_witness_and_subs(step.witness, step.subs, n)]
        for entry in sorted(step.order_evidence, key=abs):
            for kind in ("gap", "geq", "leq"):
                if kind in step.order_evidence[entry]:
                    lines.append(f"  ORDER {entry} {kind.upper()}")
                    lines.extend(fmt_subproof(step.order_evidence[entry][kind], n,
                                              indent="    "))
        return lines, n
    if isinstance(step, EpsStep):
        return [f"EPS {fmt(step.new_eps)}"], n
    if isinstance(step, TransferStep):
        return [f"XFER {step.cid}"], n
    if isinstance(step, DeleteStep):
        if step.variant == "a":
            return ["DEL A " + " ".join(str(i) for i in step.ids)], n
        if step.variant == "b":
            return [f"DEL B {step.ids[0]}", *fmt_subproof(step.sub, n)], n
        return [f"DEL C {step.ids[0]}",
                *_fmt_witness_and_subs(step.witness, step.subs, n)], n
    if isinstance(step, TreeStep):
        return ["TREE", *fmt_tree(step.tree, step.bound_refs)], n
    if isinstance(step, ExtendStep):
        return ["EXT"], n + 1
    if isinstance(step, GoalStep):
        return ["GOAL" if step.cid is None else f"GOAL {step.cid}"], n
    raise TypeError(f"cannot serialize {type(step).__name__}")


# ---------------------------------------------------------------------------
# Problem section
# ---------------------------------------------------------------------------

def parse_problem_blocks(block_iter):
    """Consume problem-section blocks; returns (Problem, pending_step_block).

    `pending_step_block` is the first step block (already read) or None.
    """
    n = None
    integral = set()
    objective = None
    constraints = {}
    pending = None
    for block in block_iter:
        head = block.tokens[0]
        if head in STEP_KEYWORDS:
            pending = block
            break
        if head not in PROBLEM_KEYWORDS:
            raise CertificateSyntaxError(block.lineno, f"unknown directive {head!r}")
        if block.body:
            raise CertificateSyntaxError(block.body[0][0], f"{head} takes no body")
        args = block.tokens[1:]
        if head == "VAR":
            if n is not None:
                raise CertificateSyntaxError(block.lineno, "duplicate VAR line")
            if len(args) != 1:
                raise CertificateSyntaxError(block.lineno, "VAR needs one count")
            n = _int(args[0], block.lineno)
            continue
        if n is None:
            raise CertificateSyntaxError(block.lineno, "VAR must come first")
        if head == "INT":
            integral.update(_int(t, block.lineno) for t in args)
        elif head == "OBJ":
            if objective is not None:
                raise CertificateSyntaxError(block.lineno, "duplicate OBJ line")
            if len(args) not in (n, n + 1):
                raise CertificateSyntaxError(
                    block.lineno, f"OBJ needs {n} coefficients and an optional constant")
            coeffs = {j + 1: _rat(t, block.lineno) for j, t in enumerate(args[:n])}
            const = _rat(args[n], block.lineno) if len(args) == n + 1 else Rat(0)
            objective = LinExpr(coeffs, const)
        elif head == "CON":
            if len(args) < n + 3:
                raise CertificateSyntaxError(
                    block.lineno, "CON needs `id REL c1..cn rhs [strict]`")
            cid = _cid(args[0], block.lineno)
            if cid in constraints:
                raise CertificateSyntaxError(block.lineno, f"duplicate constraint id {cid}")
            # CON puts the relation before the coefficients
            reordered = args[2:n + 2] + [args[1], args[n + 2]] + args[n + 3:]
            constraints[cid] = Linear(parse_ineq(reordered, n, block.lineno))
        elif head == "IMP":
            if not args:
                raise CertificateSyntaxError(block.lineno, "IMP needs an id")
            cid = _cid(args[0], block.lineno)
            if cid in constraints:
                raise CertificateSyntaxError(block.lineno, f"duplicate constraint id {cid}")
            assumptions, rest = _parse_assumptions(args[1:], n, block.lineno)
            if not rest or rest[0] != "=>":
                raise CertificateSyntaxError(block.lineno, "IMP needs '=>' after assumptions")
            consequent = parse_ineq(rest[1:], n, block.lineno)
            if not assumptions:
                raise CertificateSyntaxError(
                    block.lineno, "IMP needs assumptions; use CON otherwise")
            constraints[cid] = Implication(assumptions, consequent)
    if n is None:
        raise CertificateSyntaxError(0, "no VAR line found")
    if objective is None:
        objective = LinExpr()
    return Problem(n, integral, objective, constraints), pending


def fmt_problem(problem: Problem):
    n = problem.n
    lines = [f"VAR {n}"]
    if problem.integral:
        lines.append("INT " + " ".join(str(j) for j in sorted(problem.integral)))
    obj = " ".join(fmt(problem.objective.coeff(j)) for j in range(1, n + 1))
    if problem.objective.const != 0:
        obj += f" {fmt(problem.objective.const)}"
    lines.append(f"OBJ {obj}")
    for cid in sorted(problem.constraints):
        c = problem.constraints[cid]
        if isinstance(c, Linear):
            iq = c.ineq
            body = fmt_ineq(iq, n).split()
            rel, rhs = body[n], body[n + 1]
            coeffs = " ".join(body[:n])
            lines.append(f"CON {cid} {rel} {coeffs} {rhs}")
        else:
            inner = " ; ".join(fmt_ineq(a, n) for a in c.assumptions)
            lines.append(f"IMP {cid} {{ {inner} }} => {fmt_ineq(c.consequent, n)}")
    return lines


def parse_text(text):
    """Parse a combined problem+steps document into (Problem, [steps]).

    Loads everything eagerly; the streaming driver below is preferred for
    verification.
    """
    blocks = iter_blocks(text.splitlines())
    problem, pending = parse_problem_blocks(blocks)
    steps = []
    n = problem.n
    for block in _chain_block(pending, blocks):
        step, n = parse_step(block, n)
        steps.append(step)
    return problem, steps


def _chain_block(first, rest):
    """`first` (when not None) followed by the blocks of `rest`."""
    # a plain loop, not `yield from`: closing this wrapper (e.g. when a
    # caller drops it after a partial read) must not close `rest`
    if first is not None:
        yield first
    for block in rest:
        yield block


def serialize(problem, steps):
    lines = fmt_problem(problem)
    n = problem.n
    for step in steps:
        step_lines, n = fmt_step(step, n)
        lines.extend(step_lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Verification driver
# ---------------------------------------------------------------------------

class Report:
    """Outcome of one verification run."""

    def __init__(self, status, verdict=None, message="", stats=None):
        self.status = status      # "verified" | "rejected" | "error"
        self.verdict = verdict
        self.message = message
        self.stats = stats or {}

    @property
    def exit_code(self):
        return {"verified": 0, "rejected": 1, "error": 2}[self.status]

    def summary(self):
        if self.status == "verified":
            v = self.verdict
            head = ("VERIFIED infeasible" if v.kind == "infeasible"
                    else f"VERIFIED optimal {fmt(v.value)}")
            return head
        return f"{self.status.upper()}: {self.message}"


def verify_stream(problem, block_iter, trace=False, on_config=None):
    """Apply steps from an iterator of Blocks against a fresh configuration."""
    t0 = time.perf_counter()
    stats = {"steps": 0, "max_live": 0, "by_rule": {}}
    try:
        cfg = initial_configuration(problem)
    except MipcertError as e:
        return Report("error", message=f"malformed problem: {e}")
    n = problem.n
    verdict = None
    lineno = 0
    try:
        for block in block_iter:
            lineno = block.lineno
            if verdict is not None:
                raise CertificateSyntaxError(lineno, "steps after GOAL")
            step, n = parse_step(block, n)
            if trace:
                print(f"step {stats['steps'] + 1}: {' '.join(block.tokens)}")
            verdict = apply_step(cfg, step)
            stats["steps"] += 1
            key = block.tokens[0]
            stats["by_rule"][key] = stats["by_rule"].get(key, 0) + 1
            stats["max_live"] = max(stats["max_live"], cfg.live_count())
            if on_config is not None:
                on_config(cfg)
    except CertificateSyntaxError as e:
        return Report("error", message=str(e), stats=stats)
    except (CheckError, MipcertError) as e:
        return Report(
            "rejected",
            message=f"step {stats['steps'] + 1} (line {lineno}): "
                    f"{type(e).__name__}: {e}",
            stats=stats)
    stats["wall_time"] = time.perf_counter() - t0
    if verdict is None:
        return Report("rejected", message="certificate ended without a GOAL step",
                      stats=stats)
    return Report("verified", verdict=verdict, stats=stats)


def _file_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        yield from fh


def verify_file(problem_path, cert_path=None, trace=False, on_config=None):
    """Verify a certificate file; the problem may live in its own file or in
    the certificate header.  Never raises on bad input files."""
    try:
        if cert_path is None:
            blocks = iter_blocks(_file_lines(problem_path))
            problem, pending = parse_problem_blocks(blocks)
            step_blocks = _chain_block(pending, blocks)
        else:
            with open(problem_path, "r", encoding="utf-8") as fh:
                pblocks = iter_blocks(fh)
                problem, pending = parse_problem_blocks(pblocks)
                if pending is not None:
                    raise CertificateSyntaxError(pending.lineno,
                                                 "steps found in the problem file")
            blocks = iter_blocks(_file_lines(cert_path))
            first = next(blocks, None)
            if first is not None and first.tokens[0] in PROBLEM_KEYWORDS:
                # certificate with its own header: it must restate the problem
                embedded, pending = parse_problem_blocks(_chain_block(first, blocks))
                if fmt_problem(embedded) != fmt_problem(problem):
                    raise CertificateSyntaxError(
                        first.lineno,
                        "embedded problem differs from the problem file")
                first = pending
            step_blocks = _chain_block(first, blocks)
        return verify_stream(problem, step_blocks, trace=trace, on_config=on_config)
    except CertificateSyntaxError as e:
        return Report("error", message=str(e))
    except OSError as e:
        return Report("error", message=str(e))


def verify_text(text, trace=False):
    """Verify a combined document held in memory (test convenience)."""
    blocks = iter_blocks(text.splitlines())
    try:
        problem, pending = parse_problem_blocks(blocks)
    except CertificateSyntaxError as e:
        return Report("error", message=str(e))
    return verify_stream(problem, _chain_block(pending, blocks), trace=trace)
