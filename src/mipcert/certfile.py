r"""Text certificate format: parser, canonical serializer, and the streaming
verification driver.

The grammar is line oriented.  A problem section declares the instance:

    VAR n
    INT j1 j2 ...
    OBJ row [const]
    CON id REL row rhs [strict]
    IMP id { ineq ; ineq } => ineq

where an inline inequality is `row REL rhs` with REL one of <=, >=, =,
< (strict <=), > (strict >=).  A row is dense, `c1 ... cn`, or sparse,
`j:c ...` with strictly increasing indices in [1, n] and absent variables
zero; it is sparse when its first token is a `j:c` term (see `parse_row`).
Steps follow, one header line each, with continuation lines indented by
whitespace:

    IMPLIC id { assumptions }     followed by LIN/ROUND lines and `-> target`
    RESOLVE id id1:k1 id2:k2
    SOL v1 ... vn
    OBJSWAP row const USING id:mult ...
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
same subproof, and `OBJ` the strict objective-bound premise.  Numbers are
in ASCII digits: a rational is `p` or `p/q` with an optional `-` on p,
`-?[0-9]+(/[0-9]+)?`, an integer `-?[0-9]+`, and a row index `[0-9]+`.
Full-line comments start with `#`.  Ids are explicit and must be strictly
increasing.  A line ends at `\n`, `\r\n` or `\r`, in a file and in a string
alike (see `_lines`).
"""

import re
import sys
import time
import traceback
from contextlib import nullcontext
from itertools import chain

from .errors import CertificateSyntaxError, MipcertError
from .exact import (EQ, GE, LE, SHOWN_CHARS, Inequality, LinExpr, fmt, fmt_shown, normal_expr,
                    quotient)
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
from .trees import GAP, GEQ, LEQ, UNIVERSE, AffineMap, BranchTree, TreeNode

PROBLEM_KEYWORDS = {"VAR", "INT", "OBJ", "CON", "IMP"}
STEP_KEYWORDS = {"IMPLIC", "RESOLVE", "SOL", "OBJSWAP", "RED", "DOM",
                 "EPS", "XFER", "DEL", "TREE", "EXT", "GOAL"}

# Token spellings, each written once: the parser reads these tables, and the
# printer reads them or the inverses below them.
REL_TOKENS = {"<=": (LE, False), ">=": (GE, False), "=": (EQ, False),
              "<": (LE, True), ">": (GE, True)}
PREMISE_LETTERS = {"A": "assume", "N": "neg", "S": "step"}
SUB_KEYS = {"SELF": ("self",), "OBJ": ("obj",)}
ORDER_KINDS = {"GAP": GAP, "GEQ": GEQ, "LEQ": LEQ}
SUBPROOF_KEYWORDS = {"LIN": "lin", "ROUND": "round", "->": "target"}
REL_SPELLING = {sense: token for token, sense in REL_TOKENS.items()}
SUBPROOF_SPELLING = {kind: token for token, kind in SUBPROOF_KEYWORDS.items()}
PREMISE_SPELLING = {kind: letter for letter, kind in PREMISE_LETTERS.items()}
SUB_SPELLING = {key: token for token, key in SUB_KEYS.items()}


class Block:
    __slots__ = ("lineno", "tokens", "body", "memo")

    def __init__(self, lineno, tokens, body, memo):
        self.lineno = lineno
        self.tokens = tokens
        self.body = body  # list of (lineno, tokens)
        self.memo = memo  # the stream's assumption memo; see _parse_assumptions


def iter_blocks(lines):
    """Group a line iterable into header + indented continuation blocks.
    Every block of one call shares one assumption memo."""
    current = None
    memo = {}
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if raw[0] in " \t":
            if current is None:
                raise CertificateSyntaxError(lineno, "continuation line before any step")
            current.body.append((lineno, tokens))
        else:
            if current is not None:
                yield current
            current = Block(lineno, tokens, [], memo)
    if current is not None:
        yield current


def _shown(token):
    """A token as quoted in an error message, cut short when long."""
    if len(token) <= SHOWN_CHARS:
        return repr(token)
    return f"{token[:SHOWN_CHARS]!r}... ({len(token)} characters)"


def _shown_number(token, value):
    """A refused number as quoted in an error message: its value, or, when
    the token is long, the token cut short."""
    return value if len(token) <= SHOWN_CHARS else _shown(token)


def _rat(token, lineno, kind="rational"):
    """The value of a number in ASCII digits: a rational `-?[0-9]+(/[0-9]+)?`
    or, when `kind` is "integer", an integer `-?[0-9]+`."""
    try:
        if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
            return int(token)
        p, _, q = token.partition("/")
        if kind == "rational" and q.isdigit() and token.isascii() and (
                p.isdigit() or p[:1] == "-" and p[1:].isdigit()):
            return quotient(int(p), int(q))
    except ValueError:  # the text is of the grammar: int() refused its length
        raise CertificateSyntaxError(
            lineno, f"number {_shown(token)} has more than "
                    f"{sys.get_int_max_str_digits()} digits, Python's int/str conversion limit"
        ) from None
    except ZeroDivisionError:
        pass
    raise CertificateSyntaxError(lineno, f"bad {kind} {_shown(token)}")


def _int(token, lineno):
    return _rat(token, lineno, "integer")


def parse_row(tokens, n, lineno):
    """The coefficient tokens of a row -> sparse {j: Rat}, 1-based.

    The row is sparse when its first token is a `j:c` term: the indices j
    are `[0-9]+`, in [1, n] and strictly increasing, and absent variables
    are zero.  Otherwise it is dense, exactly n coefficients, and the token
    `0` is skipped unconverted (dense rows are mostly zeros).  No tokens at
    all is the all-zero row.  Each coefficient is a number of `_rat`'s
    grammar.

    One character test over the whole line admits a row of integers, each
    field then converted by one int(), which itself refuses a misplaced
    `-`, an empty field and a number over the digit limit; only a row that
    holds a `/` reads its fields through `_rat`.  `_row_error` names the
    fault of any row this refuses."""
    if not tokens:
        return {}
    text = "".join(tokens)
    digits = text.replace("-", "")
    try:
        if ":" not in tokens[0]:
            if len(tokens) == n and text.isascii():
                if digits.isdigit():
                    return {j: int(t) for j, t in enumerate(tokens, start=1) if t != "0"}
                if digits.replace("/", "").isdigit():
                    return {j: _rat(t, lineno) for j, t in enumerate(tokens, start=1) if t != "0"}
        else:
            digits = digits.replace(":", "")
            plain = digits.isdigit()
            if text.isascii() and (plain or digits.replace("/", "").isdigit()):
                row = {}
                last = 0
                for t in tokens:
                    index, colon, value = t.partition(":")
                    j = int(index)
                    if not (colon and last < j <= n):
                        break
                    row[j] = int(value) if plain else _rat(value, lineno)
                    last = j
                else:
                    return row
    except ValueError:
        pass
    _row_error(tokens, n, lineno)


def _row_error(tokens, n, lineno):
    """Raise the error of a row that `parse_row` refused: a dense row of the
    wrong length, a row that mixes dense and `j:c` terms, or the first term
    whose index or value is out of the grammar."""
    if not any(":" in t for t in tokens):
        if len(tokens) != n:
            raise CertificateSyntaxError(
                lineno, f"a dense row needs {n} coefficients; got {len(tokens)}")
        for t in tokens:
            _rat(t, lineno)
    last = 0
    for t in tokens:
        index, colon, value = t.partition(":")
        if not colon:
            raise CertificateSyntaxError(lineno, "a row mixes dense coefficients and j:c terms")
        if not (index.isascii() and index.isdigit()):
            raise CertificateSyntaxError(lineno, f"bad row term {_shown(t)}")
        j = _int(index, lineno)
        if not 1 <= j <= n:
            raise CertificateSyntaxError(lineno, f"row term index {j} outside [1, {n}]")
        if j <= last:
            raise CertificateSyntaxError(
                lineno, f"row term indices must increase; {j} follows {last}")
        _rat(value, lineno)
        last = j


def fmt_row(terms, n, *tail):
    """A row {j: c} in its shorter spelling, dense on a tie, followed by the
    `tail` tokens."""
    items = sorted(terms.items())
    # dense minus sparse length is gap - S for k terms: a dense row spends
    # two characters on each absent variable, a sparse one len(str(j)) + 1
    # on each index, so 2k <= S <= k(len(str(n)) + 1), and S is summed only
    # when those bounds do not decide
    k = len(items)
    gap = 2 * (n - k)
    if gap > k * (len(str(n)) + 1) or (
            gap > 2 * k and gap > sum(len(str(j)) + 1 for j, _ in items)):
        row = [f"{j}:{fmt(c)}" for j, c in items]
    else:
        row = [fmt(terms[j]) if j in terms else "0" for j in range(1, n + 1)]
    return " ".join([*row, *tail])


def _cid(token, lineno):
    value = _int(token, lineno)
    if value < 1:
        raise CertificateSyntaxError(
            lineno, f"constraint ids are positive; got {_shown_number(token, value)}")
    return value


def _rel_position(tokens, n):
    """Index of the relation token of an inline inequality, or None."""
    if len(tokens) > n and tokens[n] in REL_TOKENS:
        return n   # a dense row, or a sparse one with n terms
    for i, t in enumerate(tokens):
        if t in REL_TOKENS:
            return i
    return None


def _ineq(row, rel_tok, tail, n, lineno):
    """Inequality from its row tokens, relation token and `rhs [strict]`."""
    if rel_tok not in REL_TOKENS:
        raise CertificateSyntaxError(lineno, f"bad relation {_shown(rel_tok)}")
    if len(tail) not in (1, 2):
        raise CertificateSyntaxError(lineno, "inequality needs a row, a relation, and a rhs")
    rel, strict = REL_TOKENS[rel_tok]
    rhs = _rat(tail[0], lineno)
    if len(tail) == 2:
        if tail[1] != "strict":
            raise CertificateSyntaxError(lineno, f"unexpected token {_shown(tail[1])}")
        if rel == EQ:
            raise CertificateSyntaxError(lineno, "an equality cannot be strict")
        strict = True
    terms = parse_row(row, n, lineno)
    if not all(terms.values()):  # a token such as `-0`, `1:0` or `0/5`
        terms = {j: c for j, c in terms.items() if c}
    return Inequality(normal_expr(terms), rel, rhs, strict)


def parse_ineq(tokens, n, lineno):
    """`row REL rhs [strict]` -> Inequality."""
    at = _rel_position(tokens, n)
    if at is None:
        raise CertificateSyntaxError(lineno, "inequality needs a row, a relation, and a rhs")
    return _ineq(tokens[:at], tokens[at], tokens[at + 1:], n, lineno)


def fmt_ineq(iq: Inequality, n: int) -> str:
    return fmt_row(iq.lhs.terms, n, REL_SPELLING[iq.rel, iq.strict], fmt(iq.rhs))


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


def _parse_assumptions(tokens, n, lineno, memo):
    """`{ ineq ; ... }` at the front -> (list of Inequality, rest).

    `memo` maps `(n, group tokens)` to the Inequality of each group of the
    last list parsed from the same stream, and is then replaced by this
    list's groups, so it never holds more than one header line's groups.  A
    branch-and-bound leaf restates the assumptions of its path, so most
    groups are read once.  A hit parsed without error under the same n, so
    it cannot change a message or a line number."""
    groups, rest = _split_braced(tokens, lineno)
    keys = [(n, tuple(g)) for g in groups]
    assumptions = [memo.get(key) or parse_ineq(key[1], n, lineno) for key in keys]
    memo.clear()
    memo.update(zip(keys, assumptions))
    return assumptions, rest


def _fmt_assumptions(assumptions, n, prev=(), prev_head=None):
    """`{ ineq ; ... }`.  `prev` is a list already spelled under the same n
    in the line `prev_head`: the groups both lists start with are sliced
    out of that line instead of being formatted again.  Equal inequalities
    spell alike, and a group's text never holds ` ; `."""
    k = 0
    for a, b in zip(assumptions, prev):
        if a is not b and a != b:
            break
        k += 1
    texts = [fmt_ineq(a, n) for a in assumptions[k:]]
    if k:
        body = prev_head[prev_head.index("{") + 2:-2]
        texts.insert(0, body.rsplit(" ; ", len(prev) - k)[0])
    return "{ " + " ; ".join(texts) + " }"


def _fmt_ref(ref):
    """A premise reference other than a constraint id, which `fmt_subproof`
    spells inline."""
    kind = ref[0]
    if kind == "obj":
        return "OBJ"
    return PREMISE_SPELLING[kind] + str(ref[1])


def _parse_lin(tokens, lineno):
    """The (reference, multiplier) pairs of a LIN line's terms `id:k`,
    `OBJ:k` and `A|N|S<i>:k`, where an id is `-?[0-9]+`, i is `[0-9]+` and
    k a number of `_rat`'s grammar.  One character test over the whole line
    keeps out non-ASCII digits, which int() reads; a multiplier of digits
    alone is converted by int(), and any other by `_rat`.  `_lin_error`
    names the fault of any line this refuses."""
    pairs = []
    if "".join(tokens).isascii():
        try:
            for t in tokens:
                ref, colon, mult = t.partition(":")
                if not colon:
                    break
                if ref.isdigit() or ref[:1] == "-" and ref[1:].isdigit():
                    ref = ("id", int(ref))
                elif ref == "OBJ":
                    ref = ("obj",)
                elif ref[1:].isdigit() and ref[0] in PREMISE_LETTERS:
                    ref = (PREMISE_LETTERS[ref[0]], int(ref[1:]))
                else:
                    break
                pairs.append((ref, int(mult) if mult.isdigit() else _rat(mult, lineno)))
            else:
                if pairs:
                    return pairs
        except ValueError:  # a number over the digit limit
            pass
    _lin_error(tokens, lineno)


def _lin_error(tokens, lineno):
    """Raise the error of a LIN line that `_parse_lin` refused: that of its
    first term out of the grammar, or, when it has no term, that."""
    for t in tokens:
        ref, colon, mult = t.partition(":")
        if not colon:
            raise CertificateSyntaxError(lineno, f"LIN term {_shown(t)} needs ref:mult")
        if ref[:1] in PREMISE_LETTERS and ref[1:].isdigit():
            _int(ref[1:], lineno)
        elif ref != "OBJ":
            if not ref.lstrip("-").isdigit():
                raise CertificateSyntaxError(lineno, f"bad premise reference {_shown(ref)}")
            _int(ref, lineno)
        _rat(mult, lineno)
    raise CertificateSyntaxError(lineno, "empty LIN line")


def parse_subproof(body_lines, n, lineno):
    """LIN/ROUND lines closed by a `->` target line; `lineno` is the line of
    the header that opens the subproof."""
    steps = []
    target = None
    for ln, tokens in body_lines:
        head = tokens[0]
        kind = SUBPROOF_KEYWORDS.get(head)
        if kind == "lin":
            steps.append(("lin", _parse_lin(tokens[1:], ln)))
        elif kind == "round":
            if len(tokens) != 1:
                raise CertificateSyntaxError(ln, "ROUND takes no arguments")
            steps.append(("round",))
        elif kind == "target":
            if target is not None:
                raise CertificateSyntaxError(ln, "duplicate target line")
            target = parse_ineq(tokens[1:], n, ln)
        else:
            raise CertificateSyntaxError(ln, f"unexpected token {_shown(head)} in subproof")
    if target is None:
        raise CertificateSyntaxError(
            body_lines[0][0] if body_lines else lineno, "subproof missing its '->' target")
    return Subproof(steps, target)


def fmt_subproof(sub: Subproof, n, indent="  "):
    out = []
    for step in sub.steps:
        head = SUBPROOF_SPELLING[step[0]]
        if step[0] == "lin":
            terms = " ".join([f"{r[1] if r[0] == 'id' else _fmt_ref(r)}:{fmt(m)}"
                              for r, m in step[1]])
            out.append(f"{indent}{head} {terms}")
        else:
            out.append(f"{indent}{head}")
    out.append(f"{indent}{SUBPROOF_SPELLING['target']} {fmt_ineq(sub.target, n)}")
    return out


def _split_sections(body, keywords):
    """Split continuation lines into (keyword-line, following-lines) sections."""
    sections = []
    for lineno, tokens in body:
        if tokens[0] in keywords:
            sections.append(((lineno, tokens), []))
        else:
            if not sections:
                raise CertificateSyntaxError(lineno, f"unexpected line {_shown(tokens[0])}")
            sections[-1][1].append((lineno, tokens))
    return sections


def _parse_strengthen_body(body, n):
    witness_rows = {}
    subs = {}
    evidence = {}
    for (hl, htokens), lines in _split_sections(body, {"WITNESS", "SUB", "ORDER"}):
        head = htokens[0]
        if head == "WITNESS":
            if len(htokens) < 4 or htokens[2] != "<-":
                raise CertificateSyntaxError(hl, "WITNESS needs `j <- row const`")
            j = _int(htokens[1], hl)
            if not 1 <= j <= n:
                raise CertificateSyntaxError(hl, f"witness row {j} out of range")
            if j in witness_rows:
                raise CertificateSyntaxError(hl, f"duplicate WITNESS {j}")
            coeffs = parse_row(htokens[3:-1], n, hl)
            offset = _rat(htokens[-1], hl)
            if lines:
                raise CertificateSyntaxError(lines[0][0], "WITNESS takes no body")
            witness_rows[j] = (coeffs, offset)
        elif head == "SUB":
            if len(htokens) != 2:
                raise CertificateSyntaxError(hl, "SUB needs one key")
            key = SUB_KEYS.get(htokens[1]) or ("id", _int(htokens[1], hl))
            if key in subs:
                raise CertificateSyntaxError(hl, f"duplicate SUB {htokens[1]}")
            subs[key] = parse_subproof(lines, n, hl)
        else:  # ORDER
            if len(htokens) != 3 or htokens[2] not in ORDER_KINDS:
                raise CertificateSyntaxError(hl, "ORDER needs `entry GAP|GEQ|LEQ`")
            entry = _int(htokens[1], hl)
            kind = ORDER_KINDS[htokens[2]]
            kinds = evidence.setdefault(entry, {})
            if kind in kinds:
                raise CertificateSyntaxError(hl, f"duplicate ORDER {entry} {htokens[2]}")
            kinds[kind] = parse_subproof(lines, n, hl)
    return AffineMap(witness_rows), subs, evidence


def _parse_constraint_spec(tokens, n, lineno, memo):
    """`ineq` or `{ ineq ; ... } => ineq`."""
    if tokens and tokens[0] == "{":
        assumptions, rest = _parse_assumptions(tokens, n, lineno, memo)
        if not rest or rest[0] != "=>":
            raise CertificateSyntaxError(lineno, "expected '=>' after assumptions")
        return make_constraint(assumptions, parse_ineq(rest[1:], n, lineno))
    return Linear(parse_ineq(tokens, n, lineno))


def fmt_constraint_spec(c, n):
    if isinstance(c, Implication):
        return f"{_fmt_assumptions(c.assumptions, n)} => {fmt_ineq(c.consequent, n)}"
    return fmt_ineq(c.ineq, n)


def _parse_tree_body(body, lineno):
    nodes = {}
    bound_refs = {}
    root = None
    for ln, tokens in body:
        if tokens[0] != "NODE":
            raise CertificateSyntaxError(ln, "TREE body lines must start with NODE")
        if len(tokens) < 4:
            raise CertificateSyntaxError(ln, "NODE needs id, parent, and a branch")
        nid = _int(tokens[1], ln)
        parent = None if tokens[2] == "-" else _int(tokens[2], ln)
        if tokens[3] == "U":
            branch, colon = UNIVERSE, 4
        else:
            sense = REL_TOKENS.get(tokens[4]) if len(tokens) >= 6 else None
            if sense not in ((LE, False), (GE, False)):
                raise CertificateSyntaxError(ln, "branch must be `U` or `var <=|>= beta`")
            branch = (_int(tokens[3], ln), sense[0], _rat(tokens[5], ln))
            colon = 6
        if len(tokens) <= colon or tokens[colon] != ":":
            raise CertificateSyntaxError(ln, "expected ':' before sigma")
        # the line splits at its first two ':' into head, sigma and references
        second = tokens.index(":", colon + 1) if ":" in tokens[colon + 1:] else len(tokens)
        sigma = [_int(tok, ln) for tok in tokens[colon + 1:second]]
        if second == len(tokens):
            raise CertificateSyntaxError(ln, "expected ':' before bound references")
        for tok in tokens[second + 1:]:
            if "@" not in tok:
                raise CertificateSyntaxError(ln, f"bound reference {_shown(tok)} needs entry@cid")
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
        lines.append(f"  WITNESS {j} <- " + fmt_row(coeffs, n, fmt(offset)))

    def sub_key(key):
        return (0, key[1]) if key[0] == "id" else (1, key[0])
    for key in sorted(subs, key=sub_key):
        tok = str(key[1]) if key[0] == "id" else SUB_SPELLING[key]
        lines.append(f"  SUB {tok}")
        lines.extend(fmt_subproof(subs[key], n, indent="    "))
    return lines


def fmt_tree(tree: BranchTree, bound_refs):
    out = []
    for nid in tree.walk(tree.root):
        node = tree.nodes[nid]
        parent = "-" if node.parent is None else str(node.parent)
        if node.branch is UNIVERSE:
            branch = "U"
        else:
            var, rel, beta = node.branch
            branch = f"{var} {REL_SPELLING[rel, False]} {fmt(beta)}"
        sigma = " ".join(str(s) for s in node.sigma)
        refs = " ".join(f"{s}@{bound_refs[(nid, s)]}"
                        for s in node.sigma if (nid, s) in bound_refs)
        line = f"  NODE {nid} {parent} {branch} : {sigma} : {refs}".rstrip()
        out.append(line)
    return out


def _no_body(block):
    if block.body:
        raise CertificateSyntaxError(block.body[0][0], f"{block.tokens[0]} takes no body")


def parse_step(block: Block, n: int):
    """Parse one step block; returns (step, new_dimension)."""
    head = block.tokens[0]
    lineno = block.lineno
    args = block.tokens[1:]
    # steps that take no body check that first (RESOLVE and DEL A check it later)
    if head in {"SOL", "OBJSWAP", "EPS", "XFER", "EXT", "GOAL"}:
        _no_body(block)

    if head == "IMPLIC":
        if not args:
            raise CertificateSyntaxError(lineno, "IMPLIC needs an id")
        new_id = _cid(args[0], lineno)
        rest = args[1:]
        assumptions = []
        if rest:
            assumptions, rest = _parse_assumptions(rest, n, lineno, block.memo)
            if rest:
                raise CertificateSyntaxError(lineno, "unexpected tokens after assumptions")
        return ImplicStep(new_id, assumptions, parse_subproof(block.body, n, lineno)), n
    if head == "RESOLVE":
        if len(args) != 3:
            raise CertificateSyntaxError(lineno, "RESOLVE needs `id id1:k1 id2:k2`")
        _no_body(block)
        new_id = _cid(args[0], lineno)
        pairs = []
        for t in args[1:]:
            if ":" not in t:
                raise CertificateSyntaxError(lineno, f"bad operand {_shown(t)}")
            a, b = t.split(":", 1)
            pairs.append((_int(a, lineno), _int(b, lineno)))
        return ResolveStep(new_id, pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1]), n
    if head == "SOL":
        if len(args) != n:
            raise CertificateSyntaxError(lineno, f"SOL needs {n} values")
        return SolStep([_rat(t, lineno) for t in args]), n
    if head == "OBJSWAP":
        if "USING" not in args:
            raise CertificateSyntaxError(lineno, "OBJSWAP needs a USING clause")
        split = args.index("USING")
        if split == 0:
            raise CertificateSyntaxError(lineno, "OBJSWAP needs a row and a constant")
        coeffs = parse_row(args[:split - 1], n, lineno)
        const = _rat(args[split - 1], lineno)
        mults = []
        for t in args[split + 1:]:
            if ":" not in t:
                raise CertificateSyntaxError(lineno, f"bad multiplier {_shown(t)}")
            a, b = t.split(":", 1)
            mults.append((_int(a, lineno), _rat(b, lineno)))
        return ObjSwapStep(LinExpr(coeffs, const), mults), n
    if head in ("RED", "DOM"):
        if not args:
            raise CertificateSyntaxError(lineno, f"{head} needs an id")
        new_id = _cid(args[0], lineno)
        constraint = _parse_constraint_spec(args[1:], n, lineno, block.memo)
        witness, subs, evidence = _parse_strengthen_body(block.body, n)
        return StrengthenStep(new_id, constraint, witness, subs, evidence,
                              dominance=(head == "DOM")), n
    if head == "EPS":
        if len(args) != 1:
            raise CertificateSyntaxError(lineno, "EPS needs one value")
        return EpsStep(_rat(args[0], lineno)), n
    if head == "XFER":
        if len(args) != 1:
            raise CertificateSyntaxError(lineno, "XFER needs one id")
        return TransferStep(_int(args[0], lineno)), n
    if head == "DEL":
        if not args:
            raise CertificateSyntaxError(lineno, "DEL needs a variant")
        variant = args[0].lower()
        ids = [_int(t, lineno) for t in args[1:]]
        if variant == "a":
            _no_body(block)
            return DeleteStep("a", ids), n
        if not ids or len(ids) != 1:
            raise CertificateSyntaxError(lineno, "core deletion takes a single id")
        if variant == "b":
            return DeleteStep("b", ids, sub=parse_subproof(block.body, n, lineno)), n
        if variant == "c":
            witness, subs, evidence = _parse_strengthen_body(block.body, n)
            if evidence:
                raise CertificateSyntaxError(lineno, "DEL C takes no ORDER blocks")
            return DeleteStep("c", ids, witness=witness, subs=subs), n
        raise CertificateSyntaxError(lineno, f"unknown DEL variant {_shown(args[0])}")
    if head == "TREE":
        if args:
            raise CertificateSyntaxError(lineno, "TREE takes no arguments")
        tree, bound_refs = _parse_tree_body(block.body, lineno)
        return TreeStep(tree, bound_refs), n
    if head == "EXT":
        if args:
            raise CertificateSyntaxError(lineno, "EXT takes no arguments")
        return ExtendStep(), n + 1
    if head == "GOAL":
        if len(args) > 1:
            raise CertificateSyntaxError(lineno, "GOAL takes at most one id")
        cid = _int(args[0], lineno) if args else None
        return GoalStep(cid), n
    raise CertificateSyntaxError(lineno, f"unknown step {_shown(head)}")


def fmt_step(step, n: int, prev=(), prev_head=None):
    """Canonical text of one step; returns (lines, new_dimension).  An
    IMPLIC reuses the text of the groups its assumptions share at the front
    with `prev`, an assumption list spelled under the same n in the header
    line `prev_head`."""
    if isinstance(step, ImplicStep):
        head = f"IMPLIC {step.new_id}"
        if step.assumptions:
            head += " " + _fmt_assumptions(step.assumptions, n, prev, prev_head)
        return [head, *fmt_subproof(step.sub, n)], n
    if isinstance(step, ResolveStep):
        return [f"RESOLVE {step.new_id} {step.id1}:{step.k1} {step.id2}:{step.k2}"], n
    if isinstance(step, SolStep):
        return ["SOL " + " ".join(fmt(v) for v in step.values)], n
    if isinstance(step, ObjSwapStep):
        mults = [f"{cid}:{fmt(m)}" for cid, m in step.multipliers]
        return ["OBJSWAP " + fmt_row(step.new_g.terms, n, fmt(step.new_g.const),
                                     "USING", *mults)], n
    if isinstance(step, StrengthenStep):
        head = "DOM" if step.dominance else "RED"
        lines = [f"{head} {step.new_id} {fmt_constraint_spec(step.constraint, n)}",
                 *_fmt_witness_and_subs(step.witness, step.subs, n)]
        for entry in sorted(step.order_evidence, key=abs):
            for tok, kind in ORDER_KINDS.items():
                if kind in step.order_evidence[entry]:
                    lines.append(f"  ORDER {entry} {tok}")
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
    """Read the problem section off an iterator of Blocks; returns (Problem,
    an iterator over the step blocks that follow it)."""
    block_iter = iter(block_iter)
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
            raise CertificateSyntaxError(block.lineno, f"unknown directive {_shown(head)}")
        if block.body:
            raise CertificateSyntaxError(block.body[0][0], f"{head} takes no body")
        args = block.tokens[1:]
        if head == "VAR":
            if n is not None:
                raise CertificateSyntaxError(block.lineno, "duplicate VAR line")
            if len(args) != 1:
                raise CertificateSyntaxError(block.lineno, "VAR needs one count")
            n = _int(args[0], block.lineno)
            if n < 0:
                raise CertificateSyntaxError(
                    block.lineno,
                    f"VAR needs a nonnegative count; got {_shown_number(args[0], n)}")
            continue
        if n is None:
            raise CertificateSyntaxError(block.lineno, "VAR must come first")
        if head == "INT":
            integral.update(_int(t, block.lineno) for t in args)
        elif head == "OBJ":
            if objective is not None:
                raise CertificateSyntaxError(block.lineno, "duplicate OBJ line")
            if args and ":" in args[0]:
                # sparse: the terms, then an optional constant
                k = len(args) if ":" in args[-1] else len(args) - 1
            elif len(args) in (n, n + 1):
                k = n
            else:
                raise CertificateSyntaxError(
                    block.lineno, f"OBJ needs a row of {n} coefficients or j:c terms "
                                  "and an optional constant")
            coeffs = parse_row(args[:k], n, block.lineno)
            const = _rat(args[k], block.lineno) if len(args) > k else 0
            objective = LinExpr(coeffs, const)
        elif head == "CON":
            if len(args) < 3:
                raise CertificateSyntaxError(block.lineno, "CON needs `id REL row rhs [strict]`")
            cid = _cid(args[0], block.lineno)
            if cid in constraints:
                raise CertificateSyntaxError(block.lineno, f"duplicate constraint id {cid}")
            # CON puts the relation before the row
            end = len(args) - 1 - (args[-1] == "strict")
            constraints[cid] = Linear(_ineq(args[2:end], args[1], args[end:], n, block.lineno))
        elif head == "IMP":
            if not args:
                raise CertificateSyntaxError(block.lineno, "IMP needs an id")
            cid = _cid(args[0], block.lineno)
            if cid in constraints:
                raise CertificateSyntaxError(block.lineno, f"duplicate constraint id {cid}")
            constraints[cid] = _parse_constraint_spec(args[1:], n, block.lineno, block.memo)
            if not isinstance(constraints[cid], Implication):
                raise CertificateSyntaxError(
                    block.lineno, "IMP needs assumptions; use CON otherwise")
    if n is None:
        raise CertificateSyntaxError(0, "no VAR line found")
    if objective is None:
        objective = LinExpr()
    return Problem(n, integral, objective, constraints), _chain_block(pending, block_iter)


def fmt_problem(problem: Problem):
    n = problem.n
    lines = [f"VAR {n}"]
    if problem.integral:
        lines.append("INT " + " ".join(str(j) for j in sorted(problem.integral)))
    obj = problem.objective
    const = [fmt(obj.const)] if obj.const != 0 else []
    # an OBJ line without a j:c term is dense: sparse, `OBJ 5` could be
    # either 5 x1 or the constant 5.  So a termless objective keeps one
    # zero term, which is sparse where n zeros would be longer
    if n:
        lines.append("OBJ " + fmt_row(obj.terms or {1: 0}, n, *const))
    else:
        lines.append(" ".join(["OBJ", *const]))
    for cid in sorted(problem.constraints):
        c = problem.constraints[cid]
        if isinstance(c, Linear):
            iq = c.ineq
            lines.append(f"CON {cid} {REL_SPELLING[iq.rel, iq.strict]} "
                         + fmt_row(iq.lhs.terms, n, fmt(iq.rhs)))
        else:
            lines.append(f"IMP {cid} {fmt_constraint_spec(c, n)}")
    return lines


def parse_text(text):
    """Parse a combined problem+steps document into (Problem, [steps]).

    Loads everything eagerly; the streaming driver below is preferred for
    verification.
    """
    problem, blocks = parse_problem_blocks(iter_blocks(_lines(text=text)))
    steps = []
    n = problem.n
    for block in blocks:
        step, n = parse_step(block, n)
        steps.append(step)
    return problem, steps


def _chain_block(first, rest):
    """`first` (when not None) followed by the blocks of `rest`, which a
    chain never closes."""
    return chain(() if first is None else (first,), rest)


def serialize(problem, steps):
    lines = fmt_problem(problem)
    n = problem.n
    for step in steps:
        step_lines, n = fmt_step(step, n)
        lines.extend(step_lines)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Verification driver
# ---------------------------------------------------------------------------

class Report:
    """Outcome of one verification run."""

    def __init__(self, status, verdict=None, message="", stats=None):
        self.status = status      # "verified" | "rejected" | "error" | "internal"
        self.verdict = verdict
        self.message = message
        self.stats = stats or {}

    @property
    def exit_code(self):
        return {"verified": 0, "rejected": 1, "error": 2, "internal": 3}[self.status]

    def summary(self):
        if self.status == "verified":
            v = self.verdict
            if v.kind == "infeasible":
                return "VERIFIED infeasible"
            return f"VERIFIED optimal {fmt_shown(v.value)}"
        return f"{self.status.upper()}: {self.message}"


def _report_of(e, stats=None, at=""):
    """The Report of the exception `e` that ended a run: a syntax or I/O
    error is an error, a MipcertError a rejection, and any other exception
    an internal error that names the frame it came from.  `at` prefixes
    the message of a failure inside a step."""
    status, where = "rejected", ""
    if isinstance(e, (CertificateSyntaxError, OSError)):
        status = "error"
    elif not isinstance(e, MipcertError):
        frame = traceback.extract_tb(e.__traceback__)[-1]
        status, where = "internal", f" (in {frame.name}, {frame.filename}:{frame.lineno})"
    e.__traceback__ = None  # it keeps each frame it crossed alive, locals and all
    message = str(e) if status == "error" else f"{at}{type(e).__name__}: {e}{where}"
    return Report(status, stats=stats, message=message)


def verify_stream(problem, block_iter, trace=False, on_config=None):
    """Apply steps from an iterator of Blocks against a fresh configuration.
    Every outcome is a Report: an exception that is not a MipcertError is
    an internal error, never a verdict."""
    t0 = time.perf_counter()
    by_rule = {}
    stats = {"steps": 0, "max_live": 0, "by_rule": by_rule}
    try:
        cfg = initial_configuration(problem)
    except MipcertError as e:
        return Report("error", message=f"malformed problem: {e}")
    n = problem.n
    verdict = None
    lineno = steps = max_live = 0
    try:
        for block in block_iter:
            lineno = block.lineno
            if verdict is not None:
                raise CertificateSyntaxError(lineno, "steps after GOAL")
            step, n = parse_step(block, n)
            if trace:
                print(f"step {steps + 1}: {' '.join(block.tokens)}", file=sys.stderr)
            verdict = apply_step(cfg, step)
            steps += 1
            by_rule[block.tokens[0]] = by_rule.get(block.tokens[0], 0) + 1
            if len(cfg.core) + len(cfg.derived) > max_live:
                max_live = len(cfg.core) + len(cfg.derived)
            if on_config is not None:
                on_config(cfg)
    except Exception as e:
        return _report_of(e, stats, f"step {steps + 1} (line {lineno}): ")
    finally:
        # a rejection's Report holds this same dict, so it gets these too
        stats["steps"], stats["max_live"] = steps, max_live
        stats["wall_time"] = time.perf_counter() - t0
    if verdict is None:
        return Report("rejected", message="certificate ended without a GOAL step",
                      stats=stats)
    return Report("verified", verdict=verdict, stats=stats)


_NEWLINE = re.compile(r"\r\n?|\n")


def _split_lines(text):
    """The lines of a string, split lazily where a file read in text mode
    splits them."""
    start = 0
    for end in _NEWLINE.finditer(text):
        yield text[start:end.start()]
        start = end.end()
    if start < len(text):
        yield text[start:]


def _lines(path=None, text=None):
    r"""The lines of the UTF-8 text file at `path`, or of the string `text`,
    read lazily: a line ends at "\n", "\r\n" or "\r" and nowhere else
    (str.splitlines() also ends one at "\v", "\f", "\x1c"-"\x1e", "\x85",
    "\u2028" and "\u2029").  A line that cannot be encoded as UTF-8 is a
    syntax error at that line."""
    # undecodable bytes of a file become lone surrogates, which only they
    # produce and which cannot be encoded back; str.isascii() is O(1)
    with (open(path, "r", encoding="utf-8", errors="surrogateescape") if text is None
          else nullcontext(_split_lines(text))) as stream:
        for lineno, line in enumerate(stream, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise CertificateSyntaxError(lineno, "not valid UTF-8 text")
            yield line


def load_problem(path):
    """Read a problem file, which must hold no proof steps."""
    problem, steps = parse_problem_blocks(iter_blocks(_lines(path)))
    first = next(steps, None)
    if first is not None:
        raise CertificateSyntaxError(first.lineno, "steps found in the problem file")
    return problem


def verify_file(problem_path, cert_path=None, trace=False):
    """Verify a certificate file; the problem may live in its own file or in
    the certificate header.  Never raises on bad input files."""
    if cert_path is None:
        return _verify_document(_lines(problem_path), trace)
    try:
        problem = load_problem(problem_path)
        blocks = iter_blocks(_lines(cert_path))
        first = next(blocks, None)
        steps = _chain_block(first, blocks)
        if first is not None and first.tokens[0] in PROBLEM_KEYWORDS:
            # certificate with its own header: it must restate the problem
            embedded, steps = parse_problem_blocks(steps)
            if fmt_problem(embedded) != fmt_problem(problem):
                raise CertificateSyntaxError(
                    first.lineno, "embedded problem differs from the problem file")
        return verify_stream(problem, steps, trace=trace)
    except Exception as e:
        return _report_of(e)


def verify_text(text):
    """Verify a combined document held in memory."""
    return _verify_document(_lines(text=text), trace=False)


def _verify_document(lines, trace):
    """Verify a combined problem-and-steps document given as lines."""
    try:
        problem, steps = parse_problem_blocks(iter_blocks(lines))
    except Exception as e:
        return _report_of(e)
    return verify_stream(problem, steps, trace=trace)
