"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every expected value is pinned here, nothing is calibrated later.
"""

import io
import random
import sys
import time
import tracemalloc

from mipcert.certfile import (
    iter_blocks,
    parse_problem_blocks,
    parse_text,
    serialize,
    verify_text,
)
from mipcert.certifier import CertWriter, emit_lex_constraint, emit_order_tree, solve_and_certify
from mipcert.exact import GE, LE, Inequality, LinExpr, Rat
from mipcert.oracle import brute_force_optimum
from mipcert.trees import dcn_and_compare, check_tree_consistency

from appendix import appendix_certificates, finish
from helpers import (
    boxed_problem,
    bound_rows,
    knapsack_problem,
    no_proof,
    point_box,
    random_consistent_tree,
    random_point,
    random_problem,
    set_packing_problem,
    strict_at,
    weak_at,
)
from mutation import mutated_texts
from test_trees import _core, const_map


def _ok(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def ineq(terms, rel, rhs, strict=False):
    return Inequality(LinExpr({j: Rat(c) for j, c in terms.items()}), rel, Rat(rhs), strict)


def certified_text(problem, **kw):
    verdict, text, stats = solve_and_certify(problem, **kw)
    return verdict, text, stats


# --- criterion 1: generator/checker closure --------------------------------

def test_criterion_1_closure():
    rng = random.Random(20260809)
    t0 = time.perf_counter()
    infeasible = 0
    for i in range(200):
        problem = random_problem(rng, max_n=8, lo=0, hi=3, coeff=5)
        oracle = brute_force_optimum(problem)
        verdict, text, _ = certified_text(problem)
        report = verify_text(text)
        assert report.status == "verified", f"instance {i}: {report.message}"
        assert report.verdict == verdict
        if oracle[0] == "infeasible":
            infeasible += 1
            assert verdict.kind == "infeasible", f"instance {i}"
        else:
            assert verdict.kind == "optimal" and verdict.value == oracle[1], \
                f"instance {i}: {verdict} vs oracle {oracle[1]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"closure suite took {elapsed:.1f}s"
    _ok("1 generator/checker closure",
        f"(200 instances, {infeasible} infeasible, {elapsed:.1f}s)")


# --- golden certificates shared by criteria 2 and 5 ------------------------

def _sym_bounded_problem(n, hi):
    row = ineq({j: 1 for j in range(1, n + 1)}, LE, hi * n - 1)
    return boxed_problem(n, [row], {j: -1 for j in range(1, n + 1)}, hi=hi)


def lex_certificates():
    """Ladder + close-out for every (length, domain width) combination."""
    out = []
    for ell, width in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]:
        n = max(2, ell)
        problem = _sym_bounded_problem(n, width)
        perm = {1: 2, 2: 1} if ell <= 2 else {1: 2, 2: 3, 3: 1}
        writer = CertWriter(problem)
        sigma = list(range(1, ell + 1))
        emit_order_tree(writer, sigma)
        cid, final = emit_lex_constraint(writer, sigma, perm)
        verdict, text = finish(writer, [(cid, final)])
        out.append((ell, width, perm, final, verdict, text))
    return out


def golden_suite():
    """Exactly 25 verified certificates for the mutation sweep."""
    goldens = []
    _, text, _ = certified_text(knapsack_problem())
    goldens.append(text)
    goldens.extend(text for _, text in appendix_certificates().values())
    goldens.extend(text for *_, text in lex_certificates())
    _, text, _ = certified_text(set_packing_problem(4), sst=True)
    goldens.append(text)
    rng = random.Random(555)
    while len(goldens) < 25:
        problem = random_problem(rng, max_n=4, max_rows=3, lo=0, hi=2, coeff=3)
        _, text, stats = certified_text(problem)
        if stats["steps"] <= 60:
            goldens.append(text)
    return goldens


# --- criterion 2: mutation rejection ----------------------------------------

def test_criterion_2_mutation_rejection():
    goldens = golden_suite()
    assert len(goldens) == 25
    total = 0
    rejected = 0
    for gi, text in enumerate(goldens):
        base = verify_text(text)
        assert base.status == "verified", f"golden {gi}: {base.message}"
        for mut in mutated_texts(text):
            total += 1
            report = verify_text(mut)
            if report.status == "verified":
                assert report.verdict == base.verdict, \
                    f"golden {gi}: mutation accepted with a different verdict"
            else:
                rejected += 1
    assert total > 500
    _ok("2 mutation rejection",
        f"(25 goldens, {total} mutations, {rejected} rejected, rest verdict-identical)")


# --- criterion 3: order theory ----------------------------------------------

def test_criterion_3_order_theory():
    rng = random.Random(33)
    n = 4
    core, ub, lb = _core(n)
    eps = Rat(1)
    dcn_cases = 0
    for _ in range(1000):
        tree, refs = random_consistent_tree(rng, n, 0, 3, ub, lb)
        assert check_tree_consistency(tree, core, n, refs, set(range(1, n + 1))) == []
        pts = [random_point(rng, n, 0, 3) for _ in range(3)]
        for x in pts:
            assert weak_at(tree, eps, x, x)
            assert not strict_at(tree, eps, x, x)
        for x in pts:
            for y in pts:
                for z in pts:
                    if weak_at(tree, eps, z, y) and weak_at(tree, eps, y, x):
                        assert weak_at(tree, eps, z, x)
                    if strict_at(tree, eps, z, y) and strict_at(tree, eps, y, x):
                        assert strict_at(tree, eps, z, x)
                    if strict_at(tree, eps, z, y) and weak_at(tree, eps, y, x):
                        assert strict_at(tree, eps, z, x)
        for _ in range(10):
            x = random_point(rng, n, 0, 3)
            y = random_point(rng, n, 0, 3)
            box = point_box(x)
            w = const_map(y)
            for mode, direct in (("weak", weak_at), ("strict", strict_at)):
                assert dcn_and_compare(tree, box, w, eps, mode, {}, no_proof).verified == \
                    direct(tree, eps, y, x)
                dcn_cases += 1
    assert dcn_cases == 20_000
    _ok("3 order theory", f"(1000 trees, {dcn_cases} point comparisons agree)")


# --- criterion 4: appendix worked derivations --------------------------------

def test_criterion_4_appendix_derivations():
    times = {}
    for name, (verdict, text) in appendix_certificates().items():
        t0 = time.perf_counter()
        report = verify_text(text)
        times[name] = time.perf_counter() - t0
        assert report.status == "verified", f"{name}: {report.message}"
        assert report.verdict == verdict
        assert times[name] < 0.1, f"{name} took {times[name]*1000:.1f}ms"
    detail = ", ".join(f"{k} {v*1000:.0f}ms" for k, v in times.items())
    _ok("4 appendix derivations", f"({detail})")


# --- criterion 5: comparison ladder ------------------------------------------

def test_criterion_5_lex_ladder():
    for ell, width, perm, final, verdict, text in lex_certificates():
        report = verify_text(text)
        assert report.status == "verified", \
            f"ell={ell} width={width}: {report.message}"
        assert report.verdict == verdict
        inv = {v: k for k, v in perm.items()}
        expected = LinExpr()
        for i in range(1, ell + 1):
            coeff = Rat((width + 1) ** (ell - i))
            expected = expected.add(LinExpr({i: coeff}))
            expected = expected.add(LinExpr({inv.get(i, i): -coeff}))
        assert final == Inequality(expected, GE, Rat(0)), \
            f"ell={ell} width={width}: coefficients differ"
    _ok("5 comparison ladder", "(6 combinations verified, coefficients exact)")


# --- criterion 6: symmetry effectiveness -------------------------------------

def test_criterion_6_symmetry_effectiveness():
    problem = set_packing_problem(6)
    plain_verdict, plain_text, plain_stats = certified_text(problem)
    sst_verdict, sst_text, sst_stats = certified_text(problem, sst=True)
    assert verify_text(plain_text).status == "verified"
    assert verify_text(sst_text).status == "verified"
    assert plain_verdict.kind == sst_verdict.kind == "optimal"
    assert plain_verdict.value == sst_verdict.value == Rat(-1)
    assert sst_stats["nodes"] < plain_stats["nodes"]
    _ok("6 symmetry effectiveness",
        f"({plain_stats['nodes']} nodes plain vs {sst_stats['nodes']} with cuts)")


# --- criterion 7: streaming ---------------------------------------------------

def _deep_sizeof(obj, seen=None):
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for k, v in obj.items():
            size += _deep_sizeof(k, seen) + _deep_sizeof(v, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for v in obj:
            size += _deep_sizeof(v, seen)
    else:
        if hasattr(obj, "__dict__"):
            size += _deep_sizeof(obj.__dict__, seen)
        slots = getattr(type(obj), "__slots__", ())
        for slot in slots:
            if hasattr(obj, slot):
                size += _deep_sizeof(getattr(obj, slot), seen)
    return size


def _streaming_certificate(steps_target=100_000, rng=None):
    """An IMPLIC/DEL A chain over a live set of about 200 rows, closed by a
    contradiction; returns (text, steps).  Each IMPLIC sums the lower bounds
    of x1 and x2, or, given `rng`, of two seeded variables under seeded
    multipliers in [1, 3], as the benchmark's stream workload does."""
    n = 8
    lines = [f"VAR {n}", "INT " + " ".join(str(j) for j in range(1, n + 1))]
    lines.append("OBJ " + " ".join("0" for _ in range(n)))
    cid = 0
    rows = []
    for j in range(1, n + 1):
        cid += 1
        rows.append(f"CON {cid} <= " + " ".join("1" if k == j else "0"
                                                for k in range(1, n + 1)) + " 3")
        cid += 1
        rows.append(f"CON {cid} >= " + " ".join("1" if k == j else "0"
                                                for k in range(1, n + 1)) + " 0")
    # bulk rows so the live state has real size
    for extra in range(180):
        cid += 1
        coeffs = [(extra + k) % 5 + 1 for k in range(n)]
        rows.append(f"CON {cid} <= " + " ".join(str(c) for c in coeffs) + " 200")
    cid += 1
    ge_one = cid
    rows.append("CON " + str(cid) + " >= 1 " + " ".join("0" for _ in range(n - 1)) + " 1")
    cid += 1
    le_zero = cid
    rows.append("CON " + str(cid) + " <= 1 " + " ".join("0" for _ in range(n - 1)) + " 0")
    lines.extend(rows)
    next_id = cid + n + 1  # skip past the integrality markers
    zeros = " ".join("0" for _ in range(n))
    sum_target = "1 1 " + " ".join("0" for _ in range(n - 2)) + " >= 0"
    body = []
    pairs = (steps_target - 2) // 2
    for _ in range(pairs):
        body.append(f"IMPLIC {next_id}")
        if rng is None:
            body.append("  LIN 2:1 4:1")
            body.append(f"  -> {sum_target}")
        else:
            j, k = sorted(rng.sample(range(1, n + 1), 2))
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            # the row with id 2j is x_j >= 0
            body.append(f"  LIN {2 * j}:{a} {2 * k}:{b}")
            body.append("  -> " + " ".join(str(a) if v == j else str(b) if v == k else "0"
                                           for v in range(1, n + 1)) + " >= 0")
        body.append(f"DEL A {next_id}")
        next_id += 1
    body.append(f"IMPLIC {next_id}")
    body.append(f"  LIN {ge_one}:1 {le_zero}:1")
    body.append(f"  -> {zeros} <= -1")
    body.append(f"GOAL {next_id}")
    lines.extend(body)
    steps = 2 * pairs + 2
    return "\n".join(lines) + "\n", steps


def test_streaming_chain_does_no_box_work(monkeypatch):
    # IMPLIC and DEL steps never reach box propagation: only RED, DOM and
    # DEL C build and keep the pool box
    from mipcert import rules
    from mipcert.certfile import verify_stream

    def refused(*args):
        raise AssertionError("propagate_box called outside a strengthening step")

    monkeypatch.setattr(rules, "propagate_box", refused)
    text, steps = _streaming_certificate(steps_target=400)
    configs = []
    problem, step_blocks = parse_problem_blocks(iter_blocks(io.StringIO(text)))
    report = verify_stream(problem, step_blocks, on_config=configs.append)
    assert report.status == "verified" and report.stats["steps"] == steps
    assert configs[-1].pool_box is None


def test_criterion_7_streaming():
    from mipcert.certfile import verify_stream

    text, steps = _streaming_certificate()
    assert steps >= 100_000
    holder = {}

    def on_config(cfg):
        holder["cfg"] = cfg

    stream = io.StringIO(text)
    problem, step_blocks = parse_problem_blocks(iter_blocks(stream))
    tracemalloc.start()
    report = verify_stream(problem, step_blocks, on_config=on_config)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert report.status == "verified"
    assert report.verdict.kind == "infeasible"
    assert report.stats["steps"] == steps
    footprint = _deep_sizeof(holder["cfg"])
    assert peak < 10 * footprint, \
        f"peak {peak} bytes vs live footprint {footprint} bytes"
    _ok("7 streaming",
        f"({steps} steps, peak {peak // 1024}KiB vs live {footprint // 1024}KiB)")
