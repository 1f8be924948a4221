"""Command-line front end: verify certificates, certify problems, or run
the brute-force oracle."""

import argparse
import sys

from .certfile import load_problem, verify_file
from .errors import MipcertError
from .exact import fmt, fmt_shown


def _print_stats(stats):
    print(f"steps: {stats.get('steps', 0)}")
    print(f"max live constraints: {stats.get('max_live', 0)}")
    for rule in sorted(stats.get("by_rule", {})):
        print(f"  {rule}: {stats['by_rule'][rule]}")
    if "wall_time" in stats:
        print(f"wall time: {stats['wall_time']:.3f}s")


def _cut_list(text):
    return [c for c in text.split(",") if c]


def cmd_verify(args):
    if args.certs:
        runs = [(c, verify_file(args.target, c, trace=args.trace)) for c in args.certs]
    else:
        runs = [(args.target, verify_file(args.target, trace=args.trace))]
    worst = 0
    for name, report in runs:
        prefix = f"{name}: " if len(runs) > 1 else ""
        print(prefix + report.summary())
        if args.stats and report.stats:
            _print_stats(report.stats)
        worst = max(worst, report.exit_code)
    return worst


def cmd_certify(args):
    from .certfile import verify_text
    from .certifier import solve_and_certify

    try:
        problem = load_problem(args.problem)
        verdict, text, stats = solve_and_certify(
            problem, sst=args.sst, lex=args.lex, cuts=tuple(args.cuts))
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (MipcertError, OSError, RuntimeError) as e:
        print(f"ERROR: {e}", file=sys.stderr)
        return 2
    if verdict.kind == "optimal":
        print(f"optimal {fmt_shown(verdict.value)}; {stats['nodes']} search nodes, "
              f"{stats['steps']} steps -> {args.output}")
    else:
        print(f"infeasible; {stats['nodes']} search nodes, "
              f"{stats['steps']} steps -> {args.output}")
    if args.check:
        report = verify_text(text)
        print("self-check:", report.summary())
        return report.exit_code
    return 0


def cmd_oracle(args):
    from .oracle import brute_force_optimum

    try:
        problem = load_problem(args.problem)
        result = brute_force_optimum(problem)
    except (MipcertError, OSError) as e:
        print(f"ERROR: {e}", file=sys.stderr)
        return 2
    if result[0] == "infeasible":
        print("infeasible")
    else:
        _, value, argmin = result
        print(f"optimal {fmt_shown(value)} at ({', '.join(fmt(v) for v in argmin)})")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mipcert",
        description="Exact certificate tools for mixed-integer programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a certificate")
    p_verify.add_argument("target", help="problem file, or a combined certificate")
    p_verify.add_argument("certs", nargs="*", help="certificate files for the problem")
    p_verify.add_argument("--stats", action="store_true", help="print run statistics")
    p_verify.add_argument("--trace", action="store_true", help="echo each step to stderr")
    p_verify.set_defaults(fn=cmd_verify)

    p_certify = sub.add_parser("certify", help="solve and emit a certificate")
    p_certify.add_argument("problem")
    p_certify.add_argument("-o", "--output", required=True)
    p_certify.add_argument("--sst", action="store_true",
                           help="emit symmetry-order cuts before the search")
    p_certify.add_argument("--lex", action="store_true",
                           help="emit adjacent-swap comparison ladders")
    p_certify.add_argument("--cuts", default="", type=_cut_list,
                           help="comma list of cut families (cg, cover)")
    p_certify.add_argument("--check", action="store_true",
                           help="verify the emitted certificate")
    p_certify.set_defaults(fn=cmd_certify)

    p_oracle = sub.add_parser("oracle", help="brute-force optimum")
    p_oracle.add_argument("problem")
    p_oracle.set_defaults(fn=cmd_oracle)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
