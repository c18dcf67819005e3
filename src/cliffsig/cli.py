"""Command-line front end.

Subcommands: eval, classify, grading, sigchange, verify.  Exit codes are
a stable contract for CI: 0 success, 1 verification or validation
violation, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .classify import classify_clifford, classify_even_part, classify_even_subalgebra
from .core import MAX_DIMENSION, Signature, geometric_product
from .expr import ParseError, format_multivector, parse_multivector
from .grading import (
    DichotomyViolation,
    EigenspaceViolation,
    NotInvolution,
    NotIsometry,
    Z2Grading,
    dimension_dichotomy_check,
    grading_closure_check,
    validate_involution,
)
from .sigchange import target_signature, tilt_product, vee_alpha, vee_prime
from .verify import SUITES, even_subalgebra_problem, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _parse_sig(text: str) -> Signature:
    try:
        p_str, q_str = text.split(",")
        return Signature(int(p_str), int(q_str))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"expected --sig p,q — {exc}") from None


def _parse_odd(text: str) -> list[int]:
    if not text.strip():
        return []
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok.startswith("e") or not tok[1:].isdigit():
            raise argparse.ArgumentTypeError(
                f"bad odd-generator token {tok!r}; expected e.g. --odd e1,e3"
            )
        out.append(int(tok[1:]))
    return out


def _parse_pair(text: str) -> tuple[int, int]:
    a, b = text.split(",")
    return int(a), int(b)


def _load_involution(path: str):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise ValueError(f"{path}: expected a JSON list of rows (lists of rationals)")
    try:
        return [[Fraction(str(x)) for x in row] for row in data]
    except ZeroDivisionError:
        raise ValueError(f"{path}: an entry has a zero denominator") from None


def _grading_from_args(sig: Signature, args) -> Z2Grading:
    odd = getattr(args, "odd", None) or []
    return Z2Grading.from_odd_indices(sig, odd)


def _product_fn(name: str, gr: Z2Grading):
    if name == "geometric":
        return geometric_product
    if name == "tilt":
        return tilt_product
    if name == "vee":
        return lambda a, b: vee_alpha(a, b, gr)
    if name == "veeprime":
        return lambda a, b: vee_prime(a, b, gr)
    raise ValueError(f"unknown product {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffsig",
        description="Exact Clifford algebra toolkit: gradings, even-subalgebra "
        "classification, and signature change.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate multivector expressions")
    p_eval.add_argument("--sig", type=_parse_sig, required=True, metavar="p,q")
    p_eval.add_argument(
        "--product",
        choices=("geometric", "vee", "veeprime", "tilt"),
        default="geometric",
        help="product substituted for '*' (default: geometric)",
    )
    p_eval.add_argument("--odd", type=_parse_odd, metavar="e1,e3",
                        help="odd generators of the grading (vee/veeprime)")
    p_eval.add_argument("--json", action="store_true")
    p_eval.add_argument("exprs", nargs="+", metavar="EXPR",
                        help="expressions, combined left to right under the product")

    p_cls = sub.add_parser("classify", help="closed-form isomorphism classes")
    p_cls.add_argument("--sig", type=_parse_sig, required=True, metavar="p,q")
    p_cls.add_argument("--even", type=_parse_pair, metavar="p0,q0",
                       help="classify the even subalgebra of the grading with "
                            "this even 1-vector signature")
    p_cls.add_argument("--oracle", action="store_true",
                       help="re-derive via the structural fingerprint and report agreement")
    p_cls.add_argument("--json", action="store_true")

    p_gr = sub.add_parser("grading", help="inspect or validate a grading")
    p_gr.add_argument("--sig", type=_parse_sig, required=True, metavar="p,q")
    p_gr.add_argument("--odd", type=_parse_odd, metavar="e1,e3")
    p_gr.add_argument("--involution", metavar="PATH",
                      help="JSON n x n rational matrix (entries like \"3/5\") "
                           "giving a candidate grading map on V")
    p_gr.add_argument("--json", action="store_true")

    p_sc = sub.add_parser("sigchange", help="evaluate under a deformed product")
    p_sc.add_argument("--sig", type=_parse_sig, required=True, metavar="p,q")
    p_sc.add_argument("--odd", type=_parse_odd, metavar="e2,e3,e4", default=[])
    p_sc.add_argument(
        "--product",
        choices=("vee", "veeprime", "tilt", "geometric"),
        default="vee",
    )
    p_sc.add_argument("--expr", required=True, metavar="EXPR")
    p_sc.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="run a verification sweep")
    p_ver.add_argument("--suite", choices=SUITES, required=True)
    p_ver.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed of the core suite's random draws (default: 0); "
                            "the other suites draw nothing")
    p_ver.add_argument("--json", action="store_true")
    return parser


def _cmd_eval(args) -> int:
    sig = args.sig
    gr = _grading_from_args(sig, args)
    star = _product_fn(args.product, gr)
    values = [parse_multivector(text, sig, star=star) for text in args.exprs]
    result = values[0]
    for v in values[1:]:
        result = star(result, v)
    if args.json:
        out = {
            "sig": [sig.p, sig.q],
            "product": args.product,
            "result": format_multivector(result),
        }
        if args.product in ("vee", "veeprime"):
            out["odd"] = list(gr.odd_indices)
            out["target"] = list(target_signature(gr))
        elif args.product == "tilt":
            out["target"] = [sig.q, sig.p]
        print(json.dumps(out))
    else:
        print(format_multivector(result))
    return EXIT_OK


def _cmd_classify(args) -> int:
    sig = args.sig
    out: dict = {"sig": [sig.p, sig.q]}
    if args.even is not None:
        p0, q0 = args.even
        cls = classify_even_subalgebra(sig.p, sig.q, p0, q0)
        out["even_signature"] = [p0, q0]
        out["even_subalgebra"] = str(cls)
        lines = [str(cls)]
    else:
        cls = classify_clifford(sig.p, sig.q)
        out["algebra"] = str(cls)
        lines = [f"{sig}: {cls}"]
        if sig.n >= 1:
            even = classify_even_part(sig.p, sig.q)
            out["even_part"] = str(even)
            lines.append(f"even part: {even}")
    agree = True
    if args.oracle:
        p0, q0 = args.even or (sig.p, sig.q)
        problem = even_subalgebra_problem(sig, p0, q0, cls)
        agree = out["oracle_agrees"] = not problem
        lines.append("oracle: " + ("agrees" if agree else f"DISAGREES; {problem}"))
        if problem:
            out["oracle_problem"] = problem
    if args.json:
        print(json.dumps(out))
    else:
        print("\n".join(lines))
    return EXIT_OK if agree else EXIT_VIOLATION


def _cmd_grading(args) -> int:
    sig = args.sig
    out: dict = {"sig": [sig.p, sig.q]}
    if args.involution:
        matrix = _load_involution(args.involution)
        try:
            split = validate_involution(matrix, sig)
        except (NotInvolution, NotIsometry) as exc:
            msg = f"rejected: {type(exc).__name__}: {exc}"
            if args.json:
                print(json.dumps({**out, "accepted": False, "reason": msg}))
            else:
                print(msg)
            return EXIT_VIOLATION
        p0, q0, p1, q1 = split.counts()
        out.update({"accepted": True, "p0": p0, "q0": q0, "p1": p1, "q1": q1})
        lines = [f"accepted: (p0,q0,p1,q1) = ({p0},{q0},{p1},{q1})"]
        gr = None
    else:
        gr = _grading_from_args(sig, args)
        p0, q0, p1, q1 = gr.counts()
        out.update({"odd": list(gr.odd_indices), "p0": p0, "q0": q0, "p1": p1, "q1": q1})
        lines = [f"{gr}", f"(p0,q0,p1,q1) = ({p0},{q0},{p1},{q1})"]
    cls = classify_even_subalgebra(sig.p, sig.q, p0, q0)
    out["even_subalgebra"] = str(cls)
    if gr is not None:
        out["dichotomy"] = dimension_dichotomy_check(gr).value
    else:
        out["dichotomy"] = "trivial" if (p1, q1) == (0, 0) else "half"
    r, s = p0 + q1, q0 + p1
    out["target"] = [r, s]
    lines.append(f"even subalgebra: {cls}")
    lines.append(f"dimension class: {out['dichotomy']}")
    lines.append(f"signature change target: Cl({r},{s})")
    closure_ok = True
    if gr is not None:
        rep = grading_closure_check(gr)
        closure_ok = rep.ok
        out["closure_ok"] = closure_ok
        out["closure_pairs"] = rep.pairs_checked
        lines.append(
            f"closure: {'ok' if closure_ok else 'VIOLATED'} "
            f"({rep.pairs_checked} blade pairs)"
        )
    if args.json:
        print(json.dumps(out))
    else:
        print("\n".join(lines))
    return EXIT_OK if closure_ok else EXIT_VIOLATION


def _cmd_sigchange(args) -> int:
    sig = args.sig
    gr = Z2Grading.from_odd_indices(sig, args.odd)
    star = _product_fn(args.product, gr)
    result = parse_multivector(args.expr, sig, star=star)
    r, s = target_signature(gr)
    if args.product == "tilt":
        r, s = sig.q, sig.p
    elif args.product == "geometric":
        r, s = sig.p, sig.q
    if args.json:
        print(
            json.dumps(
                {
                    "sig": [sig.p, sig.q],
                    "odd": list(gr.odd_indices),
                    "product": args.product,
                    "target": [r, s],
                    "result": format_multivector(result),
                }
            )
        )
    else:
        print(f"target: Cl({r},{s})")
        print(format_multivector(result))
    return EXIT_OK


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.max_n is not None and not 0 <= args.max_n <= MAX_DIMENSION:
        parser.error(f"--max-n must be between 0 and {MAX_DIMENSION}")
    report = run_suite(args.suite, args.max_n, args.seed)
    if args.json:
        print(report.to_json())
    else:
        total = sum(c.seconds for c in report.cells)
        for c in report.cells:
            if not c.ok:
                print(f"FAIL {c.key}: {c.detail}")
        print(
            f"suite {report.suite}: {len(report.cells)} cells, "
            f"{report.violations} violations ({total:.2f}s)"
        )
    return EXIT_OK if report.ok else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "grading":
            return _cmd_grading(args)
        if args.command == "sigchange":
            return _cmd_sigchange(args)
        if args.command == "verify":
            return _cmd_verify(args, parser)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DichotomyViolation, EigenspaceViolation) as exc:
        print(f"violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
