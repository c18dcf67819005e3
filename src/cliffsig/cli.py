"""Command-line front end.

Subcommands: eval, classify, grading, sigchange, verify.  Exit codes are
a stable contract for CI: 0 success, 1 verification or validation
violation, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import reduce

from .classify import classify_clifford, classify_even_part, classify_even_subalgebra
from .core import MAX_DIMENSION, Signature
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
from .sigchange import target_signature, vee_alpha, vee_prime
from .verify import DEFAULT_MAX_N, SUITES, canonical_odd_mask, even_subalgebra_problem, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

#: Largest decimal exponent, in magnitude, that an involution entry given
#: as a string may carry: CPython's default cap on the digits of an int
#: read from text, which already bounds the numeral itself.
MAX_EXPONENT = 4300


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


def _parse_even(text: str) -> tuple[int, int]:
    try:
        p0, q0 = text.split(",")
        return int(p0), int(q0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected --even p0,q0 — {exc}") from None


def _rational(x) -> Fraction:
    """A JSON entry as a Fraction.  A string's decimal exponent is bounded
    first, since ``Fraction("1e999999999")`` would build a 10**9-digit
    integer."""
    exp = isinstance(x, str) and re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", x)
    if exp and abs(int(exp[1])) > MAX_EXPONENT:
        raise ValueError(f"entry {x!r} has a decimal exponent beyond ±{MAX_EXPONENT}")
    return Fraction(str(x))


def _load_involution(path: str) -> list[list[Fraction]]:
    """The rational matrix in the UTF-8 JSON file at ``path``.  Content that
    is not one raises a ValueError naming the file, as OSError's message
    does for a file that cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
            raise ValueError("expected a JSON list of rows (lists of rationals)")
        return [[_rational(x) for x in row] for row in data]
    except RecursionError:
        reason = "JSON nested too deeply"
    except ZeroDivisionError:
        reason = "an entry has a zero denominator"
    except ValueError as exc:
        reason = str(exc)
    raise ValueError(f"{path}: {reason}")


def _product(name: str, gr: Z2Grading):
    """The product substituted for '*' and the signature (r, s) of the
    algebra it makes on the carrier: ∨, or ∨′ for veeprime, of a grading.
    The geometric product is ∨ of the trivial grading (the same kernel
    under the same mask) and the tilt ∨ of the all-odd one; vee and
    veeprime take ``gr``, the --odd grading."""
    if name == "geometric":
        gr = Z2Grading.trivial(gr.sig)
    elif name == "tilt":
        gr = Z2Grading.usual(gr.sig)
    vee = vee_prime if name == "veeprime" else vee_alpha
    return (lambda a, b: vee(a, b, gr)), target_signature(gr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffsig",
        description="Exact Clifford algebra toolkit: gradings, even-subalgebra "
        "classification, and signature change.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sig_in = argparse.ArgumentParser(add_help=False)
    sig_in.add_argument("--sig", type=_parse_sig, required=True, metavar="p,q")

    p_eval = sub.add_parser("eval", parents=[sig_in], help="evaluate multivector expressions")
    p_eval.add_argument(
        "--product",
        choices=("geometric", "vee", "veeprime", "tilt"),
        default="geometric",
        help="product substituted for '*' (default: geometric)",
    )
    p_eval.add_argument("--odd", type=_parse_odd, metavar="e1,e3", default=[],
                        help="odd generators of the grading (vee/veeprime)")
    p_eval.add_argument("exprs", nargs="+", metavar="EXPR",
                        help="expressions, combined left to right under the product")
    p_eval.set_defaults(handler=_cmd_eval)

    p_cls = sub.add_parser("classify", parents=[sig_in], help="closed-form isomorphism classes")
    p_cls.add_argument("--even", type=_parse_even, metavar="p0,q0",
                       help="classify the even subalgebra of the grading with "
                            "this even 1-vector signature")
    p_cls.add_argument("--oracle", action="store_true",
                       help="re-derive via the structural fingerprint and report agreement")
    p_cls.set_defaults(handler=_cmd_classify)

    p_gr = sub.add_parser("grading", parents=[sig_in], help="inspect or validate a grading")
    p_gr.add_argument("--odd", type=_parse_odd, metavar="e1,e3", default=[])
    p_gr.add_argument("--involution", metavar="PATH",
                      help="JSON n x n rational matrix (entries like \"3/5\") "
                           "giving a candidate grading map on V")
    p_gr.set_defaults(handler=_cmd_grading)

    p_sc = sub.add_parser("sigchange", parents=[sig_in], help="evaluate under a deformed product")
    p_sc.add_argument("--odd", type=_parse_odd, metavar="e2,e3,e4", default=[])
    p_sc.add_argument(
        "--product",
        choices=("vee", "veeprime", "tilt", "geometric"),
        default="vee",
    )
    p_sc.add_argument("--expr", required=True, metavar="EXPR")
    p_sc.set_defaults(handler=_cmd_sigchange)

    p_ver = sub.add_parser("verify", help="run a verification sweep; every cell is exact")
    p_ver.add_argument("--suite", choices=SUITES, required=True)
    p_ver.add_argument("--max-n", type=int, help=f"largest p+q swept (default: {DEFAULT_MAX_N})")
    p_ver.set_defaults(handler=lambda args: _cmd_verify(args, parser.error))
    for p_cmd in sub.choices.values():  # last, where every usage line lists it
        p_cmd.add_argument("--json", action="store_true")
    return parser


def _emit(args, out, lines: list[str], code: int) -> int:
    """Print ``out`` as JSON under --json, else ``lines``; return ``code``.
    ``out`` is a dict, or for verify the report as indented JSON text."""
    if args.json:
        print(out if isinstance(out, str) else json.dumps(out))
    else:
        print("\n".join(lines))
    return code


def _cmd_eval(args) -> int:
    sig = args.sig
    gr = Z2Grading.from_odd_indices(sig, args.odd)
    star, target = _product(args.product, gr)
    result = reduce(star, [parse_multivector(text, sig, star=star) for text in args.exprs])
    text = format_multivector(result)
    out = {"sig": [sig.p, sig.q], "product": args.product, "result": text}
    if args.product in ("vee", "veeprime"):
        out["odd"] = list(gr.odd_indices)
    if args.product != "geometric":
        out["target"] = list(target)
    return _emit(args, out, [text], EXIT_OK)


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
    return _emit(args, out, lines, EXIT_OK if agree else EXIT_VIOLATION)


def _cmd_grading(args) -> int:
    """Report a grading given by its odd generators or, once validated, by an
    involution of V, which is isometric to the canonical grading with the
    same counts (p0,q0,p1,q1); only an odd set is checked for closure."""
    sig = args.sig
    out: dict = {"sig": [sig.p, sig.q]}
    if args.involution:
        try:
            split = validate_involution(_load_involution(args.involution), sig)
        except (NotInvolution, NotIsometry) as exc:
            msg = f"rejected: {type(exc).__name__}: {exc}"
            return _emit(args, {**out, "accepted": False, "reason": msg}, [msg], EXIT_VIOLATION)
        _, _, p1, q1 = split.counts()
        gr = Z2Grading(sig, canonical_odd_mask(sig, p1, q1))
        out["accepted"] = True
    else:
        gr = Z2Grading.from_odd_indices(sig, args.odd)
        out["odd"] = list(gr.odd_indices)
    p0, q0, p1, q1 = gr.counts()
    out.update(p0=p0, q0=q0, p1=p1, q1=q1)
    counts = f"(p0,q0,p1,q1) = ({p0},{q0},{p1},{q1})"
    lines = [f"accepted: {counts}"] if args.involution else [str(gr), counts]
    cls = classify_even_subalgebra(sig.p, sig.q, p0, q0)
    dichotomy = dimension_dichotomy_check(gr).value
    r, s = target_signature(gr)
    out.update(even_subalgebra=str(cls), dichotomy=dichotomy, target=[r, s])
    lines += [
        f"even subalgebra: {cls}",
        f"dimension class: {dichotomy}",
        f"signature change target: Cl({r},{s})",
    ]
    if args.involution:
        return _emit(args, out, lines, EXIT_OK)
    rep = grading_closure_check(gr)
    out.update(closure_ok=rep.ok, closure_pairs=rep.pairs_checked)
    lines.append(f"closure: {'ok' if rep.ok else 'VIOLATED'} ({rep.pairs_checked} blade pairs)")
    return _emit(args, out, lines, EXIT_OK if rep.ok else EXIT_VIOLATION)


def _cmd_sigchange(args) -> int:
    sig = args.sig
    gr = Z2Grading.from_odd_indices(sig, args.odd)
    star, (r, s) = _product(args.product, gr)
    text = format_multivector(parse_multivector(args.expr, sig, star=star))
    out = {
        "sig": [sig.p, sig.q],
        "odd": list(gr.odd_indices),
        "product": args.product,
        "target": [r, s],
        "result": text,
    }
    return _emit(args, out, [f"target: Cl({r},{s})", text], EXIT_OK)


def _cmd_verify(args, usage_error) -> int:
    if args.max_n is not None and not 0 <= args.max_n <= MAX_DIMENSION:
        usage_error(f"--max-n must be between 0 and {MAX_DIMENSION}")
    report = run_suite(args.suite, args.max_n)
    total = sum(c.seconds for c in report.cells)
    lines = [f"FAIL {c.key}: {c.detail}" for c in report.cells if not c.ok]
    lines.append(
        f"suite {report.suite}: {len(report.cells)} cells, "
        f"{report.violations} violations ({total:.2f}s)"
    )
    out = json.dumps(report.to_json_dict(), indent=2)
    return _emit(args, out, lines, EXIT_OK if report.ok else EXIT_VIOLATION)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DichotomyViolation, EigenspaceViolation) as exc:
        print(f"violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
