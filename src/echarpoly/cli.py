"""Command-line surface: echar / eigen / verify on JSON tensor documents.

The machine-readable report goes to stdout as JSON; a short human summary
goes to stderr.  Exit codes: 0 ok, 1 parse failure, 2 unsupported size
or a value beyond float range, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .document import DocumentError, TensorDocument
from .echar import IrregularTensorError, a0_predicted, echar, leading_predicted
from .eigen import DEFICIT, eigenpairs_n2, is_z_eigenpair
from .rational import format_rational
from .resultant import UnsupportedSizeError
from .tensor import DimensionError
from .verify import run_checks, run_fuzz

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNSUPPORTED = 2
EXIT_VERIFY = 3


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnsupportedSizeError, DimensionError, IrregularTensorError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OverflowError as exc:
        print(f"unsupported: {exc}, a value beyond float range", file=sys.stderr)
        return EXIT_UNSUPPORTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echarpoly",
        description="Exact characteristic polynomials and eigenpairs of small tensors.",
    )
    sub = parser.add_subparsers(required=True)

    p_echar = sub.add_parser("echar", help="characteristic polynomial of a tensor file")
    p_echar.add_argument("file")
    p_echar.add_argument(
        "--route",
        choices=["auto", "sylvester", "det", "macaulay"],
        default="auto",
    )
    p_echar.set_defaults(func=cmd_echar)

    p_eigen = sub.add_parser("eigen", help="eigenpair equivalence classes (dimension 2)")
    p_eigen.add_argument("file")
    p_eigen.set_defaults(func=cmd_eigen)

    p_verify = sub.add_parser("verify", help="check the closed-form identities")
    p_verify.add_argument("file", nargs="?")
    p_verify.add_argument("--fuzz", type=int, metavar="N")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--m", type=int, default=3, help="tensor order for fuzz mode")
    p_verify.add_argument("--n", type=int, default=2, help="dimension for fuzz mode")
    p_verify.add_argument(
        "--deep", action="store_true", help="also cross-check the macaulay route"
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _load(path: str) -> TensorDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return TensorDocument.from_json(text)


def _emit(report: dict, summary: str) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))
    print(summary, file=sys.stderr)


def cmd_echar(args) -> int:
    doc = _load(args.file)
    A = doc.to_hypermatrix()
    result = echar(A, route=args.route)
    a0 = a0_predicted(A)
    coeffs = [format_rational(c) for c in result.psi.coeffs]
    report = {
        "command": f"echar --route {args.route} {args.file}",
        "route": result.route,
        "identically_zero": result.identically_zero,
        "coefficients": coeffs,
        "h_bound": result.h_bound,
        "leading_power": result.leading_power,
        "a0_predicted": format_rational(a0),
        "a0_matches": result.a0_actual() == a0,
    }
    if A.dim == 2:
        leading = leading_predicted(A)
        report["leading_predicted"] = format_rational(leading)
        report["leading_matches"] = result.leading_actual() == leading
    _emit(report, f"psi = {result.psi} (route {result.route})")
    return EXIT_OK


def cmd_eigen(args) -> int:
    doc = _load(args.file)
    report = eigenpairs_n2(doc.to_hypermatrix())
    rows = []
    for pair in report.pairs:
        rows.append(
            {
                "lambda": [pair.eigenvalue.real, pair.eigenvalue.imag],
                "vector": [
                    [pair.vector[0].real, pair.vector[0].imag],
                    [pair.vector[1].real, pair.vector[1].imag],
                ],
                "kind": pair.kind,
                "multiplicity": pair.multiplicity,
                "sign_pair": pair.sign_pair,
                "z_eigenpair": is_z_eigenpair(pair),
            }
        )
    payload = {
        "command": f"eigen {args.file}",
        "infinitely_many": report.infinite,
        "eigenpairs": rows,
        "normalized_count": sum(
            p.multiplicity for p in report.pairs if p.kind != DEFICIT
        ),
        "deficit_count": sum(p.multiplicity for p in report.pairs if p.kind == DEFICIT),
    }
    summary = (
        "infinitely many eigenpair classes"
        if report.infinite
        else f"{len(rows)} eigenpair classes"
    )
    _emit(payload, summary)
    return EXIT_OK


def _failures(checks) -> list[dict]:
    """The report entries of failed checks, each with its counterexample document."""
    return [
        {"check": c.name, "detail": c.detail, "tensor": json.loads(c.counterexample.to_json())}
        for c in checks
    ]


def cmd_verify(args) -> int:
    deep = " --deep" if args.deep else ""
    if args.fuzz is not None:
        if args.seed is None:
            print("--seed is required with --fuzz", file=sys.stderr)
            return EXIT_PARSE
        if args.fuzz < 1:
            print(f"--fuzz needs at least one tensor, got {args.fuzz}", file=sys.stderr)
            return EXIT_PARSE
        if args.n != 2:
            raise UnsupportedSizeError("fuzz verification runs on dimension 2")
        if args.m < 2:
            raise DimensionError(f"order must be >= 2, got {args.m}")
        outcome = run_fuzz(args.fuzz, args.seed, args.m, args.n, deep=args.deep)
        verdicts = {
            name: {"passed": ok, "ran": ran, "ok": ok == ran}
            for name, (ok, ran) in sorted(outcome.per_check.items())
        }
        payload = {
            "command": f"verify --fuzz {args.fuzz} --seed {args.seed} --m {args.m} --n {args.n}{deep}",
            "tensors": outcome.total,
            "verdicts": verdicts,
            "failures": _failures(outcome.failures),
        }
        for name, v in verdicts.items():
            mark = "PASS" if v["ok"] else "FAIL"
            print(f"{mark} {name} ({v['passed']}/{v['ran']})", file=sys.stderr)
        _emit(payload, "all checks passed" if outcome.passed else "FAILURES FOUND")
        return EXIT_OK if outcome.passed else EXIT_VERIFY
    if args.file is None:
        print("a tensor file or --fuzz N is required", file=sys.stderr)
        return EXIT_PARSE
    doc = _load(args.file)
    A = doc.to_hypermatrix()
    if A.dim != 2:
        raise UnsupportedSizeError("per-file verification runs on dimension 2")
    checks = run_checks(A, deep=args.deep)
    payload = {
        "command": f"verify{deep} {args.file}",
        "verdicts": [{"check": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "failures": _failures(c for c in checks if not c.passed),
    }
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        extra = f"  {c.detail}" if c.detail else ""
        print(f"{mark} {c.name}{extra}", file=sys.stderr)
    ok = all(c.passed for c in checks)
    _emit(payload, "all checks passed" if ok else "FAILURES FOUND")
    return EXIT_OK if ok else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
