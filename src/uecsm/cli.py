"""Command line front end.

    uecsm classify MATRIX.json [--oracle] [--json OUT.json] ...
    uecsm search --count N [--dim D] [--entry-range LO HI] [--out-dir DIR] ...
    uecsm fixtures [--only GROUP] ...

Exit codes for ``classify``: 0 = UECSM, 1 = NotUECSM, 2 = NotApplicable,
3 = malformed input or bad arguments, 4 = numerical failure, which includes
a report number past the float range, with or without ``--json``.  ``search``
exits 0 once the scan completes (hits are data, not an error), 3/4 on bad
input or setup.  ``fixtures`` exits 0 when every replayed fixture matches
its published verdict, 1 otherwise, and 3 on bad arguments.  An output
path that cannot be written is bad input for every command.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .criteria import FinalVerdict, classify
from .documents import (
    FORMAT_VERSION,
    DocumentError,
    MatrixDocument,
    _write,
    build_report_document,
    parse_matrix_document,
    serialize_matrix_document,
    serialize_report_document,
)
from .fixtures import FIXTURE_GROUPS
from .linalg import LinearAlgebraError, ToleranceConfig
from .oracle import (
    OracleOutcome,
    brute_force_uecsm,
    nilpotent3_verdict,
    tener_applicable,
)
from .search import run_search

EXIT_UECSM = 0
EXIT_NOT_UECSM = 1
EXIT_NOT_APPLICABLE = 2
EXIT_BAD_INPUT = 3
EXIT_NUMERICAL = 4

_FINAL_EXIT = {
    FinalVerdict.UECSM: EXIT_UECSM,
    FinalVerdict.NOT_UECSM: EXIT_NOT_UECSM,
    FinalVerdict.NOT_APPLICABLE: EXIT_NOT_APPLICABLE,
}


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.9g}"
    return f"{z.real:.9g}{z.imag:+.9g}i"


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_BAD_INPUT; argparse's 2 is EXIT_NOT_APPLICABLE."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _add_tolerance_args(parser: argparse.ArgumentParser) -> None:
    for field in dataclasses.fields(ToleranceConfig):
        parser.add_argument("--" + field.name.replace("_", "-"), type=float,
                            default=field.default, metavar="TOL",
                            help="ToleranceConfig.%(dest)s (default %(default)g)")


def _config_from_args(args) -> ToleranceConfig:
    return ToleranceConfig(**{field.name: getattr(args, field.name)
                              for field in dataclasses.fields(ToleranceConfig)})


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _print_report(report, label: str | None, n: int) -> None:
    name = label if label else "<unlabelled>"
    print(f"matrix: {name} ({n}x{n})")
    if report.spectrum is not None:
        print("spectrum:", ", ".join(_fmt_complex(z) for z in report.spectrum))
    if report.not_applicable is not None:
        print(f"not applicable: {report.not_applicable.reason}")
    for tv in report.verdicts:
        line = f"{tv.kind:<15} {tv.outcome.value}"
        w = tv.witness
        if w is not None:
            where = f"worst at {w.indices}: " if w.indices else ""
            line += (f"   {where}{_fmt_complex(w.left)} vs "
                     f"{_fmt_complex(w.right)} (gap {w.discrepancy:.3e})")
        print(line)
    print(f"final: {report.final.value}")
    if report.certificate is not None:
        cert = report.certificate
        print("certificate residuals: "
              f"symmetry {cert.residual_symmetry:.3e}, "
              f"unitarity {cert.residual_unitarity:.3e}, "
              f"intertwine {cert.residual_intertwine:.3e}, "
              f"eigvec {cert.residual_eigvec:.3e}")
        print("S =")
        for row in np.asarray(cert.s):
            print("   ", "  ".join(f"{_fmt_complex(z):>22}" for z in row))


def cmd_classify(args) -> int:
    try:
        cfg = _config_from_args(args)
        doc = parse_matrix_document(_read_text(args.matrix))
    except (DocumentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        report = classify(doc.matrix(), cfg)
        oracle = None
        if args.oracle:
            oracle = brute_force_uecsm(doc.matrix(), restarts=args.restarts,
                                       seed=args.seed)
    except LinearAlgebraError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # Both output modes refuse a report that its document cannot hold.
    rdoc = build_report_document(report, n=doc.n, label=doc.label,
                                 cfg=cfg, seed=args.seed, oracle=oracle)
    try:
        text = serialize_report_document(rdoc)
    except ValueError as exc:    # a report number past the float range
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    json_only = args.json == "-"
    if not json_only:
        _print_report(report, doc.label, doc.n)
        if oracle is not None:
            print(f"oracle: {oracle.outcome.value} "
                  f"(best residual {oracle.best_residual:.3e}, "
                  f"{oracle.restarts_used} restarts)")
            criteria_says = report.final.value
            if (oracle.outcome is not OracleOutcome.INCONCLUSIVE
                    and report.final is not FinalVerdict.NOT_APPLICABLE
                    and oracle.outcome.value != criteria_says):
                print(f"warning: oracle disagrees with criteria verdict "
                      f"({oracle.outcome.value} vs {criteria_says})",
                      file=sys.stderr)
    cert = report.certificate
    if cert is not None and not cert.is_valid(cfg):
        print(f"warning: UECSM verdict is not certified: worst certificate "
              f"residual {max(cert.residuals()):.3e} exceeds match_tol "
              f"{cfg.match_tol:.3e}", file=sys.stderr)
    if json_only:
        sys.stdout.write(text)
    elif args.json is not None:
        Path(args.json).write_text(text)
    return _FINAL_EXIT[report.final]


def cmd_search(args) -> int:
    low, high = args.entry_range
    try:
        result = run_search(
            count=args.count, dim=args.dim, entry_low=low, entry_high=high,
            seed=args.seed, cfg=_config_from_args(args), workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    out_dir = Path(args.out_dir)
    hit_files = []
    if result.hits:
        out_dir.mkdir(parents=True, exist_ok=True)
    for hit in result.hits:
        doc = MatrixDocument.from_matrix(hit.matrix, label=f"search-hit-{hit.index}")
        path = out_dir / f"hit-{hit.index:06d}.json"
        path.write_text(serialize_matrix_document(doc))
        hit_files.append(str(path))

    print(f"candidates: {result.candidates}  "
          f"not applicable: {result.not_applicable}  "
          f"breakdown: {result.breakdown}  "
          f"uecsm: {result.uecsm}  not uecsm: {result.not_uecsm}")
    print(f"hits: {len(result.hits)}"
          + (f" -> {', '.join(hit_files)}" if hit_files else ""))
    if args.json is not None:
        summary = {
            "format_version": FORMAT_VERSION,
            "seed": args.seed,
            "count": args.count,
            "dim": args.dim,
            "entry_range": [low, high],
            "not_applicable": result.not_applicable,
            "breakdown": result.breakdown,
            "uecsm": result.uecsm,
            "not_uecsm": result.not_uecsm,
            "hit_indices": [hit.index for hit in result.hits],
            "hit_files": hit_files,
        }
        Path(args.json).write_text(_write(summary))
    return 0


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _fixture_checks(fx, cfg: ToleranceConfig, args):
    """(check, answer, expected, detail) rows replaying one fixture."""
    yield "classify", classify(fx.matrix(), cfg).final.value, fx.expected_final, ""
    if fx.nilpotent_ab is not None:
        verdict = nilpotent3_verdict(*fx.nilpotent_ab, cfg)
        yield "nilpotent", _yes_no(verdict), _yes_no(fx.oracle_expected), ""
    if fx.oracle_expected is not None and fx.expected_final == "NotApplicable":
        verdict = brute_force_uecsm(fx.matrix(), restarts=args.restarts, seed=args.seed)
        expected = OracleOutcome.UECSM if fx.oracle_expected else OracleOutcome.NOT_UECSM
        yield ("oracle", verdict.outcome.value, expected.value,
               f"residual {verdict.best_residual:.2e}")
    if fx.tener is not None:
        applicable, _ = tener_applicable(fx.matrix(), cfg)
        yield "tener", _yes_no(applicable), _yes_no(fx.tener), ""


def cmd_fixtures(args) -> int:
    groups = list(FIXTURE_GROUPS) if args.only == "all" else [args.only]
    cfg = ToleranceConfig()
    all_ok = True
    for group in groups:
        for fx in FIXTURE_GROUPS[group]:
            pieces = []
            for check, answer, expected, detail in _fixture_checks(fx, cfg, args):
                ok = answer == expected
                all_ok &= ok
                suffix = f" [{detail}]" if detail else ""
                pieces.append(f"{check} {answer} {'ok' if ok else 'MISMATCH'}{suffix}")
            print(f"[{group}] {fx.label}: " + "; ".join(pieces))
    print("fixtures:", "all ok" if all_ok else "MISMATCHES FOUND")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uecsm",
        description="Decide unitary equivalence to a complex symmetric matrix",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify one matrix from a matrix document")
    p_classify.add_argument("matrix", help="path to a matrix document ('-' for stdin)")
    p_classify.add_argument("--seed", type=int, default=0,
                            help="oracle restart seed; classification draws no "
                                 "random numbers")
    p_classify.add_argument("--json", default=None, metavar="PATH",
                            help="write the report document here ('-' for stdout)")
    p_classify.add_argument("--oracle", action="store_true",
                            help="also run the unitary-orbit descent oracle")
    p_classify.add_argument("--restarts", type=int, default=32,
                            help="oracle restart budget (with --oracle)")
    _add_tolerance_args(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_search = sub.add_parser(
        "search", help="random search for necessary-tests-blind matrices")
    p_search.add_argument("--count", type=int, required=True)
    p_search.add_argument("--dim", type=int, default=3)
    p_search.add_argument("--entry-range", type=int, nargs=2, default=(-9, 9),
                          metavar=("LO", "HI"))
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--workers", type=int, default=1)
    p_search.add_argument("--out-dir", default="hits",
                          help="directory for hit matrix documents")
    p_search.add_argument("--json", default=None, metavar="PATH",
                          help="write a JSON summary here")
    _add_tolerance_args(p_search)
    p_search.set_defaults(func=cmd_search)

    p_fixtures = sub.add_parser(
        "fixtures", help="replay the reference corpus against published verdicts")
    p_fixtures.add_argument("--only", default="all",
                            choices=["all", *FIXTURE_GROUPS],
                            help="restrict to one fixture group")
    p_fixtures.add_argument("--seed", type=int, default=0,
                            help="oracle restart seed; classification draws no "
                                 "random numbers")
    p_fixtures.add_argument("--restarts", type=int, default=16,
                            help="oracle restart budget for table rows")
    p_fixtures.set_defaults(func=cmd_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "restarts", 1) < 1:
        print(f"error: --restarts must be at least 1, got {args.restarts}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.seed < 0:
        print(f"error: --seed must be nonnegative, got {args.seed}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except OSError as exc:    # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
