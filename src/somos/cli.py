"""Command-line front end.

Every command returns (result, passed): the report, certificate or
harness result it computed, and whether its claim held.  main alone
prints the result, as JSON under --format json and as text lines
otherwise (both laid out by formats), and maps it to the exit code:
0 all checks pass, 1 a verified claim failed (witness printed), 2 usage
or configuration error.  Defaults reproduce the classic setting, so
`somos generate`, `somos verify` and `somos certify` with no flags
re-establish term reproduction, the coprimality windows and the
divisibility certificates in one command each.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .bigint import term_text, to_decimal
from .certificate import CERTIFICATE_START, build_certificate, certify_range
from .coprime import (
    DEFAULT_BOUND,
    DEFAULT_SAMPLES,
    first_failure,
    run_lemma_harness,
    verify_recurrence_and_windows,
)
from .engine import INTEGER, RATIONAL, generate, somos5_spec, somos_k_spec, window_start
from .errors import NonIntegralTermError, SomosError
from .formats import emit_bfile, emit_report_json, emit_report_text, emit_terms_json, parse_bfile
from .scanner import scan_coprimality, scan_integrality

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="somos",
        description="Exact Somos-type sequence generation and claim verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit sequence terms")
    p.add_argument("--k", type=int, default=5, help="recurrence order (default 5)")
    p.add_argument("--count", type=int, default=12, help="number of terms (default 12)")
    p.add_argument("--mode", choices=(INTEGER, RATIONAL), default=INTEGER)
    p.add_argument("--format", choices=("text", "json", "bfile"), default="text")
    p.add_argument("--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check coprimality windows and the recurrence identity")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--count", type=int, default=1000, help="cover n < count (default 1000)")
    p.add_argument("--depth", type=int, default=4, help="predecessor window depth (default 4)")
    p.add_argument("--input", help="verify terms from a b-file instead of generating")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="build divisibility certificates (order 5 only)")
    p.add_argument("--count", type=int, default=500, help="certify n in [10, count) (default 500)")
    p.add_argument("--index", type=int, help="emit the single certificate at this index")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("lemmas", help="run the randomized gcd-fact suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("scan", help="probe integrality/coprimality of Somos-k")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--count", type=int, default=100, help="terms to scan (default 100)")
    p.add_argument(
        "--depth", type=int, default=4, help="coprimality depth; 0 scans integrality only"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("crosscheck", help="compare generated terms against a b-file")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--count", type=int, help="compare n < count (default: cover the file)")
    p.add_argument("--input", required=True, help="b-file to compare against")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            result, passed = args.func(args)
        except NonIntegralTermError as exc:
            result, passed = exc.event, False
        if result is not None:
            print(emit_report_json(result) if args.format == "json" else emit_report_text(result))
    except (SomosError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args):
    spec = somos_k_spec(args.k)
    buffer = generate(spec, args.count, mode=args.mode)
    if args.format == "bfile":
        _write(emit_bfile(buffer), args.output)
    elif args.format == "json":
        _write(emit_terms_json(buffer, name=spec.name) + "\n", args.output)
    else:
        _write("".join(term_text(v) + "\n" for _, v in buffer.items()), args.output)
    return None, True


def cmd_verify(args):
    spec = somos_k_spec(args.k)
    if spec.order != 5:
        print(
            "note: the verified claims cover order 5 with all-ones initials; "
            "results for this spec are reported, not guaranteed",
            file=sys.stderr,
        )
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            parsed = parse_bfile(handle.read())
        buffer = parsed.below(args.count)
        first = parsed.start_index  # the buffer starts at count when the file starts past it
    else:
        buffer = generate(spec, args.count, INTEGER, record=True)
        first = buffer.start_index

    report = verify_recurrence_and_windows(buffer, spec, args.depth)
    if report.checked == 0 and args.format == "text":
        start = window_start(first, args.depth)
        print(f"note: range below coprime window start (n = {start}); zero windows")
    return report, report.passed


def cmd_certify(args):
    if args.count < 0:
        raise ValueError(f"count must be non-negative, got {args.count}")
    spec = somos5_spec()
    if args.index is not None:
        buffer = generate(spec, max(args.index, 0), mode=INTEGER)  # n < 10: build_certificate's error
        certificate = build_certificate(buffer, args.index)
        return certificate, certificate.valid

    report = certify_range(generate(spec, args.count, INTEGER, record=True))
    if report.checked == 0 and args.format == "text":
        print(f"note: range below certificate start (n = {CERTIFICATE_START}); zero certificates")
    return report, report.passed


def cmd_lemmas(args):
    report = run_lemma_harness(seed=args.seed, samples=args.samples, bound=args.bound)
    return report, report.passed


def cmd_scan(args):
    spec = somos_k_spec(args.k)
    if args.count < spec.order:
        raise ValueError(f"--count must be at least the order {spec.order}, got {args.count}")
    if args.depth == 0:
        report = scan_integrality(spec, args.count)
    else:
        report = scan_coprimality(spec, args.count, depth=args.depth)
    return report, report.first_nonintegral is None and report.first_noncoprime is None


def cmd_crosscheck(args):
    with open(args.input, "r", encoding="utf-8") as handle:
        fixture = parse_bfile(handle.read()).below(args.count)
    spec = somos_k_spec(args.k)
    stop = fixture.next_index
    buffer = generate(spec, max(stop, 0), mode=INTEGER)  # stop < 0: an empty range

    def mismatch(n):
        generated, expected = buffer.term(n), fixture.term(n)
        if generated == expected:
            return None
        return f"generated {to_decimal(generated)} != fixture {to_decimal(expected)}"

    report = first_failure("crosscheck", max(fixture.start_index, 0), stop, mismatch)
    return report, report.passed


if __name__ == "__main__":
    raise SystemExit(main())
