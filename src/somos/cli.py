"""Command-line front end.

Exit codes: 0 all checks pass, 1 a verified claim failed (witness
printed), 2 usage or configuration error.  Defaults reproduce the
classic setting, so `somos generate`, `somos verify` and `somos certify`
with no flags re-establish term reproduction, the coprimality windows
and the divisibility certificates in one command each.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .certificate import CERTIFICATE_START, build_certificate, certify_range
from .coprime import (
    DEFAULT_BOUND,
    DEFAULT_SAMPLES,
    VerificationReport,
    run_lemma_harness,
    verify_recurrence_and_windows,
    window_start,
)
from .engine import (
    INTEGER,
    RATIONAL,
    SequenceBuffer,
    generate,
    somos5_spec,
)
from .errors import NonIntegralTermError, SomosError
from .formats import (
    emit_bfile,
    emit_report_json,
    emit_terms_json,
    parse_bfile,
    term_text,
    to_decimal,
)
from .scanner import scan_coprimality, scan_integrality, somos_k_spec

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
        return args.func(args)
    except SomosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _print_event(event) -> None:
    print(
        f"non-integral term at index {event.index}: "
        f"numerator {to_decimal(event.numerator)}, "
        f"denominator {to_decimal(event.denominator)}, "
        f"remainder {to_decimal(event.remainder)}"
    )


def _scope_note(spec) -> None:
    if spec.order != 5 or not spec.all_ones_initials():
        print(
            "note: the verified claims cover order 5 with all-ones initials; "
            "results for this spec are reported, not guaranteed",
            file=sys.stderr,
        )


def _print_report(report: VerificationReport, fmt: str) -> None:
    if fmt == "json":
        print(emit_report_json(report))
        return
    status = "pass" if report.passed else "FAIL"
    line = f"{report.check} over n in [{report.start}, {report.stop}): {report.checked} checked, {status}"
    if not report.passed:
        line += f"; first failure at n = {report.first_failure_index} ({report.first_failure_reason})"
    print(line)


def _check_count(count: int) -> None:
    """--count on a b-file input bounds the file's indices covered: n < count."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")


def cmd_generate(args) -> int:
    spec = somos_k_spec(args.k)
    try:
        buffer = generate(spec, args.count, mode=args.mode)
    except NonIntegralTermError as exc:
        _print_event(exc.event)
        return EXIT_CHECK_FAILED
    if args.format == "bfile":
        _write(emit_bfile(buffer), args.output)
    elif args.format == "json":
        _write(emit_terms_json(buffer, name=spec.name) + "\n", args.output)
    else:
        _write("".join(term_text(v) + "\n" for _, v in buffer.items()), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = somos_k_spec(args.k)
    _scope_note(spec)
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            entries = parse_bfile(handle.read()).entries
        # A file that starts past the bound leaves the empty range [count, count).
        _check_count(args.count)
        start = min(entries[0][0] if entries else 0, args.count)
        buffer = SequenceBuffer([v for i, v in entries if i < args.count], start_index=start)
    else:
        try:
            buffer = generate(spec, args.count, mode=INTEGER)
        except NonIntegralTermError as exc:
            _print_event(exc.event)
            return EXIT_CHECK_FAILED

    report = verify_recurrence_and_windows(buffer, spec, depth=args.depth)
    if report.checked == 0 and args.format == "text":
        start = window_start(buffer, args.depth)
        print(f"note: range below coprime window start (n = {start}); zero windows")
    _print_report(report, args.format)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_certify(args) -> int:
    spec = somos5_spec()
    if args.index is not None:
        buffer = generate(spec, max(args.index, spec.order), mode=INTEGER)
        certificate = build_certificate(buffer, args.index)
        if args.format == "json":
            print(emit_report_json(certificate))
        else:
            status = "valid" if certificate.valid else "INVALID"
            print(
                f"certificate n = {certificate.index}: {status} "
                f"(precondition gcd {to_decimal(certificate.precondition_gcd)}, "
                f"residue {to_decimal(certificate.numerator_residue)})"
            )
        return EXIT_OK if certificate.valid else EXIT_CHECK_FAILED

    buffer = generate(spec, max(args.count, spec.order), mode=INTEGER)
    report = certify_range(buffer, CERTIFICATE_START, args.count)
    if report.checked == 0 and args.format == "text":
        print(f"note: range below certificate start (n = {CERTIFICATE_START}); zero certificates")
    _print_report(report, args.format)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_lemmas(args) -> int:
    report = run_lemma_harness(seed=args.seed, samples=args.samples, bound=args.bound)
    if args.format == "json":
        print(emit_report_json(report))
    else:
        for result in report.results:
            print(
                f"{result.lemma}: {result.samples} samples, {result.failures} counterexamples"
            )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_scan(args) -> int:
    spec = somos_k_spec(args.k)
    if args.depth == 0:
        report = scan_integrality(spec, args.count)
    else:
        report = scan_coprimality(spec, args.count, depth=args.depth)
    if args.format == "json":
        print(emit_report_json(report))
    else:
        print(f"scanned {spec.name} for {report.terms_checked} terms")
        if report.first_nonintegral is not None:
            _print_event(report.first_nonintegral)
        else:
            print("all terms integral")
        if report.depth is not None:
            if report.first_noncoprime is not None:
                w = report.first_noncoprime
                print(
                    f"first common factor at index {w.index}, offset {w.offset}: "
                    f"gcd = {to_decimal(w.gcd)}"
                )
            else:
                print(f"no common factors up to depth {report.depth}")
    found = report.first_nonintegral is not None or report.first_noncoprime is not None
    return EXIT_CHECK_FAILED if found else EXIT_OK


def cmd_crosscheck(args) -> int:
    with open(args.input, "r", encoding="utf-8") as handle:
        bfile = parse_bfile(handle.read())
    if args.count is not None:
        _check_count(args.count)
    if not bfile.entries:
        print("fixture is empty; nothing to compare")
        return EXIT_OK
    spec = somos_k_spec(args.k)
    file_start = bfile.entries[0][0]
    file_stop = bfile.entries[-1][0] + 1
    count = args.count if args.count is not None else file_stop
    try:
        buffer = generate(spec, max(count, spec.order), mode=INTEGER)
    except NonIntegralTermError as exc:
        _print_event(exc.event)
        return EXIT_CHECK_FAILED

    # The entries are consecutive, so the overlap with n < count is a slice;
    # a start past the stop is clamped to it, as verify and certify do.
    hi = min(file_stop, count)
    lo = min(max(file_start, buffer.start_index), hi)
    overlap = bfile.entries[lo - file_start : hi - file_start]
    index, value = next(((i, v) for i, v in overlap if buffer.term(i) != v), (None, None))
    report = VerificationReport(
        check="crosscheck",
        start=lo,
        stop=hi,
        checked=hi - lo if index is None else index - lo + 1,
        passed=index is None,
        first_failure_index=index,
        first_failure_reason=None if index is None else (
            f"generated {to_decimal(buffer.term(index))} != fixture {to_decimal(value)}"
        ),
    )
    _print_report(report, args.format)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
