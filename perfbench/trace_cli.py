"""Run one `somos` CLI command with span wrappers around each layer.

Usage: python trace_cli.py SPANS_JSON ARG...

Imports the package, replaces the public functions of each layer with
wrappers that record a span per call (name, parent span, start, end,
sequence index and a few attributes), rebinds every name in every
`somos.*` module that refers to an original, then calls
`somos.cli.main(ARGS)`.  Spans stay in memory and are written to
SPANS_JSON once the command returns.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

import somos
import somos.certificate
import somos.cli
import somos.coprime
import somos.engine
import somos.formats
import somos.scanner


def _term_bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return abs(value).bit_length()
    return 0  # a NonIntegralEvent: no term was appended


def _step_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else somos.engine.INTEGER)
    return "engine.step_integer" if mode == somos.engine.INTEGER else "engine.step_rational"


# (module, function, span name or namer, sequence index of the call,
#  attributes of the call from (args, result)).
TARGETS = (
    (
        somos.engine,
        "next_term",
        _step_name,
        lambda a: a[0].next_index,
        lambda a, r: {"bits": _term_bits(r)},
    ),
    (somos.engine, "first_recurrence_violation", "engine.recheck", None, None),
    (
        somos.coprime,
        "verify_coprime_window",
        "coprime.window",
        lambda a: a[1],
        lambda a, r: {"failed": int(not r.passed)},
    ),
    (
        somos.coprime,
        "run_lemma_harness",
        "coprime.lemmas",
        None,
        lambda a, r: {"samples": sum(x.samples for x in r.results)},
    ),
    (
        somos.certificate,
        "build_certificate",
        "certificate.build",
        lambda a: a[1],
        lambda a, r: {"invalid": int(not r.valid), "modulus_bits": abs(r.modulus).bit_length()},
    ),
    (somos.certificate, "check_index_shifts", "certificate.shifts", lambda a: a[1], None),
    (somos.scanner, "scan_integrality", "scanner.scan", None, None),
    (somos.scanner, "scan_coprimality", "scanner.scan", None, None),
    (somos.formats, "emit_bfile", "formats.emit", None, lambda a, r: {"bytes": len(r)}),
    (somos.formats, "emit_terms_json", "formats.emit", None, lambda a, r: {"bytes": len(r)}),
    (somos.formats, "emit_report_json", "formats.emit", None, lambda a, r: {"bytes": len(r)}),
    (somos.formats, "parse_bfile", "formats.parse", None, lambda a, r: {"bytes": len(a[0])}),
    (
        somos.formats,
        "to_decimal",
        "formats.decimal",
        None,
        lambda a, r: {"digits": len(r.lstrip("-"))},
    ),
    (
        somos.formats,
        "from_decimal",
        "formats.decimal",
        None,
        lambda a, r: {"digits": len(a[0].strip().lstrip("+-"))},
    ),
    (somos.cli, "main", "cli.main", None, lambda a, r: {"exit": r}),
)


class Tracer:
    """In-memory span log: [name, parent, start, end, index, attrs] per call.

    parent is the position of the enclosing span in the log, or None.  A
    call that raises keeps attrs None.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, index_of, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                name if isinstance(name, str) else name(args, kwargs),
                self._stack[-1] if self._stack else None,
                0.0,
                0.0,
                index_of(args) if index_of else None,
                None,
            ]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if attrs_of:
                span[5] = attrs_of(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "somos"]
        for module, attr, name, index_of, attrs_of in TARGETS:
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, index_of, attrs_of)
            for each in modules:
                for key, value in list(vars(each).items()):
                    if value is original:
                        setattr(each, key, wrapper)


def main(argv) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = somos.cli.main(command)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
