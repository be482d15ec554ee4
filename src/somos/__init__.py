"""Exact arithmetic for Somos-type bilinear recurrences and their verified claims.

The package generates Somos-k sequences exactly (integer or rational
mode), verifies that every Somos-5 term is coprime to its four
predecessors, and re-derives per-index divisibility certificates showing
a_{n-5} divides a_{n-1}a_{n-4} + a_{n-2}a_{n-3}, which is why the
sequence stays integral.
"""

from .certificate import (
    CERTIFICATE_START,
    ChainStep,
    DivisibilityCertificate,
    IndexShiftIdentity,
    build_certificate,
    certify_range,
    check_index_shifts,
)
from .coprime import (
    CoprimeWindowReport,
    LemmaCheckResult,
    LemmaHarnessReport,
    VerificationReport,
    check_lemma_cancellation,
    check_lemma_pairwise,
    check_lemma_product,
    check_lemma_shift,
    gcd,
    run_lemma_harness,
    verify_coprime_range,
    verify_coprime_window,
    verify_recurrence_and_windows,
)
from .engine import (
    INTEGER,
    RATIONAL,
    NonIntegralEvent,
    SequenceBuffer,
    SequenceSpec,
    as_integer,
    digit_count,
    first_recurrence_violation,
    generate,
    new_state,
    next_term,
    somos5_spec,
)
from .errors import (
    GapError,
    IndexOutOfRangeError,
    InvalidSpecError,
    NonIntegralTermError,
    ParseError,
    SomosError,
    ZeroDenominatorError,
)
from .formats import (
    BFile,
    buffer_from_bfile,
    emit_bfile,
    emit_report_json,
    emit_terms_json,
    parse_bfile,
)
from .scanner import (
    BreakdownReport,
    NoncoprimeWitness,
    scan_coprimality,
    scan_integrality,
    somos_k_spec,
)

__version__ = "0.1.0"

__all__ = [
    "BFile",
    "BreakdownReport",
    "CERTIFICATE_START",
    "ChainStep",
    "CoprimeWindowReport",
    "DivisibilityCertificate",
    "GapError",
    "INTEGER",
    "IndexOutOfRangeError",
    "IndexShiftIdentity",
    "InvalidSpecError",
    "LemmaCheckResult",
    "LemmaHarnessReport",
    "NonIntegralEvent",
    "NonIntegralTermError",
    "NoncoprimeWitness",
    "ParseError",
    "RATIONAL",
    "SequenceBuffer",
    "SequenceSpec",
    "SomosError",
    "VerificationReport",
    "ZeroDenominatorError",
    "as_integer",
    "buffer_from_bfile",
    "build_certificate",
    "certify_range",
    "check_index_shifts",
    "check_lemma_cancellation",
    "check_lemma_pairwise",
    "check_lemma_product",
    "check_lemma_shift",
    "digit_count",
    "emit_bfile",
    "emit_report_json",
    "emit_terms_json",
    "first_recurrence_violation",
    "gcd",
    "generate",
    "new_state",
    "next_term",
    "parse_bfile",
    "run_lemma_harness",
    "scan_coprimality",
    "scan_integrality",
    "somos5_spec",
    "somos_k_spec",
    "verify_coprime_range",
    "verify_coprime_window",
    "verify_recurrence_and_windows",
]
