from __future__ import annotations

import sys

import pytest

from somos import SequenceBuffer, generate, somos5_spec

SESSION_TERMS = 501


@pytest.fixture(scope="session")
def somos5_values():
    """First 501 Somos-5 terms, generated once per session."""
    return tuple(generate(somos5_spec(), SESSION_TERMS).values())


@pytest.fixture
def somos5_buffer(somos5_values):
    """Factory for fresh full-retention buffers over a Somos-5 prefix."""

    def make(count: int = SESSION_TERMS) -> SequenceBuffer:
        return SequenceBuffer(list(somos5_values[:count]))

    return make


@pytest.fixture
def digit_limit():
    """The interpreter's default 4300-digit int->str limit, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int->str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)
