"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: precondition/usage problems exit 2,
numeric-contract violations exit 3, failed verification suites exit 4.
"""

from __future__ import annotations


class UnifLabError(Exception):
    """Base class for all package errors."""


class SequenceRangeError(UnifLabError):
    """An index or interval falls outside a sequence's valid range."""


class IncompatibleRangeError(UnifLabError):
    """Two operand sequences have no common valid range."""


class DuplicateFrequencyError(UnifLabError):
    """A trigonometric polynomial lists the same frequency twice."""


class FrequencyGridMismatch(UnifLabError):
    """A frequency is not on the N-point cyclic grid (within 1e-12)."""


class NegativityViolation(UnifLabError):
    """A box-norm average came out non-finite or below -1e-9*M.

    M = max|a|^(2^k) over the samples the average read; dips within 1e-9*M
    are clamped.  At H < N the uniform h average is not a
    positive-definite kernel, so legitimate input can land here; in cyclic
    mode at H = N the average is a sum of squares and cannot.
    """


class SupBoundViolation(UnifLabError):
    """An operation requiring |a_n| <= 1 read a sample above 1, or NaN."""


class GeneratorSpecError(UnifLabError):
    """A generator spec string does not parse."""
