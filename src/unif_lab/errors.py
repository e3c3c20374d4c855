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
    """A box-norm average came out non-finite, or more negative than
    truncation noise allows.

    Averages may dip below zero by at most 1e-9 (that much is clamped);
    anything worse indicates a bug or a misuse of the estimator.
    """


class SupBoundViolation(UnifLabError):
    """An operation requiring |a_n| <= 1 received a sequence with a larger bound."""


class GeneratorSpecError(UnifLabError):
    """A generator spec string does not parse."""
