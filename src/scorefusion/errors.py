"""Domain errors. Everything this package raises on bad input derives from FusionError."""

import sys

LARGEST = sys.float_info.max  # in_range's ``high`` for a number that need only be finite


class FusionError(ValueError):
    """Base class for all scorefusion errors."""


class InvalidValue(FusionError):
    """A value breaks a constructor's or function's precondition."""


class NegativeMass(FusionError):
    """A mass assignment carries a negative value."""


class NonFiniteMass(FusionError):
    """A mass assignment carries NaN or an infinity."""


class EmptySetMass(FusionError):
    """Nonzero mass was assigned to the empty set."""


class NotNormalized(FusionError):
    """Masses do not sum to one within tolerance."""


class DuplicateSet(FusionError):
    """The same hypothesis set appears twice in a mass assignment."""


class ForeignSet(FusionError):
    """A hypothesis set belongs to a different frame than the mass function."""


class FrameMismatch(FusionError):
    """Two mass functions being combined live on different frames."""


class TotalConflict(FusionError):
    """Combination discarded (almost) all mass; the normalizer is degenerate."""


class ModeUnsupported(FusionError):
    """The requested combination mode does not apply to this frame."""


class EmptyInput(FusionError):
    """An operation that needs at least one element received none."""


class EmptyHistory(FusionError):
    """A labeled history contains no transactions."""


class DegenerateClass(FusionError):
    """Unsmoothed fitting needs at least one transaction of each class."""


class UnknownEvidence(FusionError):
    """An evidence id is not present in the fitted model."""


class ZeroMarginal(FusionError):
    """Both class products vanished; the posterior is undefined."""


class NonPositiveLikelihood(FusionError):
    """Log-space fusion met a zero or negative likelihood or prior."""


class UnknownRule(FusionError):
    """A transaction triggered a rule id that is not configured."""


class NoEvidence(FusionError):
    """A transaction triggered no rules, so there is nothing to fuse."""


class ParseError(FusionError):
    """An input file or flag could not be parsed; the message names the location."""


def printable(value: object) -> object:
    """``value`` as an error message prints it: an int too large for a float
    becomes ``inf`` or ``-inf``, as RuleSpec and MassFunction print one,
    because ``repr`` of an int past Python's 4300-digit limit raises
    ValueError. Anything else is returned as is."""
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return float("inf") if value > 0 else float("-inf")
    return value


def clipped(value: object) -> str:
    """``repr(printable(value))`` through :func:`clipped_text`, as a message shows a user value."""
    return clipped_text(repr(printable(value)))


def clipped_text(text: str) -> str:
    """``text``'s first 60 characters, then ``...`` and its full length, when
    it is longer. So a message stays one short line however long the value."""
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def in_range(what: str, value: object, high: float) -> float:
    """``value`` as a float once ``0 <= value <= high`` holds, else InvalidValue
    naming ``what``: ``high`` is 1.0 for a probability or a threshold and
    LARGEST for a mass or a smoothing. That one comparison also fails NaN, an
    infinity and an int too large for a float. A zero is returned as 0.0, -0.0
    too, so that no report or model file prints its sign."""
    if not 0.0 <= value <= high:
        rule = "be in [0, 1]" if high == 1.0 else "be finite and >= 0"
        raise InvalidValue(f"{what} must {rule}, got {printable(value)!r}")
    return float(value) + 0.0
