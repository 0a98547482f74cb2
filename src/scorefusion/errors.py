"""Domain errors. Everything this package raises on bad input derives from FusionError."""


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
