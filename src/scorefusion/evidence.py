"""Frames of discernment, hypothesis sets, and mass functions.

A mass function (basic probability assignment) spreads one unit of belief
over subsets of a frame. Belief and plausibility derive the lower and upper
probability bounds of any hypothesis set from it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from math import fsum, inf, isfinite

from .errors import (
    DuplicateSet,
    EmptySetMass,
    ForeignSet,
    InvalidValue,
    NegativeMass,
    NonFiniteMass,
    NotNormalized,
    clipped,
    clipped_text,
    printable,
)
from .kernel import NORMALIZATION_TOLERANCE, normalize

# Subset queries enumerate focal elements, but tooling (and tests) may walk
# the full power set, so keep 2^N bounded.
MAX_FRAME_SIZE = 20


class Frame(namedtuple("Frame", "labels")):
    """Ordered universe of mutually exclusive hypotheses."""

    __slots__ = ()

    def __new__(cls, labels: Iterable[str]) -> Frame:
        labels = tuple(labels)
        if not labels:
            raise InvalidValue("a frame needs at least one hypothesis")
        if len(labels) > MAX_FRAME_SIZE:
            raise InvalidValue(
                f"frame has {len(labels)} hypotheses, cap is {MAX_FRAME_SIZE}"
            )
        if any(not isinstance(label, str) or not label for label in labels):
            raise InvalidValue("hypothesis labels must be non-empty strings")
        if len(set(labels)) != len(labels):
            raise InvalidValue(f"hypothesis labels must be unique, got {labels}")
        return tuple.__new__(cls, (labels,))

    # What _replace builds with, so that it checks what the constructor checks.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidValue(f"unknown hypothesis {clipped(label)}") from None

    def subset(self, labels: Iterable[str]) -> "HypothesisSet":
        """The hypothesis set containing exactly the given labels."""
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return HypothesisSet(self, mask)

    def singleton(self, label: str) -> "HypothesisSet":
        return HypothesisSet(self, 1 << self.index(label))

    @property
    def empty(self) -> "HypothesisSet":
        return HypothesisSet(self, 0)

    @property
    def omega(self) -> "HypothesisSet":
        """The full set: every hypothesis in the frame."""
        return HypothesisSet(self, (1 << self.size) - 1)


class HypothesisSet(namedtuple("HypothesisSet", "frame mask")):
    """A member of the frame's power set, stored as an inclusion bitmask.

    Bit i is set when the frame's i-th hypothesis is a member. ``len`` is
    the number of members.
    """

    __slots__ = ()

    def __new__(cls, frame: Frame, mask: int) -> HypothesisSet:
        if not isinstance(mask, int):
            raise InvalidValue(f"mask must be an int, got {clipped(mask)}")
        if not 0 <= mask < (1 << frame.size):
            text = clipped_text(hex(mask))
            raise InvalidValue(f"mask {text} does not fit a frame of {frame.size}")
        return tuple.__new__(cls, (frame, mask))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(
            label for i, label in enumerate(self.frame.labels) if self.mask >> i & 1
        )

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_singleton(self) -> bool:
        return self.mask.bit_count() == 1

    def complement(self) -> "HypothesisSet":
        return HypothesisSet(self.frame, self.mask ^ (1 << self.frame.size) - 1)

    def __repr__(self) -> str:
        return f"HypothesisSet({{{', '.join(self.labels)}}})"


class BeliefInterval(namedtuple("BeliefInterval", "bel pl")):
    """Lower (bel) and upper (pl) bound on the probability of a hypothesis set.

    The width pl - bel is the ignorance about the set: mass that neither
    supports nor contradicts it.
    """

    __slots__ = ()

    def __new__(cls, bel: float, pl: float) -> BeliefInterval:
        if not 0.0 <= bel <= pl <= 1.0:
            raise InvalidValue(
                f"invalid belief interval [{printable(bel)!r}, {printable(pl)!r}]"
            )
        return tuple.__new__(cls, (bel, pl))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def width(self) -> float:
        return self.pl - self.bel


class MassFunction:
    """A validated basic probability assignment over a frame's power set.

    Construction enforces the mass axioms: no negative or non-finite mass
    (NaN, inf), zero mass on the empty set, and a total of one (within
    NORMALIZATION_TOLERANCE, after which the stored values are rescaled so
    they sum to exactly 1.0). Zero entries are dropped, so iterating with
    :meth:`focal` yields exactly the focal elements. Instances are immutable
    values; all queries are pure.
    """

    __slots__ = ("_frame", "_masses")

    def __init__(
        self,
        frame: Frame,
        assignments: Mapping[HypothesisSet, float] | Iterable[tuple[HypothesisSet, float]],
    ) -> None:
        if isinstance(assignments, Mapping):
            pairs = list(assignments.items())
        else:
            pairs = list(assignments)
        masses: dict[HypothesisSet, float] = {}
        seen: set[HypothesisSet] = set()
        for hset, raw in pairs:
            if hset.frame != frame:
                raise ForeignSet(
                    f"set over frame {hset.frame.labels} does not belong to frame {frame.labels}"
                )
            if hset in seen:
                raise DuplicateSet(f"duplicate assignment for {hset!r}")
            seen.add(hset)
            try:
                value = float(raw)
            except OverflowError:  # an int too large for a float
                value = inf if raw > 0 else -inf
            if not isfinite(value):
                raise NonFiniteMass(f"mass {value!r} on {hset!r} is not finite")
            if value < 0.0:
                raise NegativeMass(f"mass {value!r} on {hset!r} is negative")
            if hset.is_empty:
                if value != 0.0:
                    raise EmptySetMass(f"empty set carries mass {value!r}, must be 0")
                continue
            masses[hset] = value
        ordered = sorted(masses, key=lambda hset: hset.mask)
        total, values = normalize([masses[hset] for hset in ordered])
        if values is None:
            raise NotNormalized(
                f"masses sum to {total!r}, expected 1 within {NORMALIZATION_TOLERANCE}"
            )
        self._frame = frame
        self._masses = {h: v for h, v in zip(ordered, values) if v > 0.0}

    @classmethod
    def vacuous(cls, frame: Frame) -> "MassFunction":
        """Total ignorance: the whole unit of mass on the full set."""
        return cls(frame, [(frame.omega, 1.0)])

    @property
    def frame(self) -> Frame:
        return self._frame

    def focal(self) -> tuple[tuple[HypothesisSet, float], ...]:
        """The focal elements (sets with strictly positive mass), in mask order."""
        return tuple(self._masses.items())

    def mass(self, a: HypothesisSet) -> float:
        self._require_same_frame(a)
        return self._masses.get(a, 0.0)

    def belief(self, a: HypothesisSet) -> float:
        """Total mass committed to subsets of ``a``: the lower probability bound."""
        self._require_same_frame(a)
        return fsum(v for h, v in self._masses.items() if h.mask & ~a.mask == 0)

    def plausibility(self, a: HypothesisSet) -> float:
        """Total mass not contradicting ``a``: the upper probability bound.

        Sums every focal element that intersects ``a``; equivalently
        1 - belief(complement of a).
        """
        self._require_same_frame(a)
        return fsum(v for h, v in self._masses.items() if h.mask & a.mask)

    def interval(self, a: HypothesisSet) -> BeliefInterval:
        return BeliefInterval(self.belief(a), self.plausibility(a))

    def is_bayesian(self) -> bool:
        """True when every focal element is a singleton, so bel and pl coincide."""
        return all(h.is_singleton for h in self._masses)

    def _require_same_frame(self, a: HypothesisSet) -> None:
        if a.frame != self._frame:
            raise ForeignSet(
                f"set over frame {a.frame.labels} does not belong to frame {self._frame.labels}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self._frame == other._frame and self._masses == other._masses

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(f"{h!r}: {v!r}" for h, v in self._masses.items())
        return f"MassFunction({{{body}}})"


# The binary frame that fraud scoring fuses over, and its fraud, genuine and
# either sets: the sets a mass triple's values go on, in order.
FRAUD_FRAME = Frame(("fraud", "genuine"))
_TRIPLE_SETS = (*map(FRAUD_FRAME.singleton, FRAUD_FRAME.labels), FRAUD_FRAME.omega)


def fraud_mass(fraud: float, genuine: float, either: float) -> MassFunction:
    """FRAUD_FRAME's mass function with these masses on its three sets."""
    return MassFunction(FRAUD_FRAME, zip(_TRIPLE_SETS, (fraud, genuine, either)))


def mass_triple(fraud: float, genuine: float, either: float) -> tuple[float, float, float]:
    """The masses as FRAUD_FRAME's mass function stores them: validated, and
    rescaled to sum to exactly 1. How ``combine`` reads a source, and the
    reference a rule's compiled triple is pinned to; raises the mass
    function's FusionError."""
    return tuple(map(fraud_mass(fraud, genuine, either).mass, _TRIPLE_SETS))
