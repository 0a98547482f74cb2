"""Frames of discernment, hypothesis sets, and mass functions.

A mass function (basic probability assignment) spreads one unit of belief
over subsets of a frame. Belief and plausibility derive the lower and upper
probability bounds of any hypothesis set from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf, isfinite
from typing import Iterable, Mapping

from .errors import (
    DuplicateSet,
    EmptySetMass,
    ForeignSet,
    InvalidValue,
    NegativeMass,
    NonFiniteMass,
    NotNormalized,
)
from .kernel import NORMALIZATION_TOLERANCE, rescale_exact

# Subset queries enumerate focal elements, but tooling (and tests) may walk
# the full power set, so keep 2^N bounded.
MAX_FRAME_SIZE = 20


@dataclass(frozen=True)
class Frame:
    """Ordered universe of mutually exclusive hypotheses."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
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

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidValue(f"unknown hypothesis {label!r}") from None

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


@dataclass(frozen=True)
class HypothesisSet:
    """A member of the frame's power set, stored as an inclusion bitmask.

    Bit i is set when the frame's i-th hypothesis is a member.
    """

    frame: Frame
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.frame.size):
            raise InvalidValue(
                f"mask {self.mask:#x} does not fit a frame of {self.frame.size}"
            )

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


@dataclass(frozen=True)
class BeliefInterval:
    """Lower (bel) and upper (pl) bound on the probability of a hypothesis set.

    The width pl - bel is the ignorance about the set: mass that neither
    supports nor contradicts it.
    """

    bel: float
    pl: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.bel <= self.pl <= 1.0:
            raise InvalidValue(f"invalid belief interval [{self.bel!r}, {self.pl!r}]")

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
            value = float(raw)
            if not isfinite(value):
                raise NonFiniteMass(f"mass {value!r} on {hset!r} is not finite")
            if value < 0.0:
                raise NegativeMass(f"mass {value!r} on {hset!r} is negative")
            if hset.is_empty:
                if value != 0.0:
                    raise EmptySetMass(f"empty set carries mass {value!r}, must be 0")
                continue
            masses[hset] = value
        try:
            total = fsum(masses.values())
        except OverflowError:  # finite masses, infinite sum: not normalized
            total = inf
        if abs(total - 1.0) > NORMALIZATION_TOLERANCE:
            raise NotNormalized(
                f"masses sum to {total!r}, expected 1 within {NORMALIZATION_TOLERANCE}"
            )
        focal = {
            h: v
            for h, v in sorted(masses.items(), key=lambda item: item[0].mask)
            if v > 0.0
        }
        if total != 1.0:
            focal = dict(zip(focal, rescale_exact(list(focal.values()), total)))
        self._frame = frame
        self._masses = focal

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

