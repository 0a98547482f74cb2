"""Dempster's rule of combination, with conflict tracking and an alternative
binary-frame pooling mode.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from math import fsum

from .errors import EmptyInput, FrameMismatch, ModeUnsupported, TotalConflict
from .evidence import Frame, HypothesisSet, MassFunction

# The binary kernel lives in its own module, so that scoring can load it
# alone; these names stay importable from here.
from .kernel import TOTAL_CONFLICT_LIMIT, CombinationMode, combine_binary  # noqa: F401


class CombinationResult(namedtuple("CombinationResult", "mass conflict step_conflicts")):
    """A fused mass plus the conflict that was discarded while fusing.

    ``conflict`` is the total discarded mass across the whole fold,
    1 - prod(1 - K_i); ``step_conflicts`` holds each pairwise K in fold order.
    """

    __slots__ = ()


def conflict(m1: MassFunction, m2: MassFunction) -> float:
    """The degree of conflict K: total product mass on empty intersections."""
    _require_common_frame(m1, m2)
    return fsum(
        mb * mc
        for b, mb in m1.focal()
        for c, mc in m2.focal()
        if b.mask & c.mask == 0
    )


def combine_pair(
    m1: MassFunction,
    m2: MassFunction,
    mode: CombinationMode = CombinationMode.STANDARD,
) -> CombinationResult:
    """Fuse two sources, normalizing the surviving products by 1 - K.

    Iterates focal elements only, accumulating each target cell separately so
    results are reproducible to the last bit against a full-grid reference.
    """
    frame = _require_common_frame(m1, m2)
    _require_mode_fits(mode, frame)
    full = (1 << frame.size) - 1
    cells: dict[int, list[float]] = {}
    clashes: list[float] = []
    for b, mb in m1.focal():
        for c, mc in m2.focal():
            product = mb * mc
            inter = b.mask & c.mask
            if inter == 0:
                clashes.append(product)
            elif mode is CombinationMode.STANDARD:
                cells.setdefault(inter, []).append(product)
            elif b.mask == c.mask and b.is_singleton:
                cells.setdefault(b.mask, []).append(product)
            else:
                cells.setdefault(full, []).append(product)
    k = fsum(clashes)
    if k >= TOTAL_CONFLICT_LIMIT:
        raise TotalConflict(f"sources are in total conflict (K = {k!r})")
    normalizer = 1.0 - k
    combined = MassFunction(
        frame,
        [
            (HypothesisSet(frame, mask), fsum(products) / normalizer)
            for mask, products in sorted(cells.items())
        ],
    )
    return CombinationResult(combined, k, (k,))


def combine_all(
    masses: Iterable[MassFunction],
    mode: CombinationMode = CombinationMode.STANDARD,
) -> CombinationResult:
    """Left-fold :func:`combine_pair` over the sources.

    Standard mode is associative and commutative in exact arithmetic, so it
    folds the sources in a canonical order (see :func:`_fold_key`): the
    result, the step conflicts and whether some step meets total conflict
    then do not depend on the input order, to the last bit. A step's K does
    depend on the order: certain-genuine evidence met after two fraud masses
    of 1 - 1e-7 meets K = 1 - 1e-14, a total conflict, while met first it
    meets K = 1 - 1e-7 twice. Simplified mode is not associative; its fold
    order is defined to be the input order. ``step_conflicts`` records each
    step in fold order.
    """
    sources = list(masses)
    if not sources:
        raise EmptyInput("need at least one mass function to combine")
    _require_mode_fits(mode, sources[0].frame)
    if mode is CombinationMode.STANDARD:
        sources.sort(key=_fold_key)
    combined = sources[0]
    steps: list[float] = []
    total = 0.0  # 1 - prod(1 - K), without subtracting nearly equal numbers
    for m in sources[1:]:
        step = combine_pair(combined, m, mode)
        combined = step.mass
        steps.append(step.conflict)
        total += step.conflict * (1.0 - total)
    return CombinationResult(combined, total, tuple(steps))


def _fold_key(m: MassFunction) -> tuple[tuple[int, float], ...]:
    """Orders mass functions as their mass vectors over the power set, in
    mask order, order lexicographically.

    On a binary frame that is the order of (first, second, both) triples, so
    :func:`combine_binary` and :func:`combine_all` fold alike. Only focal
    elements are listed; negating the mask makes a source with mass on a
    lower mask sort after one without, as its larger vector entry would.
    """
    return tuple((-hset.mask, value) for hset, value in m.focal())


def _require_common_frame(m1: MassFunction, m2: MassFunction) -> Frame:
    if m1.frame != m2.frame:
        raise FrameMismatch(
            f"cannot combine masses over frames {m1.frame.labels} and {m2.frame.labels}"
        )
    return m1.frame


def _require_mode_fits(mode: CombinationMode, frame: Frame) -> None:
    if mode is CombinationMode.SIMPLIFIED and frame.size != 2:
        raise ModeUnsupported(
            f"simplified combination needs a binary frame, got {frame.size} hypotheses"
        )
