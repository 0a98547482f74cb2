"""The binary-frame fusion kernel: the combination modes, the numeric limits
a mass and a fold are judged by, the normalisation of a mass vector, and the
closed-form Dempster fold.

Scoring needs nothing else from :mod:`scorefusion.combination` or
:mod:`scorefusion.evidence`, so a process that only scores or fits loads
this module instead of them. Both use these names, and ``combination``
re-exports the mode, the conflict limit and the fold.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from math import fsum, inf

from .errors import EmptyInput, TotalConflict

# Masses may arrive as rounded decimals; anything within this tolerance of 1
# is accepted and rescaled so the stored total is exactly 1.0.
NORMALIZATION_TOLERANCE = 1e-9

# Dividing by 1 - K is numerically meaningless once K is this close to one.
TOTAL_CONFLICT_LIMIT = 1.0 - 1e-12


class CombinationMode(Enum):
    """How non-conflicting intersection products are routed when fusing.

    STANDARD is Dempster's rule: every product of sets with a non-empty
    intersection reinforces that intersection, so a singleton meeting the
    full set reinforces the singleton.

    SIMPLIFIED (binary frames only) reinforces a singleton only where both
    sources name exactly that singleton; every other non-conflicting product,
    including singleton x full-set cross terms, is pooled back into the full
    set. It keeps more mass on the uncertainty set, giving wider intervals,
    and it is not associative: multi-source folds are order-dependent.
    """

    STANDARD = "standard"
    SIMPLIFIED = "simplified"


def normalize(masses: list[float]) -> tuple[float, list[float] | None]:
    """Sum the masses, listed in mask order, with fsum, and return the total
    (inf if it overflows) with the values to store: None when the total is
    further than NORMALIZATION_TOLERANCE from 1, the masses when it is 1,
    else the masses divided through by it with the largest, the last of
    equals, pinned so the values sum to exactly 1.0 under fsum.

    The pinned value is the correctly rounded 1 - sum(others), computed in a
    single fsum; its error is at most half an ulp of the largest mass, which
    keeps the full fsum within half an ulp of 1.0. Zero entries stay zero.
    """
    try:
        total = fsum(masses)
    except OverflowError:
        return inf, None
    if abs(total - 1.0) > NORMALIZATION_TOLERANCE:
        return total, None
    if total == 1.0:
        return total, masses
    scaled = [m / total for m in masses]
    top = max(range(len(scaled)), key=lambda i: (scaled[i], i))
    scaled[top] = -fsum([-1.0, *scaled[:top], *scaled[top + 1 :]])
    return total, scaled


def combine_binary(
    sources: Sequence[tuple[float, float, float]],
    mode: CombinationMode = CombinationMode.STANDARD,
    steps: list[tuple[float, float, float, float]] | None = None,
) -> tuple[float, float, float]:
    """Closed-form :func:`~scorefusion.combination.combine_all` on a binary
    frame.

    Each source is a (first, second, both) mass triple, such as the
    (fraud, genuine, either) masses of a rule. Standard mode folds the
    triples in sorted order, the canonical order ``combine_all`` folds
    their mass functions in; simplified mode folds them in input order.
    Each step is divided by its surviving sum, so the running triple
    stays a unit of mass however long the fold. Returns (bel, pl, conflict)
    of the first hypothesis, with 0 <= bel <= pl <= 1 and conflict
    1 - prod(1 - K_i), carried as c + K_i(1 - c) so that a small K keeps its
    bits. Agrees with the generic fold to rounding, not to the last bit.

    When ``steps`` is given, each fold step appends its (K, first, second,
    both) to it: the step's conflict and the normalised triple after it.
    Nothing returned depends on it.
    """
    if not sources:
        raise EmptyInput("need at least one mass triple to combine")
    pooled = mode is CombinationMode.SIMPLIFIED
    if not pooled:
        sources = sorted(sources)
    f, g, u = sources[0]
    conflict = 0.0
    for f2, g2, u2 in sources[1:]:
        k = f * g2 + g * f2
        if k >= TOTAL_CONFLICT_LIMIT:
            raise TotalConflict(f"sources are in total conflict (K = {k!r})")
        if pooled:
            f, g, u = f * f2, g * g2, (f + g) * u2 + u * (f2 + g2 + u2)
        else:
            f, g, u = f * (f2 + u2) + u * f2, g * (g2 + u2) + u * g2, u * u2
        total = f + g + u
        f, g, u = f / total, g / total, u / total
        conflict += k * (1.0 - conflict)
        if steps is not None:
            steps.append((k, f, g, u))
    return f, min(f + u, 1.0), conflict
