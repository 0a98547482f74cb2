"""Independent reference implementations used to pin expected test values.

These deliberately avoid the package's bitmask/focal-element code paths:
sets are label frozensets, enumeration walks the full power set, and the
exact oracles run on rational arithmetic.
"""

import math
from fractions import Fraction
from itertools import combinations
from math import fsum

from scorefusion.errors import ZeroMarginal


def powerset(labels):
    """Every subset of the labels as a frozenset, the empty set included."""
    for size in range(len(labels) + 1):
        for combo in combinations(labels, size):
            yield frozenset(combo)


def mass_table(m):
    """A MassFunction as a plain dict keyed by label frozensets."""
    return {frozenset(h.labels): v for h, v in m.focal()}


def brute_belief(m, a_labels):
    """Belief by brute force: walk all 2^N subsets and sum those inside A."""
    table = mass_table(m)
    a = frozenset(a_labels)
    return fsum(
        table.get(s, 0.0) for s in powerset(m.frame.labels) if s and s <= a
    )


def brute_plausibility(m, a_labels):
    """Plausibility by brute force: sum every subset that meets A."""
    table = mass_table(m)
    a = frozenset(a_labels)
    return fsum(table.get(s, 0.0) for s in powerset(m.frame.labels) if s & a)


def brute_combine(m1, m2):
    """Dempster combination over the full power-set grid.

    Returns (combined dict keyed by frozenset, conflict K). Cell products are
    grouped per target set and summed with fsum, mirroring the precision of a
    careful implementation without sharing its sparse iteration.
    """
    t1, t2 = mass_table(m1), mass_table(m2)
    labels = m1.frame.labels
    cells = {}
    clashes = []
    for b in powerset(labels):
        for c in powerset(labels):
            product = t1.get(b, 0.0) * t2.get(c, 0.0)
            if product == 0.0:
                continue
            overlap = b & c
            if overlap:
                cells.setdefault(overlap, []).append(product)
            else:
                clashes.append(product)
    k = fsum(clashes)
    normalizer = 1.0 - k
    return {s: fsum(ps) / normalizer for s, ps in cells.items()}, k


def exact_binary_pair(s1, s2, pooled):
    """Exact binary-frame combination on rationals.

    ``s1`` and ``s2`` are (fraud, genuine, uncertain) triples of Fractions or
    decimal strings. With ``pooled`` False this is Dempster's rule; with True
    the cross terms involving the full set all pool back into it. Returns
    (fraud, genuine, uncertain, K) as Fractions.
    """
    f1, g1, u1 = (Fraction(x) for x in s1)
    f2, g2, u2 = (Fraction(x) for x in s2)
    k = f1 * g2 + g1 * f2
    normalizer = 1 - k
    if pooled:
        fraud = f1 * f2
        genuine = g1 * g2
        uncertain = f1 * u2 + g1 * u2 + u1 * f2 + u1 * g2 + u1 * u2
    else:
        fraud = f1 * f2 + f1 * u2 + u1 * f2
        genuine = g1 * g2 + g1 * u2 + u1 * g2
        uncertain = u1 * u2
    return fraud / normalizer, genuine / normalizer, uncertain / normalizer, k


def exact_binary_fold(sources, pooled):
    """Left fold of :func:`exact_binary_pair` over (f, g, u) triples."""
    acc = tuple(Fraction(x) for x in sources[0])
    conflicts = []
    for source in sources[1:]:
        fraud, genuine, uncertain, k = exact_binary_pair(acc, source, pooled)
        acc = (fraud, genuine, uncertain)
        conflicts.append(k)
    return acc, conflicts


def exact_posterior(prior_fraud, likelihood_pairs, prior_genuine=None):
    """Naive-Bayes posterior on rationals.

    ``likelihood_pairs`` is a list of (P(E|fraud), P(E|genuine)) Fractions;
    ``prior_genuine`` is 1 - ``prior_fraud`` unless given. Returns
    (p_fraud, marginal) as Fractions.
    """
    prior_fraud = Fraction(prior_fraud)
    numerator_fraud = prior_fraud
    numerator_genuine = 1 - prior_fraud if prior_genuine is None else Fraction(prior_genuine)
    for p_fraud, p_genuine in likelihood_pairs:
        numerator_fraud *= Fraction(p_fraud)
        numerator_genuine *= Fraction(p_genuine)
    marginal = numerator_fraud + numerator_genuine
    return numerator_fraud / marginal, marginal


def dyadic_posterior(prior_fraud, prior_genuine, pairs):
    """The exact posterior of doubles as two ints ``(a, b)``, P(fraud) being
    ``a / (a + b)``.

    Every double is an int times a power of two, so each class product is
    one too, and shifting both to the lower power keeps them exact. Unlike
    :func:`exact_posterior`, no step reduces a fraction, whose gcd dominates
    the time on hundreds of subnormal factors.
    """
    products = []
    for start, column in ((prior_fraud, 0), (prior_genuine, 1)):
        product, exponent = 1, 0
        for factor in (start, *(pair[column] for pair in pairs)):
            numerator, denominator = float(factor).as_integer_ratio()
            product *= numerator
            exponent -= denominator.bit_length() - 1  # a power of two
        products.append((product, exponent))
    (a, a_exp), (b, b_exp) = products
    low = min(a_exp, b_exp)
    return a << a_exp - low, b << b_exp - low


# rescaled_posterior multiplies a running product by 2**_RESCALE_EXP once it
# falls below _TINY. A power of two scales a normal double exactly.
_RESCALE_EXP = 600
_TINY = 2.0**-_RESCALE_EXP
_RESCALE = 2.0**_RESCALE_EXP


def rescaled_posterior(prior_fraud, prior_genuine, pairs):
    """P(fraud) by a rescaled float loop, one factor at a time.

    Each running product is multiplied by 2**600 whenever it falls below
    2**-600. The loop is exact, and so a bit-level reference for
    ``bayes.posterior_binary``, while each prior and likelihood is 0 or at
    least 2**-400 (see :func:`rescaled_loop_is_exact`).
    """
    fraud = prior_fraud
    genuine = prior_genuine
    shift = 0  # rescales of the fraud product minus those of the genuine one
    for p_fraud, p_genuine in pairs:
        fraud *= p_fraud
        genuine *= p_genuine
        if fraud < _TINY:
            fraud *= _RESCALE
            shift += 1
        if genuine < _TINY:
            genuine *= _RESCALE
            shift -= 1
    if shift > 0 and genuine:
        scale = -_RESCALE_EXP * shift
        return math.ldexp(fraud / (math.ldexp(fraud, scale) + genuine), scale)
    if shift < 0 and fraud:
        genuine = math.ldexp(genuine, _RESCALE_EXP * shift)
    marginal = fraud + genuine
    if marginal <= 0.0:
        raise ZeroMarginal(
            "both class products vanished; refit with smoothing > 0 to avoid zero likelihoods"
        )
    return fraud / marginal


def rescaled_loop_is_exact(prior_fraud, prior_genuine, pairs):
    """Whether :func:`rescaled_posterior` keeps every running product a
    normal double or exactly 0: each prior and likelihood is 0 or at least
    2**-400, so a product at least 2**-600 times a factor stays above 2**-1022."""
    factors = [prior_fraud, prior_genuine, *(p for pair in pairs for p in pair)]
    return all(p == 0.0 or p >= 2.0**-400 for p in factors)
