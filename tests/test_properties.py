"""Property-based tests for the fusion invariants.

Strategies draw random valid mass functions on frames of up to four
hypotheses and random fitted models; every invariant here is checked across
the whole space, not just the worked examples.
"""

import sys
from fractions import Fraction
from math import fsum, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scorefusion import (
    BayesCombiner,
    BayesModel,
    CombinationMode,
    DempsterCombiner,
    FRAUD_FRAME,
    Frame,
    HypothesisSet,
    MassFunction,
    RuleSet,
    RuleSpec,
    ScoreReport,
    Transaction,
    classify,
    combine_all,
    combine_pair,
    masses_for,
    posterior,
    posterior_log,
    rank,
    score,
)
from scorefusion.errors import NotNormalized, TotalConflict, ZeroMarginal

from oracles import (
    brute_belief,
    brute_combine,
    brute_plausibility,
    exact_binary_fold,
    exact_posterior,
)

STANDARD = CombinationMode.STANDARD
SIMPLIFIED = CombinationMode.SIMPLIFIED


@st.composite
def frames(draw, min_size=2, max_size=4):
    size = draw(st.integers(min_size, max_size))
    return Frame(tuple(f"h{i}" for i in range(size)))


@st.composite
def masses_on(draw, frame):
    """A valid mass function with 1..6 focal elements and positive weights."""
    n_subsets = (1 << frame.size) - 1
    masks = draw(
        st.lists(
            st.integers(1, n_subsets),
            min_size=1,
            max_size=min(6, n_subsets),
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(1e-3, 1.0),
            min_size=len(masks),
            max_size=len(masks),
        )
    )
    total = fsum(weights)
    return MassFunction(
        frame,
        [(HypothesisSet(frame, m), w / total) for m, w in zip(masks, weights)],
    )


@st.composite
def mass_and_subset(draw):
    frame = draw(frames())
    m = draw(masses_on(frame))
    mask = draw(st.integers(0, (1 << frame.size) - 1))
    return m, HypothesisSet(frame, mask)


@st.composite
def mass_pairs(draw):
    frame = draw(frames())
    return draw(masses_on(frame)), draw(masses_on(frame))


@st.composite
def singleton_mass_pairs(draw):
    """Pairs where every singleton carries positive mass (no total conflict)."""
    frame = draw(frames())

    def singleton_mass():
        weights = draw(
            st.lists(
                st.floats(1e-3, 1.0),
                min_size=frame.size,
                max_size=frame.size,
            )
        )
        total = fsum(weights)
        return MassFunction(
            frame,
            [
                (frame.singleton(label), w / total)
                for label, w in zip(frame.labels, weights)
            ],
        )

    return singleton_mass(), singleton_mass()


@st.composite
def bayes_models(draw, max_evidence=50, low=0.01, high=0.99):
    n = draw(st.integers(1, max_evidence))
    prior = draw(st.floats(0.01, 0.99))
    likelihoods = {
        f"E{i}": (draw(st.floats(low, high)), draw(st.floats(low, high)))
        for i in range(n)
    }
    return BayesModel(prior, 1.0 - prior, likelihoods)


class TestBeliefPlausibilityInvariants:
    @given(mass_and_subset())
    def test_interval_is_ordered_and_bounded(self, case):
        m, a = case
        bel, pl = m.belief(a), m.plausibility(a)
        assert 0.0 <= bel <= pl <= 1.0 or a.is_empty and bel == pl == 0.0

    @given(mass_and_subset())
    def test_plausibility_is_one_minus_complement_belief(self, case):
        m, a = case
        assert m.plausibility(a) == pytest.approx(
            1.0 - m.belief(a.complement()), abs=1e-12
        )

    @given(mass_and_subset())
    def test_matches_brute_force_enumeration(self, case):
        m, a = case
        assert m.belief(a) == pytest.approx(brute_belief(m, a.labels), abs=1e-15)
        assert m.plausibility(a) == pytest.approx(
            brute_plausibility(m, a.labels), abs=1e-15
        )

    @given(frames().flatmap(masses_on))
    def test_omega_and_empty_bounds(self, m):
        assert m.belief(m.frame.omega) == 1.0
        assert m.plausibility(m.frame.empty) == 0.0

    @given(singleton_mass_pairs())
    def test_bayesian_mass_collapses_interval(self, pair):
        m, _ = pair
        assert m.is_bayesian()
        for label in m.frame.labels:
            s = m.frame.singleton(label)
            assert m.belief(s) == pytest.approx(m.mass(s), abs=1e-12)
            assert m.plausibility(s) == pytest.approx(m.mass(s), abs=1e-12)


class TestCombinationInvariants:
    @given(mass_pairs())
    def test_commutative(self, pair):
        m1, m2 = pair
        try:
            forward = combine_pair(m1, m2)
        except TotalConflict:
            with pytest.raises(TotalConflict):
                combine_pair(m2, m1)
            return
        backward = combine_pair(m2, m1)
        assert backward.conflict == pytest.approx(forward.conflict, abs=1e-12)
        for hset, value in forward.mass.focal():
            assert backward.mass.mass(hset) == pytest.approx(value, abs=1e-12)

    @given(mass_pairs())
    def test_closure_and_conflict_range(self, pair):
        m1, m2 = pair
        try:
            result = combine_pair(m1, m2)
        except TotalConflict:
            assume(False)
        values = [v for _, v in result.mass.focal()]
        assert all(v > 0.0 for v in values)
        assert fsum(values) == 1.0
        assert 0.0 <= result.conflict < 1.0

    @given(mass_pairs())
    def test_matches_brute_force_grid(self, pair):
        m1, m2 = pair
        try:
            result = combine_pair(m1, m2)
        except TotalConflict:
            assume(False)
        expected, k = brute_combine(m1, m2)
        # the package renormalizes the combined mass to an exact total of 1,
        # so compare against the oracle's own normalized values
        oracle_total = fsum(expected.values())
        assert result.conflict == pytest.approx(k, abs=1e-15)
        assert len(expected) == len(result.mass.focal())
        for hset, value in result.mass.focal():
            oracle_value = expected[frozenset(hset.labels)] / oracle_total
            assert value == pytest.approx(oracle_value, rel=1e-12, abs=1e-15)

    @settings(max_examples=60)
    @given(
        st.data(),
        frames(),
    )
    def test_permutation_invariant(self, data, frame):
        sources = data.draw(
            st.lists(masses_on(frame), min_size=2, max_size=4)
        )
        shuffled = data.draw(st.permutations(sources))
        try:
            forward = combine_all(sources, STANDARD)
        except TotalConflict:
            assume(False)
        try:
            permuted = combine_all(list(shuffled), STANDARD)
        except TotalConflict:
            assume(False)
        assert permuted.conflict == pytest.approx(forward.conflict, abs=1e-10)
        for hset, value in forward.mass.focal():
            assert permuted.mass.mass(hset) == pytest.approx(value, abs=1e-10)

    @settings(max_examples=60)
    @given(st.data(), frames())
    def test_standard_fold_is_order_free_to_the_last_bit(self, data, frame):
        sources = data.draw(st.lists(masses_on(frame), min_size=2, max_size=4))
        shuffled = data.draw(st.permutations(sources))
        outcomes = []
        for order in (sources, shuffled):
            try:
                outcomes.append(combine_all(list(order), STANDARD))
            except (TotalConflict, NotNormalized) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]

    @given(frames().flatmap(masses_on))
    def test_vacuous_is_neutral_exactly(self, m):
        result = combine_pair(m, MassFunction.vacuous(m.frame))
        assert result.mass == m
        assert result.conflict == 0.0
        mirrored = combine_pair(MassFunction.vacuous(m.frame), m)
        assert mirrored.mass == m

    @given(singleton_mass_pairs())
    def test_bayesian_reduction_is_normalized_product(self, pair):
        m1, m2 = pair
        result = combine_pair(m1, m2)
        raw = {
            label: m1.mass(m1.frame.singleton(label)) * m2.mass(m2.frame.singleton(label))
            for label in m1.frame.labels
        }
        total = fsum(raw.values())
        for label, product in raw.items():
            assert result.mass.mass(m1.frame.singleton(label)) == pytest.approx(
                product / total, abs=1e-12
            )

    @given(st.data())
    def test_modes_agree_without_uncertainty_mass(self, data):
        frame = Frame(("fraud", "genuine"))
        weights1 = data.draw(st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)))
        weights2 = data.draw(st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)))

        def singleton_only(weights):
            total = fsum(weights)
            return MassFunction(
                frame,
                [
                    (frame.singleton("fraud"), weights[0] / total),
                    (frame.singleton("genuine"), weights[1] / total),
                ],
            )

        m1, m2 = singleton_only(weights1), singleton_only(weights2)
        standard = combine_pair(m1, m2, STANDARD)
        simplified = combine_pair(m1, m2, SIMPLIFIED)
        assert standard.mass == simplified.mass
        assert standard.conflict == simplified.conflict


class TestBayesInvariants:
    @given(st.data(), bayes_models())
    def test_log_and_direct_paths_agree(self, data, model):
        ids = data.draw(
            st.lists(st.sampled_from(sorted(model.likelihoods)), min_size=1, unique=True)
        )
        direct = posterior(model, ids)
        logspace = posterior_log(model, ids)
        assert logspace.p_fraud == pytest.approx(direct.p_fraud, abs=1e-12)
        assert logspace.p_genuine == pytest.approx(direct.p_genuine, abs=1e-12)

    @given(st.data(), bayes_models())
    def test_probabilities_sum_to_one(self, data, model):
        ids = data.draw(
            st.lists(st.sampled_from(sorted(model.likelihoods)), min_size=1, unique=True)
        )
        result = posterior(model, ids)
        assert result.p_fraud + result.p_genuine == pytest.approx(1.0, abs=1e-12)
        assert result.marginal > 0.0

    @given(st.data(), bayes_models(max_evidence=8, low=0.2, high=0.8))
    def test_fraud_leaning_evidence_strictly_increases_posterior(self, data, model):
        ids = sorted(model.likelihoods)
        p_genuine_new = data.draw(st.floats(0.2, 0.8))
        p_fraud_new = data.draw(st.floats(p_genuine_new + 0.01, 0.82))
        grown = BayesModel(
            model.prior_fraud,
            model.prior_genuine,
            {**model.likelihoods, "EXTRA": (p_fraud_new, p_genuine_new)},
        )
        before = posterior(grown, ids).p_fraud
        after = posterior(grown, ids + ["EXTRA"]).p_fraud
        assert after > before


class TestScoringInvariants:
    @given(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=5))
    def test_certain_rules_reduce_to_normalized_product(self, scores):
        rules = [RuleSpec.from_score(f"R{i}", s) for i, s in enumerate(scores)]
        ruleset = RuleSet.from_rules(rules, DempsterCombiner(STANDARD))
        report = score(ruleset, Transaction("t", tuple(r.id for r in rules)))
        assert report.bel_fraud == report.pl_fraud == report.point_estimate
        product_fraud = prod(r.m_fraud for r in rules)
        product_genuine = prod(r.m_genuine for r in rules)
        expected = product_fraud / (product_fraud + product_genuine)
        assert report.point_estimate == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            max_size=8,
        )
    )
    def test_rank_is_gap_free_permutation(self, bounds):
        reports = [
            ScoreReport(
                transaction_id=f"t{i}",
                bel_fraud=min(b, p),
                pl_fraud=max(b, p),
                point_estimate=min(b, p),
                conflict=0.0,
                n_sources=1,
                suspicious=max(b, p) > 0.5,
                confirmed=min(b, p) > 0.5,
            )
            for i, (b, p) in enumerate(bounds)
        ]
        ranked = rank(reports)
        assert sorted(r.rank for r in ranked) == list(range(1, len(reports) + 1))
        assert {r.transaction_id for r in ranked} == {r.transaction_id for r in reports}
        belief_order = [(-r.bel_fraud, -r.pl_fraud, r.transaction_id) for r in ranked]
        assert belief_order == sorted(belief_order)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_classify_monotone_in_threshold(self, bel, pl, tau_low, tau_high):
        bel, pl = min(bel, pl), max(bel, pl)
        tau_low, tau_high = min(tau_low, tau_high), max(tau_low, tau_high)
        low = classify(bel, pl, tau_low)
        high = classify(bel, pl, tau_high)
        assert low.suspicious or not high.suspicious
        assert low.confirmed or not high.confirmed


@st.composite
def rule_triples(draw):
    """A rule's (fraud, genuine, either) masses. One rule in four is
    dogmatic, so folds meet total conflict; the rest are random weights,
    some of them exactly zero, scaled to a unit of mass."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    weights = draw(st.tuples(weight, weight, weight).filter(lambda w: fsum(w) > 0.0))
    total = fsum(weights)
    return tuple(w / total for w in weights)


@st.composite
def scoring_cases(draw, mode):
    """A Dempster rule set of 1-12 rules and a transaction triggering 1-12
    of them, in any order and possibly more than once."""
    triples = draw(st.lists(rule_triples(), min_size=1, max_size=12))
    rules = [RuleSpec(f"R{i}", *triple) for i, triple in enumerate(triples)]
    ruleset = RuleSet.from_rules(rules, DempsterCombiner(mode))
    picks = st.lists(st.integers(0, len(rules) - 1), min_size=1, max_size=12)
    triggered = tuple(rules[i].id for i in draw(picks))
    return ruleset, Transaction("t", triggered)


def generic_fold(ruleset, txn):
    """(bel, pl, conflict) of fraud from the power-set fold, or None on
    total conflict.

    Rejects the example when the fold cannot normalise a step: close to
    total conflict it divides by a 1 - K that has lost most of its digits,
    and the step's masses then miss 1 by more than the mass tolerance.
    """
    try:
        outcome = combine_all(masses_for(ruleset, txn), ruleset.combiner.mode)
    except TotalConflict:
        return None
    except NotNormalized:
        assume(False)
    interval = outcome.mass.interval(FRAUD_FRAME.singleton("fraud"))
    return interval.bel, interval.pl, outcome.conflict


def kernel_fold(ruleset, txn):
    """(bel, pl, conflict) from ``score``, or None on total conflict."""
    try:
        report = score(ruleset, txn)
    except TotalConflict:
        return None
    return report.bel_fraud, report.pl_fraud, report.conflict


both_modes = pytest.mark.parametrize("mode", [STANDARD, SIMPLIFIED], ids=["standard", "paper"])


class TestBinaryKernel:
    """``score`` folds compiled mass triples in closed form; these pin it to
    the generic power-set fold and to the exact-rational oracle."""

    @both_modes
    @given(data=st.data())
    def test_agrees_with_generic_fold(self, mode, data):
        ruleset, txn = data.draw(scoring_cases(mode))
        expected = generic_fold(ruleset, txn)
        actual = kernel_fold(ruleset, txn)
        assert (actual is None) == (expected is None)
        if expected is not None:
            assert actual == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @both_modes
    @given(data=st.data())
    def test_agrees_with_exact_oracle(self, mode, data):
        ruleset, txn = data.draw(scoring_cases(mode))
        actual = kernel_fold(ruleset, txn)
        assume(actual is not None)
        # The oracle divides by 1 - K, so its sources must sum to exactly 1.
        sources = []
        for rule_id in txn.triggered:
            triple = [Fraction(x) for x in ruleset.triples[rule_id]]
            sources.append(tuple(x / sum(triple) for x in triple))
        (fraud, _, uncertain), conflicts = exact_binary_fold(
            sources, pooled=mode is SIMPLIFIED
        )
        exact_conflict = 1 - prod((1 - k for k in conflicts), start=Fraction(1))
        assert actual[0] == pytest.approx(float(fraud), abs=1e-12)
        assert actual[1] == pytest.approx(float(fraud + uncertain), abs=1e-12)
        assert actual[2] == pytest.approx(float(exact_conflict), abs=1e-12)

    @both_modes
    @given(data=st.data())
    def test_interval_is_ordered_and_bounded(self, mode, data):
        ruleset, txn = data.draw(scoring_cases(mode))
        actual = kernel_fold(ruleset, txn)
        assume(actual is not None)
        bel, pl, discarded = actual
        assert 0.0 <= bel <= pl <= 1.0
        assert 0.0 <= discarded <= 1.0

    @settings(max_examples=60)
    @given(data=st.data())
    def test_standard_mode_is_permutation_invariant(self, data):
        ruleset, txn = data.draw(scoring_cases(STANDARD))
        forward = kernel_fold(ruleset, txn)
        assume(forward is not None)
        order = data.draw(st.permutations(txn.triggered))
        permuted = kernel_fold(ruleset, Transaction("t", tuple(order)))
        assert permuted == pytest.approx(forward, abs=1e-10)

    def test_paper_mode_stays_order_dependent(self):
        rules = [
            RuleSpec("a", 0.7, 0.1, 0.2),
            RuleSpec("b", 0.3, 0.2, 0.5),
            RuleSpec("c", 0.5, 0.4, 0.1),
        ]
        ruleset = RuleSet.from_rules(rules, DempsterCombiner(SIMPLIFIED))
        forward = score(ruleset, Transaction("t", ("a", "b", "c")))
        rotated = score(ruleset, Transaction("t", ("b", "c", "a")))
        # the rational oracle gives 105/736 and 105/709
        assert forward.bel_fraud == pytest.approx(105 / 736, abs=1e-12)
        assert rotated.bel_fraud == pytest.approx(105 / 709, abs=1e-12)


# Likelihoods and priors for the Bayes fold: exact zeros and ones, values
# small enough that a handful of them push the products below 2**-600 while
# they stay normal, and anything else in [0, 1].
_probability = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-10, 3e-13, 2.5e-40]), st.floats(0.0, 1.0)
)


@st.composite
def fold_cases(draw):
    """A Bayes rule set of 1-12 rules and 1-30 trigger ids, repeats
    included."""
    prior = draw(_probability)
    n = draw(st.integers(1, 12))
    likelihoods = {f"E{i}": (draw(_probability), draw(_probability)) for i in range(n)}
    model = BayesModel(prior, 1.0 - prior, likelihoods)
    rules = [RuleSpec.from_score(eid, 0.5) for eid in likelihoods]
    ruleset = RuleSet.from_rules(rules, BayesCombiner(model))
    triggered = draw(st.lists(st.sampled_from(sorted(likelihoods)), min_size=1, max_size=30))
    return ruleset, model, Transaction("t", tuple(triggered))


def direct_products_stay_normal(model, ids):
    """True when every running product of ``posterior`` is normal, or zero
    because a factor is exactly zero, so that no bit was lost to underflow."""
    fraud, genuine = model.prior_fraud, model.prior_genuine
    fraud_zero, genuine_zero = fraud == 0.0, genuine == 0.0
    for eid in sorted(set(ids)):
        p_fraud, p_genuine = model.likelihoods[eid]
        fraud *= p_fraud
        genuine *= p_genuine
        fraud_zero = fraud_zero or p_fraud == 0.0
        genuine_zero = genuine_zero or p_genuine == 0.0
        for product, exact_zero in ((fraud, fraud_zero), (genuine, genuine_zero)):
            if not (product >= sys.float_info.min or (product == 0.0 and exact_zero)):
                return False
    return True


def value_or_zero_marginal(fn):
    try:
        return fn()
    except ZeroMarginal:
        return ZeroMarginal


class TestBayesFold:
    """Bayes ``score`` folds compiled likelihood pairs with a product
    rescaled by powers of two; it must reproduce ``posterior`` to the last
    bit wherever the direct product loses nothing to underflow."""

    @given(fold_cases())
    def test_matches_posterior_bit_for_bit(self, case):
        ruleset, model, txn = case
        folded = value_or_zero_marginal(lambda: score(ruleset, txn).point_estimate)
        if direct_products_stay_normal(model, txn.triggered):
            assert folded == value_or_zero_marginal(lambda: posterior(model, txn.triggered).p_fraud)
        elif folded is not ZeroMarginal:
            assert 0.0 <= folded <= 1.0

    @given(fold_cases())
    def test_agrees_with_exact_oracle(self, case):
        ruleset, model, txn = case
        pairs = [model.likelihoods[eid] for eid in sorted(set(txn.triggered))]
        factors = [model.prior_fraud, model.prior_genuine, *(p for pair in pairs for p in pair)]
        assume(all(p >= 2.0**-400 or p == 0.0 for p in factors))
        try:
            p_fraud, _ = exact_posterior(Fraction(model.prior_fraud), pairs)
        except ZeroDivisionError:  # both exact products are zero
            with pytest.raises(ZeroMarginal):
                score(ruleset, txn)
            return
        folded = score(ruleset, txn).point_estimate
        assert folded == pytest.approx(float(p_fraud), rel=1e-12, abs=1e-300)
