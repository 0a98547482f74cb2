"""Rule expansion, per-transaction fusion, classification, and ranking."""

import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scorefusion import (
    FRAUD_FRAME,
    BayesCombiner,
    BayesModel,
    CombinationMode,
    DempsterCombiner,
    RuleSet,
    RuleSpec,
    ScoreReport,
    Transaction,
    classify,
    combine_all,
    evidence,
    masses_for,
    posterior,
    posterior_log,
    rank,
    score,
    score_batch,
    scoring,
)
from scorefusion.bayes import posterior_binary, resolve_ids
from scorefusion.errors import (
    FusionError,
    InvalidValue,
    NoEvidence,
    TotalConflict,
    UnknownEvidence,
    UnknownRule,
    ZeroMarginal,
)
from scorefusion.fileio import load_model

from oracles import (
    dyadic_posterior,
    exact_posterior,
    rescaled_loop_is_exact,
    rescaled_posterior,
)

FRAUD = FRAUD_FRAME.singleton("fraud")
OMEGA = FRAUD_FRAME.omega

STANDARD = DempsterCombiner(CombinationMode.STANDARD)
SIMPLIFIED = DempsterCombiner(CombinationMode.SIMPLIFIED)


def ds_ruleset(rules, combiner=STANDARD, threshold=0.5):
    return RuleSet.from_rules(rules, combiner, threshold)


class TestRuleSpec:
    def test_from_score_no_uncertainty(self):
        spec = RuleSpec.from_score("R1", 0.75)
        m = spec.to_mass()
        assert m.mass(FRAUD) == pytest.approx(0.75, abs=1e-12)
        assert m.mass(FRAUD_FRAME.singleton("genuine")) == pytest.approx(0.25, abs=1e-12)
        assert m.mass(OMEGA) == 0.0

    def test_from_score_with_uncertainty(self):
        # 0.875 * 0.8 = 0.7 of mass on fraud, 0.2 held back as uncertainty
        spec = RuleSpec.from_score("R1", 0.875, uncertainty=0.2)
        m = spec.to_mass()
        assert m.mass(FRAUD) == pytest.approx(0.7, abs=1e-12)
        assert m.mass(FRAUD_FRAME.singleton("genuine")) == pytest.approx(0.1, abs=1e-12)
        assert m.mass(OMEGA) == pytest.approx(0.2, abs=1e-12)

    def test_explicit_certain_triple(self):
        m = RuleSpec("R1", 1.0, 0.0, 0.0).to_mass()
        assert m.focal() == ((FRAUD, 1.0),)

    def test_validation(self):
        with pytest.raises(ValueError):
            RuleSpec("R1", 0.6, 0.5, 0.0)
        with pytest.raises(ValueError):
            RuleSpec("R1", -0.1, 1.1, 0.0)
        with pytest.raises(ValueError):
            RuleSpec.from_score("R1", 1.5)
        with pytest.raises(ValueError):
            RuleSpec.from_score("R1", 0.5, uncertainty=-0.5)
        with pytest.raises(ValueError):
            RuleSpec("", 1.0, 0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            pytest.param(10**400, id="int-too-large"),
            pytest.param(-(10**400), id="negative-int-too-large"),
        ],
    )
    @pytest.mark.parametrize("field", ["m_fraud", "m_genuine", "m_uncertain"])
    def test_non_finite_mass_names_rule(self, field, bad):
        masses = {"m_fraud": 0.5, "m_genuine": 0.5, "m_uncertain": 0.0, field: bad}
        with pytest.raises(ValueError, match=f"rule 'R7': {field} must be finite"):
            RuleSpec("R7", **masses)

    @settings(max_examples=300, deadline=None)
    @example(masses=(0.8329752851974283, 0.0809306695647479, 0.08609404423782382), nudge=0.0)
    @given(
        masses=st.tuples(*[st.floats(0.0, 1.0)] * 2).map(lambda fg: (*fg, 1.0 - fg[0] - fg[1])),
        nudge=st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9]),
    )
    def test_judges_the_sum_as_its_mass_function_does(self, masses, nudge):
        triple = (masses[0], masses[1], max(masses[2] + nudge, 0.0))
        try:
            RuleSpec("R1", *triple)
        except FusionError as exc:
            spec_error = str(exc)
        else:
            spec_error = None
        try:
            evidence.mass_triple(*triple)
        except FusionError:
            assert spec_error is not None and spec_error.startswith("rule 'R1': masses sum to ")
        else:
            assert spec_error is None

    def test_overflowing_mass_sum_names_rule(self):
        with pytest.raises(FusionError, match=r"^rule 'R1': masses sum to inf, expected 1$"):
            RuleSpec("R1", 1e308, 1e308)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_or_uncertainty_names_rule(self, bad):
        with pytest.raises(ValueError, match="rule 'R7': score"):
            RuleSpec.from_score("R7", bad)
        with pytest.raises(ValueError, match="rule 'R7': uncertainty"):
            RuleSpec.from_score("R7", 0.5, uncertainty=bad)


class TestMassesFor:
    def test_trigger_order_preserved(self):
        ruleset = ds_ruleset(
            [RuleSpec.from_score("A", 0.9), RuleSpec.from_score("B", 0.2)]
        )
        masses = masses_for(ruleset, Transaction("t", ("B", "A")))
        assert masses[0].mass(FRAUD) == pytest.approx(0.2)
        assert masses[1].mass(FRAUD) == pytest.approx(0.9)

    def test_unknown_rule(self):
        ruleset = ds_ruleset([RuleSpec.from_score("A", 0.9)])
        with pytest.raises(UnknownRule):
            masses_for(ruleset, Transaction("t", ("A", "MISSING")))

    def test_no_evidence(self):
        ruleset = ds_ruleset([RuleSpec.from_score("A", 0.9)])
        with pytest.raises(NoEvidence):
            masses_for(ruleset, Transaction("t", ()))


class TestScoreDempster:
    def test_two_certain_rules_standard(self):
        ruleset = ds_ruleset(
            [RuleSpec.from_score("R1", 0.6), RuleSpec.from_score("R2", 0.8)]
        )
        report = score(ruleset, Transaction("t1", ("R1", "R2")))
        assert report.point_estimate == pytest.approx(0.857142857142857, abs=1e-6)
        assert report.conflict == pytest.approx(0.44, abs=1e-15)
        assert report.bel_fraud == report.pl_fraud
        assert report.n_sources == 2
        assert report.suspicious and report.confirmed

    def test_uncertain_rules_simplified(self):
        ruleset = ds_ruleset(
            [
                RuleSpec("R1", 0.7, 0.2, 0.1),
                RuleSpec("R2", 0.3, 0.6, 0.1),
            ],
            combiner=SIMPLIFIED,
        )
        report = score(ruleset, Transaction("t1", ("R1", "R2")))
        assert report.bel_fraud == pytest.approx(0.404, abs=5e-4)
        assert report.pl_fraud == pytest.approx(0.769, abs=5e-4)
        assert report.point_estimate == report.bel_fraud
        assert report.suspicious and not report.confirmed

    def test_balanced_opposition_is_exactly_half(self):
        ruleset = ds_ruleset(
            [RuleSpec("R1", 0.7, 0.3, 0.0), RuleSpec("R2", 0.3, 0.7, 0.0)]
        )
        report = score(ruleset, Transaction("t1", ("R1", "R2")))
        assert report.point_estimate == 0.5
        assert not report.suspicious and not report.confirmed

    def test_single_rule_degenerates_to_its_mass(self):
        ruleset = ds_ruleset([RuleSpec("R1", 0.7, 0.2, 0.1)])
        report = score(ruleset, Transaction("t1", ("R1",)))
        assert report.bel_fraud == pytest.approx(0.7, abs=1e-12)
        assert report.pl_fraud == pytest.approx(0.8, abs=1e-12)
        assert report.conflict == 0.0
        assert report.n_sources == 1

    def test_total_conflict_propagates(self):
        ruleset = ds_ruleset([RuleSpec("Y", 1.0, 0.0), RuleSpec("N", 0.0, 1.0)])
        with pytest.raises(TotalConflict):
            score(ruleset, Transaction("t1", ("Y", "N")))

    def test_interval_brackets_point_estimate(self):
        ruleset = ds_ruleset([RuleSpec("R1", 0.7, 0.1, 0.2), RuleSpec("R2", 0.3, 0.2, 0.5)])
        report = score(ruleset, Transaction("t1", ("R1", "R2")))
        assert report.bel_fraud <= report.point_estimate <= report.pl_fraud

    def test_payload_rides_along(self):
        ruleset = ds_ruleset([RuleSpec.from_score("R1", 0.9)])
        txn = Transaction("t1", ("R1",), payload={"amount": 120.5})
        assert score(ruleset, txn).payload == {"amount": 120.5}

    def test_total_conflict_message_matches_generic_fold(self):
        ruleset = ds_ruleset([RuleSpec("Y", 1.0, 0.0), RuleSpec("N", 0.0, 1.0)])
        txn = Transaction("t1", ("Y", "N"))
        with pytest.raises(TotalConflict) as generic:
            combine_all(masses_for(ruleset, txn))
        with pytest.raises(TotalConflict) as kernel:
            score(ruleset, txn)
        assert str(kernel.value) == str(generic.value)

    def test_unknown_rule_wins_over_total_conflict(self):
        ruleset = ds_ruleset([RuleSpec("Y", 1.0, 0.0), RuleSpec("N", 0.0, 1.0)])
        with pytest.raises(UnknownRule, match="'GONE'"):
            score(ruleset, Transaction("t1", ("Y", "N", "GONE")))

    def test_long_fold_does_not_underflow(self):
        # Unnormalised, the products of 2000 sources would underflow to 0.
        # The ids are distinct, since a repeated id counts once.
        masses = [(0.4, 0.4, 0.2), (0.3, 0.3, 0.4)]
        rules = [RuleSpec(f"R{i}", *masses[i % 2]) for i in range(2000)]
        txn = Transaction("t", tuple(spec.id for spec in rules))
        report = score(ds_ruleset(rules), txn)
        assert report.bel_fraud == pytest.approx(0.5, abs=1e-12)
        assert report.pl_fraud == pytest.approx(0.5, abs=1e-12)
        # Paper mode pools every cross term into the full set.
        report = score(ds_ruleset(rules, SIMPLIFIED), txn)
        assert report.bel_fraud == pytest.approx(0.0, abs=1e-12)
        assert report.pl_fraud == pytest.approx(1.0, abs=1e-12)

    def test_near_total_conflict_does_not_depend_on_trigger_order(self):
        # F1 fused with its twin F2 meets G at K = 1 - 2**-46, a total
        # conflict; each met after G meets K = 1 - 2**-23.
        eps = 2.0**-23
        twins = [RuleSpec(rule_id, 1 - eps, 0.0, eps) for rule_id in ("F1", "F2")]
        ruleset = ds_ruleset([*twins, RuleSpec("G", 0.0, 1.0)])
        orders = (("F1", "F2", "G"), ("G", "F1", "F2"), ("F1", "G", "F2"))
        reports = [score(ruleset, Transaction("t", order)) for order in orders]
        assert {(r.bel_fraud, r.pl_fraud, r.conflict) for r in reports} == {
            (0.0, 0.0, reports[0].conflict)
        }
        assert reports[0].conflict == pytest.approx(1 - eps**2, abs=1e-16)

    def test_ruleset_compiles_validated_masses(self):
        ruleset = ds_ruleset([RuleSpec.from_score("R1", 0.875, uncertainty=0.2)])
        m = ruleset.rules["R1"].to_mass()
        genuine = FRAUD_FRAME.singleton("genuine")
        assert ruleset.triples == {"R1": (m.mass(FRAUD), m.mass(genuine), m.mass(OMEGA))}
        assert ruleset._replace(combiner=SIMPLIFIED).triples == ruleset.triples

    def test_combiner_names(self):
        names = (STANDARD.name, SIMPLIFIED.name, BayesCombiner.name)
        assert names == ("ds-standard", "ds-paper", "bayes")

    def test_deterministic(self):
        ruleset = ds_ruleset(
            [RuleSpec("R1", 0.7, 0.1, 0.2), RuleSpec("R2", 0.3, 0.2, 0.5)],
            combiner=SIMPLIFIED,
        )
        txn = Transaction("t1", ("R1", "R2"))
        assert score(ruleset, txn) == score(ruleset, txn)


class TestScoreBayes:
    @staticmethod
    def ruleset():
        model = BayesModel(
            7 / 30, 23 / 30, {"E1": (4 / 7, 6 / 23), "E2": (1 / 7, 2 / 23)}
        )
        rules = [RuleSpec.from_score("E1", 0.5), RuleSpec.from_score("E2", 0.5)]
        return RuleSet.from_rules(rules, BayesCombiner(model)), model

    def test_matches_posterior(self):
        ruleset, model = self.ruleset()
        report = score(ruleset, Transaction("t1", ("E1", "E2")))
        expected = posterior(model, {"E1", "E2"}).p_fraud
        assert report.point_estimate == expected
        assert report.bel_fraud == report.pl_fraud == expected
        assert report.conflict == 0.0
        assert report.n_sources == 2

    def test_unknown_rule_checked_before_model(self):
        ruleset, _ = self.ruleset()
        with pytest.raises(UnknownRule):
            score(ruleset, Transaction("t1", ("E1", "E9")))

    def test_no_evidence(self):
        ruleset, _ = self.ruleset()
        with pytest.raises(NoEvidence):
            score(ruleset, Transaction("t1", ()))


def bayes_ruleset(prior_fraud, likelihoods, extra_rules=()):
    """A Bayes rule set over every id in ``likelihoods`` plus ``extra_rules``,
    which the model does not know."""
    model = BayesModel(prior_fraud, 1.0 - prior_fraud, likelihoods)
    rules = [RuleSpec.from_score(rule_id, 0.5) for rule_id in [*likelihoods, *extra_rules]]
    return RuleSet.from_rules(rules, BayesCombiner(model)), model


def exact_p_fraud(model, ids):
    pairs = [model.likelihoods[eid] for eid in sorted(set(ids))]
    p_fraud, _ = exact_posterior(Fraction(model.prior_fraud), pairs)
    return float(p_fraud)


class TestScoreBayesFold:
    """Bayes ``score`` folds the compiled likelihood pairs with products that
    carry their own exponents; these pin it to ``posterior``, to the
    log-space path and to the exact-rational oracle."""

    def test_ruleset_compiles_model_pairs(self):
        ruleset, model = bayes_ruleset(0.25, {"E1": (0.5, 0.25)}, extra_rules=["R9"])
        assert ruleset.pairs == {"E1": model.likelihoods["E1"]}
        assert ds_ruleset([RuleSpec.from_score("E1", 0.5)]).pairs == {}
        assert ruleset._replace(threshold=0.9).pairs == ruleset.pairs

    def test_ruleset_compiles_no_triples(self):
        ruleset, _ = bayes_ruleset(0.25, {"E1": (0.5, 0.25)}, extra_rules=["R9"])
        assert ruleset.triples == {}
        assert ruleset._replace(combiner=STANDARD).triples.keys() == {"E1", "R9"}

    def test_folds_in_sorted_id_order(self):
        # Multiplied in trigger order (E2, E1, E3), the last bit differs.
        ruleset, model = bayes_ruleset(
            0.1, {"E1": (0.7, 0.3), "E2": (0.11, 0.13), "E3": (0.37, 0.29)}
        )
        report = score(ruleset, Transaction("t", ("E2", "E1", "E3")))
        assert report.point_estimate == posterior(model, ["E1", "E2", "E3"]).p_fraud

    def test_small_normal_products_stay_bit_identical(self):
        # Both products end far below 1 yet stay normal (about 1e-240 and
        # 1e-235), so the fold must reproduce the direct product to the last
        # bit.
        ids = [f"E{i:02d}" for i in range(20)]
        ruleset, model = bayes_ruleset(0.3, {eid: (1e-12, 2.7e-12) for eid in ids})
        report = score(ruleset, Transaction("t", tuple(ids)))
        assert report.point_estimate == posterior(model, ids).p_fraud

    def test_two_thousand_sources_score(self):
        ids = [f"S{i:04d}" for i in range(2000)]
        ruleset, model = bayes_ruleset(7 / 30, {eid: (0.3, 0.4) for eid in ids})
        with pytest.raises(ZeroMarginal):
            posterior(model, ids)
        report = score(ruleset, Transaction("t", tuple(ids)))
        assert report.n_sources == 2000
        assert report.point_estimate == pytest.approx(posterior_log(model, ids).p_fraud, rel=1e-12)
        assert report.point_estimate == pytest.approx(exact_p_fraud(model, ids), rel=1e-12)

    def test_mixed_long_fold_lands_mid_range(self):
        # 1200 sources whose likelihood ratios cancel in blocks of four, so
        # the posterior returns to the prior while both products sink far
        # below the smallest double.
        cycle = [(0.4, 0.3), (0.3, 0.4), (0.9, 0.6), (0.6, 0.9)]
        ids = [f"S{i:04d}" for i in range(1200)]
        ruleset, model = bayes_ruleset(0.3, {eid: cycle[i % 4] for i, eid in enumerate(ids)})
        with pytest.raises(ZeroMarginal):
            posterior(model, ids)
        shuffled = list(ids)
        random.Random(5).shuffle(shuffled)
        report = score(ruleset, Transaction("t", tuple(shuffled)))
        assert report.point_estimate == pytest.approx(0.3, rel=1e-12)
        assert report.point_estimate == pytest.approx(posterior_log(model, ids).p_fraud, rel=1e-12)
        assert report.point_estimate == pytest.approx(exact_p_fraud(model, ids), rel=1e-12)

    def test_subnormal_product_is_not_taken_as_the_posterior(self):
        # The direct fraud product of these three pairs is subnormal, so it
        # lost bits that the carried product keeps: the quotients differ.
        prior = float.fromhex("0x1.b87a04237194ap-3")
        pairs = {
            "E1": (float.fromhex("0x1.a2c8a6c4a1696p-398"), float.fromhex("0x1.e0ba140208b1cp-1")),
            "E2": (float.fromhex("0x1.3bf88b4ca0f7ep-263"), float.fromhex("0x1.679984c8b7b3cp-1")),
            "E3": (float.fromhex("0x1.d64ef5c34d09bp-363"), float.fromhex("0x1.d4e65a344eeaap-1")),
        }
        ruleset, model = bayes_ruleset(prior, pairs)
        fraud = math.prod([f for f, _ in pairs.values()], start=prior)
        genuine = math.prod([g for _, g in pairs.values()], start=model.prior_genuine)
        expected = rescaled_posterior(prior, model.prior_genuine, pairs.values())
        assert fraud / (fraud + genuine) != expected
        assert score(ruleset, Transaction("t", ("E3", "E1", "E2"))).point_estimate == expected

    def test_a_product_below_the_subnormals_keeps_a_normal_posterior(self):
        # The fraud product ends near 2**-1075, below the smallest subnormal,
        # and the genuine one near 2**-327, yet the posterior, about 7.8e-226,
        # is a normal double and keeps its bits.
        model = load_model(Path(__file__).parent / "golden" / "deep-bayes" / "model.json")
        ids = [f"F{i:02d}" for i in range(80)] + [f"G{i:02d}" for i in range(28)]
        pairs = [model.likelihoods[eid] for eid in ids] + [(1e-10, 0.9)]
        expected, _ = exact_posterior(Fraction(model.prior_fraud), pairs)
        assert posterior_binary(model.prior_fraud, model.prior_genuine, pairs) == pytest.approx(
            float(expected), rel=1e-12, abs=0.0
        )

    def test_subnormal_likelihoods_keep_their_bits(self):
        # Both likelihoods are subnormal doubles, the second exactly three
        # times the first, so the exact posterior is 1/4.
        pairs = [(1e-310, 3e-310)]
        assert exact_posterior(0.5, pairs)[0] == Fraction(1, 4)
        assert posterior_binary(0.5, 0.5, pairs) == 0.25

    def test_zero_likelihood_gives_exact_bounds(self):
        ruleset, _ = bayes_ruleset(
            0.4, {"E1": (0.0, 0.3), "E2": (0.7, 0.0), "E3": (0.5, 0.5)}
        )
        assert score(ruleset, Transaction("t", ("E1", "E3"))).point_estimate == 0.0
        assert score(ruleset, Transaction("t", ("E2", "E3"))).point_estimate == 1.0
        with pytest.raises(ZeroMarginal) as folded:
            score(ruleset, Transaction("t", ("E1", "E2")))
        with pytest.raises(ZeroMarginal) as generic:
            posterior(ruleset.combiner.model, ["E1", "E2"])
        assert str(folded.value) == str(generic.value)

    def test_zero_likelihood_survives_a_long_fold(self):
        # The last two pairs decay one product far below the other, about
        # 2**-300000, before the zero meets it.
        ids = [f"S{i:04d}" for i in range(1000)]
        for pair in [(0.3, 0.2), (2.0**-300, 0.9), (0.9, 2.0**-300)]:
            likelihoods = {eid: pair for eid in ids}
            ruleset, _ = bayes_ruleset(0.5, {**likelihoods, "Z": (0.0, 0.5)})
            assert score(ruleset, Transaction("t", (*ids, "Z"))).point_estimate == 0.0
            ruleset, _ = bayes_ruleset(0.5, {**likelihoods, "Z": (0.5, 0.0)})
            assert score(ruleset, Transaction("t", (*ids, "Z"))).point_estimate == 1.0

    def test_repeated_ids_count_once(self):
        ruleset, _ = bayes_ruleset(0.3, {"a": (0.6, 0.2), "b": (0.1, 0.4)})
        once = score(ruleset, Transaction("t", ("a",)))
        twice = score(ruleset, Transaction("t", ("a", "a")))
        assert twice == once and twice.n_sources == 1
        assert score(ruleset, Transaction("t", ("a", "b", "a"))) == score(
            ruleset, Transaction("t", ("a", "b"))
        )

    def test_unknown_rule_precedes_unknown_evidence(self):
        ruleset, _ = bayes_ruleset(0.3, {"E1": (0.6, 0.2)}, extra_rules=["R9"])
        with pytest.raises(UnknownRule, match="'GONE'"):
            score(ruleset, Transaction("t", ("R9", "GONE", "E1")))

    def test_unknown_evidence_message_matches_posterior(self):
        ruleset, model = bayes_ruleset(0.3, {"E1": (0.6, 0.2)}, extra_rules=["R9", "R8"])
        triggered = ("R9", "E1", "R8", "R9")
        with pytest.raises(UnknownEvidence) as folded:
            score(ruleset, Transaction("t", triggered))
        with pytest.raises(UnknownEvidence) as generic:
            posterior(model, triggered)
        assert str(folded.value) == str(generic.value)

    def test_no_evidence_precedes_model_checks(self):
        ruleset, _ = bayes_ruleset(0.3, {"E1": (0.6, 0.2)})
        with pytest.raises(NoEvidence, match="'t'"):
            score(ruleset, Transaction("t", ()))

    def test_model_id_missing_from_the_config_is_an_unknown_rule(self):
        # The model knows E2 but the config has no rule E2, so its pair is
        # never folded: score raises and score_batch reports an error row.
        model = BayesModel(0.3, 0.7, {"E1": (0.6, 0.2), "E2": (0.5, 0.1)})
        ruleset = RuleSet.from_rules([RuleSpec.from_score("E1", 0.5)], BayesCombiner(model))
        batch = [Transaction("t1", ("E1", "E2")), Transaction("t2", ("E2",))]
        for txn in batch:
            with pytest.raises(UnknownRule, match="'E2'"):
                score(ruleset, txn)
        assert score_batch(ruleset, batch) == (
            [],
            [(batch[0], "error", "UnknownRule"), (batch[1], "error", "UnknownRule")],
        )


def _found_pairs(ruleset, txn):
    """The compiled pairs the Bayes fold multiplies, in sorted id order, after
    the generic checks that fail a transaction whose pairs are not all found."""
    model = ruleset.combiner.model
    pairs = ruleset.pairs
    try:
        found = [pairs[rule_id] for rule_id in sorted(txn.triggered)]
    except KeyError:
        found = []
    if not found:
        scoring._triggered(ruleset.rules, txn)
        resolve_ids(model, txn.triggered)
    return found


def assert_near_exact(p_fraud, prior_fraud, prior_genuine, pairs):
    """``p_fraud`` is within (2n + 4) * 2**-53 of the exact posterior relative
    to it, for n pairs, where that posterior is a normal double: each class
    product rounds once per pair, and the sum and the quotient once more. A
    posterior below 2**-1022 may be off by a further half subnormal step."""
    a, b = dyadic_posterior(prior_fraud, prior_genuine, pairs)
    assert a + b, f"both exact products are zero, yet {p_fraud!r}"
    numerator, denominator = p_fraud.as_integer_ratio()
    # |p_fraud - exact| <= bound, both sides times (a + b) * denominator * 2**1075
    error = abs(numerator * (a + b) - a * denominator) << 1075
    bound = (2 * len(pairs) + 4) * a * denominator << 1022
    if a << 1022 < a + b:  # the exact posterior is below 2**-1022
        bound += (a + b) * denominator
    assert error <= bound, (p_fraud, pairs[:6])


# Exact 0 and 1, ints among them, and magnitudes down to 2**-400, so that
# up to 300 factors take a product far below the smallest double, where the
# old rescaled loop is still exact, and to zero.
_likelihood_values = st.one_of(
    st.sampled_from([0, 1, 0.0, 1.0, 2.0**-400, 0.5]),
    st.floats(0.0, 1.0),
    st.builds(
        lambda mantissa, exponent: math.ldexp(mantissa, -exponent),
        st.floats(0.5, 1.0, exclude_max=True),
        st.integers(0, 399),
    ),
)


# One class's likelihoods from 2**-400 to 2**-200 and the other's from
# 2**-150 to 2**-50, under a prior near the middle. Three or more such steps
# take one straight product below the smallest normal double, 2**-1022, or
# to zero, while the other stays far above it and the posterior stays a
# double: only a loop that carries or rescales the exponent keeps its bits.
# Were the other class near 1, the posterior would share the underflowed
# product's subnormal grid, and the straight quotient would mostly agree
# with the loop's.
_lopsided_palettes = st.lists(
    st.tuples(
        st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-399, -200)),
        st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-150, -50)),
    ),
    min_size=1,
    max_size=6,
).flatmap(lambda pairs: st.sampled_from([pairs, [pair[::-1] for pair in pairs]]))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_bayes_fold_equals_the_posterior_binary_fold(data):
    lopsided = data.draw(st.booleans(), label="lopsided")
    prior_fraud = data.draw(
        st.floats(0.25, 0.75)
        if lopsided
        else st.one_of(st.sampled_from([0, 1, 0.0, 1.0]), st.floats(0.0, 1.0)),
        label="prior",
    )
    palette = data.draw(
        _lopsided_palettes
        if lopsided
        else st.lists(st.tuples(_likelihood_values, _likelihood_values), min_size=1, max_size=6),
        label="pairs",
    )
    known = [f"E{i:03d}" for i in range(data.draw(st.integers(1, 300), label="known"))]
    likelihoods = {eid: palette[i % len(palette)] for i, eid in enumerate(known)}
    # R* are rules the model does not know; X* are not rules at all.
    extra = data.draw(st.lists(st.sampled_from(["R1", "R2"]), unique=True), label="extra")
    ruleset, _ = bayes_ruleset(prior_fraud, likelihoods, extra_rules=extra)
    pool = st.sampled_from(known)
    if data.draw(st.booleans(), label="stray"):
        pool = st.one_of(pool, st.sampled_from(["R1", "R2", "X1"]))
    triggered = data.draw(st.lists(pool, max_size=300), label="triggered")  # with repeats
    txn = Transaction("t", triggered)
    model = ruleset.combiner.model
    priors = model.prior_fraud, model.prior_genuine
    try:
        found = _found_pairs(ruleset, txn)
        # The old rescaled loop is the bit-level reference wherever it is
        # exact; elsewhere it rounded or underflowed, and the exact oracle is.
        if rescaled_loop_is_exact(*priors, found):
            p_fraud = rescaled_posterior(*priors, found)
        else:
            p_fraud = posterior_binary(*priors, found)
            assert_near_exact(p_fraud, *priors, found)
    except FusionError as exc:
        with pytest.raises(type(exc)) as raised:
            scoring._fold(ruleset)(txn)
        assert str(raised.value) == str(exc)
    else:
        # repr tells every float apart, -0.0 from 0.0 included
        assert repr(scoring._fold(ruleset)(txn)) == repr((p_fraud, p_fraud, 0.0, len(found)))


# Priors and likelihoods from 1 down through the subnormals to 5e-324, and 0.
_tiny_values = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.0**-1022]),
    st.floats(0.0, 1.0),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 0)),
)


@settings(max_examples=300, deadline=None)
@given(
    priors=st.tuples(_tiny_values, _tiny_values),
    palette=st.lists(st.tuples(_tiny_values, _tiny_values), min_size=1, max_size=6),
    n_pairs=st.integers(1, 300),
)
@example(priors=(0.5, 0.5), palette=[(1e-300, 0.9), (0.9, 1e-300)], n_pairs=4)
@example(priors=(2.2250738585e-313, 1.0), palette=[(3.87e-121, 0.0)], n_pairs=1)
def test_posterior_binary_is_near_exact_down_to_the_smallest_subnormal(priors, palette, n_pairs):
    pairs = [palette[i % len(palette)] for i in range(n_pairs)]
    a, b = dyadic_posterior(*priors, pairs)
    if not a + b:  # both exact products are zero
        with pytest.raises(ZeroMarginal):
            posterior_binary(*priors, pairs)
    else:
        assert_near_exact(posterior_binary(*priors, pairs), *priors, pairs)


@pytest.mark.parametrize(
    "pairs", [[(0.6, 0.2), (0.1, 0.4)], [(2.0**-10, 0.5)] * 120], ids=["straight", "carried"]
)
def test_posterior_binary_reads_a_generator_as_a_list(pairs):
    # The products read the pairs more than once.
    from_generator = posterior_binary(0.3, 0.7, (pair for pair in pairs))
    assert repr(from_generator) == repr(posterior_binary(0.3, 0.7, pairs))


class TestSlottedRecords:
    def test_reports_and_transactions_have_no_instance_dict(self):
        txn = Transaction("t", ["a"])
        assert txn.triggered == ("a",)
        assert not hasattr(txn, "__dict__")
        assert not hasattr(report("t", 0.2, 0.4), "__dict__")
        with pytest.raises(AttributeError):
            txn.id = "u"


class TestTupleRecords:
    def test_replace_keeps_the_first_of_each_trigger(self):
        txn = Transaction("t", ["a"])._replace(triggered=["b", "a", "b"])
        assert type(txn) is Transaction
        assert txn.triggered == ("b", "a")

    @pytest.mark.parametrize("triggered", ["R1", "", b"R1"], ids=["str", "empty", "bytes"])
    def test_a_string_is_not_a_list_of_triggers(self, triggered):
        message = f"transaction 't': triggered must be a collection of rule ids, got {triggered!r}"
        with pytest.raises(InvalidValue) as info:
            Transaction("t", triggered)
        assert str(info.value) == message
        with pytest.raises(InvalidValue) as info:
            Transaction("t", ["R1"])._replace(triggered=triggered)
        assert str(info.value) == message

    def test_records_survive_a_pickle_round_trip(self):
        txn = Transaction("t", ["a", "b"], {"amount": 3})
        ranked = rank([report("t", 0.2, 0.4)._replace(payload={"amount": 3})])[0]
        for record in (txn, ranked):
            copy = pickle.loads(pickle.dumps(record))
            assert type(copy) is type(record)
            assert copy == record


class TestClassify:
    def test_wide_interval_is_only_suspicious(self):
        flags = classify(0.25, 0.98, 0.5)
        assert flags.suspicious and not flags.confirmed

    def test_boundary_is_strict(self):
        flags = classify(0.5, 0.5, 0.5)
        assert not flags.suspicious and not flags.confirmed

    def test_certain_fraud(self):
        flags = classify(1.0, 1.0, 0.5)
        assert flags.suspicious and flags.confirmed

    def test_confirmed_implies_suspicious(self):
        for bel, pl, tau in ((0.6, 0.9, 0.5), (0.51, 0.52, 0.5), (0.9, 1.0, 0.1)):
            flags = classify(bel, pl, tau)
            assert not flags.confirmed or flags.suspicious

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            classify(0.9, 0.3, 0.5)

    @pytest.mark.parametrize(
        "bel, pl, threshold, message",
        [
            (math.nan, 0.4, 0.5, "invalid belief interval [nan, 0.4]"),
            (0.2, math.nan, 0.5, "invalid belief interval [0.2, nan]"),
            (0.2, 0.4, math.nan, "threshold must be in [0, 1], got nan"),
            (-math.inf, math.inf, 0.5, "invalid belief interval [-inf, inf]"),
            (0.2, math.inf, 0.5, "invalid belief interval [0.2, inf]"),
            (-0.1, 0.4, 0.5, "invalid belief interval [-0.1, 0.4]"),
            (0.2, 1.5, 0.5, "invalid belief interval [0.2, 1.5]"),
            (0.2, 0.4, -math.inf, "threshold must be in [0, 1], got -inf"),
            (0.2, 0.4, 1.5, "threshold must be in [0, 1], got 1.5"),
            (0.9, 0.3, 0.5, "bel 0.9 exceeds pl 0.3"),
            (math.inf, 0.3, 0.5, "bel inf exceeds pl 0.3"),
        ],
    )
    def test_rejects_non_finite_and_out_of_range_input(self, bel, pl, threshold, message):
        with pytest.raises(InvalidValue) as info:
            classify(bel, pl, threshold)
        assert str(info.value) == message

    def test_raising_threshold_never_flags_more(self):
        for bel, pl in ((0.2, 0.8), (0.5, 0.5), (0.7, 0.9)):
            low = classify(bel, pl, 0.3)
            high = classify(bel, pl, 0.8)
            assert (not low.suspicious) <= (not high.suspicious)
            assert (not low.confirmed) <= (not high.confirmed)


def report(txn_id, bel, pl):
    return ScoreReport(
        transaction_id=txn_id,
        bel_fraud=bel,
        pl_fraud=pl,
        point_estimate=bel,
        conflict=0.0,
        n_sources=1,
        suspicious=pl > 0.5,
        confirmed=bel > 0.5,
    )


class TestRank:
    def test_higher_belief_wins_despite_lower_plausibility(self):
        x = report("X", 0.50, 0.70)
        y = report("Y", 0.40, 0.77)
        ranked = rank([y, x])
        assert [r.transaction_id for r in ranked] == ["X", "Y"]
        assert [r.rank for r in ranked] == [1, 2]

    def test_plausibility_breaks_belief_ties(self):
        a = report("A", 0.4, 0.9)
        b = report("B", 0.4, 0.6)
        assert [r.transaction_id for r in rank([b, a])] == ["A", "B"]

    def test_identical_intervals_order_by_id(self):
        a = report("a", 0.4, 0.6)
        b = report("b", 0.4, 0.6)
        assert [r.transaction_id for r in rank([b, a])] == ["a", "b"]

    def test_empty(self):
        assert rank([]) == []

    def test_permutation_and_gap_free(self):
        reports = [report(f"t{i}", i / 10, min(1.0, i / 10 + 0.2)) for i in range(7)]
        ranked = rank(reports[::-1])
        assert sorted(r.rank for r in ranked) == list(range(1, 8))
        assert {r.transaction_id for r in ranked} == {r.transaction_id for r in reports}

    def test_matches_replace_on_shuffled_batch(self):
        reports = [
            report(f"t{i:02d}", bel, pl)._replace(payload={"i": i})
            for i, (bel, pl) in enumerate(
                [(0.1, 0.9), (0.4, 0.6), (0.4, 0.6), (0.4, 0.8), (0.9, 0.9), (0.0, 0.0)] * 4
            )
        ]
        random.Random(3).shuffle(reports)
        ordered = sorted(reports, key=lambda r: (-r.bel_fraud, -r.pl_fraud, r.transaction_id))
        expected = [r._replace(rank=i) for i, r in enumerate(ordered, start=1)]
        assert rank(reports) == expected

    def test_input_order_invariance(self):
        reports = [report("m", 0.5, 0.6), report("n", 0.5, 0.6), report("o", 0.7, 0.7)]
        first = rank(reports)
        second = rank(list(reversed(reports)))
        assert first == second


# A mass as a rule may carry it: an int, a negative zero or a plain float.
_MASS = st.one_of(st.sampled_from([0, 1, -0.0, 0.5]), st.floats(0.0, 1.0))


@st.composite
def rule_masses(draw):
    """Three masses RuleSpec accepts, in any order. Any may be an int or
    -0.0, two may tie for the largest, and the sum may miss 1 by up to
    NORMALIZATION_TOLERANCE."""
    first = draw(_MASS)
    if first <= 0.5 and draw(st.booleans()):
        second = first
    else:
        second = draw(st.one_of(st.sampled_from([0, -0.0]), st.floats(0.0, 1.0 - first)))
    nudge = draw(st.sampled_from([0.0, 1e-10, -1e-10, 7e-10, -9e-10]))
    third = max(1.0 - first - second + nudge, 0.0)
    masses = tuple(draw(st.permutations([first, second, third])))
    assume(abs(math.fsum(masses) - 1.0) <= scoring.NORMALIZATION_TOLERANCE)
    return masses


class TestRuleSet:
    @settings(max_examples=300, deadline=None)
    @example(masses=(0, 1, 0))
    @example(masses=(-0.0, 1.0, 0.0))
    @example(masses=(0.4, 0.4, 0.20000000069999996))
    @example(masses=(0.4, 0.20000000069999996, 0.4))
    @example(masses=(0.20000000069999996, 0.4, 0.4))
    @example(masses=(0.0, 0.5, 0.50000000069999996))
    @given(masses=rule_masses())
    def test_compiled_triple_is_mass_triple_bit_for_bit(self, masses):
        expected = evidence.mass_triple(*masses)
        compiled = ds_ruleset([RuleSpec("R1", *masses)]).triples["R1"]
        assert len(compiled) == 3
        for got, want in zip(compiled, expected):
            assert type(got) is float and type(want) is float
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
        stored = RuleSpec("R1", *masses)[1:4]
        for got, want in zip(stored, expected, strict=True):
            assert type(got) is float
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(ValueError):
            RuleSet.from_rules(
                [RuleSpec.from_score("A", 0.5), RuleSpec.from_score("A", 0.6)], STANDARD
            )

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            ds_ruleset([RuleSpec.from_score("A", 0.5)], threshold=1.5)

    def test_key_id_mismatch(self):
        with pytest.raises(ValueError):
            RuleSet({"B": RuleSpec.from_score("A", 0.5)}, STANDARD)


class TestDuplicateTriggers:
    """A repeated trigger id counts once, under every combiner."""

    def test_transaction_keeps_first_occurrences(self):
        assert Transaction("t", ["b", "a", "b", "c", "a"]).triggered == ("b", "a", "c")
        assert Transaction("t", ("a", "b")).triggered == ("a", "b")

    @pytest.mark.parametrize("combiner", [STANDARD, SIMPLIFIED], ids=["standard", "paper"])
    def test_dempster_fuses_a_repeated_rule_once(self, combiner):
        ruleset = ds_ruleset([RuleSpec.from_score("a", 0.8, 0.2)], combiner)
        twice = score(ruleset, Transaction("t", ("a", "a")))
        assert twice == score(ruleset, Transaction("t", ("a",)))
        assert twice.n_sources == 1 and twice.bel_fraud == pytest.approx(0.64)

    def test_paper_mode_folds_in_first_occurrence_order(self):
        specs = [
            RuleSpec("a", 0.7, 0.1, 0.2),
            RuleSpec("b", 0.3, 0.2, 0.5),
            RuleSpec("c", 0.1, 0.6, 0.3),
        ]
        ruleset = ds_ruleset(specs, SIMPLIFIED)
        assert score(ruleset, Transaction("t", ("b", "a", "b", "c", "a"))) == score(
            ruleset, Transaction("t", ("b", "a", "c"))
        )


def score_then_rank(ruleset, transactions):
    """score and rank, one transaction at a time, as a reference."""
    scored, side = [], []
    for txn in transactions:
        if not txn.triggered:
            side.append((txn, "skipped", None))
            continue
        try:
            scored.append(score(ruleset, txn))
        except FusionError as exc:
            side.append((txn, "error", type(exc).__name__))
    return rank(scored), side


# Rule masses on a coarse grid, so that equal intervals and ties are common;
# X-F and X-G are certain and opposite, a planted TotalConflict pair.
_TRIPLES = [(0.6, 0.1, 0.3), (0.2, 0.5, 0.3), (0.4, 0.4, 0.2), (0.0, 0.3, 0.7), (0.9, 0.0, 0.1)]
_PLANTED = {"X-F": (1.0, 0.0, 0.0), "X-G": (0.0, 1.0, 0.0)}


@st.composite
def batches(draw, families=("ds-standard", "ds-paper", "bayes")):
    """(ruleset, shuffled transactions) under one of ``families``: ds-standard,
    ds-paper or bayes.

    Triggers mix configured rules, an unknown one ("GONE") and the planted
    pair; empty lists are skipped. Under bayes the model leaves R3 out, so
    a transaction triggering it raises UnknownEvidence. Ids come from a
    small pool, so a batch can hold one id twice.
    """
    family = draw(st.sampled_from(families))
    triples = {f"R{i}": draw(st.sampled_from(_TRIPLES)) for i in range(5)}
    triples.update(_PLANTED)
    rules = [RuleSpec(rule_id, *masses) for rule_id, masses in triples.items()]
    if family == "bayes":
        likelihood = st.sampled_from([0.05, 0.2, 0.5, 0.8])
        known = [rule_id for rule_id in triples if rule_id != "R3"]
        model = BayesModel(
            0.1, 0.9, {rule_id: (draw(likelihood), draw(likelihood)) for rule_id in known}
        )
        combiner = BayesCombiner(model)
    else:
        combiner = STANDARD if family == "ds-standard" else SIMPLIFIED
    ruleset = RuleSet.from_rules(rules, combiner, draw(st.sampled_from([0.3, 0.5, 0.7])))
    trigger = st.sampled_from([*triples, "GONE"])
    transactions = [
        Transaction(
            draw(st.sampled_from([f"t{i}" for i in range(12)])),
            draw(st.lists(trigger, max_size=5)),
            {"seq": seq},
        )
        for seq in range(draw(st.integers(0, 25)))
    ]
    return ruleset, draw(st.permutations(transactions))


class TestScoreBatch:
    @settings(max_examples=300, deadline=None)
    @given(batches())
    def test_equals_score_then_rank(self, case):
        ruleset, transactions = case
        assert score_batch(ruleset, transactions) == score_then_rank(ruleset, transactions)

    @pytest.mark.parametrize("family", ["ds-standard", "ds-paper", "bayes"])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_point_estimate_is_bel_fraud(self, family, data):
        """Every report, from score_batch and from score, holds one float as
        both bel_fraud and point_estimate: the csv and jsonl reports print
        its text once for both."""
        ruleset, transactions = data.draw(batches((family,)))
        reports, _ = score_batch(ruleset, transactions)
        for txn in transactions:
            try:
                reports.append(score(ruleset, txn))
            except FusionError:
                pass
        for r in reports:
            assert r.point_estimate is r.bel_fraud

    def test_covers_every_outcome(self):
        planted = [RuleSpec(rule_id, *masses) for rule_id, masses in _PLANTED.items()]
        ruleset = ds_ruleset([RuleSpec("A", 0.6, 0.1, 0.3), *planted])
        transactions = [
            Transaction("skip", ()),
            Transaction("gone", ("A", "GONE")),
            Transaction("clash", ("X-F", "X-G")),
            Transaction("b", ("A",)),
            Transaction("a", ("A",)),
        ]
        ranked, side = score_batch(ruleset, transactions)
        assert [(r.transaction_id, r.rank) for r in ranked] == [("a", 1), ("b", 2)]
        assert ranked == rank([score(ruleset, transactions[3]), score(ruleset, transactions[4])])
        assert side == [
            (transactions[0], "skipped", None),
            (transactions[1], "error", "UnknownRule"),
            (transactions[2], "error", "TotalConflict"),
        ]

    def test_empty_batch(self):
        assert score_batch(ds_ruleset([RuleSpec("A", 0.6, 0.1, 0.3)]), []) == ([], [])


class TestRankedRows:
    """The one ranking pass: a row per scored transaction, holding the fold's
    own values, ordered as rank orders reports."""

    def test_a_scored_row_holds_the_reports_fields(self):
        ruleset = ds_ruleset([RuleSpec("A", 0.6, 0.1, 0.3), RuleSpec("B", 0.2, 0.5, 0.3)])
        txn = Transaction("t", ("A", "B"), {"k": 1})
        rows, side = scoring.ranked_rows(ruleset, [txn])
        r = score(ruleset, txn)
        assert side == []
        assert rows == [(r.bel_fraud, r.pl_fraud, "t", r.conflict, r.n_sources, {"k": 1})]

    def test_a_bayes_row_holds_one_float_as_bel_and_pl(self):
        ruleset, model = TestScoreBayes.ruleset()
        [row], _ = scoring.ranked_rows(ruleset, [Transaction("t", ("E1", "E2"))])
        assert row[0] is row[1]
        assert row[0] == posterior(model, {"E1", "E2"}).p_fraud

    def test_a_one_source_dempster_row_holds_the_compiled_mass(self):
        ruleset = ds_ruleset([RuleSpec("A", 0.6, 0.1, 0.3)])
        [row], _ = scoring.ranked_rows(ruleset, [Transaction("t", ("A",))])
        assert row[0] is ruleset.triples["A"][0]
        assert row[1] == pytest.approx(0.9)

    def test_full_ties_keep_input_order_and_never_compare_payloads(self):
        ruleset = ds_ruleset([RuleSpec("A", 0.6, 0.1, 0.3), RuleSpec("B", 0.2, 0.5, 0.3)])
        transactions = [
            Transaction("dup", ("A",), {"seq": 2}),
            Transaction("dup", ("B",), {"seq": 0}),
            Transaction("dup", ("A",), {"seq": 1}),
            Transaction("dup", ("A",), {"seq": 0}),
        ]
        rows, _ = scoring.ranked_rows(ruleset, transactions)
        assert [row[5] for row in rows] == [{"seq": 2}, {"seq": 1}, {"seq": 0}, {"seq": 0}]
        assert rows[-1][:2] == score(ruleset, transactions[1])[1:3]

    def test_shuffled_ids_rank_as_sorted_ids_do(self):
        specs = [RuleSpec(f"R{i}", *masses) for i, masses in enumerate(_TRIPLES)]
        ruleset = ds_ruleset(specs)
        rng = random.Random(11)
        transactions = [
            Transaction(f"t{i:03d}", rng.sample([spec.id for spec in specs], rng.randint(1, 3)))
            for i in range(200)
        ]
        shuffled = transactions[:]
        rng.shuffle(shuffled)
        rows, _ = scoring.ranked_rows(ruleset, transactions)
        assert scoring.ranked_rows(ruleset, shuffled)[0] == rows
        assert rows == sorted(rows, key=lambda row: (-row[0], -row[1], row[2]))
