"""Fitting from counts and the direct/log-space posterior paths."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorefusion import (
    BayesModel,
    EvidenceCounts,
    LabeledHistory,
    Likelihood,
    fit,
    posterior,
    posterior_log,
)
from scorefusion.errors import (
    DegenerateClass,
    EmptyHistory,
    InvalidValue,
    NoEvidence,
    NonPositiveLikelihood,
    UnknownEvidence,
    ZeroMarginal,
)

from oracles import exact_posterior

# 30 transactions, 7 frauds; E1 fires on 4 frauds / 6 genuines, E2 on 1 / 2
HISTORY = LabeledHistory(
    total=30, fraud_count=7, evidence={"E1": (4, 6), "E2": (1, 2)}
)


def rounded_model():
    """The worked example with likelihoods rounded to two decimals."""
    return BayesModel(
        prior_fraud=0.23,
        prior_genuine=0.77,
        likelihoods={"E1": (0.57, 0.26), "E2": (0.14, 0.09)},
    )


class TestLabeledHistory:
    def test_counts_and_derived(self):
        assert HISTORY.genuine_count == 23
        assert HISTORY.evidence["E1"] == EvidenceCounts(4, 6)

    def test_empty_history(self):
        with pytest.raises(EmptyHistory):
            LabeledHistory(total=0, fraud_count=0, evidence={})

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            LabeledHistory(total=10, fraud_count=11, evidence={})
        with pytest.raises(ValueError):
            LabeledHistory(total=10, fraud_count=2, evidence={"E1": (3, 0)})
        with pytest.raises(ValueError):
            LabeledHistory(total=10, fraud_count=2, evidence={"E1": (0, 9)})
        with pytest.raises(ValueError, match="evidence 'E1' has negative counts"):
            LabeledHistory(total=10, fraud_count=2, evidence={"E1": (0, -1)})

    @pytest.mark.parametrize(
        "total, fraud_count, evidence, message",
        [
            (3, 1, {"e": (math.nan, 1)}, "evidence 'e': fraud count must be an int, got nan"),
            (3, 1, {"e": (0, 1.0)}, "evidence 'e': genuine count must be an int, got 1.0"),
            (math.inf, 0, {}, "total must be an int, got inf"),
            (2.5, 1, {}, "total must be an int, got 2.5"),
            (True, 0, {}, "total must be an int, got True"),
            (3, 0.5, {}, "fraud_count must be an int, got 0.5"),
            (3, True, {}, "fraud_count must be an int, got True"),
            (3, -0.0, {}, "fraud_count must be an int, got -0.0"),
        ],
    )
    def test_counts_must_be_ints(self, total, fraud_count, evidence, message):
        with pytest.raises(InvalidValue) as info:
            LabeledHistory(total, fraud_count, evidence)
        assert str(info.value) == message

    @pytest.mark.parametrize("counts", [(1,), (1, 0, 0), 1], ids=["one", "three", "not-a-pair"])
    def test_an_entry_must_be_a_pair(self, counts):
        with pytest.raises(InvalidValue) as info:
            LabeledHistory(3, 1, {"e": counts})
        assert str(info.value) == "evidence 'e' must be a (fraud, genuine) pair"

    def test_a_count_past_the_string_limit_prints_as_inf(self):
        with pytest.raises(InvalidValue) as info:
            LabeledHistory(3, 10**5000, {})
        assert str(info.value) == "fraud_count inf out of range for total 3"


class TestFit:
    def test_unsmoothed_reproduces_count_ratios(self):
        model = fit(HISTORY, smoothing=0.0)
        assert model.prior_fraud == 7 / 30
        assert model.prior_genuine == 23 / 30
        assert model.likelihoods["E1"] == Likelihood(4 / 7, 6 / 23)
        assert model.likelihoods["E2"] == Likelihood(1 / 7, 2 / 23)

    def test_rounded_display_values(self):
        model = fit(HISTORY)
        assert round(model.prior_fraud, 2) == 0.23
        assert round(model.likelihoods["E1"].p_given_fraud, 2) == 0.57
        assert round(model.likelihoods["E1"].p_given_genuine, 2) == 0.26
        assert round(model.likelihoods["E2"].p_given_fraud, 2) == 0.14
        assert round(model.likelihoods["E2"].p_given_genuine, 2) == 0.09

    def test_laplace_smoothing(self):
        history = LabeledHistory(
            total=30, fraud_count=7, evidence={"E1": (4, 6), "NEVER": (0, 0)}
        )
        model = fit(history, smoothing=1.0)
        assert model.likelihoods["NEVER"] == Likelihood(1 / 9, 1 / 25)
        assert model.likelihoods["E1"].p_given_fraud == pytest.approx(5 / 9, abs=1e-15)

    def test_degenerate_class_unsmoothed(self):
        all_fraud = LabeledHistory(total=5, fraud_count=5, evidence={"E1": (3, 0)})
        with pytest.raises(DegenerateClass):
            fit(all_fraud, smoothing=0.0)
        # smoothing keeps the fit defined; the missing class keeps prior 0
        model = fit(all_fraud, smoothing=1.0)
        assert model.prior_genuine == 0.0
        assert model.likelihoods["E1"].p_given_genuine == 0.5

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError):
            fit(HISTORY, smoothing=-1.0)

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf])
    def test_non_finite_smoothing_rejected(self, smoothing):
        with pytest.raises(ValueError, match="smoothing must be finite and >= 0"):
            fit(HISTORY, smoothing=smoothing)

    @pytest.mark.parametrize(
        "smoothing, shown", [(10**5000, "inf"), (-(10**400), "-inf")], ids=["huge", "negative"]
    )
    def test_an_int_past_the_float_range_prints_with_its_sign(self, smoothing, shown):
        with pytest.raises(InvalidValue) as info:
            fit(HISTORY, smoothing=smoothing)
        assert str(info.value) == f"smoothing must be finite and >= 0, got {shown}"

    @pytest.mark.parametrize("smoothing", [1e308, sys.float_info.max])
    def test_smoothing_near_the_float_maximum(self, smoothing):
        # class_total + 2a overflows here; the likelihoods must not become 0.
        history = LabeledHistory(total=2, fraud_count=1, evidence={"E": (1, 0)})
        assert fit(history, smoothing).likelihoods["E"] == Likelihood(0.5, 0.5)

    def test_subnormal_smoothing_of_an_absent_class(self):
        # a / (0 + 2a) is exactly 1/2, also when a / 2 is not representable.
        all_fraud = LabeledHistory(total=5, fraud_count=5, evidence={"E1": (3, 0)})
        model = fit(all_fraud, smoothing=5e-324)
        assert model.likelihoods["E1"].p_given_genuine == 0.5

    @settings(max_examples=500, deadline=None)
    @given(
        total=st.integers(1, 10**6),
        data=st.data(),
        smoothing=st.floats(0.0, 8.9e307, allow_subnormal=True),
    )
    def test_matches_the_plain_quotient_wherever_it_is_finite(self, total, data, smoothing):
        fraud_count = data.draw(st.integers(0, total))
        fired = data.draw(st.integers(0, fraud_count))
        history = LabeledHistory(total, fraud_count, {"E": (fired, 0)})
        if smoothing == 0.0 and fraud_count in (0, total):
            return
        expected = (fired + smoothing) / (fraud_count + 2.0 * smoothing)
        assert fit(history, smoothing).likelihoods["E"].p_given_fraud == expected


class TestPosterior:
    def test_exact_fraction_pipeline(self):
        model = fit(HISTORY)
        result = posterior(model, {"E1", "E2"})
        expected, marginal = exact_posterior(
            Fraction(7, 30),
            [(Fraction(4, 7), Fraction(6, 23)), (Fraction(1, 7), Fraction(2, 23))],
        )
        assert float(expected) == pytest.approx(0.5227272727272727, abs=1e-15)
        assert result.p_fraud == pytest.approx(float(expected), abs=1e-12)
        assert result.marginal == pytest.approx(float(marginal), abs=1e-12)
        assert result.p_fraud + result.p_genuine == pytest.approx(1.0, abs=1e-12)

    def test_rounded_inputs_reproduce_published_number(self):
        result = posterior(rounded_model(), {"E1", "E2"})
        assert result.p_fraud == pytest.approx(0.5046, abs=1e-4)

    def test_uninformative_likelihoods_return_prior(self):
        model = BayesModel(0.23, 0.77, {"E1": (0.4, 0.4), "E2": (0.7, 0.7)})
        result = posterior(model, {"E1", "E2"})
        assert result.p_fraud == pytest.approx(0.23, abs=1e-12)

    def test_unknown_evidence(self):
        with pytest.raises(UnknownEvidence):
            posterior(fit(HISTORY), {"E1", "E99"})

    def test_no_evidence(self):
        with pytest.raises(NoEvidence):
            posterior(fit(HISTORY), set())

    def test_duplicate_ids_collapse(self):
        model = fit(HISTORY)
        assert posterior(model, ["E1", "E1"]) == posterior(model, ["E1"])

    def test_zero_marginal(self):
        history = LabeledHistory(
            total=10, fraud_count=5, evidence={"DEAD": (0, 0)}
        )
        model = fit(history, smoothing=0.0)
        with pytest.raises(ZeroMarginal):
            posterior(model, {"DEAD"})


class TestPosteriorLog:
    def test_agrees_with_direct_path(self):
        model = fit(HISTORY)
        direct = posterior(model, {"E1", "E2"})
        logspace = posterior_log(model, {"E1", "E2"})
        assert logspace.p_fraud == pytest.approx(direct.p_fraud, abs=1e-12)
        assert logspace.p_genuine == pytest.approx(direct.p_genuine, abs=1e-12)
        assert logspace.marginal == pytest.approx(direct.marginal, rel=1e-12)

    def test_single_evidence(self):
        model = fit(HISTORY)
        assert posterior_log(model, {"E1"}).p_fraud == pytest.approx(
            posterior(model, {"E1"}).p_fraud, abs=1e-12
        )

    def test_many_weak_signals_saturate(self):
        # 500 sources, each 1.5x likelier under fraud: log-odds
        # log(7/23) + 500*log(1.5) is ~201.5, so the posterior saturates at 1
        ids = [f"S{i}" for i in range(500)]
        model = BayesModel(7 / 30, 23 / 30, {eid: (0.6, 0.4) for eid in ids})
        result = posterior_log(model, ids)
        assert result.p_fraud == pytest.approx(1.0, abs=1e-12)
        assert result.marginal > 0.0

    def test_survives_where_direct_product_underflows(self):
        # both products decay below the subnormal range, so the direct path
        # sees 0/0; the log-odds log(7/23) + 2000*log(4/3) stay finite
        ids = [f"S{i}" for i in range(2000)]
        model = BayesModel(7 / 30, 23 / 30, {eid: (0.4, 0.3) for eid in ids})
        with pytest.raises(ZeroMarginal):
            posterior(model, ids)
        result = posterior_log(model, ids)
        assert result.p_fraud == pytest.approx(1.0, abs=1e-12)

    def test_zero_likelihood_rejected(self):
        model = BayesModel(0.5, 0.5, {"E1": (0.0, 0.4)})
        with pytest.raises(NonPositiveLikelihood):
            posterior_log(model, {"E1"})

    def test_zero_prior_rejected(self):
        model = BayesModel(0.0, 1.0, {"E1": (0.5, 0.4)})
        with pytest.raises(NonPositiveLikelihood):
            posterior_log(model, {"E1"})


class TestModelValidation:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BayesModel(0.6, 0.6, {})

    def test_likelihoods_must_be_probabilities(self):
        with pytest.raises(ValueError):
            BayesModel(0.5, 0.5, {"E1": (1.2, 0.4)})

    @pytest.mark.parametrize("pair", [(0.5,), (0.5, 0.5, 0.5), 0.5], ids=["one", "three", "float"])
    def test_an_entry_must_be_a_pair(self, pair):
        with pytest.raises(InvalidValue) as info:
            BayesModel(0.3, 0.7, {"e": pair})
        assert str(info.value) == "evidence 'e' must be a (p_given_fraud, p_given_genuine) pair"

    def test_a_number_past_the_string_limit_prints_as_inf(self):
        with pytest.raises(InvalidValue) as info:
            BayesModel(0.3, 0.7, {"e": (10**5000, 0.5)})
        assert str(info.value) == (
            "evidence 'e' likelihoods Likelihood(p_given_fraud=inf, p_given_genuine=0.5) "
            "outside [0, 1]"
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prior_or_smoothing_rejected(self, bad):
        with pytest.raises(ValueError, match="prior_fraud"):
            BayesModel(bad, 0.5, {})
        with pytest.raises(ValueError, match="prior_genuine"):
            BayesModel(0.5, bad, {})
        with pytest.raises(ValueError, match="smoothing must be finite"):
            BayesModel(0.5, 0.5, {}, smoothing=bad)

    def test_equal_rates_history_gives_prior_back(self):
        history = LabeledHistory(
            total=30, fraud_count=10, evidence={"E1": (4, 8), "E2": (5, 10)}
        )
        model = fit(history)
        for ids in ({"E1"}, {"E2"}, {"E1", "E2"}):
            assert posterior(model, ids).p_fraud == pytest.approx(
                model.prior_fraud, abs=1e-12
            )
