"""Acceptance suite: one test per release criterion, each printing a PASS line
(run with ``pytest -s tests/test_acceptance.py`` to see them).

Expected values marked as derived were computed with the independent oracles
in ``oracles.py`` (rational arithmetic and full power-set enumeration) and
frozen here.
"""

import json
import random
from fractions import Fraction
from math import fsum

import pytest

from scorefusion import (
    BayesModel,
    CombinationMode,
    Frame,
    HypothesisSet,
    MassFunction,
    classify,
    combine_all,
    combine_pair,
    fit,
    posterior,
    posterior_log,
    rank,
)
from scorefusion.cli import main
from scorefusion.errors import TotalConflict
from scorefusion.fileio import load_model
from scorefusion.history import load_history_csv
from scorefusion.scoring import ScoreReport

from oracles import brute_combine, exact_posterior

BINARY = Frame(("fraud", "genuine"))
FRAUD = BINARY.singleton("fraud")
GENUINE = BINARY.singleton("genuine")
OMEGA = BINARY.omega

STANDARD = CombinationMode.STANDARD
SIMPLIFIED = CombinationMode.SIMPLIFIED

SEED = 20260808


def binary_mass(m_fraud, m_genuine, m_uncertain=0.0):
    return MassFunction(
        BINARY, [(FRAUD, m_fraud), (GENUINE, m_genuine), (OMEGA, m_uncertain)]
    )


def test_criterion_1_bayes_posterior_from_rounded_inputs():
    model = BayesModel(
        prior_fraud=0.23,
        prior_genuine=0.77,
        likelihoods={"E1": (0.57, 0.26), "E2": (0.14, 0.09)},
    )
    result = posterior(model, {"E1", "E2"})
    assert result.p_fraud == pytest.approx(0.504, abs=0.002)
    print("ACCEPTANCE 1 (bayes posterior, rounded inputs -> 0.504 +/- 0.002): PASS")


def test_criterion_2_fit_pipeline_matches_exact_fraction_oracle(
    capsys, tmp_path, history_csv
):
    model_path = tmp_path / "model.json"
    assert main(["fit", str(history_csv), str(model_path)]) == 0
    capsys.readouterr()
    model = load_model(model_path)

    expected, _ = exact_posterior(
        Fraction(7, 30),
        [(Fraction(4, 7), Fraction(6, 23)), (Fraction(1, 7), Fraction(2, 23))],
    )
    result = posterior(model, {"E1", "E2"})
    assert result.p_fraud == pytest.approx(0.52273, abs=1e-4)
    assert result.p_fraud == pytest.approx(float(expected), abs=1e-12)

    assert f"{model.prior_fraud:.2f}" == "0.23"
    assert f"{model.prior_genuine:.2f}" == "0.77"
    assert f"{model.likelihoods['E1'].p_given_fraud:.2f}" == "0.57"
    assert f"{model.likelihoods['E1'].p_given_genuine:.2f}" == "0.26"
    assert f"{model.likelihoods['E2'].p_given_fraud:.2f}" == "0.14"
    assert f"{model.likelihoods['E2'].p_given_genuine:.2f}" == "0.09"
    print("ACCEPTANCE 2 (fit -> posterior pipeline, 0.52273 +/- 1e-4): PASS")


def test_criterion_3_two_certain_sources_standard_mode():
    result = combine_pair(binary_mass(0.6, 0.4), binary_mass(0.8, 0.2), STANDARD)
    # "exact" K: the decimal inputs are not exactly representable in binary
    # doubles, so equality holds to the last ulp of double arithmetic
    assert result.conflict == pytest.approx(0.44, abs=1e-15)
    assert result.mass.mass(FRAUD) == pytest.approx(0.8571428571428571, abs=1e-6)
    print("ACCEPTANCE 3 (certain sources: K = 0.44, m(fraud) = 0.857142...): PASS")


def test_criterion_4_uncertain_sources_simplified_mode():
    high = combine_pair(
        binary_mass(0.7, 0.1, 0.2), binary_mass(0.3, 0.2, 0.5), SIMPLIFIED
    ).mass.interval(FRAUD)
    assert high.bel == pytest.approx(0.2530, abs=1e-3)
    assert high.pl == pytest.approx(0.9759, abs=1e-3)

    reduced = combine_pair(
        binary_mass(0.7, 0.2, 0.1), binary_mass(0.3, 0.6, 0.1), SIMPLIFIED
    ).mass.interval(FRAUD)
    assert reduced.bel == pytest.approx(0.4038, abs=1e-3)
    assert reduced.pl == pytest.approx(0.7692, abs=1e-3)
    print(
        "ACCEPTANCE 4 (simplified mode intervals (0.2530, 0.9759) and "
        "(0.4038, 0.7692)): PASS"
    )


def test_criterion_5_uncertain_sources_standard_mode_diverges():
    cases = [
        # (sources, expected standard interval, simplified interval it must differ from)
        (
            (binary_mass(0.7, 0.1, 0.2), binary_mass(0.3, 0.2, 0.5)),
            (0.7470, 0.8675),
            (0.2530, 0.9759),
        ),
        (
            (binary_mass(0.7, 0.2, 0.1), binary_mass(0.3, 0.6, 0.1)),
            (0.5962, 0.6154),
            (0.4038, 0.7692),
        ),
    ]
    for (m1, m2), (expected_bel, expected_pl), (other_bel, other_pl) in cases:
        result = combine_pair(m1, m2, STANDARD)
        interval = result.mass.interval(FRAUD)
        assert interval.bel == pytest.approx(expected_bel, abs=1e-3)
        assert interval.pl == pytest.approx(expected_pl, abs=1e-3)

        # cross-check against the full-grid enumeration oracle
        oracle, oracle_k = brute_combine(m1, m2)
        oracle_total = fsum(oracle.values())
        oracle_bel = oracle[frozenset(("fraud",))] / oracle_total
        oracle_pl = oracle_bel + oracle[frozenset(("fraud", "genuine"))] / oracle_total
        assert result.conflict == pytest.approx(oracle_k, abs=1e-15)
        assert interval.bel == pytest.approx(oracle_bel, abs=1e-12)
        assert interval.pl == pytest.approx(oracle_pl, abs=1e-12)

        # the two modes genuinely disagree on these inputs
        assert abs(interval.bel - other_bel) > 1e-2
        assert abs(interval.pl - other_pl) > 1e-2
    print(
        "ACCEPTANCE 5 (standard mode gives (0.7470, 0.8675) / (0.5962, 0.6154), "
        "differing from simplified): PASS"
    )


def test_criterion_6_halved_uncertainty_reconstruction():
    interval = combine_pair(
        binary_mass(0.725, 0.225, 0.05), binary_mass(0.325, 0.625, 0.05), SIMPLIFIED
    ).mass.interval(FRAUD)
    assert interval.bel == pytest.approx(0.497, abs=5e-3)
    assert interval.pl == pytest.approx(0.703, abs=5e-3)
    print("ACCEPTANCE 6 (halved uncertainty -> interval (0.497, 0.703)): PASS")


def test_criterion_7_balanced_opposition_sits_on_threshold():
    result = combine_pair(binary_mass(0.7, 0.3), binary_mass(0.3, 0.7), STANDARD)
    p_fraud = result.mass.mass(FRAUD)
    assert p_fraud == 0.5
    flags = classify(p_fraud, result.mass.plausibility(FRAUD), 0.5)
    assert not flags.suspicious and not flags.confirmed
    print("ACCEPTANCE 7 (balanced opposition -> exactly 0.5, not suspicious): PASS")


class TestCriterion8Properties:
    """1000 seeded random cases per invariant, frames of 2..4 hypotheses."""

    CASES = 1000

    @staticmethod
    def random_frame(rng):
        return Frame(tuple(f"h{i}" for i in range(rng.randint(2, 4))))

    @staticmethod
    def random_mass(rng, frame):
        n_subsets = (1 << frame.size) - 1
        count = rng.randint(1, min(5, n_subsets))
        masks = rng.sample(range(1, n_subsets + 1), count)
        weights = [rng.uniform(1e-3, 1.0) for _ in masks]
        total = fsum(weights)
        return MassFunction(
            frame,
            [(HypothesisSet(frame, m), w / total) for m, w in zip(masks, weights)],
        )

    @classmethod
    def random_singleton_mass(cls, rng, frame):
        weights = [rng.uniform(1e-3, 1.0) for _ in frame.labels]
        total = fsum(weights)
        return MassFunction(
            frame,
            [
                (frame.singleton(label), w / total)
                for label, w in zip(frame.labels, weights)
            ],
        )

    def combinable_pair(self, rng):
        while True:
            frame = self.random_frame(rng)
            m1, m2 = self.random_mass(rng, frame), self.random_mass(rng, frame)
            try:
                return m1, m2, combine_pair(m1, m2, STANDARD)
            except TotalConflict:
                continue

    def test_mass_validation_closure_under_combination(self):
        rng = random.Random(SEED)
        for _ in range(self.CASES):
            _, _, result = self.combinable_pair(rng)
            values = [v for _, v in result.mass.focal()]
            assert all(v > 0.0 for v in values)
            assert fsum(values) == 1.0
            assert result.mass.mass(result.mass.frame.empty) == 0.0
        print("ACCEPTANCE 8a (closure under combination, 1000 cases): PASS")

    def test_belief_below_plausibility(self):
        rng = random.Random(SEED + 1)
        for _ in range(self.CASES):
            frame = self.random_frame(rng)
            m = self.random_mass(rng, frame)
            a = HypothesisSet(frame, rng.randint(0, (1 << frame.size) - 1))
            assert m.belief(a) <= m.plausibility(a) or a.is_empty
        print("ACCEPTANCE 8b (bel <= pl, 1000 cases): PASS")

    def test_plausibility_complement_identity(self):
        rng = random.Random(SEED + 2)
        for _ in range(self.CASES):
            frame = self.random_frame(rng)
            m = self.random_mass(rng, frame)
            a = HypothesisSet(frame, rng.randint(0, (1 << frame.size) - 1))
            assert m.plausibility(a) == pytest.approx(
                1.0 - m.belief(a.complement()), abs=1e-12
            )
        print("ACCEPTANCE 8c (pl(A) = 1 - bel(complement), 1000 cases): PASS")

    def test_standard_mode_permutation_invariance(self):
        rng = random.Random(SEED + 3)
        done = 0
        while done < self.CASES:
            frame = self.random_frame(rng)
            sources = [
                self.random_mass(rng, frame) for _ in range(rng.randint(2, 4))
            ]
            shuffled = sources[:]
            rng.shuffle(shuffled)
            try:
                forward = combine_all(sources, STANDARD)
                permuted = combine_all(shuffled, STANDARD)
            except TotalConflict:
                continue
            for hset, value in forward.mass.focal():
                assert permuted.mass.mass(hset) == pytest.approx(value, abs=1e-10)
            assert permuted.conflict == pytest.approx(forward.conflict, abs=1e-10)
            done += 1
        print("ACCEPTANCE 8d (permutation invariance within 1e-10, 1000 cases): PASS")

    def test_vacuous_neutrality_is_exact(self):
        rng = random.Random(SEED + 4)
        for _ in range(self.CASES):
            frame = self.random_frame(rng)
            m = self.random_mass(rng, frame)
            result = combine_pair(m, MassFunction.vacuous(frame), STANDARD)
            assert result.mass == m
            assert result.step_conflicts == (0.0,)
        print("ACCEPTANCE 8e (vacuous source is exactly neutral, 1000 cases): PASS")

    def test_bayesian_reduction_equivalence(self):
        rng = random.Random(SEED + 5)
        for _ in range(self.CASES):
            frame = self.random_frame(rng)
            m1 = self.random_singleton_mass(rng, frame)
            m2 = self.random_singleton_mass(rng, frame)
            result = combine_pair(m1, m2, STANDARD)
            products = {
                label: m1.mass(frame.singleton(label)) * m2.mass(frame.singleton(label))
                for label in frame.labels
            }
            total = fsum(products.values())
            for label, product in products.items():
                assert result.mass.mass(frame.singleton(label)) == pytest.approx(
                    product / total, abs=1e-12
                )
        print("ACCEPTANCE 8f (singleton-only combination = normalized product, 1000 cases): PASS")

    def test_posterior_paths_agree(self):
        rng = random.Random(SEED + 6)
        for _ in range(self.CASES):
            n = rng.randint(1, 50)
            prior = rng.uniform(0.01, 0.99)
            model = BayesModel(
                prior,
                1.0 - prior,
                {
                    f"E{i}": (rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
                    for i in range(n)
                },
            )
            ids = rng.sample(sorted(model.likelihoods), rng.randint(1, n))
            direct = posterior(model, ids)
            logspace = posterior_log(model, ids)
            assert logspace.p_fraud == pytest.approx(direct.p_fraud, abs=1e-12)
        print("ACCEPTANCE 8g (posterior and posterior_log agree within 1e-12, 1000 cases): PASS")


def test_criterion_9_ranking_contract():
    def report(txn_id, bel, pl):
        return ScoreReport(
            transaction_id=txn_id,
            bel_fraud=bel,
            pl_fraud=pl,
            point_estimate=bel,
            conflict=0.0,
            n_sources=2,
            suspicious=pl > 0.5,
            confirmed=bel > 0.5,
        )

    x = report("X", 0.50, 0.70)
    y = report("Y", 0.40, 0.77)
    ranked = rank([y, x])
    assert [r.transaction_id for r in ranked] == ["X", "Y"]
    assert [r.rank for r in ranked] == [1, 2]

    rng = random.Random(SEED + 7)
    for _ in range(200):
        reports = [
            report(f"t{i}", *(sorted((rng.random(), rng.random()))))
            for i in range(rng.randint(0, 12))
        ]
        ranked = rank(reports)
        assert sorted(r.rank for r in ranked) == list(range(1, len(reports) + 1))
        assert {r.transaction_id for r in ranked} == {
            r.transaction_id for r in reports
        }
    print("ACCEPTANCE 9 (higher belief outranks higher plausibility; ranks gap-free): PASS")
