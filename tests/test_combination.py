"""Pairwise and n-ary combination, conflict measurement, and the two modes."""

import pytest

from scorefusion import CombinationMode, Frame, MassFunction, combine_all, combine_pair, conflict
from scorefusion.errors import EmptyInput, FrameMismatch, ModeUnsupported, TotalConflict
from scorefusion.kernel import combine_binary

from oracles import brute_combine, exact_binary_fold, exact_binary_pair

BINARY = Frame(("fraud", "genuine"))
FRAUD = BINARY.singleton("fraud")
GENUINE = BINARY.singleton("genuine")
OMEGA = BINARY.omega

STANDARD = CombinationMode.STANDARD
SIMPLIFIED = CombinationMode.SIMPLIFIED


def binary_mass(m_fraud, m_genuine, m_uncertain=0.0):
    return MassFunction(
        BINARY, [(FRAUD, m_fraud), (GENUINE, m_genuine), (OMEGA, m_uncertain)]
    )


class TestCombinePairStandard:
    def test_no_uncertainty_example(self):
        result = combine_pair(binary_mass(0.6, 0.4), binary_mass(0.8, 0.2))
        assert result.conflict == pytest.approx(0.44, abs=1e-15)
        assert result.mass.mass(FRAUD) == pytest.approx(0.857142857142857, abs=1e-6)
        assert result.mass.mass(GENUINE) == pytest.approx(0.142857142857143, abs=1e-6)
        assert result.step_conflicts == (result.conflict,)

    def test_with_uncertainty_sends_cross_terms_to_singletons(self):
        # under Dempster's rule {fraud} & omega reinforces {fraud}
        result = combine_pair(binary_mass(0.7, 0.1, 0.2), binary_mass(0.3, 0.2, 0.5))
        expected = exact_binary_pair(("0.7", "0.1", "0.2"), ("0.3", "0.2", "0.5"), pooled=False)
        assert result.conflict == pytest.approx(0.17, abs=1e-12)
        assert result.mass.mass(FRAUD) == pytest.approx(float(expected[0]), abs=1e-12)
        assert result.mass.mass(GENUINE) == pytest.approx(float(expected[1]), abs=1e-12)
        assert result.mass.mass(OMEGA) == pytest.approx(float(expected[2]), abs=1e-12)
        # frozen values from the rational oracle: 62/83, 11/83, 10/83
        assert result.mass.mass(FRAUD) == pytest.approx(0.7470, abs=1e-4)
        assert result.mass.mass(GENUINE) == pytest.approx(0.1325, abs=1e-4)
        assert result.mass.mass(OMEGA) == pytest.approx(0.1205, abs=1e-4)

    def test_vacuous_is_neutral(self):
        m = binary_mass(0.7, 0.1, 0.2)
        result = combine_pair(m, MassFunction.vacuous(BINARY))
        assert result.mass == m
        assert result.conflict == 0.0

    def test_total_conflict(self):
        with pytest.raises(TotalConflict):
            combine_pair(binary_mass(1.0, 0.0), binary_mass(0.0, 1.0))
        with pytest.raises(TotalConflict):
            combine_pair(binary_mass(1.0, 0.0), binary_mass(0.0, 1.0), SIMPLIFIED)

    def test_frame_mismatch(self):
        other = Frame(("x", "y"))
        m_other = MassFunction(other, [(other.singleton("x"), 1.0)])
        with pytest.raises(FrameMismatch):
            combine_pair(binary_mass(0.5, 0.5), m_other)
        with pytest.raises(FrameMismatch):
            conflict(binary_mass(0.5, 0.5), m_other)

    def test_matches_brute_force_grid_on_dyadic_masses(self):
        trio = Frame(("a", "b", "c"))
        m1 = MassFunction(
            trio,
            [(trio.subset(("a", "b")), 0.5), (trio.singleton("c"), 0.25), (trio.omega, 0.25)],
        )
        m2 = MassFunction(
            trio,
            [(trio.subset(("b", "c")), 0.5), (trio.singleton("a"), 0.5)],
        )
        result = combine_pair(m1, m2)
        expected, k = brute_combine(m1, m2)
        assert result.conflict == k
        for hset, value in result.mass.focal():
            assert expected[frozenset(hset.labels)] == value
        assert len(expected) == len(result.mass.focal())


class TestCombinePairSimplified:
    def test_high_uncertainty_example(self):
        result = combine_pair(
            binary_mass(0.7, 0.1, 0.2), binary_mass(0.3, 0.2, 0.5), SIMPLIFIED
        )
        assert result.conflict == pytest.approx(0.17, abs=1e-12)
        assert result.mass.mass(FRAUD) == pytest.approx(0.253, abs=5e-4)
        assert result.mass.mass(GENUINE) == pytest.approx(0.024, abs=5e-4)
        assert result.mass.mass(OMEGA) == pytest.approx(0.723, abs=5e-4)
        interval = result.mass.interval(FRAUD)
        assert interval.bel == pytest.approx(0.253, abs=5e-4)
        assert interval.pl == pytest.approx(0.976, abs=5e-4)

    def test_reduced_uncertainty_example(self):
        result = combine_pair(
            binary_mass(0.7, 0.2, 0.1), binary_mass(0.3, 0.6, 0.1), SIMPLIFIED
        )
        assert result.conflict == pytest.approx(0.48, abs=1e-12)
        interval = result.mass.interval(FRAUD)
        assert interval.bel == pytest.approx(0.404, abs=5e-4)
        assert interval.pl == pytest.approx(0.769, abs=5e-4)

    def test_against_rational_oracle(self):
        result = combine_pair(
            binary_mass(0.725, 0.225, 0.05), binary_mass(0.325, 0.625, 0.05), SIMPLIFIED
        )
        expected = exact_binary_pair(
            ("0.725", "0.225", "0.05"), ("0.325", "0.625", "0.05"), pooled=True
        )
        assert result.mass.mass(FRAUD) == pytest.approx(float(expected[0]), abs=1e-12)
        assert result.mass.mass(OMEGA) == pytest.approx(float(expected[2]), abs=1e-12)
        assert result.conflict == pytest.approx(float(expected[3]), abs=1e-12)

    def test_needs_binary_frame(self):
        trio = Frame(("a", "b", "c"))
        m = MassFunction(trio, [(trio.omega, 1.0)])
        with pytest.raises(ModeUnsupported):
            combine_pair(m, m, SIMPLIFIED)
        with pytest.raises(ModeUnsupported):
            combine_all([m], SIMPLIFIED)

    def test_agrees_with_standard_when_no_uncertainty(self):
        m1, m2 = binary_mass(0.6, 0.4), binary_mass(0.8, 0.2)
        standard = combine_pair(m1, m2, STANDARD)
        simplified = combine_pair(m1, m2, SIMPLIFIED)
        assert standard.mass == simplified.mass
        assert standard.conflict == simplified.conflict


class TestConflict:
    def test_no_uncertainty_value(self):
        assert conflict(binary_mass(0.6, 0.4), binary_mass(0.8, 0.2)) == pytest.approx(
            0.44, abs=1e-15
        )

    def test_with_uncertainty_value(self):
        # the two disagreeing cells: 0.7*0.6 + 0.2*0.3
        assert conflict(
            binary_mass(0.7, 0.2, 0.1), binary_mass(0.3, 0.6, 0.1)
        ) == pytest.approx(0.48, abs=1e-12)

    def test_vacuous_never_conflicts(self):
        assert conflict(binary_mass(0.9, 0.1), MassFunction.vacuous(BINARY)) == 0.0

    def test_matches_combine_pair(self):
        m1, m2 = binary_mass(0.7, 0.1, 0.2), binary_mass(0.3, 0.2, 0.5)
        assert conflict(m1, m2) == combine_pair(m1, m2).conflict


class TestCombineAll:
    def test_single_element(self):
        m = binary_mass(0.7, 0.1, 0.2)
        result = combine_all([m])
        assert result.mass == m
        assert result.conflict == 0.0
        assert result.step_conflicts == ()

    def test_pair_matches_combine_pair(self):
        m1, m2 = binary_mass(0.6, 0.4), binary_mass(0.8, 0.2)
        assert combine_all([m1, m2]).mass == combine_pair(m1, m2).mass

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            combine_all([])
        with pytest.raises(EmptyInput):
            combine_binary([])

    def test_total_conflict_at_any_step(self):
        with pytest.raises(TotalConflict):
            combine_all([binary_mass(1.0, 0.0), binary_mass(0.5, 0.5), binary_mass(0.0, 1.0)])

    def test_step_conflicts_and_total(self):
        sources = [
            binary_mass(0.7, 0.1, 0.2),
            binary_mass(0.3, 0.2, 0.5),
            binary_mass(0.5, 0.4, 0.1),
        ]
        result = combine_all(sources, STANDARD)
        assert len(result.step_conflicts) == 2
        k1, k2 = result.step_conflicts
        assert result.conflict == pytest.approx(1 - (1 - k1) * (1 - k2), abs=1e-15)
        assert 0.0 <= result.conflict < 1.0

    def test_simplified_fold_is_order_dependent(self):
        a = ("0.7", "0.1", "0.2")
        b = ("0.3", "0.2", "0.5")
        c = ("0.5", "0.4", "0.1")
        triples = {"a": binary_mass(0.7, 0.1, 0.2),
                   "b": binary_mass(0.3, 0.2, 0.5),
                   "c": binary_mass(0.5, 0.4, 0.1)}

        forward = combine_all([triples["a"], triples["b"], triples["c"]], SIMPLIFIED)
        rotated = combine_all([triples["b"], triples["c"], triples["a"]], SIMPLIFIED)

        (f_fwd, _, _), _ = exact_binary_fold([a, b, c], pooled=True)
        (f_rot, _, _), _ = exact_binary_fold([b, c, a], pooled=True)
        # frozen from the rational oracle: 105/736 vs 105/709
        assert float(f_fwd) == pytest.approx(0.14266304347826086, abs=1e-15)
        assert float(f_rot) == pytest.approx(0.14809590973201692, abs=1e-15)

        assert forward.mass.mass(FRAUD) == pytest.approx(float(f_fwd), abs=1e-12)
        assert rotated.mass.mass(FRAUD) == pytest.approx(float(f_rot), abs=1e-12)
        assert abs(forward.mass.mass(FRAUD) - rotated.mass.mass(FRAUD)) > 1e-3

    def test_standard_fold_is_order_independent(self):
        sources = [
            binary_mass(0.7, 0.1, 0.2),
            binary_mass(0.3, 0.2, 0.5),
            binary_mass(0.5, 0.4, 0.1),
        ]
        forward = combine_all(sources, STANDARD)
        backward = combine_all(list(reversed(sources)), STANDARD)
        for hset, value in forward.mass.focal():
            assert backward.mass.mass(hset) == pytest.approx(value, abs=1e-12)
        assert backward.conflict == pytest.approx(forward.conflict, abs=1e-12)

    def test_standard_fold_is_order_free_near_total_conflict(self):
        # Fused with itself first, the fraud mass would meet the certain
        # genuine one at K = 1 - 2**-46, past the total-conflict limit; met
        # one at a time, it meets K = 1 - 2**-23 twice.
        eps = 2.0**-23
        fraud, genuine = binary_mass(1 - eps, 0.0, eps), binary_mass(0.0, 1.0)
        orders = ([fraud, fraud, genuine], [genuine, fraud, fraud], [fraud, genuine, fraud])
        results = [combine_all(order, STANDARD) for order in orders]
        assert all(result == results[0] for result in results)
        assert results[0].mass.mass(GENUINE) == 1.0
        assert results[0].step_conflicts == (1 - eps, 1 - eps)


class TestClosure:
    def test_combined_mass_is_valid(self):
        from math import fsum

        result = combine_pair(binary_mass(0.7, 0.1, 0.2), binary_mass(0.3, 0.2, 0.5))
        values = [v for _, v in result.mass.focal()]
        assert all(v > 0 for v in values)
        assert fsum(values) == 1.0
        assert result.mass.belief(OMEGA) == 1.0
