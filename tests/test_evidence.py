"""Frames, hypothesis sets, mass functions, and the bel/pl queries."""

import pytest

from scorefusion import BeliefInterval, Frame, HypothesisSet, MassFunction
from scorefusion.errors import (
    DuplicateSet,
    EmptySetMass,
    ForeignSet,
    NegativeMass,
    NonFiniteMass,
    NotNormalized,
)

from oracles import brute_belief, brute_plausibility

BINARY = Frame(("fraud", "genuine"))
FRAUD = BINARY.singleton("fraud")
GENUINE = BINARY.singleton("genuine")
OMEGA = BINARY.omega

TRIO = Frame(("a", "b", "c"))


class TestFrame:
    def test_basic_properties(self):
        assert BINARY.size == 2
        assert BINARY.labels == ("fraud", "genuine")
        assert BINARY.index("genuine") == 1

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Frame(())
        with pytest.raises(ValueError):
            Frame(("a", "a"))
        with pytest.raises(ValueError):
            Frame(("a", ""))

    def test_rejects_oversized_frame(self):
        Frame(tuple(f"h{i}" for i in range(20)))  # at the cap: fine
        with pytest.raises(ValueError):
            Frame(tuple(f"h{i}" for i in range(21)))

    def test_value_equality(self):
        assert Frame(("fraud", "genuine")) == BINARY
        assert Frame(("genuine", "fraud")) != BINARY


class TestHypothesisSet:
    def test_labels_and_len(self):
        ab = TRIO.subset(("a", "b"))
        assert ab.labels == ("a", "b")
        assert len(ab) == 2
        assert len(TRIO.empty) == 0
        assert TRIO.omega.labels == ("a", "b", "c")

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            HypothesisSet(BINARY, 4)
        with pytest.raises(ValueError):
            HypothesisSet(BINARY, -1)

    def test_set_algebra(self):
        ab = TRIO.subset(("a", "b"))
        bc = TRIO.subset(("b", "c"))
        assert (ab & bc).labels == ("b",)
        assert (ab | bc) == TRIO.omega
        assert ab.complement().labels == ("c",)
        assert TRIO.singleton("a").issubset(ab)
        assert not ab.issubset(bc)
        assert ab.intersects(bc)
        assert not TRIO.singleton("a").intersects(bc)

    def test_foreign_frame_rejected(self):
        with pytest.raises(ForeignSet):
            FRAUD & TRIO.singleton("a")

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            BINARY.singleton("laundering")


class TestMassConstruction:
    def test_valid_singleton_masses(self):
        m = MassFunction(BINARY, [(FRAUD, 0.6), (GENUINE, 0.4)])
        assert m.mass(FRAUD) == pytest.approx(0.6, abs=1e-12)
        assert m.mass(GENUINE) == pytest.approx(0.4, abs=1e-12)
        assert m.mass(OMEGA) == 0.0

    def test_vacuous(self):
        m = MassFunction.vacuous(BINARY)
        assert m.mass(OMEGA) == 1.0
        assert m.focal() == ((OMEGA, 1.0),)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            MassFunction(BINARY, [(FRAUD, 0.6), (GENUINE, 0.5)])

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            MassFunction(BINARY, [(FRAUD, 1.2), (GENUINE, -0.2)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mass_names_value(self, bad):
        with pytest.raises(NonFiniteMass, match=f"mass {bad!r} on .*fraud.* is not finite"):
            MassFunction(BINARY, [(FRAUD, bad), (GENUINE, 0.5), (OMEGA, 0.5)])

    def test_empty_set_mass(self):
        with pytest.raises(EmptySetMass):
            MassFunction(BINARY, [(BINARY.empty, 0.1), (OMEGA, 0.9)])
        # zero mass on the empty set is tolerated and dropped
        m = MassFunction(BINARY, [(BINARY.empty, 0.0), (OMEGA, 1.0)])
        assert m.focal() == ((OMEGA, 1.0),)

    def test_duplicate_set(self):
        with pytest.raises(DuplicateSet):
            MassFunction(BINARY, [(FRAUD, 0.5), (FRAUD, 0.5)])

    def test_foreign_set(self):
        with pytest.raises(ForeignSet):
            MassFunction(BINARY, [(TRIO.singleton("a"), 1.0)])

    def test_zero_masses_dropped(self):
        m = MassFunction(BINARY, [(FRAUD, 1.0), (GENUINE, 0.0)])
        assert [h for h, _ in m.focal()] == [FRAUD]

    def test_rescaling_makes_total_exactly_one(self):
        # 0.1 ten times over a 4-hypothesis frame: decimal noise adds up
        frame = Frame(("a", "b", "c", "d"))
        sets = [HypothesisSet(frame, mask) for mask in range(1, 11)]
        m = MassFunction(frame, [(s, 0.1) for s in sets])
        from math import fsum

        assert fsum(v for _, v in m.focal()) == 1.0
        assert m.belief(frame.omega) == 1.0

    def test_accepts_mapping_input(self):
        m = MassFunction(BINARY, {FRAUD: 0.25, GENUINE: 0.75})
        assert m.mass(GENUINE) == 0.75


class TestBeliefPlausibility:
    def test_belief_with_uncertainty_mass(self):
        m = MassFunction(BINARY, [(FRAUD, 0.253), (GENUINE, 0.024), (OMEGA, 0.723)])
        assert m.belief(FRAUD) == pytest.approx(0.253, abs=1e-9)
        assert m.plausibility(FRAUD) == pytest.approx(0.976, abs=1e-9)

    def test_belief_of_omega_is_one(self):
        for m in (
            MassFunction(BINARY, [(FRAUD, 0.6), (GENUINE, 0.4)]),
            MassFunction(BINARY, [(FRAUD, 0.1), (OMEGA, 0.9)]),
            MassFunction.vacuous(BINARY),
        ):
            assert m.belief(OMEGA) == 1.0
            assert m.plausibility(BINARY.empty) == 0.0
            assert m.belief(BINARY.empty) == 0.0

    def test_belief_three_hypothesis_frame(self):
        a = TRIO.singleton("a")
        ab = TRIO.subset(("a", "b"))
        m = MassFunction(TRIO, [(a, 0.2), (ab, 0.3), (TRIO.omega, 0.5)])
        assert m.belief(ab) == pytest.approx(0.5, abs=1e-12)
        assert m.belief(ab) == brute_belief(m, ("a", "b"))

    def test_vacuous_plausibility_is_one(self):
        m = MassFunction.vacuous(BINARY)
        assert m.plausibility(FRAUD) == 1.0
        assert m.plausibility(GENUINE) == 1.0

    def test_singleton_focal_sets_collapse_interval(self):
        m = MassFunction(BINARY, [(FRAUD, 0.6), (GENUINE, 0.4)])
        assert m.belief(FRAUD) == m.plausibility(FRAUD)
        assert m.belief(FRAUD) == pytest.approx(0.6, abs=1e-12)

    def test_matches_brute_force_on_dyadic_masses(self):
        # dyadic masses are exactly representable, so both routes agree bitwise
        a = TRIO.singleton("a")
        bc = TRIO.subset(("b", "c"))
        m = MassFunction(TRIO, [(a, 0.25), (bc, 0.375), (TRIO.omega, 0.375)])
        for labels in (("a",), ("b",), ("a", "b"), ("b", "c"), ("a", "b", "c")):
            target = TRIO.subset(labels)
            assert m.belief(target) == brute_belief(m, labels)
            assert m.plausibility(target) == brute_plausibility(m, labels)

    def test_foreign_set_query_rejected(self):
        m = MassFunction.vacuous(BINARY)
        with pytest.raises(ForeignSet):
            m.belief(TRIO.singleton("a"))
        with pytest.raises(ForeignSet):
            m.plausibility(TRIO.singleton("a"))
        with pytest.raises(ForeignSet):
            m.mass(TRIO.singleton("a"))


class TestInterval:
    def test_interval_of_vacuous(self):
        assert MassFunction.vacuous(BINARY).interval(FRAUD) == BeliefInterval(0.0, 1.0)

    def test_interval_orders_bounds(self):
        with pytest.raises(ValueError):
            BeliefInterval(0.9, 0.3)
        with pytest.raises(ValueError):
            BeliefInterval(-0.1, 0.5)
        assert BeliefInterval(0.25, 0.98).width == pytest.approx(0.73)


class TestIsBayesian:
    def test_singletons_only(self):
        assert MassFunction(BINARY, [(FRAUD, 0.6), (GENUINE, 0.4)]).is_bayesian()

    def test_uncertainty_mass_breaks_it(self):
        m = MassFunction(BINARY, [(FRAUD, 0.7), (GENUINE, 0.1), (OMEGA, 0.2)])
        assert not m.is_bayesian()

    def test_vacuous_is_not_bayesian(self):
        assert not MassFunction.vacuous(BINARY).is_bayesian()

    def test_equality(self):
        m1 = MassFunction(BINARY, [(FRAUD, 0.6), (GENUINE, 0.4)])
        m2 = MassFunction(BINARY, [(GENUINE, 0.4), (FRAUD, 0.6)])
        assert m1 == m2
        assert m1 != MassFunction.vacuous(BINARY)
