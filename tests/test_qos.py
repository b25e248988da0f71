import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobicomp.errors import ContractViolationError, InvalidInputError
from mobicomp.qos import (
    QosParams,
    capacity,
    composite_qos,
    perpendicular_distance,
    reward_scale,
    strength,
    unit_capacity,
)
from mobicomp.trajectories import DistanceMode

PLANAR = DistanceMode.PLANAR_EUCLIDEAN


class TestPerpendicularDistance:
    # user walks (0,0) -> (10,0) -> (20,0) at t = 1, 2, 3; the segment at
    # t = 1 runs from (0,0) to (10,0), and the final one is the point (20,0)
    segment_1 = (0.0, 0.0, 10.0, 0.0)

    def test_axis_aligned_perpendicular(self):
        assert perpendicular_distance(0, 5, *self.segment_1, PLANAR) == 5.0

    def test_service_on_sample(self):
        assert perpendicular_distance(0, 0, *self.segment_1, PLANAR) == 0.0

    def test_foot_clamped_to_segment_end(self):
        got = perpendicular_distance(12, 3, *self.segment_1, PLANAR)
        assert got == pytest.approx(math.sqrt(13), abs=1e-12)

    def test_final_timestep_uses_point_distance(self):
        assert perpendicular_distance(20, 7, 20.0, 0.0, 20.0, 0.0, PLANAR) == 7.0

    def test_never_exceeds_point_distance(self):
        point_d = math.hypot(7.3 - 0.0, 4.1 - 0.0)
        assert perpendicular_distance(7.3, 4.1, *self.segment_1, PLANAR) <= point_d


class TestStrength:
    params = QosParams(confident_radius_rc=5.0, decay_k=0.1, sensing_radius_rs=50.0)

    def test_full_signal_inside_confident_radius(self):
        assert strength(2.0, self.params) == 1.0

    def test_branches_agree_at_boundary(self):
        at_rc = strength(5.0, self.params)
        just_beyond = strength(5.0 + 1e-13, self.params)
        assert at_rc == 1.0
        assert abs(at_rc - just_beyond) < 1e-12

    def test_exponential_hand_value(self):
        assert strength(15.0, self.params) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_beyond_sensing_radius_is_contract_violation(self):
        with pytest.raises(ContractViolationError):
            strength(50.0 + 1e-9, self.params)

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidInputError):
            strength(-0.1, self.params)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    @settings(max_examples=200)
    def test_monotone_non_increasing(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert strength(lo, self.params) >= strength(hi, self.params)

    # 0.8 is about the steepest decay QosParams accepts for these radii
    @given(st.floats(5.0001, 49.0), st.floats(0.01, 0.8))
    @settings(max_examples=100)
    def test_strictly_decreasing_beyond_rc_when_k_positive(self, d, k):
        params = QosParams(confident_radius_rc=5.0, decay_k=k, sensing_radius_rs=50.0)
        assert strength(d, params) > strength(d + 0.5, params)

    @given(st.floats(0.0, 50.0))
    @settings(max_examples=200)
    def test_range(self, d):
        s = strength(d, self.params)
        assert 0.0 < s <= 1.0


class TestCapacity:
    def test_unit_case(self):
        assert capacity(1.0, 8.0, 8) == 1.0

    def test_hand_arithmetic(self):
        # arithmetic unit check only; production strengths stay <= 1
        assert capacity(3.0, 10.0, 2) == pytest.approx(10.0, abs=1e-12)

    def test_vanishing_strength_limit(self):
        assert capacity(1e-12, 4.0, 1) == pytest.approx(0.0, abs=1e-10)

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            capacity(0.0, 1.0, 1)
        with pytest.raises(InvalidInputError):
            capacity(0.5, -1.0, 1)
        with pytest.raises(InvalidInputError):
            capacity(0.5, 1.0, 0)

    @given(st.floats(0.01, 0.99), st.floats(0.001, 0.999))
    @settings(max_examples=100)
    def test_strictly_increasing_in_strength(self, s, bump_frac):
        s2 = s + bump_frac * (1.0 - s)
        assert capacity(s2, 5e6, 2) > capacity(s, 5e6, 2)

    @given(st.integers(1, 10))
    @settings(max_examples=50)
    def test_strictly_decreasing_in_concurrency(self, k):
        assert capacity(0.7, 5e6, k) > capacity(0.7, 5e6, k + 1)


class TestCompositeQos:
    def test_singleton(self):
        assert composite_qos([4.0]) == 4.0

    def test_mean(self):
        assert composite_qos([2.0, 4.0]) == 3.0

    def test_against_brute_force_summation(self):
        import random

        rnd = random.Random(42)
        caps = [rnd.uniform(0.0, 1e7) for _ in range(100)]
        total = 0.0
        for c in caps:  # independent naive summation oracle
            total += c
        assert composite_qos(caps) == pytest.approx(total / 100, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            composite_qos([])


class TestParamsAndValues:
    def test_defaults_give_full_dynamic_range(self):
        p = QosParams.defaults_for(20.0)
        assert p.confident_radius_rc == 5.0
        assert strength(p.sensing_radius_rs, p) == pytest.approx(0.01, rel=1e-9)

    @pytest.mark.parametrize("r_s", [0.0, -5.0, math.inf, math.nan])
    def test_defaults_need_a_finite_positive_radius(self, r_s):
        with pytest.raises(InvalidInputError, match="sensing radius"):
            QosParams.defaults_for(r_s)

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidInputError):
            QosParams(confident_radius_rc=0.0, decay_k=0.1, sensing_radius_rs=10.0)
        with pytest.raises(InvalidInputError):
            QosParams(confident_radius_rc=11.0, decay_k=0.1, sensing_radius_rs=10.0)
        for k in (-0.1, math.nan, math.inf):
            with pytest.raises(InvalidInputError, match="decay_k"):
                QosParams(confident_radius_rc=1.0, decay_k=k, sensing_radius_rs=10.0)
        with pytest.raises(InvalidInputError, match="strength must be positive, got nan"):
            capacity(math.nan, 1e6, 2)
        with pytest.raises(InvalidInputError, match="bandwidth must be positive, got nan"):
            capacity(1.0, math.nan, 2)

    @pytest.mark.parametrize("k", [5.0, 1e6])
    def test_decay_zeroing_the_edge_capacity_rejected(self, k):
        # exp(-k * 15) is below float resolution next to 1.0
        with pytest.raises(InvalidInputError, match=f"decay_k={k}"):
            QosParams(confident_radius_rc=5.0, decay_k=k, sensing_radius_rs=20.0)

    @given(st.floats(0.0, 10.0))
    @settings(max_examples=200)
    def test_accepted_decay_gives_positive_capacity_to_the_edge(self, k):
        try:
            params = QosParams(confident_radius_rc=5.0, decay_k=k, sensing_radius_rs=20.0)
        except InvalidInputError:
            assert 1.0 + math.exp(-k * 15.0) == 1.0
            return
        assert capacity(strength(params.sensing_radius_rs, params), 1.0, 1) > 0.0

    def test_qos_value_range_enforced(self):
        # a candidate's strength is in (0, 1] and its capacity positive, or
        # pricing raises: a decay that would round either to 0 is refused up
        # front, and capacity refuses a zero strength
        with pytest.raises(InvalidInputError, match="decay_k"):
            QosParams(confident_radius_rc=1.0, decay_k=1e6, sensing_radius_rs=10.0)
        params = QosParams(confident_radius_rc=1.0, decay_k=4.0, sensing_radius_rs=10.0)
        assert strength(0.5, params) == 1.0
        assert capacity(strength(10.0, params), 1e6, 2) > 0.0  # exp(-36) at the edge
        with pytest.raises(InvalidInputError, match="strength must be positive, got 0.0"):
            capacity(0.0, 1e6, 2)
        with pytest.raises(ContractViolationError):
            strength(10.5, params)
        assert capacity(1e-300, 1e6, 2) >= 0.0  # log2(1 + s) rounds to 0.0 here

    def test_reward_scale_is_max_unit_capacity(self):
        class Svc:
            def __init__(self, b, k):
                self.bandwidth_b, self.max_concurrent_k = b, k

        assert reward_scale([Svc(10.0, 2), Svc(6.0, 1)]) == unit_capacity(6.0, 1)
        assert reward_scale([]) == 1.0
