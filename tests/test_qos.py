import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobicomp import qos
from mobicomp.errors import ContractViolationError, InvalidInputError
from mobicomp.qos import QosParams, composite_qos, reward_scale
from mobicomp.trajectories import DistanceMode

from oracles import scalar_capacity, scalar_perpendicular_distance, scalar_strength

PLANAR = DistanceMode.PLANAR_EUCLIDEAN


# the pricing functions take columns; these price one value through them
def one_pdis(sx, sy, ax, ay, bx, by, mode):
    return qos.perpendicular_distance([sx], [sy], [ax], [ay], [bx], [by], mode)[0].item()


def one_strength(pdis, params):
    return qos.strength([pdis], params)[0].item()


def one_capacity(strength_value, bandwidth_b, max_concurrent_k):
    return qos.capacity([strength_value], [bandwidth_b], [max_concurrent_k])[0].item()


class TestPerpendicularDistance:
    # user walks (0,0) -> (10,0) -> (20,0) at t = 1, 2, 3; the segment at
    # t = 1 runs from (0,0) to (10,0), and the final one is the point (20,0)
    segment_1 = (0.0, 0.0, 10.0, 0.0)

    def test_axis_aligned_perpendicular(self):
        assert one_pdis(0, 5, *self.segment_1, PLANAR) == 5.0

    def test_service_on_sample(self):
        assert one_pdis(0, 0, *self.segment_1, PLANAR) == 0.0

    def test_foot_clamped_to_segment_end(self):
        got = one_pdis(12, 3, *self.segment_1, PLANAR)
        assert got == pytest.approx(math.sqrt(13), abs=1e-12)

    def test_final_timestep_uses_point_distance(self):
        assert one_pdis(20, 7, 20.0, 0.0, 20.0, 0.0, PLANAR) == 7.0

    def test_never_exceeds_point_distance(self):
        point_d = math.hypot(7.3 - 0.0, 4.1 - 0.0)
        assert one_pdis(7.3, 4.1, *self.segment_1, PLANAR) <= point_d


class TestStrength:
    params = QosParams(confident_radius_rc=5.0, decay_k=0.1, sensing_radius_rs=50.0)

    def test_full_signal_inside_confident_radius(self):
        assert one_strength(2.0, self.params) == 1.0

    def test_branches_agree_at_boundary(self):
        at_rc = one_strength(5.0, self.params)
        just_beyond = one_strength(5.0 + 1e-13, self.params)
        assert at_rc == 1.0
        assert abs(at_rc - just_beyond) < 1e-12

    def test_exponential_hand_value(self):
        assert one_strength(15.0, self.params) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_beyond_sensing_radius_is_contract_violation(self):
        with pytest.raises(ContractViolationError):
            one_strength(50.0 + 1e-9, self.params)

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidInputError):
            one_strength(-0.1, self.params)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    @settings(max_examples=200)
    def test_monotone_non_increasing(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert one_strength(lo, self.params) >= one_strength(hi, self.params)

    # 0.8 is about the steepest decay QosParams accepts for these radii
    @given(st.floats(5.0001, 49.0), st.floats(0.01, 0.8))
    @settings(max_examples=100)
    def test_strictly_decreasing_beyond_rc_when_k_positive(self, d, k):
        params = QosParams(confident_radius_rc=5.0, decay_k=k, sensing_radius_rs=50.0)
        assert one_strength(d, params) > one_strength(d + 0.5, params)

    @given(st.floats(0.0, 50.0))
    @settings(max_examples=200)
    def test_range(self, d):
        s = one_strength(d, self.params)
        assert 0.0 < s <= 1.0


class TestCapacity:
    def test_unit_case(self):
        assert one_capacity(1.0, 8.0, 8) == 1.0

    def test_hand_arithmetic(self):
        # arithmetic unit check only; production strengths stay <= 1
        assert one_capacity(3.0, 10.0, 2) == pytest.approx(10.0, abs=1e-12)

    def test_vanishing_strength_limit(self):
        assert one_capacity(1e-12, 4.0, 1) == pytest.approx(0.0, abs=1e-10)

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            one_capacity(0.0, 1.0, 1)
        with pytest.raises(InvalidInputError):
            one_capacity(0.5, -1.0, 1)
        with pytest.raises(InvalidInputError):
            one_capacity(0.5, 1.0, 0)

    @given(st.floats(0.01, 0.99), st.floats(0.001, 0.999))
    @settings(max_examples=100)
    def test_strictly_increasing_in_strength(self, s, bump_frac):
        s2 = s + bump_frac * (1.0 - s)
        assert one_capacity(s2, 5e6, 2) > one_capacity(s, 5e6, 2)

    @given(st.integers(1, 10))
    @settings(max_examples=50)
    def test_strictly_decreasing_in_concurrency(self, k):
        assert one_capacity(0.7, 5e6, k) > one_capacity(0.7, 5e6, k + 1)


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
        assert one_strength(p.sensing_radius_rs, p) == pytest.approx(0.01, rel=1e-9)

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
            one_capacity(math.nan, 1e6, 2)
        with pytest.raises(InvalidInputError, match="bandwidth must be positive, got nan"):
            one_capacity(1.0, math.nan, 2)

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
        assert one_capacity(one_strength(params.sensing_radius_rs, params), 1.0, 1) > 0.0

    def test_qos_value_range_enforced(self):
        # a candidate's strength is in (0, 1] and its capacity positive, or
        # pricing raises: a decay that would round either to 0 is refused up
        # front, and capacity refuses a zero strength
        with pytest.raises(InvalidInputError, match="decay_k"):
            QosParams(confident_radius_rc=1.0, decay_k=1e6, sensing_radius_rs=10.0)
        params = QosParams(confident_radius_rc=1.0, decay_k=4.0, sensing_radius_rs=10.0)
        assert one_strength(0.5, params) == 1.0
        assert one_capacity(one_strength(10.0, params), 1e6, 2) > 0.0  # exp(-36) at the edge
        with pytest.raises(InvalidInputError, match="strength must be positive, got 0.0"):
            one_capacity(0.0, 1e6, 2)
        with pytest.raises(ContractViolationError):
            one_strength(10.5, params)
        assert one_capacity(1e-300, 1e6, 2) >= 0.0  # log2(1 + s) rounds to 0.0 here

    def test_reward_scale_is_max_unit_capacity(self):
        class Svc:
            def __init__(self, b, k):
                self.bandwidth_b, self.max_concurrent_k = b, k

        assert reward_scale([Svc(10.0, 2), Svc(6.0, 1)]) == one_capacity(1.0, 6.0, 1)
        assert reward_scale([]) == 1.0


GPS = DistanceMode.HAVERSINE
EDGE_PARAMS = QosParams(confident_radius_rc=5.0, decay_k=0.1, sensing_radius_rs=50.0)


def assert_column_equals_scalar(column, scalar, *cols):
    """``column(*cols)`` equals ``scalar`` applied row by row, bit for bit
    (the sign of zero and nan included); where a row makes ``scalar`` raise,
    the column function raises the first such row's error."""
    try:
        expected = [scalar(*row) for row in zip(*cols)]
    except (InvalidInputError, ContractViolationError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            column(*cols)
        return
    got = column(*cols)
    assert got.dtype == np.float64 and got.shape == (len(expected),)
    assert got.tobytes() == np.array(expected, dtype=np.float64).tobytes()


@st.composite
def segment_rows(draw, gps):
    """One (sx, sy, ax, ay, bx, by) row: a random one, a zero-length segment
    (the last timestep), a service at the segment start whose projection is
    -0.0 (the segment heads to negative x and y), or a service past either
    end (the clamp at 0 and 1). GPS rows stay in range: discovery checks
    every coordinate before pricing."""
    if gps:
        lon, lat = st.floats(-179.0, 179.0), st.floats(-89.0, 89.0)
        step = st.floats(-1e-3, 1e-3)
    else:
        lon = lat = st.floats(-1e3, 1e3)
        step = st.floats(-60.0, 60.0)
    ax, ay = draw(lon), draw(lat)
    kind = draw(st.sampled_from(["random", "zero", "negative_zero", "before", "past"]))
    vx, vy = draw(step), draw(step)
    sx, sy = ax + draw(step), ay + draw(step)
    if kind == "random":
        bx, by = ax + vx, ay + vy
    elif kind == "zero":
        bx, by = ax, ay
    elif kind == "negative_zero":
        sx, sy, bx, by = ax, ay, ax - abs(vx) - 1e-6, ay - abs(vy) - 1e-6
    elif kind == "before":
        bx, by, sx, sy = ax + vx, ay + vy, ax - 2.0 * vx, ay - 2.0 * vy
    else:
        bx, by, sx, sy = ax + vx, ay + vy, ax + 3.0 * vx, ay + 3.0 * vy
    return sx, sy, ax, ay, bx, by


class TestColumnsEqualScalarReference:
    """Column pricing against the one-pair formulas of tests/oracles.py."""

    @pytest.mark.parametrize("mode", [PLANAR, GPS])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_perpendicular_distance(self, mode, data):
        rows = data.draw(st.lists(segment_rows(mode is GPS), max_size=12))
        cols = list(zip(*rows)) if rows else [()] * 6
        assert_column_equals_scalar(
            lambda *c: qos.perpendicular_distance(*c, mode),
            lambda *r: scalar_perpendicular_distance(*r, mode),
            *cols,
        )

    def test_zero_length_segment_and_clamp_hit_their_branches(self):
        # the exact -0.0 projection, the foot clamped to 0 and to 1, and the
        # zero-length segment each give the scalar value
        rows = [
            (0.0, 0.0, 0.0, 0.0, -3.0, -4.0),  # projection -0.0 / 25
            (-6.0, 1.0, 0.0, 0.0, 3.0, 0.0),  # before a: clamp to 0
            (9.0, 1.0, 0.0, 0.0, 3.0, 0.0),  # past b: clamp to 1
            (3.0, 4.0, 0.0, 0.0, 0.0, 0.0),  # zero-length segment
        ]
        got = qos.perpendicular_distance(*zip(*rows), PLANAR)
        assert got.tolist() == [0.0, math.hypot(6.0, 1.0), math.hypot(6.0, 1.0), 5.0]
        assert_column_equals_scalar(
            lambda *c: qos.perpendicular_distance(*c, PLANAR),
            lambda *r: scalar_perpendicular_distance(*r, PLANAR),
            *zip(*rows),
        )

    @given(st.lists(st.one_of(
        st.floats(0.0, 50.0),
        st.sampled_from([0.0, -0.0, 5.0, 50.0, math.nextafter(5.0, 6.0), math.nan]),
        st.floats(50.0, 1e3, exclude_min=True),
        st.floats(-10.0, -0.0, exclude_max=True),
    ), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_strength(self, pdis):
        # R_c = 5 gives 1.0, and a distance beyond R_s = 50 or below 0 raises
        assert_column_equals_scalar(
            lambda p: qos.strength(p, EDGE_PARAMS), lambda p: scalar_strength(p, EDGE_PARAMS), pdis
        )

    @given(st.lists(st.tuples(
        st.one_of(st.floats(1e-300, 1.0), st.sampled_from([0.0, math.nan, 1.0, 1e-17])),
        st.one_of(st.floats(1.0, 1e9), st.sampled_from([0.0, -1.0, math.nan])),
        st.integers(0, 8),
    ), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_capacity(self, rows):
        cols = list(zip(*rows)) if rows else [(), (), ()]
        assert_column_equals_scalar(qos.capacity, scalar_capacity, *cols)

    def test_pdis_beyond_the_sensing_radius_is_a_contract_violation(self):
        with pytest.raises(ContractViolationError, match=r"pdis=50\.5"):
            qos.strength([1.0, 50.5, -1.0], EDGE_PARAMS)
