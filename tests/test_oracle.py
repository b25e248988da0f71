import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobicomp import oracle
from mobicomp.errors import InvalidInputError, OutOfRangeError
from mobicomp.oracle import (
    DISK_MARGIN,
    DUMMY_SERVICE,
    ServiceColumns,
    SpatialCandidatePair,
    consecutive_runs,
    optimal_plan,
    reduce_validate,
    spatial_map,
    table_plan_json,
    temporal_map,
)
from mobicomp.qos import QosParams, QosValue, capacity, perpendicular_distance, strength
from mobicomp.trajectories import (
    DistanceMode,
    MovingService,
    TrajectoryPoint,
    UserTrajectory,
    distance,
    distances,
)

from conftest import line_user, random_universe, service_tracking, traj
from oracles import (
    brute_force_gps_pairs,
    brute_force_pairs,
    brute_force_validated,
    great_circle_vincenty,
    nested_loop_join,
    rle_runs,
)

PLANAR = DistanceMode.PLANAR_EUCLIDEAN
GPS = DistanceMode.HAVERSINE
QOS = QosParams.defaults_for(15.0)
SYDNEY = (151.2093, -33.8688)  # lon, lat


def discover(services, user, w=2, mode=PLANAR, qos=QOS):
    return oracle.discover(ServiceColumns(services), user, qos, w=w, mode=mode)


def joined_pairs(services, user):
    """temporal_map's result as {t: [(service id, sample)]}, for comparison
    with the nested-loop reference."""
    universe = ServiceColumns(services)
    joined = temporal_map(universe, user)
    return {
        t: [
            (
                universe.services[universe.row[i]].id,
                universe.services[universe.row[i]].trajectory.points[universe.sample[i]],
            )
            for i in rows
        ]
        for t, rows in joined.items()
    }


def run_spatial(services, user, mode=PLANAR, qos=QOS):
    universe = ServiceColumns(services)
    return spatial_map(temporal_map(universe, user), user, universe, qos, mode)


def pair(t, sid, distance=1.0, capacity=1.0):
    return SpatialCandidatePair(
        user_timestep=t,
        service_id=sid,
        distance=distance,
        qos=QosValue(strength=1.0, capacity=capacity),
    )


class TestTemporalMap:
    def test_left_outer_padding(self):
        user = line_user(3)
        svc = service_tracking(user, "a", 2, 3)
        joined = joined_pairs([svc], user)
        assert sorted(joined) == [1, 2, 3]
        assert joined[1] == []
        assert [sid for sid, _ in joined[2]] == ["a"]
        assert [sid for sid, _ in joined[3]] == ["a"]

    def test_empty_universe(self):
        user = line_user(4)
        joined = temporal_map(ServiceColumns([]), user)
        assert len(joined) == 4 and all(len(joined[t]) == 0 for t in joined)

    def test_matches_nested_loop_join(self):
        rng = np.random.default_rng(11)
        services, user = random_universe(rng, n_services=50, n_steps=20)
        got = joined_pairs(services, user)
        expected = nested_loop_join(services, user)
        assert set(got) == set(expected)
        for t in got:
            assert [(sid, (p.t, p.x, p.y)) for sid, p in got[t]] == [
                (sid, (p.t, p.x, p.y)) for sid, p in expected[t]
            ]


class TestSpatialMap:
    def _run(self, services, user, r_s=15.0):
        return run_spatial(services, user, qos=QosParams.defaults_for(r_s))

    def test_interior_point_retained(self):
        user = line_user(2)
        svc = service_tracking(user, "a", 1, 2, offset_y=7.5)  # r_s/2 away
        pairs = self._run([svc], user)
        assert {(p.user_timestep, p.service_id) for p in pairs} == {(1, "a"), (2, "a")}

    def test_boundary_is_strictly_excluded(self):
        user = line_user(2)
        svc = service_tracking(user, "a", 1, 2, offset_y=15.0)  # exactly r_s
        assert self._run([svc], user) == []

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(5)
        services, user = random_universe(rng, n_services=100, n_steps=12)
        pairs = self._run(services, user)
        got = {(p.user_timestep, p.service_id) for p in pairs}
        assert got == brute_force_pairs(services, user, 15.0)

    def test_qos_attached_within_range(self):
        rng = np.random.default_rng(6)
        services, user = random_universe(rng, n_services=30, n_steps=10)
        for p in self._run(services, user):
            assert 0.0 < p.qos.strength <= 1.0
            assert p.distance < 15.0


class TestReduceValidate:
    def test_single_run(self):
        table = reduce_validate([pair(1, "a"), pair(2, "a"), pair(3, "a")], w=2)
        assert table.validated == {"a": ((1, 3),)}
        assert sorted(table.per_timestep) == [1, 2, 3]

    def test_gap_breaks_consecutiveness(self):
        # paired at t=1 and t=3 only: no run of length >= 2 exists
        table = reduce_validate([pair(1, "a"), pair(3, "a")], w=2)
        assert table.validated == {}
        assert table.per_timestep == {}

    def test_short_runs_discarded_long_kept(self):
        pairs = [pair(1, "a"), pair(3, "a"), pair(4, "a"), pair(9, "a")]
        table = reduce_validate(pairs, w=2)
        assert table.validated == {"a": ((3, 4),)}
        assert sorted(table.per_timestep) == [3, 4]

    def test_w_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            reduce_validate([], w=0)

    @given(st.lists(st.integers(1, 30), min_size=0, max_size=30), st.integers(1, 5))
    @settings(max_examples=200)
    def test_runs_match_rle_oracle(self, ts, w):
        ts = sorted(set(ts))
        table = reduce_validate([pair(t, "x") for t in ts], w=w)
        expected = tuple(r for r in rle_runs(ts) if r[1] - r[0] + 1 >= w)
        got = table.validated.get("x", ())
        assert got == expected

    def test_consecutive_runs_helper(self):
        assert consecutive_runs([]) == []
        assert consecutive_runs([4]) == [(4, 4)]
        assert consecutive_runs([1, 2, 3, 7, 8, 12]) == [(1, 3), (7, 8), (12, 12)]


class TestOptimalPlan:
    def test_single_candidate_chosen_everywhere(self):
        user = line_user(4)
        svc = service_tracking(user, "a", 1, 4)
        table = discover([svc], user)
        plan = optimal_plan(table, user)
        assert [s.chosen for s in plan.steps] == ["a"] * 4

    def test_argmax_by_capacity(self):
        user = line_user(3)
        weak = service_tracking(user, "weak", 1, 3, bandwidth=3e6)
        strong = service_tracking(user, "strong", 1, 3, bandwidth=4e6)
        table = discover([weak, strong], user)
        plan = optimal_plan(table, user)
        assert [s.chosen for s in plan.steps] == ["strong"] * 3

    def test_tie_breaks_to_smallest_id(self):
        user = line_user(3)
        b = service_tracking(user, "b", 1, 3)
        a = service_tracking(user, "a", 1, 3)
        table = discover([b, a], user)
        plan = optimal_plan(table, user)
        assert [s.chosen for s in plan.steps] == ["a"] * 3

    def test_dummy_where_no_candidate(self):
        user = line_user(5)
        svc = service_tracking(user, "a", 1, 2)
        table = discover([svc], user)
        plan = optimal_plan(table, user, dummy_reward=-1.0)
        assert [s.chosen for s in plan.steps] == ["a", "a", DUMMY_SERVICE, DUMMY_SERVICE, DUMMY_SERVICE]
        assert all(s.reward == -1.0 for s in plan.steps[2:])

    def test_plan_total_matches_exhaustive_max_scan(self):
        rng = np.random.default_rng(7)
        services, user = random_universe(rng, n_services=10, n_steps=50)
        table = discover(services, user)
        plan = optimal_plan(table, user)
        # exhaustive per-timestep maximum over the validated table
        expected = 0.0
        for t in (int(p.t) for p in user.trajectory.points):
            cands = table.validated_at(t)
            expected += max((c.qos.capacity for c in cands.values()), default=0.0)
        assert sum(s.capacity for s in plan.steps) == pytest.approx(expected, rel=1e-12)

    def test_dominance(self):
        rng = np.random.default_rng(8)
        services, user = random_universe(rng, n_services=12, n_steps=30)
        table = discover(services, user)
        plan = optimal_plan(table, user)
        for step in plan.steps:
            cands = table.validated_at(step.user_timestep)
            for c in cands.values():
                assert c.qos.capacity <= step.capacity or step.chosen == DUMMY_SERVICE


class TestDiscoverParallel:
    def test_equals_sequential_pipeline(self):
        rng = np.random.default_rng(9)
        services, user = random_universe(rng, n_services=20, n_steps=40)
        sequential = reduce_validate(run_spatial(services, user), w=2)
        assert discover(services, user) == sequential

    def test_run_crossing_mid_trajectory(self):
        user = line_user(20)
        svc = service_tracking(user, "a", 9, 12)
        table = discover([svc], user)
        assert table.validated == {"a": ((9, 12),)}
        assert sorted(table.per_timestep) == [9, 10, 11, 12]

    def test_matches_brute_force_validation(self):
        rng = np.random.default_rng(12)
        services, user = random_universe(rng, n_services=15, n_steps=35)
        table = discover(services, user, w=3)
        validated, surviving = brute_force_validated(services, user, 15.0, w=3)
        assert table.validated == validated
        got_pairs = {
            (p.user_timestep, p.service_id)
            for pairs in table.per_timestep.values()
            for p in pairs.values()
        }
        assert got_pairs == surviving


class TestJsonEmission:
    def test_per_step_schema(self):
        user = line_user(3)
        svc = service_tracking(user, "a", 1, 2)
        table = discover([svc], user)
        plan = optimal_plan(table, user)
        rows = table_plan_json(table, plan, user)
        assert [r["timestep"] for r in rows] == [1, 2, 3]
        assert rows[0]["chosen"] == "a"
        assert rows[2]["chosen"] == DUMMY_SERVICE
        cand = rows[0]["candidates"][0]
        assert set(cand) == {"service_id", "distance_m", "strength", "capacity_bps"}
        assert rows[2]["candidates"] == []

    def test_one_candidate_per_service_and_timestep(self):
        # two samples of one service fall on integer timestep 1: the emitted
        # candidate is the one the plan and the environment price
        user = line_user(3)
        svc = MovingService(
            id="a", trajectory=traj([(1, 10, 1), (1.5, 15, 1), (2, 20, 1), (3, 30, 1)]),
            bandwidth_b=4e6, max_concurrent_k=2,
        )
        table = discover([svc], user)
        plan = optimal_plan(table, user)
        rows = table_plan_json(table, plan, user)
        assert [len(r["candidates"]) for r in rows] == [1, 1, 1]
        assert rows[0]["candidates"][0]["distance_m"] == table.validated_at(1)["a"].distance
        assert plan.steps[0].capacity == rows[0]["candidates"][0]["capacity_bps"]


M_PER_DEG = math.pi * 6_371_000.0 / 180.0


@st.composite
def universes(draw, gps=False):
    """One user and up to six services on sparse integer timesteps: gaps,
    services that start before, end after or sit inside the user's span,
    and absolute timesteps up to 10^12. Coordinates are metres in a 40 m
    square, placed around Sydney as lon/lat when ``gps`` is set."""
    offset = draw(st.sampled_from([0, 1_000, 10**6, 10**12]))
    coord = st.floats(0.0, 40.0)

    def trajectory(steps):
        pts = [(offset + t, draw(coord), draw(coord)) for t in sorted(steps)]
        if gps:
            k_lon = M_PER_DEG * math.cos(math.radians(SYDNEY[1]))
            pts = [(t, SYDNEY[0] + x / k_lon, SYDNEY[1] + y / M_PER_DEG) for t, x, y in pts]
        return traj(pts)

    user = UserTrajectory(
        id="user:h", trajectory=trajectory(draw(st.sets(st.integers(1, 40), min_size=1, max_size=25)))
    )
    services = [
        MovingService(
            id=f"s{i}",
            trajectory=trajectory(draw(st.sets(st.integers(0, 45), min_size=1, max_size=25))),
            bandwidth_b=draw(st.floats(1e6, 9e6)),
            max_concurrent_k=draw(st.integers(1, 4)),
        )
        for i in range(draw(st.integers(0, 6)))
    ]
    return services, user


def assert_scalar_qos(pairs, services, user, mode):
    """Every emitted float equals the scalar functions' value for its pair."""
    by_id = {s.id: s for s in services}
    user_at = {int(p.t): p for p in user.trajectory.points}
    for pair in pairs:
        t, svc = pair.user_timestep, by_id[pair.service_id]
        svc_pt = svc.trajectory.points[svc.trajectory.index_of(t)]
        assert pair.distance == distance(user_at[t], svc_pt, mode)
        s = strength(perpendicular_distance(svc_pt, user.trajectory, t, mode), QOS)
        assert pair.qos.strength == s
        assert pair.qos.capacity == capacity(s, svc.bandwidth_b, svc.max_concurrent_k)


def surviving_pairs(table):
    return {(p.user_timestep, p.service_id) for ps in table.per_timestep.values() for p in ps.values()}


def stationary(x, y, n=2):
    return traj([(t, x, y) for t in range(1, n + 1)])


def edge_offsets(mode, dy):
    """Adjacent x offsets from the origin user, at lateral offset dy, whose
    scalar distance is just below and at or above r_s."""
    x0, y0 = SYDNEY if mode is GPS else (0.0, 0.0)
    r_s = QOS.sensing_radius_rs

    def d(x):
        return distance(TrajectoryPoint(1, x0, y0), TrajectoryPoint(1, x, y0 + dy), mode)

    lo, hi = x0, x0 + (1.0 if mode is GPS else 2.0 * r_s)
    assert d(lo) < r_s <= d(hi)
    while np.nextafter(lo, hi) != hi:
        mid = lo + (hi - lo) / 2.0
        lo, hi = (mid, hi) if d(mid) < r_s else (lo, mid)
    return (x0, y0), lo, hi


class TestColumnarOracle:
    """The columnar join and numpy prefilter against the brute-force references."""

    @given(universes())
    @settings(max_examples=150, deadline=None)
    def test_planar_matches_brute_force(self, universe):
        services, user = universe
        assert joined_pairs(services, user) == nested_loop_join(services, user)
        pairs = run_spatial(services, user)
        assert {(p.user_timestep, p.service_id) for p in pairs} == brute_force_pairs(
            services, user, 15.0
        )
        assert_scalar_qos(pairs, services, user, PLANAR)
        validated, surviving = brute_force_validated(services, user, 15.0, w=2)
        table = discover(services, user)
        assert table.validated == validated
        assert surviving_pairs(table) == surviving

    @given(universes(gps=True))
    @settings(max_examples=100, deadline=None)
    def test_haversine_matches_great_circle_away_from_the_edge(self, universe):
        services, user = universe
        pairs = run_spatial(services, user, mode=GPS)
        inside, edge = brute_force_gps_pairs(services, user, 15.0, edge_m=1e-6)
        assert {(p.user_timestep, p.service_id) for p in pairs} - edge == inside
        assert_scalar_qos(pairs, services, user, GPS)

    @pytest.mark.parametrize("mode", [PLANAR, GPS])
    @pytest.mark.parametrize("dy_fraction", [0.0, 0.3, 0.71])
    def test_one_ulp_inside_and_outside_r_s(self, mode, dy_fraction):
        dy = dy_fraction * (15.0 / M_PER_DEG if mode is GPS else 15.0)
        (x0, y0), x_in, x_out = edge_offsets(mode, dy)
        user = UserTrajectory(id="user:o", trajectory=stationary(x0, y0))
        services = [
            MovingService(id=sid, trajectory=stationary(x, y0 + dy),
                          bandwidth_b=4e6, max_concurrent_k=2)
            for sid, x in (("in", x_in), ("out", x_out))
        ]
        table = discover(services, user, mode=mode)
        assert table.validated == {"in": ((1, 2),)}
        assert all(p.distance < 15.0 for ps in table.per_timestep.values() for p in ps.values())

    @pytest.mark.parametrize("mode", [PLANAR, GPS])
    def test_margin_covers_numpy_rounding(self, mode):
        rng = np.random.default_rng(3)
        n = 20_000
        if mode is GPS:
            ax, ay = rng.uniform(-180, 180, n), rng.uniform(-89, 89, n)
            scale = rng.choice([1e-7, 1e-5, 1e-3, 1.0], n)
            bx = np.clip(ax + rng.normal(0, 1, n) * scale, -180, 180)
            by = np.clip(ay + rng.normal(0, 1, n) * scale, -90, 90)
        else:
            ax, ay = rng.uniform(-1e4, 1e4, (2, n))
            scale = rng.choice([1e-3, 1.0, 20.0, 1e3], n)
            bx, by = ax + rng.normal(0, 1, n) * scale, ay + rng.normal(0, 1, n) * scale
        got = distances(ax, ay, bx, by, mode)
        scalar = np.array([
            distance(TrajectoryPoint(0, *a), TrajectoryPoint(0, *b), mode)
            for a, b in zip(zip(ax.tolist(), ay.tolist()), zip(bx.tolist(), by.tolist()))
        ])
        assert np.all(np.abs(got - scalar) <= 1e-3 * DISK_MARGIN * scalar)

    def test_empty_universe(self):
        user = line_user(5)
        table = discover([], user)
        assert table.per_timestep == {} and table.validated == {}

    def test_far_apart_timesteps_join_without_a_dense_index(self):
        big = 10**15
        user = UserTrajectory(
            id="user:g", trajectory=traj([(1, 0, 0), (2, 10, 0), (big, 20, 0), (big + 1, 30, 0)])
        )
        svc = service_tracking(user, "a", 2, big + 1)
        table = discover([svc], user)
        assert table.validated == {"a": ((big, big + 1),)}
        assert sorted(table.per_timestep) == [big, big + 1]

    def test_timestep_beyond_int64_rejected(self):
        user = line_user(3)
        svc = MovingService(id="a", trajectory=traj([(1, 0, 0), (1e19, 0, 0)]),
                            bandwidth_b=4e6, max_concurrent_k=2)
        with pytest.raises(InvalidInputError, match="64-bit"):
            discover([svc], user)

    def test_gps_range_checked_on_every_joined_pair(self):
        user = UserTrajectory(id="user:g", trajectory=stationary(*SYDNEY, n=3))
        far = MovingService(id="far", trajectory=traj([(2, 200.0, 0.0)]),
                            bandwidth_b=4e6, max_concurrent_k=2)
        with pytest.raises(InvalidInputError, match="200.0"):
            discover([far], user, mode=GPS)
        unjoined = MovingService(id="later", trajectory=traj([(9, 200.0, 0.0)]),
                                 bandwidth_b=4e6, max_concurrent_k=2)
        assert discover([unjoined], user, mode=GPS).validated == {}

    def test_joined_timestep_without_exact_user_sample(self):
        user = UserTrajectory(id="user:f", trajectory=traj([(1.5, 0, 0), (2.5, 0, 0)]))
        svc = MovingService(id="a", trajectory=traj([(1, 100, 0)]),
                            bandwidth_b=4e6, max_concurrent_k=2)
        with pytest.raises(OutOfRangeError, match="timestep 1$"):
            discover([svc], user)
