import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobicomp import oracle
from mobicomp.errors import InvalidInputError
from mobicomp.oracle import (
    DISK_MARGIN,
    DUMMY_SERVICE,
    CandidateTable,
    ServiceColumns,
    optimal_plan,
    reduce_validate,
    spatial_map,
    table_plan_json,
    temporal_map,
)
from mobicomp.qos import QosParams
from mobicomp.trajectories import (
    DistanceMode,
    MovingService,
    UserTrajectory,
    distances,
)

from conftest import line_user, random_universe, service_tracking, traj
from oracles import (
    brute_force_gps_pairs,
    brute_force_pairs,
    brute_force_validated,
    distance,
    great_circle_vincenty,
    nested_loop_join,
    rle_runs,
    scalar_capacity,
    scalar_perpendicular_distance,
    scalar_strength,
)

PLANAR = DistanceMode.PLANAR_EUCLIDEAN
GPS = DistanceMode.HAVERSINE
QOS = QosParams.defaults_for(15.0)
SYDNEY = (151.2093, -33.8688)  # lon, lat


def discover(services, user, w=2, mode=PLANAR, qos=QOS):
    return oracle.discover(ServiceColumns(services), user, qos, w=w, mode=mode)


def joined_pairs(services, user):
    """temporal_map's result as {t: [(service id, (x, y))]}, each timestep's
    rows in join order, for comparison with the nested-loop reference."""
    universe = ServiceColumns(services)
    joined = temporal_map(universe, user)

    def in_join_order(rows):
        rows = rows[np.argsort(universe.service[rows])]
        return zip(universe.service[rows], universe.x[rows], universe.y[rows])

    return {
        t: [(universe.services[k].id, (x, y)) for k, x, y in in_join_order(rows)]
        for t, rows in joined.items()
    }


def run_spatial(services, user, mode=PLANAR, qos=QOS):
    universe = ServiceColumns(services)
    return spatial_map(temporal_map(universe, user), user, universe, qos, mode)


def pair(t, sid, distance=1.0, strength=1.0, capacity=1.0):
    return (t, sid, distance, strength, capacity)


def disk_pairs(rows):
    """A ``CandidateTable`` over ``pair`` rows, in the order given; the
    universe's service ids are the rows' ids, in id order."""
    ids = sorted({r[1] for r in rows})
    t, sid, d, s, cap = zip(*rows) if rows else [()] * 5
    return CandidateTable(
        timestep=np.array(t, dtype=np.int64),
        service=np.array([ids.index(i) for i in sid], dtype=np.int32),
        distance=np.array(d, dtype=np.float64),
        strength=np.array(s, dtype=np.float64),
        capacity=np.array(cap, dtype=np.float64),
        ids=np.array(ids, dtype=object),
    )


def pair_keys(pairs):
    """The (timestep, service id) of every row of a ``CandidateTable``."""
    return set(zip(pairs.timestep.tolist(), pairs.ids[pairs.service].tolist()))


def table_rows(table):
    """Every row of a ``CandidateTable`` as (timestep, id, distance,
    strength, capacity), in table order."""
    return list(zip(*(c.tolist() for c in (
        table.timestep, table.service_id, table.distance, table.strength, table.capacity
    ))))


def candidates_at(table, t):
    """The table's rows at timestep t, as ``table_rows`` gives them."""
    r = table.per_timestep.get(t, range(0))
    return table_rows(table)[r.start : r.stop]


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
        assert got == expected


class TestSpatialMap:
    def _run(self, services, user, r_s=15.0):
        return run_spatial(services, user, qos=QosParams.defaults_for(r_s))

    def test_interior_point_retained(self):
        user = line_user(2)
        svc = service_tracking(user, "a", 1, 2, offset_y=7.5)  # r_s/2 away
        pairs = self._run([svc], user)
        assert pair_keys(pairs) == {(1, "a"), (2, "a")}

    def test_boundary_is_strictly_excluded(self):
        user = line_user(2)
        svc = service_tracking(user, "a", 1, 2, offset_y=15.0)  # exactly r_s
        assert len(self._run([svc], user)) == 0

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(5)
        services, user = random_universe(rng, n_services=100, n_steps=12)
        pairs = self._run(services, user)
        assert pair_keys(pairs) == brute_force_pairs(services, user, 15.0)

    def test_qos_attached_within_range(self):
        rng = np.random.default_rng(6)
        services, user = random_universe(rng, n_services=30, n_steps=10)
        pairs = self._run(services, user)
        assert len(pairs) > 0
        assert ((0.0 < pairs.strength) & (pairs.strength <= 1.0)).all()
        assert (pairs.distance < 15.0).all()


class TestReduceValidate:
    def test_single_run(self):
        table = reduce_validate(disk_pairs([pair(1, "a"), pair(2, "a"), pair(3, "a")]), w=2)
        assert table.validated == {"a": ((1, 3),)}
        assert sorted(table.per_timestep) == [1, 2, 3]

    def test_gap_breaks_consecutiveness(self):
        # paired at t=1 and t=3 only: no run of length >= 2 exists
        table = reduce_validate(disk_pairs([pair(1, "a"), pair(3, "a")]), w=2)
        assert table.validated == {}
        assert table.per_timestep == {}

    def test_short_runs_discarded_long_kept(self):
        pairs = [pair(1, "a"), pair(3, "a"), pair(4, "a"), pair(9, "a")]
        table = reduce_validate(disk_pairs(pairs), w=2)
        assert table.validated == {"a": ((3, 4),)}
        assert sorted(table.per_timestep) == [3, 4]

    def test_w_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            reduce_validate(disk_pairs([]), w=0)
        with pytest.raises(InvalidInputError):
            reduce_validate(disk_pairs([pair(1, "a"), pair(2, "a")]), w=-3)

    @given(st.lists(st.integers(1, 30), min_size=0, max_size=30), st.integers(1, 5))
    @settings(max_examples=200)
    def test_runs_match_rle_oracle(self, ts, w):
        ts = sorted(set(ts))
        table = reduce_validate(disk_pairs([pair(t, "x") for t in ts]), w=w)
        expected = tuple(r for r in rle_runs(ts) if r[1] - r[0] + 1 >= w)
        got = table.validated.get("x", ())
        assert got == expected

    def test_consecutive_runs_at_w_1(self):
        def runs(ts):
            return reduce_validate(disk_pairs([pair(t, "x") for t in ts]), w=1).validated

        assert runs([]) == {}
        assert runs([4]) == {"x": ((4, 4),)}
        assert runs([1, 2, 3, 7, 8, 12]) == {"x": ((1, 3), (7, 8), (12, 12))}

    @given(
        st.dictionaries(
            st.sampled_from("abcd"), st.sets(st.integers(1, 25), min_size=1, max_size=15),
            min_size=1, max_size=4,
        ),
        st.integers(1, 4),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    def test_keeps_the_brute_force_rows_in_join_order_given_any_order(
        self, steps, w, shuffled, rnd
    ):
        # every row's float columns are its own, so a row moved whole shows
        rows = [
            pair(t, sid, distance=t + k / 8, strength=k + t / 64, capacity=t * 8.0 + k)
            for k, (sid, ts) in enumerate(sorted(steps.items())) for t in ts
        ]
        if shuffled:
            rnd.shuffle(rows)
        else:
            rows.sort()  # join order: by timestep, then id
        runs = {
            sid: tuple(r for r in rle_runs(sorted(ts)) if r[1] - r[0] + 1 >= w)
            for sid, ts in sorted(steps.items())
        }
        runs = {sid: r for sid, r in runs.items() if r}
        kept = sorted(
            r for r in rows if any(lo <= r[0] <= hi for lo, hi in runs.get(r[1], ()))
        )
        table = reduce_validate(disk_pairs(rows), w)
        assert table_rows(table) == kept
        assert list(table.validated.items()) == list(runs.items())
        assert table_rows(reduce_validate(table, w)) == kept


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

    def test_equal_capacities_tie_to_the_smallest_id_in_any_bundle_order(self):
        # pairs in the order c, a, d, b; c, a and b tie at both steps, d
        # beats them at step 2 only
        rows = [pair(t, sid, capacity=7.0) for t in (1, 2) for sid in ("c", "a", "b")]
        rows.insert(4, pair(2, "d", capacity=8.0))
        rows.insert(1, pair(1, "d", capacity=6.0))
        table = reduce_validate(disk_pairs(rows), w=1)
        assert [r[1] for r in table_rows(table)] == ["a", "b", "c", "d"] * 2
        plan = optimal_plan(table, line_user(3), reward_scale=2.0)
        assert [(s.chosen, s.capacity, s.reward) for s in plan.steps] == [
            ("a", 7.0, 3.5), ("d", 8.0, 4.0), (DUMMY_SERVICE, 0.0, -1.0)
        ]

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
            expected += max((c[4] for c in candidates_at(table, t)), default=0.0)
        assert sum(s.capacity for s in plan.steps) == pytest.approx(expected, rel=1e-12)

    def test_dominance(self):
        rng = np.random.default_rng(8)
        services, user = random_universe(rng, n_services=12, n_steps=30)
        table = discover(services, user)
        plan = optimal_plan(table, user)
        for step in plan.steps:
            for c in candidates_at(table, step.user_timestep):
                assert c[4] <= step.capacity or step.chosen == DUMMY_SERVICE


class TestDiscoverParallel:
    def test_equals_sequential_pipeline(self):
        rng = np.random.default_rng(9)
        services, user = random_universe(rng, n_services=20, n_steps=40)
        sequential = reduce_validate(run_spatial(services, user), w=2)
        table = discover(services, user)
        assert len(table_rows(table)) > 0
        assert table_rows(table) == table_rows(sequential)
        assert table.validated == sequential.validated
        assert table.per_timestep == sequential.per_timestep

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
        assert surviving_pairs(table) == surviving


class TestLazyViews:
    def test_the_plan_and_the_json_rows_never_build_the_runs(self):
        rng = np.random.default_rng(13)
        services, user = random_universe(rng, n_services=12, n_steps=30)
        table = discover(services, user)
        table_plan_json(table, optimal_plan(table, user), user)
        assert len(table) > 0
        assert "validated" not in table.__dict__


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
    """Every emitted float equals the one-pair formulas' value for its pair."""
    by_id = {s.id: s for s in services}
    user_at = {int(p.t): p for p in user.trajectory.points}
    for t, sid, d, s, cap in zip(*(c.tolist() for c in (
        pairs.timestep, pairs.ids[pairs.service], pairs.distance, pairs.strength, pairs.capacity
    ))):
        svc = by_id[sid]
        sp = next(p for p in svc.trajectory.points if p.t == t)
        up = user_at[t]
        nxt = user_at.get(t + 1, up)
        assert d == distance(up.x, up.y, sp.x, sp.y, mode)
        pdis = scalar_perpendicular_distance(sp.x, sp.y, up.x, up.y, nxt.x, nxt.y, mode)
        assert s == scalar_strength(pdis, QOS)
        assert cap == scalar_capacity(s, svc.bandwidth_b, svc.max_concurrent_k)


def surviving_pairs(table):
    return set(zip(table.timestep.tolist(), table.service_id.tolist()))


def stationary(x, y, n=2):
    return traj([(t, x, y) for t in range(1, n + 1)])


def edge_offsets(mode, dy):
    """Adjacent x offsets from the origin user, at lateral offset dy, whose
    scalar distance is just below and at or above r_s."""
    x0, y0 = SYDNEY if mode is GPS else (0.0, 0.0)
    r_s = QOS.sensing_radius_rs

    def d(x):
        return distance(x0, y0, x, y0 + dy, mode)

    return (x0, y0), *bisect_r_s(d, x0, x0 + (1.0 if mode is GPS else 2.0 * r_s))


def bisect_r_s(d, lo, hi):
    """Adjacent floats between lo and hi at which d crosses r_s: d(lo) < r_s
    <= d(hi)."""
    r_s = QOS.sensing_radius_rs
    assert d(lo) < r_s <= d(hi)
    while np.nextafter(lo, hi) != hi:
        mid = lo + (hi - lo) / 2.0
        lo, hi = (mid, hi) if d(mid) < r_s else (lo, mid)
    return lo, hi


class TestColumnarOracle:
    """The columnar join and numpy prefilter against the brute-force references."""

    @given(universes())
    @settings(max_examples=150, deadline=None)
    def test_planar_matches_brute_force(self, universe):
        services, user = universe
        assert joined_pairs(services, user) == nested_loop_join(services, user)
        pairs = run_spatial(services, user)
        assert pair_keys(pairs) == brute_force_pairs(services, user, 15.0)
        assert_scalar_qos(pairs, services, user, PLANAR)
        validated, surviving = brute_force_validated(services, user, 15.0, w=2)
        table = discover(services, user)
        assert table.validated == validated
        assert surviving_pairs(table) == surviving

    @given(universes())
    @settings(max_examples=100, deadline=None)
    def test_disk_pairs_per_timestep_hold_the_brute_force_services(self, universe):
        services, user = universe
        pairs = run_spatial(services, user)
        want = {}
        for t, sid in sorted(brute_force_pairs(services, user, 15.0)):
            want.setdefault(t, []).append(sid)
        got = {t: pairs.service_id[r.start : r.stop].tolist() for t, r in pairs.per_timestep.items()}
        assert got == want
        assert sum(map(len, pairs.per_timestep.values())) == len(pairs)
        assert pairs.validated == reduce_validate(pairs, 1).validated

    @given(universes(gps=True))
    @settings(max_examples=100, deadline=None)
    def test_haversine_matches_great_circle_away_from_the_edge(self, universe):
        services, user = universe
        pairs = run_spatial(services, user, mode=GPS)
        inside, edge = brute_force_gps_pairs(services, user, 15.0, edge_m=1e-6)
        assert pair_keys(pairs) - edge == inside
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
        assert (table.distance < 15.0).all()

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
            distance(*a, *b, mode)
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

    def test_gps_range_checked_on_every_joined_pair(self):
        user = UserTrajectory(id="user:g", trajectory=stationary(*SYDNEY, n=3))
        far = MovingService(id="far", trajectory=traj([(2, 200.0, 0.0)]),
                            bandwidth_b=4e6, max_concurrent_k=2)
        with pytest.raises(InvalidInputError, match=r"^service 'far': .*\(200\.0, 0\.0\)$"):
            discover([far], user, mode=GPS)
        # a sample no user timestep joins is refused too
        unjoined = MovingService(id="later", trajectory=traj([(9, 200.0, 0.0)]),
                                 bandwidth_b=4e6, max_concurrent_k=2)
        with pytest.raises(InvalidInputError, match=r"^service 'later': .*\(200\.0, 0\.0\)$"):
            discover([unjoined], user, mode=GPS)

    def test_gps_range_checked_on_the_next_user_sample(self):
        # the user's sample at t + 1, the far end of a priced path segment,
        # is range-checked with the rest of the trajectory
        user = UserTrajectory(
            id="user:g", trajectory=traj([(1, *SYDNEY), (2, 200.0, 0.0)])
        )
        svc = MovingService(id="a", trajectory=traj([(1, SYDNEY[0], SYDNEY[1] + 1e-5)]),
                            bandwidth_b=4e6, max_concurrent_k=2)
        with pytest.raises(InvalidInputError, match=r"^user 'user:g': .*\(200\.0, 0\.0\)$"):
            discover([svc], user, w=1, mode=GPS)

    def test_gps_universe_checked_once(self):
        user = UserTrajectory(id="user:g", trajectory=stationary(*SYDNEY, n=3))
        universe = ServiceColumns([gps_service("a", [(t, *SYDNEY) for t in (1, 2, 3)])])
        oracle.discover(universe, user, QOS, w=2, mode=PLANAR)
        assert "gps_bad_service" not in vars(universe)  # planar discovery never checks
        table = oracle.discover(universe, user, QOS, w=2, mode=GPS)
        assert table.validated == {"a": ((1, 3),)}
        assert vars(universe)["gps_bad_service"] is None  # cached for every later user


class TestGridInvariant:
    """Services and users lie on one integer grid, and service ids are unique
    and never the dummy action's: anything else is refused where it is built."""

    @pytest.mark.parametrize("t", [1.5, 2.0**53, 1e19])
    def test_service_timestep_off_the_grid_refused(self, t):
        with pytest.raises(InvalidInputError, match=re.escape(f"service 'a': timestep {t} ")):
            MovingService(id="a", trajectory=traj([(1, 0, 0), (t, 0, 0)]),
                          bandwidth_b=4e6, max_concurrent_k=2)

    @pytest.mark.parametrize("t", [1.5, 2.0**53])
    def test_user_timestep_off_the_grid_refused(self, t):
        with pytest.raises(InvalidInputError, match=re.escape(f"user 'user:f': timestep {t} ")):
            UserTrajectory(id="user:f", trajectory=traj([(1, 0, 0), (t, 0, 0)]))

    def test_last_grid_timestep_joins(self):
        top = 2**53 - 1
        user = UserTrajectory(id="user:t", trajectory=traj([(top - 1, 0, 0), (top, 10, 0)]))
        svc = service_tracking(user, "a", top - 1, top)
        assert discover([svc], user).validated == {"a": ((top - 1, top),)}

    def test_repeated_service_id_refused(self):
        user = line_user(3)
        services = [service_tracking(user, "a", 1, 2), service_tracking(user, "a", 2, 3)]
        with pytest.raises(InvalidInputError, match="repeated service id 'a'"):
            ServiceColumns(services)

    def test_dummy_service_id_refused(self):
        with pytest.raises(InvalidInputError, match=f"service {DUMMY_SERVICE!r}: the id is reserved"):
            service_tracking(line_user(2), DUMMY_SERVICE, 1, 2)

    def test_services_held_in_id_order(self):
        user = line_user(3)
        universe = ServiceColumns([service_tracking(user, sid, 1, 3) for sid in "cab"])
        assert universe.ids.tolist() == ["a", "b", "c"]
        assert [s.id for s in universe.services] == ["a", "b", "c"]


def band_edge(mode, origin, sign):
    """Adjacent y offsets from the user at ``origin``, straight up (sign 1)
    or down (-1) the band axis, whose scalar distance is just below and at
    or above r_s."""
    x0, y0 = origin
    reach = 2.0 * QOS.sensing_radius_rs / (M_PER_DEG if mode is GPS else 1.0)
    return bisect_r_s(lambda y: distance(x0, y0, x0, y, mode), y0, y0 + sign * reach)


def gps_service(sid, samples):
    return MovingService(id=sid, trajectory=traj(samples), bandwidth_b=4e6, max_concurrent_k=2)


class TestBandIndex:
    """The (timestep, y) band read by ``spatial_map`` never drops a pair the
    full scan keeps, and never changes which error comes first."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("mode, origin", [
        (PLANAR, (0.0, 0.0)), (PLANAR, (3.0e5, -7.25e5)),
        (GPS, SYDNEY), (GPS, (-71.0, 89.9)), (GPS, (12.5, -89.9)),
    ])
    def test_one_ulp_inside_and_at_r_s_on_the_band_axis(self, mode, origin, sign):
        y_in, y_out = band_edge(mode, origin, sign)
        x0, y0 = origin
        user = UserTrajectory(id="user:o", trajectory=stationary(x0, y0))
        services = [
            MovingService(id=sid, trajectory=stationary(x0, y),
                          bandwidth_b=4e6, max_concurrent_k=2)
            for sid, y in (("in", y_in), ("out", y_out))
        ]
        table = discover(services, user, mode=mode)
        assert table.validated == {"in": ((1, 2),)}
        assert (table.distance < 15.0).all()
        if mode is PLANAR and origin == (0.0, 0.0):
            assert abs(y_out) == 15.0  # exactly r_s is outside

    def test_gps_bad_row_far_outside_the_band_is_still_checked(self):
        user = UserTrajectory(id="user:g", trajectory=stationary(*SYDNEY, n=3))
        near = gps_service("near", [(t, SYDNEY[0], SYDNEY[1] + 1e-5) for t in (1, 2, 3)])
        # latitude 60 is thousands of kilometres outside the band at -33.87
        far = gps_service("far", [(1, 100.0, 60.0), (2, 200.0, 60.0)])
        with pytest.raises(InvalidInputError, match=r"\(200\.0, 60\.0\)"):
            discover([near, far], user, mode=GPS)

    def test_gps_first_bad_service_row_in_join_order(self):
        # s1's bad row has the smaller y at t=2 and s1 comes first in the
        # bundle, but "late", bad only at t=3, comes first in id order
        user = UserTrajectory(id="user:g", trajectory=stationary(*SYDNEY, n=3))
        s0 = gps_service("s0", [(2, 181.0, 45.0)])
        s1 = gps_service("s1", [(2, -190.0, -45.0)])
        late = gps_service("late", [(1, 0.0, 0.0), (3, 0.0, 95.0)])
        with pytest.raises(InvalidInputError, match=r"^service 'late': .*\(0\.0, 95\.0\)$"):
            discover([s1, s0, late], user, mode=GPS)
        # of one service, its first bad sample in time is named
        both = gps_service("both", [(1, 0.0, -91.0), (2, 0.0, 0.0), (3, -181.0, -95.0)])
        with pytest.raises(InvalidInputError, match=r"^service 'both': .*\(0\.0, -91\.0\)$"):
            discover([both], user, mode=GPS)

    def test_gps_bad_user_sample_comes_before_its_timesteps_service_rows(self):
        # a bad user sample is refused wherever it lies, at t=1 too, where
        # no service has a sample
        svc = gps_service("s", [(2, *SYDNEY), (3, *SYDNEY)])
        for t_bad in (1, 2, 3):
            samples = [(t, *SYDNEY) for t in (1, 2, 3)]
            samples[t_bad - 1] = (t_bad, 210.0, 0.0)
            user = UserTrajectory(id="user:g", trajectory=traj(samples))
            with pytest.raises(InvalidInputError, match=r"^user 'user:g': .*\(210\.0, 0\.0\)$"):
                discover([svc], user, mode=GPS)
