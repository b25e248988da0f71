import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from mobicomp.datasets import (
    ScenarioSpec,
    default_scenario_spec,
    generate,
    ingest_gps,
    ingest_indoor,
    load_scenario,
    split_services_users,
    split_train_test,
    write_scenario_bundle,
)
from mobicomp.environment import RewardScheme
from mobicomp.errors import InvalidInputError
from mobicomp.oracle import ServiceColumns, discover
from mobicomp.qos import QosParams
from mobicomp.trajectories import DistanceMode, dump_trajectories_csv, load_trajectories_csv


def small_spec(**overrides):
    base = dict(
        n_services=10,
        n_users=4,
        area=(0.0, 0.0, 120.0, 120.0),
        timestep_count=30,
        speed_range=(0.8, 1.5),
        seed=13,
        mobility_model="corridor_flow",
        corridor_count=2,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestGenerate:
    def test_deterministic_and_byte_identical(self, tmp_path):
        spec = small_spec()
        qos = QosParams.defaults_for(spec.r_s_meters)
        for d in ("a", "b"):
            services, users = generate(spec)
            write_scenario_bundle(
                tmp_path / d, services, users, qos, spec.w,
                DistanceMode.PLANAR_EUCLIDEAN, seed=spec.seed,
            )
        for name in ("services.csv", "users.csv", "scenario.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_speed_random_waypoint_is_stationary(self):
        spec = small_spec(mobility_model="random_waypoint", speed_range=(0.0, 0.0))
        services, users = generate(spec)
        for item in services + users:
            traj = item.trajectory
            xs = {p.x for p in traj.points}
            ys = {p.y for p in traj.points}
            assert len(xs) == 1 and len(ys) == 1

    def test_full_coroute_guarantees_candidates_everywhere(self):
        spec = small_spec(coroute_fraction=1.0, jitter_m=2.0)
        services, users = generate(spec)
        qos = QosParams.defaults_for(spec.r_s_meters)
        universe = ServiceColumns(services)
        for user in users:
            table = discover(
                universe, user, qos, w=1, mode=DistanceMode.PLANAR_EUCLIDEAN
            )
            covered = set(table.timestep.tolist())
            expected = {int(p.t) for p in user.trajectory.points}
            assert covered == expected

    def test_invariants_hold(self):
        for model in ("corridor_flow", "random_waypoint"):
            services, users = generate(small_spec(mobility_model=model))
            assert len(services) == 10 and len(users) == 4
            for item in services + users:
                ts = item.trajectory.t.tolist()
                assert all(t.is_integer() for t in ts)
                assert all(b - a == 1 for a, b in zip(ts, ts[1:]))
            for svc in services:
                assert svc.bandwidth_b > 0 and svc.max_concurrent_k >= 1

    def test_bad_spec_rejected(self):
        with pytest.raises(InvalidInputError):
            small_spec(n_users=0)
        with pytest.raises(InvalidInputError):
            small_spec(mobility_model="teleport")
        with pytest.raises(InvalidInputError):
            small_spec(speed_range=(2.0, 1.0))

    def test_spec_round_trips_through_dict(self):
        spec = small_spec()
        assert ScenarioSpec.from_dict(json.loads(json.dumps(asdict(spec)))) == spec


class TestScenarioBundle:
    def test_write_then_load(self, tmp_path):
        spec = small_spec()
        services, users = generate(spec)
        qos = QosParams.defaults_for(spec.r_s_meters)
        path = write_scenario_bundle(
            tmp_path, services, users, qos, spec.w, DistanceMode.PLANAR_EUCLIDEAN,
            rewards=RewardScheme(dummy=-2.0, invalid=-20.0), seed=spec.seed,
        )
        scenario = load_scenario(path)
        assert [s.id for s in scenario.services] == [s.id for s in services]
        assert [u.id for u in scenario.users] == [u.id for u in users]
        assert scenario.qos_params == qos
        assert scenario.w == spec.w
        assert scenario.rewards == RewardScheme(dummy=-2.0, invalid=-20.0)
        # per-service QoS constants survive the round trip
        by_id = {s.id: s for s in scenario.services}
        for svc in services:
            assert by_id[svc.id].bandwidth_b == svc.bandwidth_b
            assert by_id[svc.id].max_concurrent_k == svc.max_concurrent_k

    @pytest.mark.parametrize(
        "keys",
        [
            ("distance_mode",),
            ("services_csv",),
            ("users_csv",),
            ("service_qos", "s0000", "max_concurrent"),
        ],
    )
    def test_missing_key_names_the_file(self, tmp_path, keys):
        services, users = generate(small_spec())
        path = write_scenario_bundle(
            tmp_path, services, users, QosParams.defaults_for(20.0), 2,
            DistanceMode.PLANAR_EUCLIDEAN,
        )
        cfg = json.loads(path.read_text())
        parent = cfg
        for key in keys[:-1]:
            parent = parent[key]
        del parent[keys[-1]]
        path.write_text(json.dumps(cfg))
        with pytest.raises(InvalidInputError, match=f"{re.escape(str(path))}.*{keys[-1]}"):
            load_scenario(path)

    def test_missing_file_names_the_file(self, tmp_path):
        path = tmp_path / "nonexistent.json"
        with pytest.raises(InvalidInputError, match=re.escape(str(path))):
            load_scenario(path)

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError, match=re.escape(str(path))):
            load_scenario(path)

    def test_missing_csv_names_the_csv(self, tmp_path):
        services, users = generate(small_spec())
        path = write_scenario_bundle(
            tmp_path, services, users, QosParams.defaults_for(20.0), 2,
            DistanceMode.PLANAR_EUCLIDEAN,
        )
        (tmp_path / "users.csv").unlink()
        with pytest.raises(InvalidInputError, match=re.escape(str(tmp_path / "users.csv"))):
            load_scenario(path)

    @pytest.mark.parametrize(
        "keys",
        [
            ("w",),
            ("seed",),
            ("qos", "r_s_meters"),
            ("qos", "decay_k"),
            ("rewards", "dummy"),
            ("service_qos", "s0000", "bandwidth_bps"),
            ("service_qos", "s0000", "max_concurrent"),
            ("service_qos", "s0000"),
        ],
    )
    def test_non_numeric_value_names_file_and_key(self, tmp_path, keys):
        services, users = generate(small_spec())
        path = write_scenario_bundle(
            tmp_path, services, users, QosParams.defaults_for(20.0), 2,
            DistanceMode.PLANAR_EUCLIDEAN,
        )
        cfg = json.loads(path.read_text())
        parent = cfg
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = "two"
        path.write_text(json.dumps(cfg))
        with pytest.raises(InvalidInputError, match=f"{re.escape(str(path))}.*{keys[-1]}"):
            load_scenario(path)

    def test_default_spec_is_desk_scale(self):
        spec = default_scenario_spec()
        assert (spec.n_services, spec.n_users, spec.timestep_count) == (200, 100, 500)


class TestSplits:
    def test_train_test_split_deterministic_70_30(self):
        _, users = generate(small_spec(n_users=10))
        a_train, a_test = split_train_test(users, seed=5)
        b_train, b_test = split_train_test(users, seed=5)
        assert [u.id for u in a_train] == [u.id for u in b_train]
        assert len(a_train) == 7 and len(a_test) == 3
        assert {u.id for u in a_train}.isdisjoint({u.id for u in a_test})

    def test_hash_split_is_stable(self):
        ids = [f"trip{i}" for i in range(200)]
        s1, u1 = split_services_users(ids, user_fraction=0.3)
        s2, u2 = split_services_users(ids, user_fraction=0.3)
        assert (s1, u1) == (s2, u2)
        assert 30 < len(u1) < 90  # roughly the requested fraction
        assert set(s1).isdisjoint(u1) and len(s1) + len(u1) == 200


class TestIngestIndoor:
    def test_synchronized_persons_share_grid(self, tmp_path):
        raw = tmp_path / "indoor.csv"
        rows = ["person,time,x,y"]
        for i in range(5):
            rows.append(f"p1,{i * 0.04:.2f},{i * 1.0},0.0")
            rows.append(f"p2,{i * 0.04:.2f},{i * 2.0},1.0")
        raw.write_text("\n".join(rows) + "\n")
        result = ingest_indoor(raw, rate=0.04)
        trajs = dict(result.trajectories)
        assert [p.t for p in trajs["p1"].points] == [p.t for p in trajs["p2"].points]
        assert [p.t for p in trajs["p1"].points] == [1, 2, 3, 4, 5]

    def test_gap_filled_by_linear_interpolation(self, tmp_path):
        raw = tmp_path / "indoor.csv"
        # p1 has a missing sample at 0.04s; the gap midpoint must be interpolated
        raw.write_text("person,time,x,y\np1,0.00,0.0,0.0\np1,0.08,8.0,4.0\n")
        result = ingest_indoor(raw, rate=0.04)
        pts = dict(result.trajectories)["p1"].points
        assert [(p.t, p.x, p.y) for p in pts] == [(1, 0.0, 0.0), (2, 4.0, 2.0), (3, 8.0, 4.0)]

    def test_hand_built_resampling_oracle(self, tmp_path):
        raw = tmp_path / "indoor.csv"
        # off-grid wall clocks; hand resampling at 0.04 from origin 0.00:
        # grid 0.00, 0.04, 0.08 -> x = 0, 4*(0.04/0.05)=3.2... recompute below
        raw.write_text(
            "person,time,x,y\n"
            "p1,0.00,0.0,0.0\n"
            "p1,0.05,5.0,0.0\n"
            "p1,0.10,10.0,0.0\n"
        )
        result = ingest_indoor(raw, rate=0.04)
        pts = dict(result.trajectories)["p1"].points
        # hand: t=0.04 -> 4.0 (within first segment), t=0.08 -> 8.0 (second)
        assert [p.t for p in pts] == [1, 2, 3]
        assert [p.x for p in pts] == pytest.approx([0.0, 4.0, 8.0], abs=1e-9)

    def test_unparseable_rows_skipped_with_count(self, tmp_path):
        raw = tmp_path / "indoor.csv"
        raw.write_text(
            "person,time,x,y\n"
            "p1,0.00,0.0,0.0\n"
            "p1,not-a-number,1.0,1.0\n"
            "p1,0.04,1.0,0.0\n"
            "p1,0.08,2.0,0.0\n"
        )
        result = ingest_indoor(raw, rate=0.04)
        assert result.skipped_rows == 1
        assert len(result.trajectories) == 1

    def test_trace_covering_fewer_than_two_grid_points_rejected(self, tmp_path):
        raw = tmp_path / "indoor.csv"
        raw.write_text(
            "person,time,x,y\n"
            "p1,0.00,0.0,0.0\np1,0.01,1.0,0.0\n"
            "p2,0.00,0.0,1.0\np2,0.04,1.0,1.0\n"
        )
        result = ingest_indoor(raw, rate=0.04)
        assert result.rejected_ids == ["p1"]
        assert [pid for pid, _ in result.trajectories] == ["p2"]

    def test_empty_file_rejected(self, tmp_path):
        raw = tmp_path / "empty.csv"
        raw.write_text("person,time,x,y\n")
        with pytest.raises(InvalidInputError):
            ingest_indoor(raw, rate=0.04)

    def test_bad_rate_rejected(self, tmp_path):
        raw = tmp_path / "x.csv"
        raw.write_text("p1,0.0,0,0\n")
        with pytest.raises(InvalidInputError):
            ingest_indoor(raw, rate=0.0)


class TestIngestGps:
    def test_single_trip(self, tmp_path):
        raw = tmp_path / "gps.csv"
        raw.write_text(
            "trip,epoch,lon,lat\n"
            "t1,1000,151.20,-33.86\n"
            "t1,1001,151.21,-33.86\n"
            "t1,1002,151.22,-33.87\n"
        )
        result = ingest_gps(raw)
        assert len(result.trajectories) == 1
        tid, traj = result.trajectories[0]
        assert tid == "t1"
        assert [p.t for p in traj.points] == [1, 2, 3]
        assert [p.x for p in traj.points] == [151.20, 151.21, 151.22]

    def test_interleaved_trips_grouped(self, tmp_path):
        raw = tmp_path / "gps.csv"
        raw.write_text(
            "trip,epoch,lon,lat\n"
            "t1,100,1.0,1.0\n"
            "t2,500,2.0,2.0\n"
            "t1,101,1.1,1.0\n"
            "t2,501,2.1,2.0\n"
        )
        result = ingest_gps(raw)
        assert [tid for tid, _ in result.trajectories] == ["t1", "t2"]
        assert [[p.t for p in traj.points] for _, traj in result.trajectories] == [
            [1, 2],
            [401, 402],
        ]

    def test_non_monotone_trip_rejected(self, tmp_path):
        raw = tmp_path / "gps.csv"
        raw.write_text(
            "trip,epoch,lon,lat\n"
            "bad,100,1.0,1.0\n"
            "bad,99,1.1,1.0\n"
            "good,10,0.0,0.0\n"
            "good,11,0.1,0.0\n"
        )
        result = ingest_gps(raw)
        assert result.rejected_ids == ["bad"]
        assert [tid for tid, _ in result.trajectories] == ["good"]

    def test_gap_preserved_in_renumbering(self, tmp_path):
        raw = tmp_path / "gps.csv"
        raw.write_text(
            "trip,epoch,lon,lat\nt0,48,0,0\nt0,49,0,0\nt1,50,0,0\nt1,51,1,0\nt1,54,2,0\n"
        )
        result = ingest_gps(raw)
        _, traj = result.trajectories[1]
        assert [p.t for p in traj.points] == [3, 4, 7]

    def test_trips_an_hour_apart_stay_an_hour_apart(self, tmp_path):
        raw = tmp_path / "gps.csv"
        raw.write_text(
            "trip,epoch,lon,lat\n"
            "early,1000,151.20,-33.86\n"
            "early,1001,151.21,-33.86\n"
            "late,4600,151.20,-33.86\n"
            "late,4601,151.21,-33.86\n"
        )
        result = ingest_gps(raw)
        steps = {tid: [p.t for p in traj.points] for tid, traj in result.trajectories}
        assert steps == {"early": [1, 2], "late": [3601, 3602]}


class TestCanonicalIdempotence:
    def test_reingesting_canonical_csv_is_byte_identical(self, tmp_path):
        services, users = generate(small_spec())
        path1 = tmp_path / "one.csv"
        dump_trajectories_csv([(s.id, s.trajectory) for s in services], path1)
        loaded = load_trajectories_csv(path1)
        path2 = tmp_path / "two.csv"
        dump_trajectories_csv(loaded, path2)
        assert path1.read_bytes() == path2.read_bytes()
