import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from mobicomp import __version__
from mobicomp.cli import dispatch
from mobicomp.datasets import ScenarioSpec, generate, write_scenario_bundle
from mobicomp.ioutil import sha256_file
from mobicomp.qos import QosParams
from mobicomp.trajectories import DistanceMode, Trajectory, TrajectoryPoint

SPEC = {
    "n_services": 6,
    "n_users": 4,
    "area": [0.0, 0.0, 80.0, 80.0],
    "timestep_count": 25,
    "speed_range": [0.8, 1.4],
    "seed": 21,
    "mobility_model": "corridor_flow",
    "corridor_count": 2,
    "coroute_fraction": 1.0,
}

FAST_FLAGS = [
    "--repetition", "6",
    "--memory", "128",
    "--batch", "16",
    "--train-interval", "16",
    "--hidden", "16",
    "--dropout", "0.0",
    "--epsilon-min", "0.1",
    "--epsilon-decay", "0.95",
]


@pytest.fixture
def bundle(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = tmp_path / "scen"
    assert dispatch(["gen", "--spec", str(spec_path), "--out", str(out), "--quiet"]) == 0
    return out


def test_version_prints_and_exits_zero(capsys):
    assert dispatch(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_unknown_flag_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "mobicomp.cli", "version", "--bogus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_missing_subcommand_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "mobicomp.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 2


def test_gen_writes_bundle_with_meta(bundle):
    for name in ("services.csv", "users.csv", "scenario.json", "meta.json"):
        assert (bundle / name).exists()
    meta = json.loads((bundle / "meta.json").read_text())
    assert meta["tool"] == "mobicomp"
    assert meta["version"] == __version__
    assert meta["seed"] == SPEC["seed"]


def test_gen_bundle_files_share_one_mode(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    old = os.umask(0o022)
    try:
        assert dispatch(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "b"), "--quiet"]) == 0
    finally:
        os.umask(old)
    for name in ("services.csv", "users.csv", "scenario.json", "meta.json"):
        assert os.stat(tmp_path / "b" / name).st_mode & 0o777 == 0o644, name


def test_gen_explicit_seed_overrides_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    for seed in (7, 22):
        out = tmp_path / f"s{seed}"
        args = ["gen", "--spec", str(spec_path), "--seed", str(seed), "--out", str(out), "--quiet"]
        assert dispatch(args) == 0
        assert json.loads((out / "scenario.json").read_text())["seed"] == seed
        assert json.loads((out / "meta.json").read_text())["seed"] == seed


def test_gen_is_reproducible(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    for d in ("r1", "r2"):
        assert dispatch(["gen", "--spec", str(spec_path), "--out", str(tmp_path / d), "--quiet"]) == 0
    for name in ("services.csv", "users.csv", "scenario.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_discover_is_reproducible(bundle, tmp_path):
    scenario = str(bundle / "scenario.json")
    out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
    for out in (out1, out2):
        assert dispatch(["discover", "--scenario", scenario, "--out", str(out), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert len(payload["users"]) == SPEC["n_users"]
    step = payload["users"][0]["steps"][0]
    assert set(step) == {"timestep", "candidates", "chosen"}


def test_discover_single_user(bundle, tmp_path):
    out = tmp_path / "one.json"
    assert dispatch(
        ["discover", "--scenario", str(bundle / "scenario.json"), "--user", "user:u0001",
         "--out", str(out), "--quiet"]
    ) == 0
    payload = json.loads(out.read_text())
    assert [u["user_id"] for u in payload["users"]] == ["user:u0001"]


def test_unknown_user_is_domain_error(bundle, tmp_path):
    code = dispatch(
        ["discover", "--scenario", str(bundle / "scenario.json"), "--user", "user:nope",
         "--out", str(tmp_path / "x.json"), "--quiet"]
    )
    assert code == 1


def test_missing_scenario_is_one_line_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    code = dispatch(
        ["discover", "--scenario", str(missing), "--out", str(tmp_path / "d.json"), "--quiet"]
    )
    assert code == 1
    assert_one_error_line(capsys, "InvalidInputError", missing)


def assert_one_error_line(capsys, kind, path):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {kind}: "), err
    assert str(path) in err[0]


BAD_SPECS = {
    "missing_file": None,
    "invalid_json": "{not json",
    "array": json.dumps([["n_services", 6]]),
    "number": "7",
    "missing_fields": json.dumps({"n_services": "a"}),
    "unknown_field": json.dumps({**SPEC, "colour": "red"}),
    "wrong_type": json.dumps({**SPEC, "n_users": "four"}),
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_bad_spec_is_one_line_error(tmp_path, capsys, case):
    spec_path = tmp_path / "spec.json"
    if BAD_SPECS[case] is not None:
        spec_path.write_text(BAD_SPECS[case])
    code = dispatch(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "b"), "--quiet"])
    assert code == 1
    assert_one_error_line(capsys, "InvalidInputError", spec_path)


def test_missing_model_is_one_line_error(bundle, tmp_path, capsys):
    missing = tmp_path / "nonexistent.ckpt"
    code = dispatch(
        ["compose", "--model", str(missing), "--scenario", str(bundle / "scenario.json"),
         "--user", "user:u0000", "--out", str(tmp_path / "p.json"), "--quiet"]
    )
    assert code == 1
    assert_one_error_line(capsys, "InvalidInputError", missing)


# sha256 of `mobicomp discover` on SPEC's scenario, run from the bundle's
# parent directory so the output names the scenario by a relative path. A
# change to these bytes is a change to the ground truth the composer is
# scored against and must be made on purpose.
PINNED_DISCOVER_SHA256 = {
    "planar": "9673a0fecc831c1b9cbbe4f8685d917be911f2b8c65f8d1ce62874896f38adff",
    "haversine": "a9761ea8eddac7302739998f2111f3213ae892c80b0d68a87febe58187e1940d",
}


def to_lonlat(items):
    lon0, lat0 = 151.2, -33.87
    deg_per_m = 180.0 / (math.pi * 6_371_000.0)
    k_lon = deg_per_m / math.cos(math.radians(lat0))
    return [
        dataclasses.replace(item, trajectory=Trajectory(tuple(
            TrajectoryPoint(t=p.t, x=lon0 + p.x * k_lon, y=lat0 + p.y * deg_per_m)
            for p in item.trajectory.points
        )))
        for item in items
    ]


@pytest.mark.parametrize("mode", sorted(PINNED_DISCOVER_SHA256))
def test_discover_bytes_are_pinned(tmp_path, monkeypatch, mode):
    monkeypatch.chdir(tmp_path)
    spec = ScenarioSpec.from_dict(SPEC)
    services, users = generate(spec)
    distance_mode = DistanceMode.PLANAR_EUCLIDEAN
    if mode == "haversine":
        services, users = to_lonlat(services), to_lonlat(users)
        distance_mode = DistanceMode.HAVERSINE
    write_scenario_bundle(
        "scen", services, users, QosParams.defaults_for(spec.r_s_meters), spec.w,
        distance_mode, seed=spec.seed,
    )
    args = ["discover", "--scenario", "scen/scenario.json", "--out", "d.json", "--quiet"]
    assert dispatch(args) == 0
    payload = json.loads((tmp_path / "d.json").read_text())
    assert any(step["candidates"] for u in payload["users"] for step in u["steps"])
    assert sha256_file("d.json") == PINNED_DISCOVER_SHA256[mode]


def test_full_pipeline_train_compose_evaluate(bundle, tmp_path):
    scenario = str(bundle / "scenario.json")
    model = tmp_path / "model.ckpt"
    assert dispatch(["train", "--scenario", scenario, "--out", str(model), "--quiet", *FAST_FLAGS]) == 0
    assert model.exists()
    log = tmp_path / "model.ckpt.log.csv"
    assert log.exists()
    assert log.read_text().splitlines()[0] == "episode,cum_reward,epsilon,loss"

    plan_path = tmp_path / "plan.json"
    assert dispatch(
        ["compose", "--model", str(model), "--scenario", scenario, "--user", "user:u0000",
         "--out", str(plan_path), "--quiet"]
    ) == 0
    payload = json.loads(plan_path.read_text())
    assert payload["plans"][0]["user_id"] == "user:u0000"
    assert len(payload["plans"][0]["steps"]) == SPEC["timestep_count"]
    assert str(model) in payload["meta"]["input_hashes"]

    report_path = tmp_path / "report.json"
    assert dispatch(
        ["evaluate", "--scenario", scenario, "--mode", "accuracy", "--counts", "2",
         "--out", str(report_path), "--quiet", *FAST_FLAGS]
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["mode"] == "accuracy"
    assert 0.0 <= report["accuracy"] <= 1.0
    series = (tmp_path / "report.series.csv").read_text().splitlines()
    assert series[0] == "trajectory_count,accuracy,error"


def test_evaluate_reports_in_one_directory_keep_their_series(bundle, tmp_path):
    scenario = str(bundle / "scenario.json")
    common = ["--scenario", scenario, "--counts", "2", "--quiet", *FAST_FLAGS]
    assert dispatch(
        ["evaluate", "--mode", "accuracy", "--out", str(tmp_path / "acc.json"), *common]
    ) == 0
    assert dispatch(
        ["evaluate", "--mode", "timing", "--repeats", "1", "--out", str(tmp_path / "time.json"),
         *common]
    ) == 0
    acc = (tmp_path / "acc.series.csv").read_text().splitlines()
    timing = (tmp_path / "time.series.csv").read_text().splitlines()
    assert acc[0] == "trajectory_count,accuracy,error"
    assert timing[0] == "n_services,phase,wall_seconds"
    assert not (tmp_path / "series.csv").exists()


def test_evaluate_threshold_gates_exit_code(bundle, tmp_path):
    scenario = str(bundle / "scenario.json")
    code = dispatch(
        ["evaluate", "--scenario", scenario, "--mode", "accuracy", "--counts", "2",
         "--require-accuracy", "1.01",  # unreachable on purpose
         "--out", str(tmp_path / "r.json"), "--quiet", *FAST_FLAGS]
    )
    assert code == 1


def test_compose_determinism(bundle, tmp_path):
    scenario = str(bundle / "scenario.json")
    model = tmp_path / "model.ckpt"
    dispatch(["train", "--scenario", scenario, "--out", str(model), "--quiet", *FAST_FLAGS])
    outs = []
    for name in ("p1.json", "p2.json"):
        path = tmp_path / name
        dispatch(
            ["compose", "--model", str(model), "--scenario", scenario,
             "--user", "user:u0002", "--out", str(path), "--quiet"]
        )
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_summary_line_is_machine_parseable(bundle, capsys, tmp_path):
    out = tmp_path / "d.json"
    dispatch(["discover", "--scenario", str(bundle / "scenario.json"), "--out", str(out)])
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("discover ok ")
    fields = dict(part.split("=", 1) for part in line.split()[2:])
    assert fields["users"] == str(SPEC["n_users"])
