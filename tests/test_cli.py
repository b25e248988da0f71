import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import mobicomp
from mobicomp import __version__
from mobicomp.agent import AgentConfig
from mobicomp.cli import DEFAULT_SEED, _config_from, build_parser, dispatch
from mobicomp.datasets import ScenarioSpec, generate, write_scenario_bundle
from mobicomp.ioutil import sha256_file
from mobicomp.qos import QosParams
from mobicomp.trajectories import DistanceMode, Trajectory, TrajectoryPoint

from conftest import policy_file, wrapping_network_blob

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


def run_cli(*args):
    """``python -m mobicomp.cli`` in a child process that imports the same
    ``mobicomp`` as this one, however the test run found it."""
    src = os.path.dirname(os.path.dirname(mobicomp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mobicomp.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_unknown_flag_is_usage_error():
    assert run_cli("version", "--bogus").returncode == 2


def test_missing_subcommand_is_usage_error():
    assert run_cli().returncode == 2


def test_help_prints_every_subcommand_line_verbatim(capsys):
    # argparse %-formats help strings: a bare "%" there prints the action's dict
    with pytest.raises(SystemExit) as exit_info:
        dispatch(["--help"])
    assert exit_info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "on the 70% split" in out
    assert "option_strings" not in out


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


def files_digest(directory, names):
    """sha256 over the names and sha256s of the named files."""
    listing = "".join(f"{name} {sha256_file(directory / name)}\n" for name in names)
    return hashlib.sha256(listing.encode()).hexdigest()


# files_digest of the bundle `mobicomp gen` writes from SPEC with these
# overrides (meta.json, which holds the version, left out); each spec takes
# another path through the generator. A change to these bytes changes every
# scenario a seed names and must be made on purpose.
PINNED_GEN = {
    "corridor_fallback_diagonal": (
        {"area": [0.0, 0.0, 10.0, 10.0], "coroute_fraction": 0.5},
        "69f319d4d2d6f53b3cb9c65b5323ab582c6f8be4e4845f59e699497cd3beb91a",
    ),
    "corridor_no_jitter": (
        {"jitter_m": 0.0}, "c27c3044d739e28f862d301d4544621cca92d98d49dd31c17b6c1565eebdfec5",
    ),
    "random_waypoint": (
        {"mobility_model": "random_waypoint", "area": [0.0, 0.0, 20.0, 20.0],
         "timestep_count": 60},
        "50ae4d62644312eef011b077dd2bbbec2652f0b9808623f43533daad1ffef02e",
    ),
    "random_waypoint_stationary": (
        {"mobility_model": "random_waypoint", "speed_range": [0.0, 0.0]},
        "30df0a59a33ab68f92fc8e37ae41f7be047a619b082642e4af01de5bcb56db5b",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_GEN))
def test_gen_bytes_are_pinned(tmp_path, case):
    overrides, digest = PINNED_GEN[case]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**SPEC, **overrides}))
    assert dispatch(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert files_digest(tmp_path / "b", ["scenario.json", "services.csv", "users.csv"]) == digest


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


@pytest.mark.parametrize("cmd", ["discover", "compose"])
def test_user_file_is_hashed_under_its_role(bundle, tmp_path, cmd):
    # two user CSVs under one id: the provenance blocks must tell them apart
    scenario = str(bundle / "scenario.json")
    extra = []
    if cmd == "compose":
        model = tmp_path / "m.ckpt"
        assert dispatch(["train", "--scenario", scenario, "--out", str(model), "--quiet",
                         *FAST_FLAGS]) == 0
        extra = ["--model", str(model)]
    hashes = []
    for i, x0 in enumerate((5.0, 40.0)):
        user = tmp_path / f"u{i}.csv"
        user.write_text("id,t,x,y\n" + "".join(f"user:f,{t},{x0 + t},{x0}\n" for t in range(1, 6)))
        out = tmp_path / f"o{i}.json"
        assert dispatch([cmd, "--scenario", scenario, *extra, "--user", str(user),
                         "--out", str(out), "--quiet"]) == 0
        got = json.loads(out.read_text())["meta"]["input_hashes"]
        assert got["user"] == sha256_file(user) and got["scenario"] == sha256_file(scenario)
        hashes.append(got)
    assert hashes[0] != hashes[1]


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
    return err[0]


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


# a spec of the right shape whose one field holds a value generation cannot use
BAD_SPEC_VALUES = {
    "fractional_timesteps": ("timestep_count", 2.5),
    "no_concurrency_choices": ("max_concurrent_choices", []),
    "no_corridors": ("corridor_count", 0),
    "zero_bandwidth": ("bandwidth_range_bps", [0, 1e6]),
    "inverted_area": ("area", [50, 50, 0, 0]),
    "short_area": ("area", [0, 0]),
    "zero_w": ("w", 0),
    "coroute_above_one": ("coroute_fraction", 1.5),
}


@pytest.mark.parametrize("case", sorted(BAD_SPEC_VALUES))
def test_bad_spec_value_is_one_line_error_naming_the_field(tmp_path, capsys, case):
    field, value = BAD_SPEC_VALUES[case]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**SPEC, field: value}))
    code = dispatch(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "b"), "--quiet"])
    assert code == 1
    assert field in assert_one_error_line(capsys, "InvalidInputError", spec_path)


UNREADABLE_INPUTS = ["ingest_missing", "ingest_not_utf8", "services_not_utf8", "user_not_utf8"]


@pytest.mark.parametrize("case", UNREADABLE_INPUTS)
def test_unreadable_input_file_is_one_line_error(bundle, tmp_path, capsys, case):
    scenario = str(bundle / "scenario.json")
    bad = tmp_path / "bad.csv"
    if case.startswith("ingest"):
        if case == "ingest_not_utf8":
            bad.write_bytes(b"person,time,x,y\np1,0.0,0.0,0.0\np\xe9,0.04,1.0,0.0\n")
        args = ["ingest", "--format", "indoor", "--in", str(bad), "--out", str(tmp_path / "i")]
    elif case == "services_not_utf8":
        bad = bundle / "services.csv"
        bad.write_bytes(bad.read_bytes() + b"s\xff,1,0.0,0.0\n")
        args = ["discover", "--scenario", scenario, "--out", str(tmp_path / "d.json")]
    else:
        bad.write_bytes(b"id,t,x,y\nuser:\xe9,1,0.0,0.0\nuser:\xe9,2,1.0,0.0\n")
        args = ["discover", "--scenario", scenario, "--user", str(bad),
                "--out", str(tmp_path / "d.json")]
    assert dispatch([*args, "--quiet"]) == 1
    assert_one_error_line(capsys, "InvalidInputError", bad)


def append_line(path, line):
    path.write_text(path.read_text() + line + "\n")


# a value the program cannot use, on the command line or in an input file;
# each case gives the argument list and the text the error line must name
def bad_value_case(case, bundle, tmp_path):
    scenario = str(bundle / "scenario.json")
    raw = tmp_path / "raw.csv"
    raw.write_text(raw_traces("indoor"))
    ingest = ["ingest", "--format", "indoor", "--in", str(raw), "--out", str(tmp_path / "out")]
    train = ["train", "--scenario", scenario, "--out", str(tmp_path / "out" / "m.ckpt")]
    discover = ["discover", "--scenario", scenario, "--out", str(tmp_path / "out" / "d.json")]
    if case == "ingest_r_s_zero":
        return [*ingest, "--r-s", "0"], "sensing radius"
    if case == "ingest_rate_nan":
        return [*ingest, "--rate", "nan"], "rate"
    if case == "ingest_w_zero":
        return [*ingest, "--w", "0"], "--w"
    if case == "scenario_r_s_zero":
        cfg = json.loads((bundle / "scenario.json").read_text())
        cfg["qos"] = {"r_s_meters": 0}
        (bundle / "scenario.json").write_text(json.dumps(cfg))
        return discover, str(bundle / "scenario.json")
    if case in BAD_SCENARIO_KEYS:
        key, value = BAD_SCENARIO_KEYS[case]
        cfg = json.loads((bundle / "scenario.json").read_text())
        cfg[key] = value
        (bundle / "scenario.json").write_text(json.dumps(cfg))
        return discover, f"{bundle / 'scenario.json'}: {key} "
    if case == "train_negative_seed":
        return [*train, *FAST_FLAGS, "--seed", "-1"], "seed"
    if case == "evaluate_negative_seed":
        return ["evaluate", "--scenario", scenario, "--mode", "accuracy",
                "--out", str(tmp_path / "out" / "r.json"), *FAST_FLAGS, "--seed", "-1"], "seed"
    if case == "train_epsilon_min_nan":
        return [*train, *FAST_FLAGS, "--epsilon-min", "nan"], "epsilon_min"
    if case == "train_lr_negative":
        return [*train, *FAST_FLAGS, "--lr", "-1"], "lr"
    if case == "train_lr_inf":
        return [*train, *FAST_FLAGS, "--lr", "inf"], "lr"
    if case == "services_t_nan":
        append_line(bundle / "services.csv", "s0000,nan,1.0,1.0")
        return discover, f"{bundle / 'services.csv'} line "
    assert case == "users_x_inf"
    append_line(bundle / "users.csv", "user:u0000,26,inf,1.0")
    return [*train, *FAST_FLAGS], f"{bundle / 'users.csv'} line "


# a scenario.json key that holds a value of the wrong type; each is refused
# when the file is read, "default_service_qos" too, although every generated
# service has its own service_qos entry
BAD_SCENARIO_KEYS = {
    "scenario_services_csv_number": ("services_csv", 5),
    "scenario_users_csv_list": ("users_csv", ["users.csv"]),
    "scenario_qos_list": ("qos", []),
    "scenario_rewards_str": ("rewards", "x"),
    "scenario_service_qos_list": ("service_qos", []),
    "scenario_default_service_qos_number": ("default_service_qos", 5),
}

BAD_VALUES = [
    "evaluate_negative_seed", "ingest_r_s_zero", "ingest_rate_nan", "ingest_w_zero",
    "scenario_r_s_zero", *BAD_SCENARIO_KEYS, "services_t_nan", "train_epsilon_min_nan",
    "train_lr_inf", "train_lr_negative", "train_negative_seed", "users_x_inf",
]


@pytest.mark.parametrize("case", BAD_VALUES)
def test_bad_value_is_one_line_error_and_writes_nothing(bundle, tmp_path, capsys, case):
    args, named = bad_value_case(case, bundle, tmp_path)
    assert dispatch([*args, "--quiet"]) == 1
    assert_one_error_line(capsys, "InvalidInputError", named)
    assert not (tmp_path / "out").exists()


# a row appended to a bundle's trajectory CSV whose t the file cannot hold:
# the file, the row and the texts the error line must name besides the file
# ({last} is the appended row's line number)
BAD_TIMESTEPS = {
    "services_negative": ("services.csv", "s0000,-1,1.0,1.0", ["'s0000'", "got -1.0", "line {last}"]),
    "services_repeated": ("services.csv", "s0000,1,1.0,1.0", ["'s0000'", "1.0 then 1.0"]),
    "users_repeated": ("users.csv", "user:u0000,1,1.0,1.0", ["'user:u0000'", "1.0 then 1.0"]),
}


@pytest.mark.parametrize("case", sorted(BAD_TIMESTEPS))
def test_bad_timestep_names_file_and_id(bundle, tmp_path, capsys, case):
    name, row, named = BAD_TIMESTEPS[case]
    append_line(bundle / name, row)
    last = len((bundle / name).read_text().splitlines())
    named = [text.format(last=last) for text in named]
    args = ["discover", "--scenario", str(bundle / "scenario.json"), "--out", str(tmp_path / "d.json")]
    assert dispatch([*args, "--quiet"]) == 1
    line = assert_one_error_line(capsys, "InvalidInputError", bundle / name)
    assert all(text in line for text in named), line


# an evaluate run the program cannot make: its flags and the texts the error
# line must name (SPEC's universe has 6 services)
BAD_EVALUATE = {
    "accuracy_count_above_split": (
        ["--mode", "accuracy", "--counts", "2", "500"], ["count 500", "training split"]
    ),
    "timing_repeats_zero": (["--mode", "timing", "--repeats", "0"], ["repeats", "got 0"]),
    "timing_negative_count": (["--mode", "timing", "--counts", "-2"], ["count -2", "6 services"]),
    "convergence_count_above_universe": (
        ["--mode", "convergence", "--counts", "500"], ["count 500", "6 services"]
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_EVALUATE))
def test_bad_evaluate_run_is_one_line_error_and_writes_nothing(bundle, tmp_path, capsys, case):
    flags, named = BAD_EVALUATE[case]
    args = ["evaluate", "--scenario", str(bundle / "scenario.json"), *flags,
            "--out", str(tmp_path / "out" / "r.json"), *FAST_FLAGS, "--quiet"]
    assert dispatch(args) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidInputError: "), err
    assert all(text in err[0] for text in named), err
    assert not (tmp_path / "out").exists()


def test_underflowing_strength_is_one_line_error(bundle, tmp_path, capsys):
    # R_s 20 m, R_c 5 m: decay_k 5.0 gives exp(-75) at the sensing edge, which
    # log2(1 + s) rounds to a capacity of 0.0; 1e6 rounds the strength itself
    # to 0.0. Either is refused with the scenario file and the field named.
    scenario = bundle / "scenario.json"
    cfg = json.loads(scenario.read_text())
    for decay_k in (5.0, 1e6):
        cfg["qos"]["decay_k"] = decay_k
        scenario.write_text(json.dumps(cfg))
        out = tmp_path / "d.json"
        args = ["discover", "--scenario", str(scenario), "--out", str(out), "--quiet"]
        assert dispatch(args) == 1
        line = assert_one_error_line(capsys, "InvalidInputError", scenario)
        assert f"decay_k={decay_k}" in line, line
        assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("key", ["decay_k", "bandwidth_bps"])
def test_non_finite_qos_constant_is_one_line_error(bundle, tmp_path, capsys, key, value):
    # json reads NaN and Infinity; neither may reach strength, capacity or rewards
    cfg = json.loads((bundle / "scenario.json").read_text())
    section = cfg["qos"] if key == "decay_k" else cfg["service_qos"][min(cfg["service_qos"])]
    section[key] = value
    (bundle / "scenario.json").write_text(json.dumps(cfg))
    args = ["discover", "--scenario", str(bundle / "scenario.json"),
            "--out", str(tmp_path / "d.json"), "--quiet"]
    assert dispatch(args) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidInputError: "), err
    assert key.split("_")[0] in err[0] and str(value) in err[0], err
    assert not (tmp_path / "d.json").exists()


def test_bare_agent_flags_are_the_agent_config_defaults():
    args = build_parser().parse_args(["train", "--scenario", "s.json", "--out", "m.ckpt"])
    assert _config_from(args) == AgentConfig(seed=DEFAULT_SEED)


def test_ingest_skips_a_row_with_a_non_finite_time(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.csv").write_text(raw_traces("indoor"))
    (tmp_path / "raw_nan.csv").write_text(raw_traces("indoor") + "p1,nan,1.0,1.0\np2,inf,2.0,2.0\n")
    for raw, out in (("raw.csv", "clean"), ("raw_nan.csv", "nan")):
        args = ["ingest", "--format", "indoor", "--in", raw, "--out", out, "--user-fraction", "0.5"]
        assert dispatch(args) == 0
    # the two rows are counted as skipped and leave the bundle as it was
    clean, nan = capsys.readouterr().out.splitlines()
    assert nan.replace("skipped_rows=4", "skipped_rows=2") == clean.replace("clean/", "nan/")
    for name in ("services.csv", "users.csv", "scenario.json"):
        assert (tmp_path / "nan" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


# sha256 of `mobicomp discover` on SPEC's scenario; the meta block keys the
# scenario's hash by its role, so the bytes do not depend on the path. A
# change to these bytes is a change to the ground truth the composer is
# scored against and must be made on purpose.
PINNED_DISCOVER_SHA256 = {
    "planar": "f56b5b9ab911c46e1481458ab3243d98d66b7b16a220bb22aa1e955e271e1383",
    "haversine": "bf9e3f663dee37b33a46f9070b4c6950b9ec9894c75436c6d916ab3b2e03e613",
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


# sha256 of `mobicomp discover` on a denser corridor scenario (30 services,
# 3 users, 200 steps): each user's candidate columns run to about 1,200
# values, and its capacities and strengths repeat, so the encoding of
# repeated values and the joined lists of candidates are pinned too.
DENSE_SPEC = {
    **SPEC, "n_services": 30, "n_users": 3, "area": [0.0, 0.0, 100.0, 100.0],
    "timestep_count": 200, "coroute_fraction": 0.8, "jitter_m": 4.0,
}
PINNED_DENSE_DISCOVER_SHA256 = "2edede21051f418d5a1b8173782637ed3e02224d82e4c6d3887c7060e794d554"


def test_discover_bytes_of_long_repeating_columns_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = ScenarioSpec.from_dict(DENSE_SPEC)
    services, users = generate(spec)
    write_scenario_bundle(
        "scen", services, users, QosParams.defaults_for(spec.r_s_meters), spec.w,
        DistanceMode.PLANAR_EUCLIDEAN, seed=spec.seed,
    )
    args = ["discover", "--scenario", "scen/scenario.json", "--out", "d.json", "--quiet"]
    assert dispatch(args) == 0
    payload = json.loads((tmp_path / "d.json").read_text())
    for block in payload["users"]:
        rows = [c for step in block["steps"] for c in step["candidates"]]
        assert len(rows) > 1000
        assert len({r["capacity_bps"] for r in rows}) < len(rows) / 4
    assert sha256_file("d.json") == PINNED_DENSE_DISCOVER_SHA256


def test_discover_bytes_do_not_depend_on_the_scenario_path_spelling(bundle, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = set()
    for i, scenario in enumerate(["scen/scenario.json", str(bundle / "scenario.json")]):
        assert dispatch(["discover", "--scenario", scenario, "--out", f"d{i}.json", "--quiet"]) == 0
        digests.add(sha256_file(f"d{i}.json"))
    assert len(digests) == 1


def raw_traces(fmt):
    """A small raw file of six traces with a header, a malformed row, and a
    repeated wall-clock time (indoor) or an off-Earth row and a trip whose
    epochs go backwards (gps)."""
    rows = ["person,time,x,y" if fmt == "indoor" else "trip,epoch,lon,lat"]
    for i in range(6):
        for k in range(12):
            if fmt == "indoor":
                rows.append(f"p{i},{0.013 * i + 0.05 * k:.3f},{1.5 * k + i:.2f},{0.7 * i:.2f}")
            else:
                rows.append(
                    f"t{i},{1_600_000_000 + 3 * i + k},{151.2 + 1e-5 * (k + i):.6f},"
                    f"{-33.87 + 1e-5 * i:.6f}"
                )
    if fmt == "indoor":
        rows += ["p1,0.063,9.0,9.0", "p2,soon,1.0,1.0"]
    else:
        rows += ["t3,1600000005,200.0,0.0", "t4,1600000000,151.2,-33.87", "t5,later,1,1"]
    return "\n".join(rows) + "\n"


# sha256 over the names and sha256s of the bundle files `mobicomp ingest`
# writes from raw_traces, run from their directory with relative paths, and
# the summary line it prints.
PINNED_INGEST = {
    "indoor": (
        "e84ee3286ad2958c4c7f8ff7a5e6cb8f99332ea19a389278f1ae5bad8abc5d3e",
        "ingest ok services=4 users=2 skipped_rows=2 rejected=0 scenario=bundle/scenario.json",
    ),
    "gps": (
        "bb0f8cd535130b6ade14b0d2db0fc9bf3259d6a697f753fa9d36bb1009b7a81c",
        "ingest ok services=3 users=2 skipped_rows=2 rejected=1 scenario=bundle/scenario.json",
    ),
}


@pytest.mark.parametrize("fmt", sorted(PINNED_INGEST))
def test_ingest_bytes_are_pinned(tmp_path, monkeypatch, capsys, fmt):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.csv").write_text(raw_traces(fmt))
    args = ["ingest", "--format", fmt, "--in", "raw.csv", "--out", "bundle"]
    assert dispatch([*args, "--user-fraction", "0.5"]) == 0
    digest = files_digest(tmp_path / "bundle", sorted(os.listdir(tmp_path / "bundle")))
    assert (digest, capsys.readouterr().out.strip()) == PINNED_INGEST[fmt]


# sha256 of the checkpoint and of the log `mobicomp train` writes for
# TRAIN_SPEC at dropout 0, where training draws nothing from the network's
# RNG; a change to these bytes is a change to what the composer learns.
TRAIN_SPEC = {
    "n_services": 40,
    "n_users": 12,
    "area": [0, 0, 150, 150],
    "timestep_count": 80,
    "speed_range": [0.8, 1.6],
    "seed": 11,
}
TRAIN_FLAGS = [
    "--seed", "11",
    "--repetition", "4",
    "--memory", "256",
    "--batch", "16",
    "--train-interval", "32",
    "--hidden", "32", "32",
    "--dropout", "0",
]
PINNED_TRAIN = (
    "3eaff73447cb4c434c8e2ca3119dbf4bdb7d510a16d71ee6a7e3a7d482ab4a3e",
    "c5896062dae30c39f52826674794c4d6dd267515bd8753a0ea3f8feace2e66ec",
)


def test_train_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(TRAIN_SPEC))
    assert dispatch(["gen", "--spec", "spec.json", "--out", "b", "--quiet"]) == 0
    args = ["train", "--scenario", "b/scenario.json", "--out", "m.ckpt", "--quiet", *TRAIN_FLAGS]
    assert dispatch(args) == 0
    assert (sha256_file("m.ckpt"), sha256_file("m.ckpt.log.csv")) == PINNED_TRAIN


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
    hashes = {"model": sha256_file(model), "scenario": sha256_file(scenario)}
    assert payload["meta"]["input_hashes"] == hashes

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
    assert [row.split(",")[1] for row in timing[1:]] == [
        "oracle_discovery", "oracle_discovery_warm", "model_training", "agent_selection"
    ]
    assert not (tmp_path / "series.csv").exists()


def test_evaluate_convergence_reports_each_count(bundle, tmp_path, capsys):
    out = tmp_path / "conv.json"
    args = ["evaluate", "--scenario", str(bundle / "scenario.json"), "--mode", "convergence",
            "--counts", "2", "6", "--out", str(out), *FAST_FLAGS]
    assert dispatch(args) == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "convergence"
    assert [r["n_services"] for r in report["reports"]] == [2, 6]
    rounds = [r["convergence_round"] for r in report["reports"]]
    assert all(1 <= n <= len(r["series"]) for n, r in zip(rounds, report["reports"]))
    series = (tmp_path / "conv.series.csv").read_text().splitlines()
    assert series[0] == "n_services,round,moving_average"
    assert len(series) == 1 + sum(len(r["series"]) for r in report["reports"])
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("evaluate ok ")
    fields = dict(part.split("=", 1) for part in line.split()[2:])
    assert fields["mode"] == "convergence"
    assert fields["rounds"] == ",".join(map(str, rounds))


def test_corrupt_model_is_one_line_error(bundle, tmp_path, capsys):
    # a layer of (2**32 - 1)**2 weights, which wraps around in int64
    model = tmp_path / "wrapping.ckpt"
    model.write_bytes(policy_file(wrapping_network_blob()))
    out = tmp_path / "p.json"
    code = dispatch(
        ["compose", "--model", str(model), "--scenario", str(bundle / "scenario.json"),
         "--user", "user:u0000", "--out", str(out), "--quiet"]
    )
    assert code == 1
    assert_one_error_line(capsys, "CheckpointError", "truncated")
    assert not out.exists()


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
