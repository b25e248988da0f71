import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import mobicomp
from mobicomp import __version__
from mobicomp.agent import AgentConfig, PolicyModel, save_model
from mobicomp.cli import DEFAULT_SEED, _config_from, build_parser, dispatch
from mobicomp.datasets import ScenarioSpec, generate, load_scenario, write_scenario_bundle
from mobicomp.evaluation import build_environment
from mobicomp.ioutil import sha256_file
from mobicomp.network import NetworkSpec, init_network
from mobicomp.qos import QosParams
from mobicomp.trajectories import DistanceMode, Trajectory, TrajectoryPoint

from conftest import policy_file, wrapping_policy_file

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
    if case == "ingest_rate_huge_grid":
        # p0's 0.55 s at 1e-15 s a step is about 5.5e14 grid points, more than
        # an address space holds: refused before any grid is allocated
        return [*ingest, "--rate", "1e-15"], f"{raw}: person 'p0': "
    if case == "ingest_w_zero":
        return [*ingest, "--w", "0"], "--w"
    if case == "ingest_gps_t_2_53":
        raw.write_text("trip,epoch,lon,lat\nt1,0,1,1\nt1,1,1,1\nt2,0,2,2\nt2,1e16,2,2\n")
        named = f"{raw}: user 'user:t2': timestep 1e+16 is not an integer below 2**53"
        return ["ingest", "--format", "gps", *ingest[3:]], named
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
    if case in BAD_REWARDS:
        rewards, named = BAD_REWARDS[case]
        cfg = json.loads((bundle / "scenario.json").read_text())
        cfg["rewards"] = rewards
        (bundle / "scenario.json").write_text(json.dumps(cfg))
        return discover, f"{bundle / 'scenario.json'}: {named}"
    if case == "train_negative_seed":
        return [*train, *FAST_FLAGS, "--seed", "-1"], "seed"
    if case == "evaluate_negative_seed":
        return ["evaluate", "--scenario", scenario, "--mode", "accuracy",
                "--out", str(tmp_path / "out" / "r.json"), *FAST_FLAGS, "--seed", "-1"], "seed"
    if case == "evaluate_require_accuracy_nan":
        # NaN compares false with every accuracy, so the gate would never fire
        return ["evaluate", "--scenario", scenario, "--mode", "accuracy", "--require-accuracy",
                "nan", "--out", str(tmp_path / "out" / "r.json"), *FAST_FLAGS], "--require-accuracy"
    # sizes past a bound, each far more than this machine could allocate:
    # refused before anything is allocated
    if case == "gen_timesteps_past_bound":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "timestep_count": 10**13}))
        return ["gen", "--spec", str(spec), "--out", str(tmp_path / "out")], "timestep_count"
    if case == "train_memory_past_bound":
        return [*train, *FAST_FLAGS, "--memory", "10000000000000"], "memory_capacity"
    if case == "train_hidden_past_bound":
        return [*train, *FAST_FLAGS, "--hidden", "10000000000000"], "parameters"
    if case == "train_epsilon_min_nan":
        return [*train, *FAST_FLAGS, "--epsilon-min", "nan"], "epsilon_min"
    if case == "train_lr_negative":
        return [*train, *FAST_FLAGS, "--lr", "-1"], "lr"
    if case == "train_lr_inf":
        return [*train, *FAST_FLAGS, "--lr", "inf"], "lr"
    if case == "services_t_nan":
        append_line(bundle / "services.csv", "s0000,nan,1.0,1.0")
        return discover, f"{bundle / 'services.csv'} line "
    if case in BAD_SERVICES:
        rows, qos, named = BAD_SERVICES[case]
        for row in rows:
            append_line(bundle / "services.csv", row)
        cfg = json.loads((bundle / "scenario.json").read_text())
        cfg["service_qos"]["s0000"].update(qos)
        (bundle / "scenario.json").write_text(json.dumps(cfg))
        return discover, f"{bundle / 'services.csv'}, {bundle / 'scenario.json'}: {named}"
    if case == "user_file_t_fraction":
        user = tmp_path / "user.csv"
        user.write_text("id,t,x,y\nuser:f,1,1.0,1.0\nuser:f,1.5,2.0,1.0\n")
        return [*discover, "--user", str(user)], f"{user}: user 'user:f': timestep 1.5 "
    assert case == "users_x_inf"
    append_line(bundle / "users.csv", "user:u0000,26,inf,1.0")
    return [*train, *FAST_FLAGS], f"{bundle / 'users.csv'} line "


# a service that cannot be built: the rows appended to services.csv, the
# values set in s0000's service_qos entry, and the text that the error line
# must hold after both files' names
BAD_SERVICES = {
    "services_t_fraction": (["s0000,1.5,1.0,1.0"], {}, "service 's0000': timestep 1.5 "),
    "services_t_2_53": (
        ["s0000,9007199254740992,1.0,1.0"], {}, "service 's0000': timestep 9007199254740992.0 "
    ),
    "services_dummy_id": (
        ["__dummy__,1,1.0,1.0", "__dummy__,2,2.0,1.0"], {}, "service '__dummy__': the id is reserved"
    ),
    "service_qos_negative_bandwidth": (
        [], {"bandwidth_bps": -1.0}, "service 's0000': bandwidth_b must be finite and positive"
    ),
    "service_qos_fractional_max_concurrent": (
        [], {"max_concurrent": 2.5}, "max_concurrent for service s0000 must be an integer, got 2.5"
    ),
    "service_qos_bool_bandwidth": (
        [], {"bandwidth_bps": True}, "bandwidth_bps for service s0000 must be a number, got True"
    ),
}


# a scenario.json key that holds a value of the wrong type, or a w below 1;
# each is refused when the file is read, "default_service_qos" too, although
# every generated service has its own service_qos entry, and no number is
# truncated or read from a string
BAD_SCENARIO_KEYS = {
    "scenario_services_csv_number": ("services_csv", 5),
    "scenario_users_csv_list": ("users_csv", ["users.csv"]),
    "scenario_qos_list": ("qos", []),
    "scenario_rewards_str": ("rewards", "x"),
    "scenario_service_qos_list": ("service_qos", []),
    "scenario_default_service_qos_number": ("default_service_qos", 5),
    "scenario_w_fraction": ("w", 2.7),
    "scenario_w_bool": ("w", True),
    "scenario_w_str": ("w", "2"),
    "scenario_w_zero": ("w", 0),
}

# a scenario.json "rewards" object that RewardScheme refuses, and the text the
# error line must hold after the file's name (json writes and reads Infinity
# and NaN)
BAD_REWARDS = {
    "scenario_rewards_dummy_inf": ({"dummy": math.inf}, "dummy reward must be finite, got inf"),
    "scenario_rewards_invalid_nan": ({"invalid": math.nan}, "invalid reward must be finite, got nan"),
    "scenario_rewards_dummy_below_invalid": (
        {"dummy": -20, "invalid": -10}, "dummy reward (-20.0) must exceed invalid reward (-10.0)"
    ),
}

BAD_VALUES = [
    "evaluate_negative_seed", "evaluate_require_accuracy_nan", "gen_timesteps_past_bound",
    "ingest_gps_t_2_53", "ingest_r_s_zero", "ingest_rate_nan",
    "ingest_rate_huge_grid", "ingest_w_zero",
    "scenario_r_s_zero", *BAD_SCENARIO_KEYS, *BAD_REWARDS, "services_t_nan", "train_epsilon_min_nan",
    "train_hidden_past_bound", "train_lr_inf", "train_lr_negative", "train_memory_past_bound",
    "train_negative_seed", "users_x_inf",
    *BAD_SERVICES, "user_file_t_fraction",
]


@pytest.mark.parametrize("case", BAD_VALUES)
def test_bad_value_is_one_line_error_and_writes_nothing(bundle, tmp_path, capsys, case):
    args, named = bad_value_case(case, bundle, tmp_path)
    assert dispatch([*args, "--quiet"]) == 1
    assert_one_error_line(capsys, "InvalidInputError", named)
    assert not (tmp_path / "out").exists()


# a field longer than csv's 131,072-character limit: in users.csv, alone or
# beside a later short row, and in a raw GPS file; each case gives the
# argument list and the file the line names, whose last line is the long one
def long_field_case(case, bundle, tmp_path):
    long_id = "x" * 200_000
    if case.startswith("users_csv"):
        bad = bundle / "users.csv"
        append_line(bad, f"user:{long_id},1,0.0,0.0")
        out = tmp_path / "out" / "d.json"
        return ["discover", "--scenario", str(bundle / "scenario.json"), "--out", str(out)], bad
    bad = tmp_path / "raw.csv"
    bad.write_text(f"trip,epoch,lon,lat\nt1,0,1,1\nt1,1,1,1\n{long_id},0,2,2\n")
    return ["ingest", "--format", "gps", "--in", str(bad), "--out", str(tmp_path / "out")], bad


@pytest.mark.parametrize("case", ["ingest_gps", "users_csv", "users_csv_alone"])
def test_field_beyond_the_csv_limit_is_one_line_error(bundle, tmp_path, capsys, case):
    args, bad = long_field_case(case, bundle, tmp_path)
    line_num = len(bad.read_text().splitlines())
    if case == "users_csv":
        append_line(bad, "user:u0000,26,1.0")
    assert dispatch([*args, "--quiet"]) == 1
    line = assert_one_error_line(capsys, "InvalidInputError", bad)
    assert f"line {line_num}: field larger than field limit" in line, line
    assert not (tmp_path / "out").exists()


# an output that is one of the command's inputs, or (the "outputs" cases)
# one of its other outputs; each case gives the argument list, the output
# and the file it names, which must keep its bytes, or stay absent
def overwrite_case(case, bundle, tmp_path):
    scenario = bundle / "scenario.json"
    cmd, _, target = case.partition("_")
    model = tmp_path / "m.ckpt"
    if target.startswith("outputs"):
        # --log names the --out file: spelled alike, through "./" over an
        # earlier model, or through a link to it
        log = {"outputs": model, "outputs_dotslash": f"{tmp_path}/./m.ckpt"}.get(target)
        if target == "outputs_dotslash":
            model.write_bytes(policy_file())
        if log is None:
            log = tmp_path / "link.csv"
            log.symlink_to(model)
        run = [cmd, "--scenario", str(scenario), *FAST_FLAGS]
        return [*run, "--out", str(model), "--log", str(log)], log, model
    if cmd == "gen":
        spec = tmp_path / "g" / "scenario.json"
        spec.parent.mkdir()
        spec.write_text(json.dumps(SPEC))
        return ["gen", "--spec", str(spec), "--out", str(spec.parent)], spec, spec
    if cmd == "ingest":
        raw = tmp_path / "i" / "meta.json"
        raw.parent.mkdir()
        raw.write_text(raw_traces("indoor"))
        args = ["ingest", "--format", "indoor", "--in", str(raw), "--out", str(raw.parent)]
        return args, raw, raw
    run = [cmd, "--scenario", str(scenario)]
    if cmd in ("train", "evaluate"):
        run += FAST_FLAGS
    if cmd == "evaluate":
        run += ["--mode", "timing", "--counts", "1", "--repeats", "1"]
    if cmd == "compose":
        model.write_bytes(policy_file())
        run += ["--model", str(model)]
        if target == "model":
            return [*run, "--user", "user:u0000", "--out", str(model)], model, model
    if target == "user_file":
        user = tmp_path / "u.csv"
        user.write_text("id,t,x,y\nuser:f,1,5.0,5.0\nuser:f,2,6.0,5.0\n")
        return [*run, "--user", str(user), "--out", str(user)], user, user
    if target == "symlink":
        link = tmp_path / "d.json"
        link.symlink_to(scenario)
        return [*run, "--out", str(link)], link, scenario
    if target == "log":
        return [*run, "--out", str(tmp_path / "m.ckpt"), "--log", str(scenario)], scenario, scenario
    if target == "series":
        # the users CSV, renamed to the series path of --out r.json
        users = bundle / "r.series.csv"
        os.rename(bundle / "users.csv", users)
        scenario.write_text(json.dumps({**json.loads(scenario.read_text()), "users_csv": users.name}))
        return [*run, "--out", str(bundle / "r.json")], users, users
    return [*run, "--out", str(bundle / target)], bundle / target, bundle / target


OVERWRITES = [
    "gen_spec", "ingest_in", "discover_scenario.json", "discover_users.csv", "discover_symlink",
    "discover_user_file", "train_services.csv", "train_log", "compose_model", "compose_user_file",
    "evaluate_users.csv", "evaluate_series", "train_outputs", "train_outputs_dotslash",
    "train_outputs_symlink",
]


@pytest.mark.parametrize("case", OVERWRITES)
def test_output_that_is_an_input_is_one_line_error(bundle, tmp_path, capsys, case):
    args, out, victim = overwrite_case(case, bundle, tmp_path)
    before = victim.read_bytes() if victim.exists() else None
    assert dispatch([*args, "--quiet"]) == 1
    line = assert_one_error_line(capsys, "InvalidInputError", victim)
    kind = "output" if "_outputs" in case else "input"
    assert f"output {out} is the {kind} {victim}" in line, line
    assert (victim.read_bytes() if victim.exists() else None) == before


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
# hashes of scenario.json and its two CSVs by their roles, so the bytes do
# not depend on the path. A
# change to these bytes is a change to the ground truth the composer is
# scored against and must be made on purpose.
PINNED_DISCOVER_SHA256 = {
    "planar": "b93468e89fab9777bb492d6c24a05b208cbb3912915f16483daab6f61d1c65c2",
    "haversine": "9b794f679bbe19f82aa5f1506bfdc6b6ffa52c11986367f31aba7dc0b3e605b4",
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


@pytest.mark.parametrize(
    "name, rows",
    [("users.csv", ["user:zz,1,5.0,5.0", "user:zz,2,6.0,5.0"]),
     ("services.csv", ["szz,1,5.0,5.0", "szz,2,6.0,5.0"])],
)
def test_discover_meta_hashes_the_scenario_csvs(bundle, tmp_path, monkeypatch, name, rows):
    # two bundles that differ only in one CSV give different provenance
    monkeypatch.chdir(tmp_path)
    shutil.copytree(bundle, "other")
    for row in rows:
        append_line(tmp_path / "other" / name, row)
    metas = []
    for scen in (bundle, tmp_path / "other"):
        assert dispatch(["discover", "--scenario", str(scen / "scenario.json"), "--out", "d.json",
                         "--quiet"]) == 0
        metas.append(json.loads((tmp_path / "d.json").read_text())["meta"]["input_hashes"])
    assert metas[0]["scenario"] == metas[1]["scenario"]
    assert metas[0] != metas[1]


# sha256 of the report and of the series CSV that `mobicomp evaluate --mode
# accuracy --counts 1 2` writes on SPEC's bundle with CI_FLAGS, the training
# flags of the CI's command step, strict and lenient. The strict model scores
# 0.0 and the lenient one 0.76 there, so these pin the bytes, and the
# reference test in test_evaluation checks what the scorer counts.
CI_FLAGS = ["--repetition", "2", "--memory", "64", "--batch", "8", "--train-interval", "8",
            "--hidden", "8"]
PINNED_EVALUATE = {
    "strict": (
        "d6b8c9deb2ac3cb047601c08eaff0fedb75df105f82da288cba3f461601e787e",
        "e70b68f11825cde9d2a14128ebb4beafa59ba33876fa9e03ab6f6ef645d794d3",
    ),
    "lenient": (
        "e854317282c7e92b95d87c15026541e5fb5b3aa839b1091a50aecd89708c1d34",
        "10036ac1c873af58f47826b1a281f46ebd718bd2e4304da0be0efdf88684f5a1",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_EVALUATE))
def test_evaluate_bytes_are_pinned(bundle, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    args = ["evaluate", "--scenario", str(bundle / "scenario.json"), "--mode", "accuracy",
            "--counts", "1", "2", "--out", "r.json", "--quiet", *CI_FLAGS]
    assert dispatch([*args, *(["--lenient-validity"] if case == "lenient" else [])]) == 0
    assert (sha256_file("r.json"), sha256_file("r.series.csv")) == PINNED_EVALUATE[case]


def test_evaluate_accuracy_reports_the_quality_fields(bundle, tmp_path, monkeypatch):
    # each point's report and its per-user rows hold the quality fields: the
    # report's sums are its rows' sums, and its ratios are read from them
    monkeypatch.chdir(tmp_path)
    args = ["evaluate", "--scenario", str(bundle / "scenario.json"), "--mode", "accuracy",
            "--counts", "1", "2", "--out", "r.json", "--quiet", *CI_FLAGS]
    assert dispatch(args) == 0
    report = json.loads((tmp_path / "r.json").read_text())["points"][-1]["report"]
    rows = list(report["per_trajectory"].values())
    for rep in [report, *rows]:
        n = rep["steps"]
        assert rep["regret"] == rep["oracle_reward"] - rep["reward"]
        assert rep["mean_reward"] == rep["reward"] / n
        assert rep["invalid_rate"] == rep["invalid_picks"] / n
        assert rep["dummy_rate"] == rep["dummy_picks"] / n
        assert 0.0 <= rep["invalid_rate"] + rep["dummy_rate"] <= 1.0
        assert math.isfinite(rep["qos_ratio"]) and rep["qos_ratio"] > 0.0
    for key in ("steps", "dummy_picks", "invalid_picks", "valid_samples", "correct_selections"):
        assert report[key] == sum(row[key] for row in rows)
    assert report["capacity"] == math.fsum(row["capacity"] for row in rows)


# sha256 of `mobicomp discover` on a denser corridor scenario (30 services,
# 3 users, 200 steps): each user's candidate columns run to about 1,200
# values, and its capacities and strengths repeat, so the encoding of
# repeated values and the joined lists of candidates are pinned too.
DENSE_SPEC = {
    **SPEC, "n_services": 30, "n_users": 3, "area": [0.0, 0.0, 100.0, 100.0],
    "timestep_count": 200, "coroute_fraction": 0.8, "jitter_m": 4.0,
}
PINNED_DENSE_DISCOVER_SHA256 = "00ce10413448f8e29660dadb363e695a96c05c36efc46373426dfe5cbd11f81f"


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


def haversine_discover_error(tmp_path, capsys, csv_name=None, row=None, *args):
    """The error lines of ``discover`` with ``args`` on a haversine bundle
    with ``row`` appended to its ``csv_name``; the command must exit 1 and
    write nothing."""
    spec = ScenarioSpec.from_dict(SPEC)
    services, users = generate(spec)
    scen = tmp_path / "scen"
    write_scenario_bundle(
        scen, to_lonlat(services), to_lonlat(users), QosParams.defaults_for(spec.r_s_meters),
        spec.w, DistanceMode.HAVERSINE, seed=spec.seed,
    )
    if csv_name:
        append_line(scen / csv_name, row)
    out = tmp_path / "out" / "d.json"
    assert dispatch(["discover", "--scenario", str(scen / "scenario.json"),
                     "--out", str(out), "--quiet", *args]) == 1
    assert not (tmp_path / "out").exists()
    return capsys.readouterr().err.strip().splitlines()


def test_haversine_service_out_of_gps_range_is_one_line_error(tmp_path, capsys):
    # the bad sample is at t=26, where no user has one: every service sample
    # is range-checked, not only those joined with a user
    err = haversine_discover_error(tmp_path, capsys, "services.csv", "s0003,26,200.0,-33.87")
    scen = tmp_path / "scen"
    assert err == [
        f"error: InvalidInputError: {scen / 'services.csv'}, {scen / 'scenario.json'}: "
        "service 's0003': GPS coordinates out of range: (200.0, -33.87)"
    ]


def test_haversine_user_out_of_gps_range_is_one_line_error(tmp_path, capsys):
    # refused when the bundle is loaded, before the first user is discovered
    err = haversine_discover_error(tmp_path, capsys, "users.csv", "user:u0002,26,151.2,95.0")
    assert err == [
        f"error: InvalidInputError: {tmp_path / 'scen' / 'users.csv'}: "
        "user 'user:u0002': GPS coordinates out of range: (151.2, 95.0)"
    ]


def test_haversine_user_file_out_of_gps_range_is_one_line_error(tmp_path, capsys):
    user = tmp_path / "user.csv"
    user.write_text("id,t,x,y\nuser:z,1,151.2,-33.87\nuser:z,2,151.2,95.0\n")
    err = haversine_discover_error(tmp_path, capsys, None, None, "--user", str(user))
    assert err == [
        f"error: InvalidInputError: {user}: "
        "user 'user:z': GPS coordinates out of range: (151.2, 95.0)"
    ]


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
    "3a4e6b9467a6067bb96170f76a31bb000a3a301f78d3f1c9db5597cbac24132a",
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
    hashes |= {role: sha256_file(bundle / f"{role}.csv") for role in ("services", "users")}
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


def malformed_model_error(bundle, tmp_path, capsys, data):
    """The one error line of ``compose --model`` on a file holding ``data``,
    which must name that file and leave no plan behind."""
    model, out = tmp_path / "bad.ckpt", tmp_path / "p.json"
    model.write_bytes(data)
    code = dispatch(
        ["compose", "--model", str(model), "--scenario", str(bundle / "scenario.json"),
         "--user", "user:u0000", "--out", str(out), "--quiet"]
    )
    assert code == 1
    assert not out.exists()
    return assert_one_error_line(capsys, "CheckpointError", f"{model}: ")


def test_corrupt_model_is_one_line_error(bundle, tmp_path, capsys):
    # a layer of (2**32 - 1)**2 weights, whose size wraps around in int64:
    # past the parameter bound, so a bad header
    line = malformed_model_error(bundle, tmp_path, capsys, wrapping_policy_file())
    assert "bad policy model header" in line and "parameters, more than" in line


def test_model_header_the_spec_refuses_is_one_line_error(bundle, tmp_path, capsys):
    line = malformed_model_error(bundle, tmp_path, capsys, policy_file(hidden_layers=(0,)))
    assert "layer widths" in line


# a policy file that is not one `mobicomp train` writes: its bytes and the text
# the error line must hold
MALFORMED_MODELS = {
    "version_1": (policy_file(version=1), "unsupported policy model version 1"),
    "bad_magic": (b"MNET" + policy_file()[4:], "bad magic"),
    "truncated": (policy_file()[:-8], "truncated or oversized"),
    "trailing_bytes": (policy_file() + bytes(8), "truncated or oversized"),
    "header_not_json": (policy_file(header=b"{"), "bad policy model header"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_is_one_line_error(bundle, tmp_path, capsys, case):
    data, named = MALFORMED_MODELS[case]
    assert named in malformed_model_error(bundle, tmp_path, capsys, data)


@pytest.mark.parametrize(
    "n_inputs, extra_outputs", [(3, 3), (4, 0)], ids=["output_wider", "input_4_wide"]
)
def test_model_whose_network_does_not_fit_its_header_is_one_line_error(
    bundle, tmp_path, capsys, n_inputs, extra_outputs
):
    env = build_environment(load_scenario(bundle / "scenario.json"))
    net = init_network(NetworkSpec(n_inputs, (4,), env.n_actions + extra_outputs), seed=0)
    net.biases[-1][-1] = 1e9  # every greedy pick is the last output
    data = save_model(PolicyModel(net, env.action_ids, env.extents))
    assert "truncated or oversized" in malformed_model_error(bundle, tmp_path, capsys, data)


def test_model_header_non_finite_extent_is_one_line_error(bundle, tmp_path, capsys):
    line = malformed_model_error(bundle, tmp_path, capsys, policy_file(x_max=math.nan))
    assert "x_max" in line


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
