"""The benchmark's checks pass real outputs and fail altered copies of them.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from mobicomp import agent, datasets, evaluation, ioutil, oracle  # noqa: E402
from mobicomp.qos import QosParams  # noqa: E402
from mobicomp.trajectories import DistanceMode  # noqa: E402
from run import to_lonlat  # noqa: E402


@pytest.fixture(scope="module", params=["planar", "haversine"])
def real(request, tmp_path_factory):
    """A small corridor scenario, its discover JSON, runs and one composition."""
    spec = datasets.ScenarioSpec(
        n_services=24, n_users=3, area=(0.0, 0.0, 120.0, 120.0), timestep_count=80,
        speed_range=(0.8, 1.2), seed=5,
    )
    services, users = datasets.generate(spec)
    mode = DistanceMode.PLANAR_EUCLIDEAN
    if request.param == "haversine":
        services, users = to_lonlat(services, users)
        mode = DistanceMode.HAVERSINE
    path = datasets.write_scenario_bundle(
        tmp_path_factory.mktemp(request.param), services, users,
        qos_params=QosParams.defaults_for(spec.r_s_meters), w=spec.w, mode=mode, seed=spec.seed,
    )
    scenario = datasets.load_scenario(path)
    env = evaluation.build_environment(scenario)
    blocks, runs = [], {}
    for user in scenario.users:
        table = env.table_for(user)
        plan = oracle.optimal_plan(table, user, reward_scale=env.reward_scale, dummy_reward=-1.0)
        blocks.append({"user_id": user.id, "steps": oracle.table_plan_json(table, plan, user)})
        runs[user.id] = {s: list(r) for s, r in table.validated.items()}
    config = agent.AgentConfig(hidden_layers=(8,), repetition=2, memory_capacity=64, seed=1)
    trained = agent.train(env, scenario.users[:1], config)
    composed = agent.compose(trained.model, env, scenario.users[0])
    bundle = checks.read_bundle(path)
    return {
        "bundle": bundle,
        "json": json.loads(ioutil.dump_json({"meta": {}, "users": blocks})),
        "runs": runs,
        "composition": [(s.user_timestep, s.chosen, s.reward, s.capacity) for s in composed.steps],
        "log": [(r.episode, r.cum_reward, r.epsilon, r.loss) for r in trained.log],
        "steps": [len(scenario.users[0].trajectory)] * config.repetition,
        "config": dataclasses.asdict(config) | {"invalid_reward": -10.0},
    }


def discover_errors(real, payload) -> list[str]:
    bundle = real["bundle"]
    refs = {uid: checks.reference(bundle, uid) for uid in bundle.users}
    errors = checks.check_discover_json(bundle, refs, json.dumps(payload).encode())
    for uid, runs in real["runs"].items():
        errors += checks.check_runs(bundle, refs[uid], runs)
    return errors


def rows_with_candidates(payload, at_least: int):
    for block in payload["users"]:
        for row in block["steps"]:
            if len(row["candidates"]) >= at_least:
                return row
    raise AssertionError("the scenario has no such row")


def test_real_outputs_pass(real):
    assert discover_errors(real, real["json"]) == []
    bundle = real["bundle"]
    ref = checks.reference(bundle, next(iter(bundle.users)))
    checks.check_discover_rows(bundle, ref, real["json"]["users"][0]["steps"])
    assert checks.check_composition(bundle, ref, real["composition"]) == []
    assert checks.check_training(real["log"], real["steps"], real["config"]) == []


def test_swapped_choice_fails(real):
    payload = copy.deepcopy(real["json"])
    row = rows_with_candidates(payload, 2)
    row["chosen"] = next(c["service_id"] for c in row["candidates"] if c["service_id"] != row["chosen"])
    assert discover_errors(real, payload)


def test_dropped_pair_fails(real):
    payload = copy.deepcopy(real["json"])
    row = rows_with_candidates(payload, 1)
    row["candidates"].pop()
    assert discover_errors(real, payload)


def test_altered_capacity_fails(real):
    payload = copy.deepcopy(real["json"])
    row = rows_with_candidates(payload, 1)
    row["candidates"][0]["capacity_bps"] *= 1.001
    assert discover_errors(real, payload)


def test_dropped_run_fails(real):
    runs = copy.deepcopy(real["runs"])
    uid = next(u for u, r in runs.items() if r)
    runs[uid].pop(next(iter(runs[uid])))
    assert discover_errors(dict(real, runs=runs), real["json"])


def test_swapped_composed_service_fails(real):
    bundle = real["bundle"]
    ref = checks.reference(bundle, next(iter(bundle.users)))
    checks.check_discover_rows(bundle, ref, real["json"]["users"][0]["steps"])
    steps = list(real["composition"])
    t, chosen, reward, cap = steps[0]
    # dummy and service picks never earn the same reward
    swapped = bundle.service_ids[0] if chosen == checks.DUMMY else checks.DUMMY
    steps[0] = (t, swapped, reward, cap)
    assert checks.check_composition(bundle, ref, steps)


def test_training_log_with_wrong_epsilon_fails(real):
    log = list(real["log"])
    ep, cum, eps, loss = log[-1]
    log[-1] = (ep, cum, eps * 0.9, loss)
    assert checks.check_training(log, real["steps"], real["config"])
