"""The names the benchmark's span tracer wraps, and how the program calls them.

``perfbench/spans.py`` replaces program functions and methods by name, at the
module whose global each caller reads. A renamed name breaks a traced
benchmark run, and a caller that stops going through that global silently
drops its spans and counts; these tests fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from mobicomp import agent, datasets, evaluation, ioutil, oracle
from mobicomp.environment import Environment
from mobicomp.network import NetworkSpec, init_network
from mobicomp.qos import QosParams
from mobicomp.trajectories import DistanceMode

from conftest import make_env, random_universe
from oracles import brute_force_pairs, brute_force_validated, nested_loop_join

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counting(monkeypatch, owner, names):
    """Wrap each named attribute of ``owner`` with a call counter."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(owner, name)

        def wrapped(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)
    return calls


def test_every_traced_name_resolves():
    spans = load_spans()
    for mod_name, attr, _ in spans.FUNCTION_SPANS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)
    for mod_name, cls_name, meth, _ in spans.METHOD_SPANS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(vars(cls).get(meth)), (mod_name, cls_name, meth)


def test_discover_prices_each_disk_pair_once_through_oracle_globals(monkeypatch):
    # pricing is by columns: one call of each global per user, whose columns
    # together hold every disk pair once
    services, user = random_universe(np.random.default_rng(3), n_services=30, n_steps=30)
    env = make_env(services, [user])
    joined = oracle.temporal_map(env.universe, user)
    priced = len(oracle.spatial_map(joined, user, env.universe, env.qos_params, env.mode))
    assert priced > 0
    names = ["perpendicular_distance", "strength", "capacity"]
    lengths = {name: [] for name in names}
    for name in names:
        orig = getattr(oracle, name)

        def sized(*args, _name=name, _orig=orig, **kwargs):
            lengths[_name].append(len(args[0]))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(oracle, name, sized)
    oracle.discover(env.universe, user, env.qos_params, env.w, env.mode)
    assert lengths == {name: [priced] for name in names}


def test_traced_counts_match_brute_force(tmp_path):
    # every counter of the tracer, taken from real results of a small
    # write -> load -> discover -> plan -> dump -> train run, and the
    # discovery counts checked against the brute-force references
    spans = load_spans()
    fired = set()
    for name, fn in list(spans.COUNTERS.items()):
        def recorded(a, r, p, _name=name, _fn=fn):
            fired.add(_name)
            return _fn(a, r, p)

        spans.COUNTERS[name] = recorded
    services, user = random_universe(np.random.default_rng(5), n_services=40, n_steps=30)
    qos = QosParams.defaults_for(20.0)
    path = datasets.write_scenario_bundle(
        tmp_path, services, [user], qos_params=qos, w=2,
        mode=DistanceMode.PLANAR_EUCLIDEAN, seed=1,
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op("run", "all")
        scenario = datasets.load_scenario(path)
        (user,) = scenario.users
        env = evaluation.build_environment(scenario)
        table = env.table_for(user)
        plan = oracle.optimal_plan(table, user)
        text = ioutil.dump_json(oracle.table_plan_json(table, plan, user))
        config = agent.AgentConfig(hidden_layers=(4,), repetition=2, memory_capacity=16,
                                   batch_size=4, train_interval=8, seed=1)
        agent.train(env, [user], config)
    finally:
        tracer.uninstall()
    counts = tracer.counts["run"]
    assert fired == set(spans.COUNTERS)

    services = scenario.services
    validated, surviving = brute_force_validated(services, user, 20.0, w=2)
    assert validated and surviving
    assert counts["oracle.joined_pairs"] == sum(map(len, nested_loop_join(services, user).values()))
    assert counts["oracle.disk_pairs"] == len(brute_force_pairs(services, user, 20.0))
    assert counts["oracle.validated_services"] == len(validated)
    assert counts["oracle.surviving_pairs"] == len(surviving)
    assert counts["environment.table_builds"] == 1
    assert counts["oracle.plan_steps"] == len(user.trajectory)
    covered = {t for t, _ in surviving}
    assert counts["oracle.dummy_steps"] == sum(int(p.t) not in covered for p in user.trajectory.points)
    assert counts["ioutil.json_bytes"] == len(text)
    assert counts["datasets.points_loaded"] == sum(len(s.trajectory) for s in services) + 30
    assert counts["environment.steps"] == 2 * len(user.trajectory)
    assert counts["agent.transitions"] == 2 * len(user.trajectory)


def test_compose_steps_the_environment_once_per_sample(monkeypatch):
    services, user = random_universe(np.random.default_rng(4), n_services=5, n_steps=12)
    env = make_env(services, [user])
    spec = NetworkSpec(input_dim=3, hidden_layers=(4,), output_dim=len(env.action_ids))
    model = agent.PolicyModel(init_network(spec, seed=0), env.action_ids, env.extents)
    calls = counting(monkeypatch, Environment, ["step"])
    plan = agent.compose(model, env, user)
    assert calls["step"] == len(plan.steps) == len(user.trajectory)
