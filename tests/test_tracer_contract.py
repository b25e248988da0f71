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

from mobicomp import agent, oracle
from mobicomp.environment import Environment
from mobicomp.network import NetworkSpec, init_network

from conftest import make_env, random_universe

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
    services, user = random_universe(np.random.default_rng(3), n_services=30, n_steps=30)
    env = make_env(services, [user])
    joined = oracle.temporal_map(env.universe, user)
    priced = len(oracle.spatial_map(joined, user, env.universe, env.qos_params, env.mode))
    assert priced > 0
    calls = counting(monkeypatch, oracle, ["perpendicular_distance", "strength", "capacity"])
    oracle.discover(env.universe, user, env.qos_params, env.w, env.mode)
    assert calls == dict.fromkeys(calls, priced)


def test_compose_steps_the_environment_once_per_sample(monkeypatch):
    services, user = random_universe(np.random.default_rng(4), n_services=5, n_steps=12)
    env = make_env(services, [user])
    spec = NetworkSpec(input_dim=3, hidden_layers=(4,), output_dim=env.n_actions)
    model = agent.PolicyModel(init_network(spec, seed=0), env.action_ids, env.extents)
    calls = counting(monkeypatch, Environment, ["step"])
    plan = agent.compose(model, env, user)
    assert calls["step"] == len(plan.steps) == len(user.trajectory)
