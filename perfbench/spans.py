"""Span tracing for the traced benchmark run, applied from outside the program.

``Tracer.install`` replaces the program's public functions and methods, at the
name each caller looks up, with wrappers that record one span per call:
name, start, end, parent span and the id of the user operation it served.
Spans are kept in flat arrays in memory and written out by ``Tracer.save``
when the run ends. Self times (a span's duration minus what its child spans
cover) and counts are accumulated per benchmark phase as the spans close, so
``Tracer.per_layer`` can report them per round of each phase without another
pass over the spans.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute) pairs wrapped as plain functions; the module is the one
# whose global the caller reads, e.g. spatial_map calls oracle.strength.
FUNCTION_SPANS = (
    ("mobicomp.datasets", "generate", "datasets.generate"),
    ("mobicomp.datasets", "write_scenario_bundle", "datasets.write_bundle"),
    ("mobicomp.datasets", "load_scenario", "datasets.load_scenario"),
    ("mobicomp.evaluation", "build_environment", "evaluation.build_environment"),
    ("mobicomp.oracle", "temporal_map", "oracle.temporal_map"),
    ("mobicomp.oracle", "spatial_map", "oracle.spatial_map"),
    ("mobicomp.oracle", "perpendicular_distance", "qos.perpendicular_distance"),
    ("mobicomp.oracle", "strength", "qos.strength_capacity"),
    ("mobicomp.oracle", "capacity", "qos.strength_capacity"),
    ("mobicomp.oracle", "reduce_validate", "oracle.reduce_validate"),
    ("mobicomp.oracle", "optimal_plan", "oracle.optimal_plan"),
    ("mobicomp.oracle", "table_plan_json", "oracle.table_plan_json"),
    ("mobicomp.ioutil", "dump_json", "ioutil.dump_json"),
    ("mobicomp.ioutil", "atomic_write_text", "ioutil.atomic_write"),
    ("mobicomp.agent", "select_action", "agent.select_action"),
    ("mobicomp.agent", "q_targets", "agent.q_targets"),
    ("mobicomp.network", "forward", "network.forward"),
    ("mobicomp.network", "train_batch", "network.train_batch"),
)

# (module, class, method, span name) wrapped on the class itself.
METHOD_SPANS = (
    ("mobicomp.environment", "Environment", "table_for", "environment.table_for"),
    ("mobicomp.environment", "Environment", "step", "environment.step"),
    ("mobicomp.agent", "ReplayMemory", "sample", "agent.replay_sample"),
    ("mobicomp.agent", "ReplayMemory", "push", "agent.replay_push"),
)


def _count_joined(joined) -> int:
    return sum(len(v) for v in joined.values())


def _count_points(scenario) -> int:
    return sum(len(s.trajectory) for s in scenario.services) + sum(
        len(u.trajectory) for u in scenario.users
    )


def _surviving(table) -> int:
    return sum(len(v) for v in table.per_timestep.values())


def _dummy_steps(plan) -> int:
    from mobicomp.oracle import DUMMY_SERVICE

    return sum(1 for s in plan.steps if s.chosen == DUMMY_SERVICE)


def _rows(args) -> int:
    x = np.asarray(args[1])
    return 1 if x.ndim == 1 else int(x.shape[0])


# Counts taken at a span from its arguments (a), its result (r) and the name
# of its parent span (p). A table build is the validation run inside table_for.
COUNTERS = {
    "datasets.load_scenario": lambda a, r, p: {"datasets.points_loaded": _count_points(r)},
    "oracle.temporal_map": lambda a, r, p: {"oracle.joined_pairs": _count_joined(r)},
    "oracle.spatial_map": lambda a, r, p: {"oracle.disk_pairs": len(r)},
    "oracle.reduce_validate": lambda a, r, p: {
        "oracle.validated_services": len(r.validated),
        "oracle.surviving_pairs": _surviving(r),
        "environment.table_builds": int(p == "environment.table_for"),
    },
    "oracle.optimal_plan": lambda a, r, p: {
        "oracle.plan_steps": len(r.steps),
        "oracle.dummy_steps": _dummy_steps(r),
    },
    "ioutil.dump_json": lambda a, r, p: {"ioutil.json_bytes": len(r)},
    "environment.step": lambda a, r, p: {"environment.steps": 1},
    "network.forward": lambda a, r, p: {"network.forward_rows": _rows(a)},
    "network.train_batch": lambda a, r, p: {"network.train_batches": 1},
    "agent.replay_push": lambda a, r, p: {"agent.transitions": 1},
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.ops: list[dict] = []
        self.op = -1
        self.phase = "untracked"
        self.rounds: dict[str, int] = defaultdict(int)
        # phase -> span name -> [self seconds, total seconds, calls]
        self.times = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        # phase -> counter name -> value
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    # -- operations and phases -------------------------------------------------

    def begin_op(self, phase: str, label: str) -> None:
        """Tag the spans that follow with a new user-operation id."""
        self.phase = phase
        self.op = len(self.ops)
        self.ops.append({"phase": phase, "label": label})

    def end_round(self, phase: str) -> None:
        self.rounds[phase] += 1

    def add_count(self, name: str, value: int) -> None:
        self.counts[self.phase][name] += value

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, fn, name: str):
        idx = self._name_idx.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(self.span_start), clock(), 0.0]
            self.span_name.append(idx)
            self.span_start.append(frame[1])
            self.span_end.append(math.nan)
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - frame[1]
                self.span_end[frame[0]] = end
                if stack:
                    stack[-1][2] += total
                acc = self.times[self.phase][name]
                acc[0] += total - frame[2]
                acc[1] += total
                acc[2] += 1
            if counter is not None:
                parent_name = self.names[self.span_name[parent]] if parent >= 0 else None
                for key, val in counter(args, result, parent_name).items():
                    self.counts[self.phase][key] += val
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        for mod_name, attr, span in FUNCTION_SPANS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._restore.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, span))
        for mod_name, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, span))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------------

    def _per_round(self, pick) -> float:
        """Sum over measured phases of the phase total divided by its rounds."""
        return sum(pick(phase) / n for phase, n in self.rounds.items() if n)

    def seconds(self, span: str, total: bool = False) -> float:
        col = 1 if total else 0
        return self._per_round(lambda ph: self.times[ph][span][col] if span in self.times[ph] else 0.0)

    def count(self, name: str) -> float:
        return self._per_round(lambda ph: self.counts[ph].get(name, 0))

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for one round of every measured phase."""
        s, c = self.seconds, self.count

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        calls = self._per_round(
            lambda ph: self.times[ph]["environment.table_for"][2]
            if "environment.table_for" in self.times[ph] else 0
        )
        builds = c("environment.table_builds")
        metrics = {
            "datasets.generate_s": (s("datasets.generate"), "s"),
            "datasets.write_bundle_s": (s("datasets.write_bundle"), "s"),
            "datasets.load_scenario_s": (s("datasets.load_scenario"), "s"),
            "datasets.points_loaded": (c("datasets.points_loaded"), "count"),
            "evaluation.build_environment_s": (s("evaluation.build_environment"), "s"),
            "oracle.temporal_map_s": (s("oracle.temporal_map"), "s"),
            "oracle.joined_pairs": (c("oracle.joined_pairs"), "count"),
            "oracle.spatial_map_self_s": (s("oracle.spatial_map"), "s"),
            "oracle.disk_pairs": (c("oracle.disk_pairs"), "count"),
            "oracle.disk_yield": (ratio(c("oracle.disk_pairs"), c("oracle.joined_pairs")), "ratio"),
            "qos.perpendicular_distance_s": (s("qos.perpendicular_distance"), "s"),
            "qos.strength_capacity_s": (s("qos.strength_capacity"), "s"),
            "oracle.reduce_validate_s": (s("oracle.reduce_validate"), "s"),
            "oracle.validated_services": (c("oracle.validated_services"), "count"),
            "oracle.validation_yield": (
                ratio(c("oracle.surviving_pairs"), c("oracle.disk_pairs")), "ratio"),
            "oracle.optimal_plan_s": (s("oracle.optimal_plan"), "s"),
            "oracle.dummy_step_fraction": (
                ratio(c("oracle.dummy_steps"), c("oracle.plan_steps")), "ratio"),
            "oracle.table_plan_json_s": (s("oracle.table_plan_json"), "s"),
            "ioutil.dump_json_s": (s("ioutil.dump_json"), "s"),
            "ioutil.atomic_write_s": (s("ioutil.atomic_write"), "s"),
            "ioutil.json_bytes": (c("ioutil.json_bytes"), "bytes"),
            "environment.table_for_s": (s("environment.table_for", total=True), "s"),
            "environment.table_builds": (builds, "count"),
            "environment.table_hits": (calls - builds, "count"),
            "environment.step_s": (s("environment.step"), "s"),
            "environment.steps": (c("environment.steps"), "count"),
            "agent.select_action_s": (s("agent.select_action"), "s"),
            "network.forward_s": (s("network.forward"), "s"),
            "network.forward_rows": (c("network.forward_rows"), "count"),
            "agent.replay_sample_s": (s("agent.replay_sample"), "s"),
            "agent.q_targets_s": (s("agent.q_targets"), "s"),
            "agent.transitions": (c("agent.transitions"), "count"),
            "agent.train_passes": (c("agent.train_passes"), "count"),
            "network.train_batch_s": (s("network.train_batch"), "s"),
            "network.train_batches": (c("network.train_batches"), "count"),
            "network.params": (c("network.params"), "count"),
        }
        return metrics

    def save(self, path: Path) -> None:
        """Write every span and the operation table next to each other."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            names=np.array(self.names),
            ops=np.array(json.dumps(self.ops)),
        )
