"""End-to-end benchmark of mobicomp: gen -> discover -> train -> compose.

Run from the repository root:

    python3 perfbench/run.py --workload corridor --seed 1 --seconds 36 --trace 0

The program is imported from ``src/`` next to this directory and driven only
through its public functions, in the order a user runs it. The scenario is
generated from ``--seed``; the program receives nothing else from the
benchmark. Every output is checked against ``checks.py``, which computes the
expected results apart from the program. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: with two threads the same
# training run varied almost twice as much on a 2-vCPU machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
START = time.perf_counter()
OUT = Path(".perfbench_out")  # under the directory the benchmark runs from

SETUP_REPEATS = 3
# Where the gps workload's planar universe is placed on the globe.
ORIGIN_LON, ORIGIN_LAT = 151.2, -33.87


@dataclasses.dataclass(frozen=True)
class Workload:
    mobility_model: str
    area_m: float  # side of the square area; the default scenario has 500
    haversine: bool
    hidden_layers: tuple[int, ...]
    repetition: int
    memory_capacity: int
    train_users: int
    discover_users: int
    compose_users: int  # the first ones of the discover users


WORKLOADS = {
    "corridor": Workload("corridor_flow", 800.0, False, (512, 512, 512), 2, 512, 2, 24, 12),
    "waypoint": Workload("random_waypoint", 500.0, False, (64, 64), 30, 512, 1, 32, 8),
    "gps": Workload("corridor_flow", 800.0, True, (512, 512, 512), 2, 512, 2, 16, 8),
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """Import mobicomp from the checkout's src/, and from nowhere else."""
    if not (SRC / "mobicomp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'mobicomp'}")
    sys.path.insert(0, str(SRC))
    import mobicomp

    if Path(mobicomp.__file__).resolve().parent != (SRC / "mobicomp").resolve():
        raise SystemExit(f"perfbench: imported mobicomp from {mobicomp.__file__}, not {SRC}")
    return mobicomp


def to_lonlat(services, users):
    """Place a planar universe (metres) on longitude/latitude around the origin."""
    from mobicomp.trajectories import Trajectory, TrajectoryPoint

    deg_per_m = 180.0 / (math.pi * 6_371_000.0)
    k_lon = deg_per_m / math.cos(math.radians(ORIGIN_LAT))

    def move(traj):
        return Trajectory(tuple(
            TrajectoryPoint(t=p.t, x=ORIGIN_LON + p.x * k_lon, y=ORIGIN_LAT + p.y * deg_per_m)
            for p in traj.points
        ))

    return (
        [dataclasses.replace(s, trajectory=move(s.trajectory)) for s in services],
        [dataclasses.replace(u, trajectory=move(u.trajectory)) for u in users],
    )


class Bench:
    """One benchmark run: set-up, warm-up, timed phases, then checks."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer):
        from mobicomp import agent, datasets, environment, evaluation, ioutil, oracle, qos
        from mobicomp.errors import MobicompError
        from mobicomp.trajectories import DistanceMode

        # program modules, called through their attributes so that a traced
        # run's wrappers are the ones called
        self.agent, self.datasets, self.environment = agent, datasets, environment
        self.evaluation, self.ioutil, self.oracle, self.qos = evaluation, ioutil, oracle, qos
        self.Error = MobicompError
        self.DistanceMode = DistanceMode
        self.name, self.wl, self.seed, self.seconds = workload, WORKLOADS[workload], seed, seconds
        self.tracer = tracer
        self.dir = OUT / workload
        self.attempted = self.failed = 0
        self.errors: list[str] = []  # check mismatches: the run is not correct
        self.failures: list[str] = []  # operations that raised a domain error

    # -- helpers ---------------------------------------------------------------

    def op(self, phase: str, label: str) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(phase, label)

    def end_round(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.end_round(phase)

    def count(self, name: str, value: int) -> None:
        if self.tracer is not None:
            self.tracer.add_count(name, value)

    def fresh_env(self, extents):
        """An environment with no cached tables, as a new CLI process has."""
        sc = self.scenario
        return self.environment.Environment(
            services=sc.services, qos_params=sc.qos_params, w=sc.w, mode=sc.mode,
            extents=extents, rewards=sc.rewards,
        )

    # -- set-up ----------------------------------------------------------------

    def setup_once(self) -> float:
        """Generate, write, load and build the environment; the program's
        share of that time (the lon/lat placement is the benchmark's own)."""
        datasets, evaluation = self.datasets, self.evaluation
        spec = datasets.default_scenario_spec(seed=self.seed)
        spec.mobility_model = self.wl.mobility_model
        spec.area = (0.0, 0.0, self.wl.area_m, self.wl.area_m)
        clock = time.perf_counter
        t0 = clock()
        services, users = datasets.generate(spec)
        spent = clock() - t0
        mode = self.DistanceMode.PLANAR_EUCLIDEAN
        if self.wl.haversine:
            services, users = to_lonlat(services, users)
            mode = self.DistanceMode.HAVERSINE
        qos_params = self.qos.QosParams.defaults_for(spec.r_s_meters)
        self.scenario = self.env = None
        gc.collect()
        t0 = clock()
        self.scenario_path = datasets.write_scenario_bundle(
            self.dir / "bundle", services, users, qos_params=qos_params, w=spec.w,
            mode=mode, seed=spec.seed,
        )
        self.scenario = datasets.load_scenario(self.scenario_path)
        self.env = evaluation.build_environment(self.scenario)
        return spent + clock() - t0

    def setup(self) -> float:
        times = []
        for i in range(SETUP_REPEATS):
            self.op("setup", f"setup{i}")
            times.append(self.setup_once())
            self.end_round("setup")
        sc = self.scenario
        train, _ = self.datasets.split_train_test(sc.users, seed=self.seed)
        self.train_users = train[: self.wl.train_users]
        self.discover_users = sc.users[: self.wl.discover_users]
        self.compose_users = self.discover_users[: self.wl.compose_users]
        self.train_extents = self.environment.Extents.from_universe(sc.services, self.train_users)
        self.config = self.agent.AgentConfig(
            hidden_layers=self.wl.hidden_layers, repetition=self.wl.repetition,
            memory_capacity=self.wl.memory_capacity, seed=self.seed,
        )
        self.meta = {
            "tool": "mobicomp",
            "version": sys.modules["mobicomp"].__version__,
            "seed": self.seed,
            "input_hashes": {str(self.scenario_path): self.ioutil.sha256_file(self.scenario_path)},
        }
        self.setup_times = times
        return statistics.median(times)

    # -- rounds ----------------------------------------------------------------

    def discover(self, users, out: Path, phase: str, rnd: int) -> dict:
        """``mobicomp discover`` over ``users``: tables, optimal plans, the
        JSON payload and its atomic write, timed together."""
        oracle, ioutil = self.oracle, self.ioutil
        env = self.fresh_env(self.env.extents)
        sc = self.scenario
        blocks, plans, failed = [], {}, set()
        gc.collect()
        elapsed, clock = 0.0, time.perf_counter
        for user in users:
            self.op(phase, f"c{rnd}:discover:{user.id}")
            t0 = clock()
            try:
                table = env.table_for(user)
                plans[user.id] = oracle.optimal_plan(
                    table, user, reward_scale=env.reward_scale, dummy_reward=sc.rewards.dummy
                )
                blocks.append({"user_id": user.id, "steps": oracle.table_plan_json(table, plans[user.id], user)})
            except self.Error as exc:
                failed.add(user.id)
                self.failures.append(f"discover {user.id}: {exc}")
            elapsed += clock() - t0
        self.op(phase, f"c{rnd}:emit")
        t0 = clock()
        ioutil.atomic_write_text(out, ioutil.dump_json({"meta": self.meta, "users": blocks}))
        elapsed += clock() - t0
        self.op("checks", f"c{rnd}:discover")
        validated = {u.id: {s: list(r) for s, r in env.table_for(u).validated.items()}
                     for u in users if u.id not in failed}
        return {"seconds": elapsed, "plans": plans, "failed": failed, "validated": validated,
                "sha256": self.ioutil.sha256_file(out)}

    def train(self, phase: str, rnd: int) -> dict:
        env = self.fresh_env(self.train_extents)
        gc.collect()
        self.op(phase, f"c{rnd}:train")
        t0 = time.perf_counter()
        try:
            result = self.agent.train(env, self.train_users, self.config)
        except self.Error as exc:
            self.failures.append(f"train: {exc}")
            return {"seconds": None, "model": None, "log": None}
        elapsed = time.perf_counter() - t0
        self.count("agent.train_passes", sum(1 for row in result.log if not math.isnan(row.loss)))
        net = result.model.network
        self.count("network.params", sum(w.size + b.size for w, b in zip(net.weights, net.biases)))
        log_rows = [(r.episode, r.cum_reward, r.epsilon, r.loss) for r in result.log]
        return {"seconds": elapsed, "model": result.model, "log": log_rows}

    def compose(self, model, users, phase: str, rnd: int) -> dict:
        """Greedy composition of each user, each on a fresh environment."""
        latencies, plans, failed = [], {}, set()
        gc.collect()
        for user in users:
            env = self.fresh_env(self.env.extents)
            self.op(phase, f"c{rnd}:compose:{user.id}")
            t0 = time.perf_counter()
            try:
                plans[user.id] = self.agent.compose(model, env, user)
            except self.Error as exc:
                failed.add(user.id)
                self.failures.append(f"compose {user.id}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
        return {"latencies": latencies, "plans": plans, "failed": failed}

    def run(self) -> dict:
        self.dir.mkdir(parents=True, exist_ok=True)
        setup_s = self.setup()
        out = self.dir / "discover.json"

        # Warm-up outside the timed window: the first call of each kind in a
        # process runs slower (allocator growth, BLAS start-up).
        self.discover(self.discover_users[:2], self.dir / "warmup.json", "warmup", -1)
        model = self.train("warmup", -1)["model"]
        self.compose(model, self.compose_users[:2], "warmup", -1)

        # Whole cycles of the three phases, interleaved so that a slow spell of
        # the machine falls on all of them alike, while the next cycle, as long
        # as the last, still fits in --seconds.
        cycles, clock = [], time.perf_counter
        deadline, last = clock() + self.seconds, 0.0
        while not cycles or clock() + last <= deadline:
            t0 = clock()
            cycle = {}
            for phase, fn in (
                ("discover", lambda r: self.discover(self.discover_users, out, "discover", r)),
                ("train", lambda r: self.train("train", r)),
                ("compose", lambda r: self.compose(model, self.compose_users, "compose", r)),
            ):
                cycle[phase] = fn(len(cycles))
                self.end_round(phase)
            cycle["train"].pop("model")  # compose uses the identical warm-up model
            if cycles:  # only the first cycle's outputs are kept in full
                cycle["discover"].pop("plans")
                cycle["compose"]["plans"] = flat_plans(cycle["compose"]["plans"])
            cycles.append(cycle)
            last = clock() - t0
            if len(cycles) == 1:
                # set-up, warm-up and one cycle are a whole session of use;
                # later cycles repeat it and would only add what this
                # benchmark keeps for its checks
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        disc = [c["discover"] for c in cycles]
        trains = [c["train"] for c in cycles]
        comps = [c["compose"] for c in cycles]
        n_d, n_c = len(self.discover_users), len(self.compose_users)
        self.attempted = len(cycles) * (n_d + 1 + n_c)
        self.failed = sum(len(d["failed"]) + (t["log"] is None) + len(c["failed"])
                          for d, t, c in zip(disc, trains, comps))
        latencies = [x for c in comps for x in c["latencies"]]
        log(f"{self.name} seed={self.seed}: {len(cycles)} cycles; setup {fmt(self.setup_times)}; "
            f"round seconds: discover {fmt(d['seconds'] for d in disc)}; "
            f"train {fmt(t['seconds'] for t in trains)}; "
            f"compose {fmt(sum(c['latencies']) for c in comps)}; "
            f"cpu/wall {time.process_time() / (clock() - START):.3f}")

        t0 = clock()
        self.check(out.read_bytes(), disc, trains, comps)
        log(f"checks took {clock() - t0:.3f}s")
        episodes = len(self.train_users) * self.config.repetition
        return {
            "setup_s": (setup_s, "s"),
            "discover_users_per_s": (statistics.median(
                (n_d - len(d["failed"])) / d["seconds"] for d in disc), "1/s"),
            "discover_output_mb": (out.stat().st_size / 1e6, "MB"),
            "train_episodes_per_s": (statistics.median(
                episodes / t["seconds"] for t in trains if t["log"]), "1/s"),
            "compose_user_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    # -- checks ----------------------------------------------------------------

    def check(self, discover_json: bytes, disc, trains, comps) -> None:
        import checks

        evaluation = self.evaluation
        errs = []
        bundle = checks.read_bundle(self.scenario_path)
        first = disc[0]
        refs = {u.id: checks.reference(bundle, u.id) for u in self.discover_users
                if u.id not in first["failed"]}
        errs += checks.check_discover_json(bundle, refs, discover_json)
        for uid, runs in first["validated"].items():
            errs += [f"{uid} {e}" for e in checks.check_runs(bundle, refs[uid], runs)]
        if any(d["sha256"] != first["sha256"] or d["validated"] != first["validated"] for d in disc):
            errs.append("discover rounds wrote different outputs")

        logs = [t["log"] for t in trains if t["log"]]
        if logs:
            steps = [len(u.trajectory) for u in self.train_users for _ in range(self.config.repetition)]
            cfg = dataclasses.asdict(self.config) | {"invalid_reward": bundle.invalid_reward}
            errs += [f"train {e}" for e in checks.check_training(logs[0], steps, cfg)]
            if any(repr(lg) != repr(logs[0]) for lg in logs[1:]):
                errs.append("training rounds logged different episodes")

        plans = comps[0]["plans"]
        flat = flat_plans(plans)
        for uid, plan in plans.items():
            if uid not in refs:
                continue
            errs += [f"compose {uid} {e}" for e in checks.check_composition(bundle, refs[uid], flat[uid])]
            report = evaluation.accuracy(plan, first["plans"][uid])
            cs, ns = checks.accuracy(flat[uid], flat_plans({uid: first["plans"][uid]})[uid])
            if (report.correct_selections, report.valid_samples) != (cs, ns):
                errs.append(f"compose {uid}: accuracy {report.correct_selections}/"
                            f"{report.valid_samples}, recomputed {cs}/{ns}")
        if any(c["plans"] != flat for c in comps[1:]):
            errs.append("compose rounds produced different plans")
        if self.tracer is not None:
            errs += self.check_counts(bundle, refs, len(discover_json))
        self.errors += errs

    def check_counts(self, bundle, refs, json_bytes: int) -> list[str]:
        """The traced counts of one cycle equal what the outputs and the
        brute-force pairs say that cycle did."""
        import checks
        import numpy as np

        tables = [u.id for u in self.discover_users + self.train_users + self.compose_users]
        for uid in tables:
            if uid not in refs:
                refs[uid] = checks.reference(bundle, uid)
        if any(refs[uid].unsure for uid in tables):
            return []  # a pair on the disk edge may count either way
        train_steps = self.config.repetition * sum(len(u.trajectory) for u in self.train_users)
        expected = {
            "datasets.points_loaded": int(np.isfinite(bundle.positions[..., 0]).sum())
            + sum(len(ts) for ts, _ in bundle.users.values()),
            "oracle.disk_pairs": sum(len(refs[uid].distance) for uid in tables),
            "oracle.validated_services": sum(len(refs[uid].runs) for uid in tables),
            "environment.table_builds": len(tables),
            "environment.steps": train_steps + sum(len(u.trajectory) for u in self.compose_users),
            "agent.transitions": train_steps,
            "ioutil.json_bytes": json_bytes,
        }
        return [f"traced count {name} = {self.tracer.count(name)}, expected {value}"
                for name, value in expected.items() if self.tracer.count(name) != value]


def flat_plans(plans: dict) -> dict:
    return {uid: [(s.user_timestep, s.chosen, s.reward, s.capacity) for s in p.steps]
            for uid, p in plans.items()}


def fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in values if v is not None)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: wrap the program's public functions and report per-layer metrics")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    bench = Bench(args.workload, args.seed, args.seconds, tracer)
    try:
        end_to_end = bench.run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        trace_path = OUT / args.workload / f"trace-seed{args.seed}.npz"
        tracer.save(trace_path)
        log(f"spans: {len(tracer.span_start)} written to {trace_path}")
        metrics = tracer.per_layer()
    else:
        metrics = end_to_end
    for msg in bench.failures[:20]:
        log(f"FAILED: {msg}")
    for msg in bench.errors[:20]:
        log(f"CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
