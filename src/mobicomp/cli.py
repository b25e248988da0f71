"""Single entry point wiring the full workflow:
generate/ingest -> discover -> train -> compose -> evaluate.

Every subcommand is deterministic given its inputs and seed, never mutates
its inputs, writes outputs atomically, and prints one machine-parseable
summary line. Emitted artifacts carry a ``meta`` block (tool version, seed,
input hashes) for provenance; no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from . import agent as agent_mod
from . import evaluation as eval_mod
from . import oracle as oracle_mod
from .agent import AgentConfig
from .datasets import (
    ScenarioSpec,
    Scenario,
    default_scenario_spec,
    generate,
    ingest_gps,
    ingest_indoor,
    load_scenario,
    split_services_users,
    split_train_test,
    write_scenario_bundle,
)
from .errors import InvalidInputError, MobicompError
from .ioutil import (
    atomic_write_bytes,
    atomic_write_text,
    dump_json,
    read_input,
    read_json_object,
    sha256_file,
)
from .qos import QosParams
from .trajectories import (
    USER_ID_PREFIX,
    DistanceMode,
    MovingService,
    UserTrajectory,
)

DEFAULT_SEED = 7


def _meta(seed: int, inputs: list[str | Path]) -> dict:
    return {
        "tool": "mobicomp",
        "version": __version__,
        "seed": seed,
        "input_hashes": {str(p): sha256_file(p) for p in inputs},
    }


def _summary(cmd: str, **kv) -> None:
    parts = " ".join(f"{k}={v}" for k, v in kv.items())
    print(f"{cmd} ok {parts}".rstrip())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master RNG seed")
    p.add_argument("--quiet", action="store_true", help="suppress the summary line")


def _agent_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--epsilon-decay", type=float, default=0.995)
    p.add_argument("--epsilon-min", type=float, default=0.05)
    p.add_argument("--memory", type=int, default=1024)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--repetition", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--train-interval", type=int, default=128)
    p.add_argument("--hidden", type=int, nargs="+", default=[512, 512, 512])
    p.add_argument("--dropout", type=float, default=0.5)


def _config_from(args: argparse.Namespace) -> AgentConfig:
    return AgentConfig(
        gamma=args.gamma,
        epsilon_decay=args.epsilon_decay,
        epsilon_min=args.epsilon_min,
        memory_capacity=args.memory,
        batch_size=args.batch,
        repetition=args.repetition,
        lr=args.lr,
        train_interval=args.train_interval,
        hidden_layers=tuple(args.hidden),
        dropout_p=args.dropout,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobicomp",
        description="Compose moving crowdsourced services along user trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scenario bundle")
    p.add_argument("--spec", help="ScenarioSpec JSON (defaults to the desk-scale spec)")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(seed=None)  # not given: the spec's seed, else DEFAULT_SEED

    p = sub.add_parser("ingest", help="convert a raw dataset to a scenario bundle")
    p.add_argument("--format", choices=["indoor", "gps"], required=True)
    p.add_argument("--rate", type=float, default=0.04, help="indoor resample rate, seconds")
    p.add_argument("--in", dest="input", required=True, help="raw CSV path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--user-fraction", type=float, default=0.3)
    p.add_argument("--r-s", type=float, default=20.0, help="search/sensing radius, metres")
    p.add_argument("--w", type=int, default=2, help="minimum consecutive pairing length")
    _add_common(p)

    p = sub.add_parser("discover", help="oracle discovery: candidate table + optimal plan")
    p.add_argument("--scenario", required=True)
    p.add_argument("--user", help="only this user id (default: all users)")
    p.add_argument("--out", required=True, help="output JSON path")
    _add_common(p)

    p = sub.add_parser("train", help="train the Q-learning composer on the 70% split")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.add_argument("--log", help="training log CSV path (default: <out>.log.csv)")
    _agent_flags(p)
    _add_common(p)

    p = sub.add_parser("compose", help="greedy composition for one user")
    p.add_argument("--model", required=True)
    p.add_argument("--scenario", required=True, help="scenario supplying the service universe")
    p.add_argument("--user", required=True, help="user id in the scenario, or a user CSV path")
    p.add_argument("--out", required=True, help="plan JSON path")
    _add_common(p)

    p = sub.add_parser("evaluate", help="accuracy / timing / convergence reports")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", choices=["accuracy", "timing", "convergence"], required=True)
    p.add_argument(
        "--out", required=True,
        help="report JSON path; its per-point series goes beside it as <stem>.series.csv",
    )
    p.add_argument("--counts", type=int, nargs="+", help="sweep points (trajectories or services)")
    p.add_argument("--require-accuracy", type=float, help="exit non-zero below this accuracy")
    p.add_argument("--lenient-validity", action="store_true", help="count any valid pick as correct")
    p.add_argument("--repeats", type=int, default=5, help="timing repetitions")
    _agent_flags(p)
    _add_common(p)

    sub.add_parser("version", help="print the tool version")
    return parser


def _cmd_gen(args) -> int:
    if args.spec:
        try:
            spec = ScenarioSpec.from_dict(read_json_object(args.spec))
        except TypeError as exc:  # missing or unknown fields, or values of the wrong type
            raise InvalidInputError(f"{args.spec}: bad scenario spec: {exc}") from None
        if args.seed is not None:
            spec.seed = args.seed
        inputs = [args.spec]
    else:
        spec = default_scenario_spec(seed=DEFAULT_SEED if args.seed is None else args.seed)
        inputs = []
    services, users = generate(spec)
    out = Path(args.out)
    scenario_path = write_scenario_bundle(
        out,
        services,
        users,
        qos_params=QosParams.defaults_for(spec.r_s_meters),
        w=spec.w,
        mode=DistanceMode.PLANAR_EUCLIDEAN,
        seed=spec.seed,
    )
    atomic_write_text(out / "meta.json", dump_json(_meta(spec.seed, inputs)))
    if not args.quiet:
        _summary(
            "gen",
            services=len(services),
            users=len(users),
            timesteps=spec.timestep_count,
            scenario=scenario_path,
        )
    return 0


def _cmd_ingest(args) -> int:
    if args.format == "indoor":
        result = ingest_indoor(args.input, rate=args.rate)
        mode = DistanceMode.PLANAR_EUCLIDEAN
    else:
        result = ingest_gps(args.input)
        mode = DistanceMode.HAVERSINE
    ids = [ident for ident, _ in result.trajectories]
    service_ids, user_ids = split_services_users(ids, args.user_fraction)
    by_id = dict(result.trajectories)
    services = [
        MovingService(
            id=sid,
            trajectory=by_id[sid],
            bandwidth_b=5_000_000.0,
            max_concurrent_k=2,
        )
        for sid in service_ids
    ]
    users = [
        UserTrajectory(id=f"{USER_ID_PREFIX}{uid}", trajectory=by_id[uid]) for uid in user_ids
    ]
    if not services or not users:
        raise InvalidInputError(
            f"split produced {len(services)} services and {len(users)} users; "
            "adjust --user-fraction"
        )
    out = Path(args.out)
    scenario_path = write_scenario_bundle(
        out,
        services,
        users,
        qos_params=QosParams.defaults_for(args.r_s),
        w=args.w,
        mode=mode,
        seed=args.seed,
    )
    atomic_write_text(out / "meta.json", dump_json(_meta(args.seed, [args.input])))
    if not args.quiet:
        _summary(
            "ingest",
            services=len(services),
            users=len(users),
            skipped_rows=result.skipped_rows,
            rejected=len(result.rejected_ids),
            scenario=scenario_path,
        )
    return 0


def _select_users(scenario: Scenario, user_arg: str | None):
    if user_arg is None:
        return scenario.users
    matches = [u for u in scenario.users if u.id == user_arg]
    if matches:
        return matches
    candidate = Path(user_arg)
    if candidate.exists():
        from .trajectories import load_trajectories_csv

        return [UserTrajectory(id=i, trajectory=t) for i, t in load_trajectories_csv(candidate)]
    raise InvalidInputError(f"user {user_arg!r} not in scenario and not a readable CSV")


def _cmd_discover(args) -> int:
    scenario = load_scenario(args.scenario)
    users = _select_users(scenario, args.user)
    env = eval_mod.build_environment(scenario)
    blocks = []
    for user in users:
        # each user is visited once: no Environment cache, so the table is
        # freed once its block is built
        table = oracle_mod.discover(env.universe, user, env.qos_params, env.w, env.mode)
        plan = oracle_mod.optimal_plan(
            table, user, reward_scale=env.reward_scale, dummy_reward=scenario.rewards.dummy
        )
        blocks.append(
            {"user_id": user.id, "steps": oracle_mod.table_plan_json(table, plan, user)}
        )
    payload = {"meta": _meta(args.seed, [args.scenario]), "users": blocks}
    atomic_write_text(args.out, dump_json(payload))
    if not args.quiet:
        _summary("discover", users=len(blocks), out=args.out)
    return 0


def _cmd_train(args) -> int:
    scenario = load_scenario(args.scenario)
    config = _config_from(args)
    result, env, test_users = eval_mod.train_on_scenario(scenario, config)
    atomic_write_bytes(args.out, agent_mod.save_model(result.model))
    log_path = args.log or f"{args.out}.log.csv"
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["episode", "cum_reward", "epsilon", "loss"])
    for row in result.log:
        w.writerow([row.episode, repr(row.cum_reward), repr(row.epsilon), repr(row.loss)])
    atomic_write_text(log_path, buf.getvalue())
    if not args.quiet:
        _summary(
            "train",
            episodes=len(result.log),
            train_users=len(scenario.users) - len(test_users),
            model=args.out,
            log=log_path,
        )
    return 0


def _cmd_compose(args) -> int:
    scenario = load_scenario(args.scenario)
    model = agent_mod.load_model(read_input(args.model))
    users = _select_users(scenario, args.user)
    env = eval_mod.build_environment(scenario)
    blocks = []
    for user in users:
        plan = agent_mod.compose(model, env, user)
        blocks.append(
            {
                "user_id": user.id,
                "steps": [
                    {
                        "timestep": s.user_timestep,
                        "chosen": s.chosen,
                        "reward": s.reward,
                        "capacity_bps": s.capacity,
                    }
                    for s in plan.steps
                ],
                "total_reward": plan.total_reward(),
            }
        )
    payload = {"meta": _meta(args.seed, [args.scenario, args.model]), "plans": blocks}
    atomic_write_text(args.out, dump_json(payload))
    if not args.quiet:
        _summary("compose", users=len(blocks), out=args.out)
    return 0


def _series_csv_rows(mode: str, payload) -> list[list]:
    if mode == "accuracy":
        rows = [["trajectory_count", "accuracy", "error"]]
        rows += [
            [p.trajectory_count, repr(p.report.accuracy), repr(p.report.error)] for p in payload
        ]
        return rows
    if mode == "timing":
        rows = [["n_services", "phase", "wall_seconds"]]
        rows += [[r.n_services, r.phase, repr(r.wall_seconds)] for r in payload]
        return rows
    rows = [["n_services", "round", "moving_average"]]
    for rep in payload:
        rows += [[rep.n_services, rnd, repr(v)] for rnd, v in rep.series]
    return rows


def _cmd_evaluate(args) -> int:
    scenario = load_scenario(args.scenario)
    config = _config_from(args)
    out = Path(args.out)
    meta = _meta(args.seed, [args.scenario])
    exit_code = 0

    if args.mode == "accuracy":
        train_users, _ = split_train_test(scenario.users, seed=config.seed)
        counts = args.counts or [len(train_users)]
        points = eval_mod.run_accuracy_sweep(scenario, counts, config, lenient=args.lenient_validity)
        headline = points[-1].report
        payload = {
            "meta": meta,
            "mode": "accuracy",
            "points": [asdict(p) for p in points],
            "accuracy": headline.accuracy,
        }
        series = _series_csv_rows("accuracy", points)
        if args.require_accuracy is not None and headline.accuracy < args.require_accuracy:
            exit_code = 1
        summary_kv = dict(mode="accuracy", accuracy=f"{headline.accuracy:.4f}")
    elif args.mode == "timing":
        counts = args.counts or [len(scenario.services)]
        reports = eval_mod.run_timing(scenario, counts, config, repeats=args.repeats)
        payload = {"meta": meta, "mode": "timing", "reports": [asdict(r) for r in reports]}
        series = _series_csv_rows("timing", reports)
        summary_kv = dict(mode="timing", points=len(reports))
    else:
        counts = args.counts or [len(scenario.services)]
        reports = eval_mod.run_convergence(scenario, counts, config)
        payload = {"meta": meta, "mode": "convergence", "reports": [asdict(r) for r in reports]}
        series = _series_csv_rows("convergence", reports)
        summary_kv = dict(
            mode="convergence",
            rounds=",".join(str(r.convergence_round) for r in reports),
        )

    atomic_write_text(out, dump_json(payload))
    buf = io.StringIO()
    csv.writer(buf).writerows(series)
    atomic_write_text(out.with_name(f"{out.stem}.series.csv"), buf.getvalue())
    if not args.quiet:
        _summary("evaluate", **summary_kv, out=out)
    return exit_code


def dispatch(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    handlers = {
        "gen": _cmd_gen,
        "ingest": _cmd_ingest,
        "discover": _cmd_discover,
        "train": _cmd_train,
        "compose": _cmd_compose,
        "evaluate": _cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except MobicompError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
