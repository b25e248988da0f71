"""Single entry point wiring the full workflow:
generate/ingest -> discover -> train -> compose -> evaluate.

Every subcommand is deterministic given its inputs and seed, never mutates
its inputs, writes outputs atomically, and prints one machine-parseable
summary line. Emitted artifacts carry a ``meta`` block (tool version, seed,
input hashes) for provenance; no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from . import agent as agent_mod
from . import evaluation as eval_mod
from . import oracle as oracle_mod
from .agent import AgentConfig
from .datasets import (
    DEFAULT_SEED,
    DEFAULT_SERVICE_QOS,
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
    write_csv,
)
from .qos import QosParams
from .trajectories import (
    USER_ID_PREFIX,
    DistanceMode,
    MovingService,
    UserTrajectory,
    load_trajectories_csv,
)


def _meta(seed: int, inputs: dict[str, str | Path]) -> dict:
    """Provenance block; input hashes are keyed by the input's role (``spec``,
    ``input``, ``scenario``, ``model``), so the bytes do not depend on how a
    path was spelled."""
    return {
        "tool": "mobicomp",
        "version": __version__,
        "seed": seed,
        "input_hashes": {role: sha256_file(p) for role, p in inputs.items()},
    }


def _summary(cmd: str, **kv) -> None:
    parts = " ".join(f"{k}={v}" for k, v in kv.items())
    print(f"{cmd} ok {parts}".rstrip())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master RNG seed")
    p.add_argument("--quiet", action="store_true", help="suppress the summary line")


def _agent_flags(p: argparse.ArgumentParser) -> None:
    d = AgentConfig()
    p.add_argument("--gamma", type=float, default=d.gamma)
    p.add_argument("--epsilon-decay", type=float, default=d.epsilon_decay)
    p.add_argument("--epsilon-min", type=float, default=d.epsilon_min)
    p.add_argument("--memory", type=int, default=d.memory_capacity)
    p.add_argument("--batch", type=int, default=d.batch_size)
    p.add_argument("--repetition", type=int, default=d.repetition)
    p.add_argument("--lr", type=float, default=d.lr)
    p.add_argument("--train-interval", type=int, default=d.train_interval)
    p.add_argument("--hidden", type=int, nargs="+", default=d.hidden_layers)
    p.add_argument("--dropout", type=float, default=d.dropout_p)


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
    p.add_argument(
        "--r-s", type=float, default=ScenarioSpec.r_s_meters, help="search/sensing radius, metres"
    )
    p.add_argument(
        "--w", type=int, default=ScenarioSpec.w, help="minimum consecutive pairing length"
    )
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
    p.add_argument(
        "--counts", type=int, nargs="+",
        help="sweep points. accuracy: training trajectories, each in 1..(70%% split size), "
        "ascending; timing and convergence: services, each in 0..(universe size). "
        "Default: the whole split or universe",
    )
    p.add_argument("--require-accuracy", type=float, help="exit non-zero below this accuracy")
    p.add_argument("--lenient-validity", action="store_true", help="count any valid pick as correct")
    p.add_argument("--repeats", type=int, default=5, help="timing repetitions, >= 1")
    _agent_flags(p)
    _add_common(p)

    sub.add_parser("version", help="print the tool version")
    return parser


def _cmd_gen(args) -> int:
    if args.spec:
        doc = read_json_object(args.spec)
        try:
            spec = ScenarioSpec.from_dict(doc)
        except (TypeError, InvalidInputError) as exc:  # missing, unknown or bad fields
            raise InvalidInputError(f"{args.spec}: bad scenario spec: {exc}") from None
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        inputs = {"spec": args.spec}
    else:
        spec = default_scenario_spec(seed=DEFAULT_SEED if args.seed is None else args.seed)
        inputs = {}
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
    if args.w < 1:
        raise InvalidInputError(f"--w must be >= 1, got {args.w}")
    qos_params = QosParams.defaults_for(args.r_s)
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
            bandwidth_b=DEFAULT_SERVICE_QOS["bandwidth_bps"],
            max_concurrent_k=DEFAULT_SERVICE_QOS["max_concurrent"],
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
        qos_params=qos_params,
        w=args.w,
        mode=mode,
        seed=args.seed,
    )
    atomic_write_text(out / "meta.json", dump_json(_meta(args.seed, {"input": args.input})))
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
    payload = {"meta": _meta(args.seed, {"scenario": args.scenario}), "users": blocks}
    atomic_write_text(args.out, dump_json(payload))
    if not args.quiet:
        _summary("discover", users=len(blocks), out=args.out)
    return 0


def _cmd_train(args) -> int:
    scenario = load_scenario(args.scenario)
    config = _config_from(args)
    train_users, _ = split_train_test(scenario.users, seed=config.seed)
    result, _ = eval_mod.train_on_scenario(scenario, train_users, config)
    atomic_write_bytes(args.out, agent_mod.save_model(result.model))
    log_path = args.log or f"{args.out}.log.csv"
    rows = [["episode", "cum_reward", "epsilon", "loss"]]
    rows += ([r.episode, r.cum_reward, r.epsilon, r.loss] for r in result.log)
    write_csv(log_path, rows)
    if not args.quiet:
        _summary(
            "train",
            episodes=len(result.log),
            train_users=len(train_users),
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
    meta = _meta(args.seed, {"scenario": args.scenario, "model": args.model})
    payload = {"meta": meta, "plans": blocks}
    atomic_write_text(args.out, dump_json(payload))
    if not args.quiet:
        _summary("compose", users=len(blocks), out=args.out)
    return 0


def _cmd_evaluate(args) -> int:
    scenario = load_scenario(args.scenario)
    config = _config_from(args)
    out = Path(args.out)
    meta = _meta(args.seed, {"scenario": args.scenario})
    exit_code = 0

    if args.mode == "accuracy":
        points = eval_mod.run_accuracy_sweep(
            scenario, args.counts, config, lenient=args.lenient_validity
        )
        headline = points[-1].report
        payload = {
            "meta": meta,
            "mode": "accuracy",
            "points": [asdict(p) for p in points],
            "accuracy": headline.accuracy,
        }
        series = [["trajectory_count", "accuracy", "error"]]
        series += ([p.trajectory_count, p.report.accuracy, p.report.error] for p in points)
        if args.require_accuracy is not None and headline.accuracy < args.require_accuracy:
            exit_code = 1
        summary_kv = dict(mode="accuracy", accuracy=f"{headline.accuracy:.4f}")
    elif args.mode == "timing":
        reports = eval_mod.run_timing(scenario, args.counts, config, repeats=args.repeats)
        payload = {"meta": meta, "mode": "timing", "reports": [asdict(r) for r in reports]}
        series = [["n_services", "phase", "wall_seconds"]]
        series += ([r.n_services, r.phase, r.wall_seconds] for r in reports)
        summary_kv = dict(mode="timing", points=len(reports))
    else:
        reports = eval_mod.run_convergence(scenario, args.counts, config)
        payload = {"meta": meta, "mode": "convergence", "reports": [asdict(r) for r in reports]}
        series = [["n_services", "round", "moving_average"]]
        series += ([r.n_services, rnd, v] for r in reports for rnd, v in r.series)
        summary_kv = dict(
            mode="convergence",
            rounds=",".join(str(r.convergence_round) for r in reports),
        )

    atomic_write_text(out, dump_json(payload))
    write_csv(out.with_name(f"{out.stem}.series.csv"), series)
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
