"""Command-line front end: config loading, phase commands, and simulate.

One JSON config file drives every subcommand; its keys mirror the pipeline
configuration field names. Command-line flags override file values, and the
file overrides desk-scale defaults, so an empty config is a runnable one.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .bo import ConstraintSpec
from .domain import GaitParameter, SeedSpec, _items, _read_json, _real
from .errors import ConfigurationError, GaitBoError, GridNodeError, RangeError
from .objective import ObjectiveConfig, evaluate_cost
from .pipeline import (
    PipelineConfig,
    baseline_table,
    benchmark,
    desk_scale_config,
    extract_safe_set,
    learn_real,
    learn_sim,
    full_scale_config,
)
from .plant import (
    disturbance_free,
    learning_profile,
    real_config,
    run_episode,
    sim_config,
    stepping_start,
    write_csv,
)
from .safeset import load_polyhedron
from .scheduler import load_table

__all__ = ["CliConfig", "load_cli_config", "main"]

_PIPELINE_KEYS = {f.name for f in dataclasses.fields(PipelineConfig)}
_CLI_KEYS = {"scale", "output_dir", "plant", "verbose"}
_GAIT_SETS = {"p_sim1", "p_sim2", "p_real"}
_SECTIONS = {"objective": ObjectiveConfig, "constraint": ConstraintSpec}


@dataclasses.dataclass(frozen=True)
class CliConfig:
    """A parsed pipeline configuration plus the artifact plumbing around it."""

    pipeline: PipelineConfig
    output_dir: str = "."
    plant: str | None = None
    verbose: bool = False

    def __post_init__(self):
        if self.plant is not None and self.plant not in ("sim", "real"):
            raise ConfigurationError(
                f"plant must be 'sim' or 'real', got {self.plant!r}")


def _gait_list(values, name: str) -> tuple:
    gaits = []
    for entry in _items(values, name, "a list of [vx, vy, h] triples"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ConfigurationError(
                f"{name} entries must be [vx, vy, h] triples, got {entry!r}")
        gaits.append(GaitParameter(*(_real(v, f"{name} coordinate") for v in entry)))
    return tuple(gaits)


def load_cli_config(path=None, seed=None, output_dir=None, plant=None,
                    verbose=False) -> CliConfig:
    """Merge defaults, the config file, and flag overrides, in that order."""
    data = {}
    if path is not None:
        data = _read_json(path, "config file")
        if not isinstance(data, dict):
            raise ConfigurationError("config file must hold a JSON object")

    unknown = set(data) - _PIPELINE_KEYS - _CLI_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")

    scale = data.pop("scale", "desk")
    if scale == "desk":
        base = desk_scale_config()
    elif scale == "full":
        base = full_scale_config()
    else:
        raise ConfigurationError(f"scale must be 'desk' or 'full', got {scale!r}")

    file_output_dir = data.pop("output_dir", None)
    file_plant = data.pop("plant", None)
    file_verbose = data.pop("verbose", False)
    if not isinstance(file_verbose, bool):
        raise ConfigurationError(f"verbose must be true or false, got {file_verbose!r}")
    if file_output_dir is not None and not isinstance(file_output_dir, str):
        raise ConfigurationError(f"output_dir must be a string, got {file_output_dir!r}")

    merged = {f.name: getattr(base, f.name)
              for f in dataclasses.fields(PipelineConfig)}
    try:
        for key, value in data.items():
            if key in _GAIT_SETS:
                merged[key] = _gait_list(value, key)
            elif key in _SECTIONS:
                if not isinstance(value, dict):
                    raise ConfigurationError(f"{key} must be a JSON object, got {value!r}")
                merged[key] = _SECTIONS[key](**value)
            else:
                merged[key] = value
        if seed is not None:
            merged["seed"] = seed
        pipeline = PipelineConfig(**merged)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"invalid config: {exc}") from exc

    return CliConfig(
        pipeline=pipeline,
        output_dir=output_dir if output_dir is not None else (file_output_dir or "."),
        plant=plant if plant is not None else file_plant,
        verbose=verbose or file_verbose,
    )


def _plant_config(name: str):
    return sim_config() if name == "sim" else real_config()


def _table_path(cli: CliConfig, override, default_name: str) -> str:
    return override if override else os.path.join(cli.output_dir, default_name)


def _check_output(path: str, directory: bool) -> None:
    """Reject an output path that cannot be written, before anything runs: a
    file path that names a directory, or a directory (a file's, for a file
    path) that is an existing file or lies under one. Nothing is created."""
    if not directory and os.path.isdir(path):
        raise ConfigurationError(f"output file {path} is a directory")
    head = path if directory else os.path.dirname(path)
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise ConfigurationError(f"cannot write to {path}: {head} is not a directory")


def _cmd_learn_sim(cli: CliConfig, args) -> int:
    table_path = os.path.join(cli.output_dir, "gaintable_sim.json")
    learn_sim(cli.pipeline, out_dir=cli.output_dir)
    print(f"wrote {table_path}")
    return 0


def _cmd_extract_safeset(cli: CliConfig, args) -> int:
    table = load_table(_table_path(cli, args.table, "gaintable_sim.json"))
    sweep, _ = extract_safe_set(table, cli.pipeline, out_dir=cli.output_dir)
    print(f"{len(sweep.feasible_commands)}/{len(sweep.grid)} commands feasible")
    print(f"wrote {os.path.join(cli.output_dir, 'safeset.json')}")
    return 0


def _cmd_learn_real(cli: CliConfig, args) -> int:
    table = load_table(_table_path(cli, args.table, "gaintable_sim.json"))
    safeset_path = args.safeset or os.path.join(cli.output_dir, "safeset.json")
    poly = load_polyhedron(safeset_path)
    plant = _plant_config(cli.plant or "real")
    learn_real(table, poly, cli.pipeline, out_dir=cli.output_dir, plant=plant)
    print(f"wrote {os.path.join(cli.output_dir, 'gaintable_real.json')}")
    return 0


def _cmd_benchmark(cli: CliConfig, args) -> int:
    table = load_table(_table_path(cli, args.table, "gaintable_real.json"))
    if args.against:
        other = load_table(args.against)
        labels = ("tuned", os.path.basename(args.against))
    else:
        other = baseline_table(cli.pipeline)
        labels = ("tuned", "baseline")
    plant = _plant_config(cli.plant or "real")
    report = benchmark(table, other, cli.pipeline, plant, out_dir=cli.output_dir,
                       labels=labels)
    print(f"{labels[0]}: {report.table_a.feasible_count}/{report.grid_size} feasible; "
          f"{labels[1]}: {report.table_b.feasible_count}/{report.grid_size}")
    print(f"wrote {os.path.join(cli.output_dir, 'benchmark.json')}")
    return 0


def _cmd_simulate(cli: CliConfig, args) -> int:
    table = load_table(args.table)
    try:
        command = GaitParameter(*args.command)
    except ValueError as exc:
        raise ConfigurationError(f"invalid --command: {exc}") from exc
    plant = _plant_config(cli.plant or "sim")
    if args.disturbance_free:
        plant = disturbance_free(plant)
    seed = SeedSpec(cli.pipeline.seed)
    traj = run_episode(plant, table, learning_profile(command),
                       stepping_start(command), seed)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    write_csv(traj, args.out)
    cost = evaluate_cost(traj, command, cli.pipeline.objective)
    if traj.fell:
        print(f"fell at t={traj.fall_time:g}s")
    print(f"cost {cost:.6g}")
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitbo",
        description="Learn, verify, and exercise gain-scheduled PD controllers "
                    "for gait tracking.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; keys mirror the "
                                        "pipeline configuration")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--output-dir", help="artifact directory (default .)")
        p.add_argument("--verbose", action="store_true", help="log progress")

    p = sub.add_parser("learn-sim", help="tune gains per gait in simulation")
    common(p)

    p = sub.add_parser("extract-safeset", help="sweep commands and hull the safe set")
    common(p)
    p.add_argument("--table", help="gain table (default <output-dir>/gaintable_sim.json)")

    p = sub.add_parser("learn-real", help="learn corrections on the real plant")
    common(p)
    p.add_argument("--table", help="gain table (default <output-dir>/gaintable_sim.json)")
    p.add_argument("--safeset", help="safe set (default <output-dir>/safeset.json)")

    p = sub.add_parser("benchmark", help="sweep two tables over the same commands")
    common(p)
    p.add_argument("--table", help="tuned table (default <output-dir>/gaintable_real.json)")
    p.add_argument("--against", help="comparison table (default: random baseline)")
    p.add_argument("--plant", choices=("sim", "real"), help="plant to sweep on")

    p = sub.add_parser("simulate", help="run one episode and write its CSV")
    common(p)
    p.add_argument("--table", required=True, help="gain table to drive")
    p.add_argument("--command", required=True, nargs=3, type=float,
                   metavar=("VX", "VY", "H"), help="commanded gait")
    p.add_argument("--plant", choices=("sim", "real"),
                   help="plant to run on (default sim)")
    p.add_argument("--disturbance-free", action="store_true",
                   help="zero out drift, coupling, and noise")
    p.add_argument("--out", help="trajectory CSV path "
                                 "(default <output-dir>/trajectory.csv)")
    return parser


_HANDLERS = {
    "learn-sim": _cmd_learn_sim,
    "extract-safeset": _cmd_extract_safeset,
    "learn-real": _cmd_learn_real,
    "benchmark": _cmd_benchmark,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cli = load_cli_config(
            path=args.config,
            seed=args.seed,
            output_dir=args.output_dir,
            plant=getattr(args, "plant", None),
            verbose=args.verbose,
        )
        logging.basicConfig(
            level=logging.INFO if cli.verbose else logging.WARNING,
            format="%(message)s",
        )
        if args.subcommand == "simulate":
            args.out = args.out or os.path.join(cli.output_dir, "trajectory.csv")
            _check_output(args.out, directory=False)
        else:
            _check_output(cli.output_dir, directory=True)
        return _HANDLERS[args.subcommand](cli, args)
    except (ConfigurationError, RangeError, GridNodeError) as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    except GaitBoError as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
