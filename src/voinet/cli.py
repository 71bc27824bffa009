"""Command-line entry point: config checking, gamma sweeps, simulations.

Subcommands:

* ``check``    validate a config and print its weights and consistency report
* ``sweep``    score sources across a range of gamma values, emit CSV; the
  whole range is one batched assessment (``model.assess_gammas``): one
  power iteration over the stack of attribute matrices, one per gamma, and
  one over the conditional matrices
* ``simulate`` run a scenario under the value scheduler and the FIFO
  baseline, emit a metrics CSV and optionally a transmission log

All emitted files are deterministic byte-for-byte given identical inputs;
reals are formatted with six decimals.  Exit codes: 0 success; 2 config
file missing, unreadable, not UTF-8 JSON or invalid (the message names
the field), or a command line that argparse rejects, such as
``--steps abc`` (it prints the usage); 3 out-of-domain argument, such as a
``--log`` that names the ``--out`` file, or an ``--out`` or ``--log`` that
names the input config; 1 anything else, such as an output
file that cannot be written (``simulate`` opens ``--out`` and ``--log`` before
any run, and leaves no ``--out`` it made when ``--log`` fails) or a request
too large for memory, such as ``sweep --steps 1000000000000000``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

import numpy as np

from . import ahp
from .errors import (
    ConfigError,
    DomainError,
    StructureError,
    TemporalOrderError,
    UnsupportedDimensionError,
    VoinetError,
)
from .config import load_scenario, load_voi_config
from .model import VoiConfig, assess_gammas
from .sim import TransmissionLogWriter, run

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3

_DOMAIN_ERRORS = (DomainError, StructureError, UnsupportedDimensionError, TemporalOrderError)


class SweepRow(NamedTuple):
    """Assessment outcome at one gamma value (an immutable tuple)."""

    gamma: float
    cr: float
    is_consistent: bool
    scores: tuple[float, ...]


def gamma_sweep(
    config: VoiConfig,
    gamma_min: float = ahp.SAATY_MIN,
    gamma_max: float = ahp.SAATY_MAX,
    steps: int = 1000,
    spacing: str = "linear",
) -> list[SweepRow]:
    """Assess the config at ``steps`` evenly spaced gammas, endpoints included."""
    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps}")
    if not (ahp.SAATY_MIN <= gamma_min <= gamma_max <= ahp.SAATY_MAX):
        raise DomainError(
            f"sweep range [{gamma_min}, {gamma_max}] must lie within [1/9, 9]"
        )
    if spacing == "linear":
        gammas = np.linspace(gamma_min, gamma_max, steps)
    elif spacing == "log":
        gammas = np.geomspace(gamma_min, gamma_max, steps)
    else:
        raise DomainError(f"unknown spacing {spacing!r}; expected 'linear' or 'log'")
    assessment = assess_gammas(config, gammas)
    cr, ok = assessment.consistency_ratio.tolist(), assessment.is_consistent.tolist()
    return list(map(SweepRow, gammas.tolist(), cr, ok, map(tuple, assessment.scores.tolist())))


def consistent_region(rows: list[SweepRow]) -> list[tuple[float, float]]:
    """Maximal contiguous consistent gamma intervals, at sample resolution."""
    intervals = []
    start = None
    previous = None
    for row in rows:
        if row.is_consistent:
            if start is None:
                start = row.gamma
            previous = row.gamma
        elif start is not None:
            intervals.append((start, previous))
            start = None
    if start is not None:
        intervals.append((start, previous))
    return intervals


def write_sweep_csv(rows: list[SweepRow], config: VoiConfig, fh) -> None:
    header = ["gamma", "cr", "consistent"] + [f"voi_{s.value}" for s in config.sources]
    fh.write(",".join(header) + "\n")
    row_format = "%.6f,%.6f,%s" + ",%.6f" * len(config.sources) + "\n"  # %.6f is f"{x:.6f}"
    fh.write("".join(row_format % (g, cr, "true" if ok else "false", *s) for g, cr, ok, s in rows))


def _cmd_check(args) -> int:
    config = load_voi_config(args.config)
    assessment = assess_gammas(config, [args.gamma])
    solved = assessment.solved(0)
    report = ahp.consistency(solved, config.cr_threshold)
    print(f"config: {args.config}")
    print(f"application: {config.application.value}")
    print(f"gamma: {args.gamma:.6f}")
    print("attributes: " + " ".join(a.value for a in config.attributes))
    print("weights: " + " ".join(f"{w:.4f}" for w in solved.weights))
    print(f"lambda_max: {report.lambda_max:.4f}")
    print(f"consistency_index: {report.consistency_index:.4f}")
    print(f"consistency_ratio: {report.consistency_ratio:.4f}")
    print(f"consistent: {'true' if report.is_consistent else 'false'}")
    print(
        "scores: "
        + " ".join(f"{s.value}={v:.4f}" for s, v in zip(config.sources, assessment.scores[0]))
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _reject_same_file(args, ("out", "config"))
    config = load_voi_config(args.config)
    rows = gamma_sweep(
        config,
        gamma_min=args.gamma_min,
        gamma_max=args.gamma_max,
        steps=args.steps,
        spacing="log" if args.log_space else "linear",
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(rows, config, fh)
    intervals = consistent_region(rows)
    region = " ".join(f"[{lo:.6f}, {hi:.6f}]" for lo, hi in intervals) or "(none)"
    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"consistent region: {region}")
    return EXIT_OK


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: one resolved path, or one existing file."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)  # hard links to one file
    except OSError:  # a path that does not exist yet
        return False


def _reject_same_file(args, *pairs) -> None:
    """Raise ``DomainError`` if the two options of any pair name one file."""
    for a, b in pairs:
        path = getattr(args, a)
        if path and _same_file(path, getattr(args, b)):
            raise DomainError(f"--{a} and --{b} name the same file: {path}")


def _cmd_simulate(args) -> int:
    _reject_same_file(args, ("log", "out"), ("out", "scenario"), ("log", "scenario"))
    scenario = load_scenario(args.scenario)
    sources = scenario.voi_config.sources
    # --out, then --log, is opened before any run, so a file that cannot be
    # written fails first; an --out made here goes again if --log fails.
    # Only the voi log is ever written, and only with --log: row by row, as
    # the run sends, so no record is kept.
    made_out = not os.path.lexists(args.out)
    with open(args.out, "w", encoding="utf-8", newline="") as out:
        try:
            fh = open(args.log, "w", encoding="utf-8", newline="") if args.log else None
        except OSError:
            out.close()
            if made_out:
                os.remove(args.out)
            raise
        if fh is None:
            voi = run(scenario, "voi", log=False)
        else:
            with fh:
                voi = run(scenario, "voi", log=TransmissionLogWriter(fh))
        results = {"voi": voi, "fifo": run(scenario, "fifo", log=False)}
        header = ["scheduler", "generated", "delivered", "dropped", "residual"]
        header += [f"delivered_{s.value}" for s in sources]
        header += ["delivered_value", "mean_age_ms", "max_age_ms", "utilization"]
        out.write(",".join(header) + "\n")
        for policy, (metrics, _) in results.items():
            cells = [
                policy,
                str(metrics.generated_count),
                str(metrics.delivered_total),
                str(metrics.dropped_count),
                str(metrics.residual_count),
            ]
            cells += [str(metrics.delivered_count.get(s, 0)) for s in sources]
            cells += [
                f"{metrics.delivered_value:.6f}",
                f"{metrics.mean_age_at_delivery_ms:.6f}",
                f"{metrics.max_age_at_delivery_ms:.6f}",
                f"{metrics.channel_utilization:.6f}",
            ]
            out.write(",".join(cells) + "\n")
    for policy, (metrics, _) in results.items():
        print(
            f"scheduler={policy} delivered_value={metrics.delivered_value:.6f} "
            f"delivered={metrics.delivered_total} dropped={metrics.dropped_count} "
            f"residual={metrics.residual_count} "
            f"utilization={metrics.channel_utilization:.6f}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voinet",
        description="Score vehicular information sources and simulate value-driven dissemination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a config and print its consistency report")
    p_check.add_argument("--config", required=True, help="path to a value-assessment config (JSON)")
    p_check.add_argument("--gamma", type=float, default=3.0, help="gamma to instantiate (default: 3.0)")
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="score sources across a gamma range, emit CSV")
    p_sweep.add_argument("--config", required=True, help="path to a value-assessment config (JSON)")
    p_sweep.add_argument("--gamma-min", type=float, default=ahp.SAATY_MIN)
    p_sweep.add_argument("--gamma-max", type=float, default=ahp.SAATY_MAX)
    p_sweep.add_argument("--steps", type=int, default=1000)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument(
        "--log-space", action="store_true", help="space gammas geometrically instead of linearly"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser(
        "simulate", help="run a scenario under the voi and fifo schedulers, emit metrics CSV"
    )
    p_sim.add_argument("--scenario", required=True, help="path to a scenario file (JSON)")
    p_sim.add_argument("--out", required=True, help="metrics CSV path")
    p_sim.add_argument("--log", help="optional per-slot transmission log CSV path")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (VoinetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
