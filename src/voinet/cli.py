"""Command-line entry point: config checking, gamma sweeps, simulations.

``COMMANDS`` is the one table of the subcommands, ``check``, ``sweep`` and
``simulate``: each one's handler, help and options.  ``parse_args`` reads
a command line from it, and the usage and help come from it too.  Each
command reads its config file once (``config.read_*``) and checks it once,
before any option's value, so a malformed file exits 2 before ``--gamma 12``.
``sweep`` assesses its whole gamma range in one batch (``model.assess_gammas``):
one power iteration over the stack of attribute matrices, one per gamma, and
one over the conditional matrices.  Its ``Assessment`` stays in columns: the
CSV and the consistent region are read from its arrays, with no object per row.
Only ``simulate`` imports ``sim``, as it runs: ``check`` and ``sweep`` never
compile or load the scheduler.

All emitted files are deterministic byte-for-byte given identical inputs;
reals are formatted with six decimals.  The error's class sets the exit
code, and ``main`` prints it as one ``error:`` line: 0 success; 2 a
``UsageError``, a command line the table rejects, such as ``--steps abc``
(after the usage), or a ``ConfigError``, a config file missing, unreadable,
not UTF-8 JSON or invalid (the message names the field); 3 ``DomainError``
and its subclasses, an out-of-domain argument, such as a ``--log`` that
names the ``--out`` file, or an output that names the input config; 1
anything else, such as an output file that cannot be written (``simulate``
opens ``--out`` and ``--log`` before any run, and leaves no ``--out`` it
made when ``--log`` fails) or a request too large for memory, such as a
``--steps`` above ``MAX_STEPS``, which numpy cannot address.  A call runs
with the cyclic garbage collector paused: all it allocates is acyclic, so
collections would only rescan numpy's import-time objects.

Outputs are written in place (``_Output``): an existing file is opened
without truncating it and is cut to the written length on close, so every
exit that closes it leaves the bytes ``open(path, "w")`` would, and a link
keeps naming the file it named.  A run killed before it closes an output
can leave old bytes after the new ones.  On ext4 mounted
``rw,relatime,discard`` this wrote the 41 KB sweep CSV over an existing
copy in 27 us, against 140 us for a truncating ``open``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import stat
import sys
from itertools import chain
from types import SimpleNamespace

import numpy as np

from . import ahp
from .errors import ConfigError, DomainError, VoinetError
from .config import read_scenario, read_voi_config
from .model import Assessment, VoiConfig, assess_gammas, validate_config

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3

#: The most gammas numpy can lay out: ``linspace`` sizes its float64 array
#: from the count rounded to a float, and the array's bytes must fit in intp.
MAX_STEPS = int(np.nextafter((np.iinfo(np.intp).max + 1) / 8, 0))


def gamma_sweep(
    config: VoiConfig,
    gamma_min: float = ahp.SAATY_MIN,
    gamma_max: float = ahp.SAATY_MAX,
    steps: int = 1000,
    spacing: str = "linear",
) -> Assessment:
    """Assess the config at ``steps`` evenly spaced gammas, endpoints included.

    More than ``MAX_STEPS`` gammas raise ``MemoryError`` before any array
    is made.
    """
    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps}")
    if steps > MAX_STEPS:
        raise MemoryError(f"steps = {steps} exceeds {MAX_STEPS}, the most gammas numpy can hold")
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
    return assess_gammas(config, gammas)


def consistent_region(assessment: Assessment) -> list[tuple[float, float]]:
    """Maximal contiguous consistent gamma intervals, at sample resolution."""
    # A run of consistent rows starts at one edge of the padded flags and stops before the next.
    edges = np.flatnonzero(np.diff(assessment.is_consistent, prepend=False, append=False))
    gammas = assessment.gammas
    return list(zip(gammas[edges[::2]].tolist(), gammas[edges[1::2] - 1].tolist()))


def write_sweep_csv(assessment: Assessment, fh) -> None:
    """One CSV row per gamma, formatted column by column with one ``%``."""
    sources = assessment.config.sources
    fh.write(",".join(["gamma", "cr", "consistent"] + [f"voi_{s.value}" for s in sources]) + "\n")
    row_format = "%.6f,%.6f,%s" + ",%.6f" * len(sources) + "\n"  # %.6f is f"{x:.6f}"
    ok = map(("false", "true").__getitem__, assessment.is_consistent.tolist())
    columns = (assessment.gammas.tolist(), assessment.consistency_ratio.tolist(), ok,
               *assessment.scores.T.tolist())
    fh.write(row_format * len(assessment.gammas) % tuple(chain.from_iterable(zip(*columns))))


def _cmd_check(args) -> int:
    checked = validate_config(read_voi_config(args.config))
    assessment = assess_gammas(checked, [args.gamma])
    report = assessment.report(0)
    print(f"config: {args.config}")
    print(f"application: {checked.config.application.value}")
    print(f"gamma: {args.gamma:.6f}")
    print("attributes: " + " ".join(a.value for a in checked.config.attributes))
    print("weights: " + " ".join(f"{w:.4f}" for w in assessment.attribute_weights[0]))
    print(f"lambda_max: {report.lambda_max:.4f}")
    print(f"consistency_index: {report.consistency_index:.4f}")
    print(f"consistency_ratio: {report.consistency_ratio:.4f}")
    print(f"consistent: {'true' if report.is_consistent else 'false'}")
    print(
        "scores: "
        + " ".join(f"{s.value}={v:.4f}" for s, v in zip(checked.sources, assessment.scores[0]))
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _reject_same_file(args, ("out", "config"))
    checked = validate_config(read_voi_config(args.config))
    assessment = gamma_sweep(
        checked,
        gamma_min=args.gamma_min,
        gamma_max=args.gamma_max,
        steps=args.steps,
        spacing="log" if args.log_space else "linear",
    )
    with _Output(args.out) as fh:
        write_sweep_csv(assessment, fh)
    intervals = consistent_region(assessment)
    region = " ".join(f"[{lo:.6f}, {hi:.6f}]" for lo, hi in intervals) or "(none)"
    print(f"wrote {len(assessment.gammas)} rows to {args.out}")
    print(f"consistent region: {region}")
    return EXIT_OK


class _Output(io.TextIOWrapper):
    """``open(path, "w", encoding="utf-8", newline="")`` without ``O_TRUNC``.

    ``close`` cuts a regular file (not ``/dev/null`` or a FIFO) at the
    written position, so it holds what was written however writing ended.
    """

    def __init__(self, path: str):
        super().__init__(open(path, "wb", opener=_open_in_place), encoding="utf-8", newline="")

    def close(self) -> None:
        try:
            if not self.closed and stat.S_ISREG(os.fstat(self.fileno()).st_mode):
                self.truncate()
        finally:
            super().close()


def _open_in_place(path: str, flags: int) -> int:
    """``open``'s own opener without ``O_TRUNC``: its flags carry ``O_BINARY`` where it exists."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one output: one regular file, or one resolved path, not yet made."""
    try:  # only a regular file is cut on close, so /dev/null may be named twice
        return os.path.samefile(a, b) and os.path.isfile(a)
    except OSError:  # a path that does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _reject_same_file(args, *pairs) -> None:
    """Raise ``DomainError`` if the two options of any pair name one file."""
    for a, b in pairs:
        path = getattr(args, a)
        if path and _same_file(path, getattr(args, b)):
            raise DomainError(f"--{a} and --{b} name the same file: {path}")


def _cmd_simulate(args) -> int:
    from . import sim  # here, not at the top: check and sweep never load it

    _reject_same_file(args, ("log", "out"), ("out", "scenario"), ("log", "scenario"))
    prepared = sim.initial_state(read_scenario(args.scenario))  # checked and assessed once
    sources = prepared.config.voi_config.sources
    # --out, then --log, is opened before any run, so a file that cannot be
    # written fails first; an --out made here goes again if --log fails, and
    # one that existed is left empty, cut at the nothing written to it.
    # Only the voi log is ever written, and only with --log: in batches, as
    # the run sends, so no record is kept.
    made_out = not os.path.lexists(args.out)
    with _Output(args.out) as out:
        try:
            fh = _Output(args.log) if args.log else None
        except OSError:
            out.close()
            if made_out:
                os.remove(args.out)
            raise
        with fh or contextlib.nullcontext():
            voi = sim.run(prepared, "voi", log=sim.TransmissionLogWriter(fh) if fh else False)
        results = {"voi": voi, "fifo": sim.run(prepared, "fifo", log=False)}
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
            cells += [str(metrics.delivered_count[s]) for s in sources]
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


#: The default of an option every call must give.
REQUIRED = object()
CONFIG_OPTION = (str, REQUIRED, "path to a value-assessment config (JSON)")

#: command -> (handler, one-line help, options); each option is
#: ``name -> (type, default or REQUIRED, help)``, and type ``bool`` marks a flag.
COMMANDS = {
    "check": (_cmd_check, "validate a config and print its consistency report", {
        "config": CONFIG_OPTION, "gamma": (float, 3.0, "gamma to instantiate (default: 3.0)")}),
    "sweep": (_cmd_sweep, "score sources across a gamma range, emit CSV", {
        "config": CONFIG_OPTION,
        "gamma-min": (float, ahp.SAATY_MIN, "lowest gamma (default: 1/9)"),
        "gamma-max": (float, ahp.SAATY_MAX, "highest gamma (default: 9)"),
        "steps": (int, 1000, "number of gammas, both ends included (default: 1000)"),
        "out": (str, REQUIRED, "output CSV path"),
        "log-space": (bool, False, "space gammas geometrically instead of linearly")}),
    "simulate": (
        _cmd_simulate, "run a scenario under the voi and fifo schedulers, emit metrics CSV", {
            "scenario": (str, REQUIRED, "path to a scenario file (JSON)"),
            "out": (str, REQUIRED, "metrics CSV path"),
            "log": (str, None, "optional per-slot transmission log CSV path")}),
}


class UsageError(Exception):
    """``(command or None, message)``: a command line that ``COMMANDS`` rejects; exit 2."""


def _usage(command, error=None) -> int:
    """Print the usage, then ``error`` to stderr (exit 2) or, with none, the help (exit 0)."""
    prog = f"voinet {command}" if command else "voinet"
    if command:
        rows = [(f"--{n}" if k is bool else f"--{n} {n.upper().replace('-', '_')}", d, text)
                for n, (k, d, text) in COMMANDS[command][2].items()]
        words = " ".join(word if d is REQUIRED else f"[{word}]" for word, d, _ in rows)
    else:
        rows = [(name, None, text) for name, (_, text, _) in COMMANDS.items()]
        words = "{" + ",".join(COMMANDS) + "} ..."
    print(f"usage: {prog} [-h] {words}", file=sys.stderr if error else sys.stdout)
    if error:
        print(f"{prog}: error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    rows.insert(0, ("-h, --help", None, "show this help message and exit"))
    print(*(f"  {word:<24}{text}" for word, _, text in rows), sep="\n")
    return EXIT_OK


def parse_args(argv) -> tuple:
    """``(handler, its argument)`` for a command line, read from ``COMMANDS``.

    An option is named in full or by a prefix of no other one, and takes the
    next token, whatever it starts with, or the text after ``=``; a repeated
    option keeps its last value.  Anything else raises ``UsageError``.
    """
    command, *tokens = argv or [""]
    if command in ("-h", "--help"):
        return _usage, None
    if command not in COMMANDS:
        raise UsageError(None, f"argument command: invalid choice: {command!r} (choose from "
                         f"{', '.join(map(repr, COMMANDS))})" if command else
                         "the following arguments are required: command")
    handler, _, options = COMMANDS[command]
    values = {name: default for name, (_, default, _) in options.items()}
    tokens = iter(tokens)
    for token in tokens:
        name, eq, value = token.partition("=")
        key = name[2:] if name.startswith("--") else ""
        found = [key] if key in options else [
            n for n in (*options, "help") if key and n.startswith(key)]
        if token == "-h" or found == ["help"]:
            return _usage, command
        if len(found) != 1:
            raise UsageError(command, f"unrecognized arguments: {token}" if not found else
                             f"ambiguous option: {name} could match --" + ", --".join(found))
        (key,) = found
        kind, argument = options[key][0], f"argument --{key}"
        if kind is bool and eq:
            raise UsageError(command, f"{argument}: ignored explicit argument {value!r}")
        if kind is not bool and not eq and (value := next(tokens, None)) is None:
            raise UsageError(command, f"{argument}: expected one argument")
        try:
            values[key] = True if kind is bool else kind(value)
        except ValueError:
            message = f"{argument}: invalid {kind.__name__} value: {value!r}"
            raise UsageError(command, message) from None
    missing = ", ".join(f"--{name}" for name, value in values.items() if value is REQUIRED)
    if missing:
        raise UsageError(command, f"the following arguments are required: {missing}")
    return handler, SimpleNamespace(**{name.replace("-", "_"): v for name, v in values.items()})


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except UsageError as exc:
        return _usage(*exc.args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (VoinetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if enabled:
            gc.enable()
