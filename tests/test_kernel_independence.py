"""The same bits in every environment: a table of fresh interpreters.

OpenBLAS picks its kernels per CPU at run time, and ``OPENBLAS_CORETYPE``
forces one.  ``ahp`` makes no BLAS call, so a 1000-gamma assessment of the
bundled config must come out byte for byte the same under each kernel.
Each kernel runs in its own process, because OpenBLAS reads the variable
once, when numpy loads it.

The environment table runs the command line as a user does,
``python -X dev -W error -m voinet``, with every warning, ``ResourceWarning``
included, raised as an error, and requires ``sweep`` and ``simulate --log`` to
write ``results/`` byte for byte in each row: two fixed hash seeds (the
benchmark pins ``PYTHONHASHSEED=0``, so nothing else would catch an output that
follows ``str`` hash order), each forced OpenBLAS kernel, and numpy with every
dispatched SIMD kernel turned off (the solver's ufuncs pick theirs per CPU at
import, and ``NPY_DISABLE_CPU_FEATURES`` leaves the baseline ones).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy._core._multiarray_umath as multiarray_umath
import pytest

import voinet

from conftest import REPO_ROOT

CORETYPES = (None, "Prescott", "Haswell", "SkylakeX")  # None: the kernel picked for this CPU

#: The variables a row may set; each fresh interpreter starts without them.
ROW_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "PYTHONHASHSEED")

ASSESS = """
import hashlib, sys
import numpy as np
from voinet.config import load_voi_config
from voinet.model import assess_gammas

assessment = assess_gammas(load_voi_config(sys.argv[1]), np.linspace(1 / 9, 9, 1000))
for name in ("scores", "consistency_ratio", "attribute_weights"):
    data = np.ascontiguousarray(getattr(assessment, name)).tobytes()
    print(name, hashlib.sha256(data).hexdigest())
"""


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return ""


OPENBLAS = pytest.mark.skipif("openblas" not in blas_name().lower(),
                              reason="numpy's BLAS is not OpenBLAS")


def run_under(row, argv):
    """Run ``python argv`` in a fresh interpreter whose environment sets ``row``."""
    env = {name: value for name, value in os.environ.items() if name not in ROW_VARIABLES}
    env.update(row)
    src = str(Path(voinet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)


@OPENBLAS
def test_sweep_bits_do_not_depend_on_the_blas_kernel(configs_dir):
    outputs = {}
    for coretype in CORETYPES:
        row = {} if coretype is None else {"OPENBLAS_CORETYPE": coretype}
        result = run_under(row, ["-c", ASSESS, str(configs_dir / "safety.json")])
        # Killed by a signal: the forced kernel uses instructions this CPU
        # lacks (SkylakeX needs AVX-512), so it cannot run here at all.
        if result.returncode < 0:
            continue
        assert result.returncode == 0, (coretype, result.stderr)
        outputs[coretype] = result.stdout
    assert None in outputs and "Prescott" in outputs
    assert len(outputs[None].splitlines()) == 3
    for coretype, output in outputs.items():
        assert output == outputs[None], coretype


SWEEP = ("sweep", "--config", "{configs}/safety.json", "--out", "{tmp}/sweep_safety.csv")
SIMULATE = ("simulate", "--scenario", "{configs}/overload_scenario.json",
            "--out", "{tmp}/overload_metrics.csv", "--log", "{tmp}/overload_log.csv")
#: Run once, in the first row: the module's own entry point, ``check``, and
#: ``simulate`` without ``--log``, the path the fleet benchmark times.
ONCE = (("--help",), ("check", "--config", "{configs}/safety.json"),
        ("simulate", "--scenario", "{configs}/overload_scenario.json",
         "--out", "{tmp}/overload_metrics.csv"))

ROWS = [
    pytest.param({"PYTHONHASHSEED": "0"}, ONCE + (SWEEP, SIMULATE), id="PYTHONHASHSEED=0"),
    pytest.param({"PYTHONHASHSEED": "4242"}, (SWEEP, SIMULATE), id="PYTHONHASHSEED=4242"),
    *(pytest.param({"OPENBLAS_CORETYPE": coretype}, (SWEEP, SIMULATE), marks=OPENBLAS,
                   id=f"OPENBLAS_CORETYPE={coretype}")
      for coretype in CORETYPES[1:]),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": " ".join(multiarray_umath.__cpu_dispatch__)},
                 (SWEEP, SIMULATE), id="NPY_DISABLE_CPU_FEATURES"),
]


@pytest.mark.parametrize(("row", "commands"), ROWS)
def test_the_command_line_writes_the_results_in_every_environment(
        tmp_path, configs_dir, row, commands):
    for command in commands:
        argv = [arg.format(configs=configs_dir, tmp=tmp_path) for arg in command]
        result = run_under(row, ["-X", "dev", "-W", "error", "-m", "voinet", *argv])
        # Only SkylakeX may die by a signal: it needs AVX-512, which this CPU
        # may lack.  In any other row a signal is a crash, and fails.
        if result.returncode < 0 and row.get("OPENBLAS_CORETYPE") == "SkylakeX":
            pytest.skip(f"SkylakeX killed by signal {-result.returncode}")
        assert result.returncode == 0, (argv, row, result.returncode, result.stderr)
        outputs = [Path(path) for flag, path in zip(argv, argv[1:]) if flag in ("--out", "--log")]
        for path in outputs:
            assert path.read_bytes() == (REPO_ROOT / "results" / path.name).read_bytes(), argv
