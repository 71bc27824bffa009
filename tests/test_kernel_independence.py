"""The batched solve gives the same bits under every OpenBLAS kernel.

OpenBLAS picks its kernels per CPU at run time, and ``OPENBLAS_CORETYPE``
forces one.  ``ahp`` makes no BLAS call, so a 1000-gamma assessment of the
bundled config must come out byte for byte the same under each kernel.
Each kernel runs in its own process, because OpenBLAS reads the variable
once, when numpy loads it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voinet

CORETYPES = (None, "Prescott", "Haswell", "SkylakeX")  # None: the kernel picked for this CPU

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


def assess_under(coretype, config_path):
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(Path(voinet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", ASSESS, str(config_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.skipif("openblas" not in blas_name().lower(), reason="numpy's BLAS is not OpenBLAS")
def test_sweep_bits_do_not_depend_on_the_blas_kernel(configs_dir):
    outputs = {}
    for coretype in CORETYPES:
        result = assess_under(coretype, configs_dir / "safety.json")
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
