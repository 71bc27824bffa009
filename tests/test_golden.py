"""Byte-for-byte equivalence of the CLI outputs with the committed ``results/`` files.

The files in ``results/`` are the goldens that ``python -m voinet sweep`` and
``simulate`` write on the bundled configs (README, "Regenerating the results");
any change to parsing, scoring, scheduling or formatting that alters one output
byte fails here.
"""

from voinet.cli import main

from conftest import REPO_ROOT

RESULTS = REPO_ROOT / "results"
CONFIGS = REPO_ROOT / "configs"


def test_sweep_matches_golden(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--config", str(CONFIGS / "safety.json"), "--steps", "1000", "--out", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    assert out.read_bytes() == (RESULTS / "sweep_safety.csv").read_bytes()


def test_simulate_matches_golden(tmp_path, capsys):
    out, log = tmp_path / "metrics.csv", tmp_path / "log.csv"
    args = ["simulate", "--scenario", str(CONFIGS / "overload_scenario.json"),
            "--out", str(out), "--log", str(log)]
    assert main(args) == 0
    capsys.readouterr()
    assert out.read_bytes() == (RESULTS / "overload_metrics.csv").read_bytes()
    assert log.read_bytes() == (RESULTS / "overload_log.csv").read_bytes()


def test_simulate_without_log_matches_golden_metrics(tmp_path, capsys):
    # The metrics of a run that writes no log are those of the logged run.
    out = tmp_path / "metrics.csv"
    args = ["simulate", "--scenario", str(CONFIGS / "overload_scenario.json"), "--out", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    assert out.read_bytes() == (RESULTS / "overload_metrics.csv").read_bytes()
