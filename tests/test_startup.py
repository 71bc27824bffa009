"""Start-up builds only what a command runs.

``check`` and ``sweep`` never import ``voinet.sim``; ``simulate`` does.  Each
case runs in its own process, as every command does.  The read-only
records are ``NamedTuple``s: they keep their fields, in order, build by
position and by keyword, and refuse assignment as the frozen dataclasses
they replace did.
"""

import subprocess
import sys

import numpy as np
import pytest

from voinet import ahp, sim
from voinet.model import Metadata, SourceKind

#: Prints whether ``voinet.sim`` was loaded after the CLI ran ``sys.argv[1:]``, if any.
SCRIPT = (
    "import sys\n"
    "import voinet, voinet.cli\n"
    "code = voinet.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(code, 'voinet.sim' in sys.modules)\n"
)


@pytest.mark.parametrize(("command", "loads_sim"), [
    ([], False),
    (["check", "--config", "{configs}/safety.json"], False),
    (["sweep", "--config", "{configs}/safety.json", "--steps", "11", "--out", "{tmp}/out.csv"],
     False),
    (["simulate", "--scenario", "{configs}/overload_scenario.json", "--out", "{tmp}/out.csv"],
     True),
], ids=["import", "check", "sweep", "simulate"])
def test_only_simulate_imports_sim(configs_dir, tmp_path, command, loads_sim):
    argv = [arg.format(configs=configs_dir, tmp=tmp_path) for arg in command]
    result = subprocess.run([sys.executable, "-c", SCRIPT, *argv],
                            capture_output=True, text=True)
    assert result.stderr == ""
    assert result.stdout.splitlines()[-1] == f"0 {loads_sim}"


META = Metadata(SourceKind.POSITION, 0.0, (0.0, 0.0), 100, 1.0)

#: Each record, its fields in order, and one value per field (``Violation.index`` must
#: read the field, which hides ``tuple.index``).
RECORDS = {
    "Violation": (ahp.Violation, {"kind": "diagonal", "index": (1, 1), "message": "m"}),
    "ValidationResult": (ahp.ValidationResult, {"violations": ()}),
    "WeightVector": (ahp.WeightVector, {"weights": np.array([0.5, 0.5]), "lambda_max": 2.0}),
    "ConsistencyReport": (ahp.ConsistencyReport, {
        "lambda_max": 3.0, "consistency_index": 0.0, "consistency_ratio": 0.0,
        "is_consistent": True}),
    "Message": (sim.Message, {"id": 7, "meta": META, "base_voi": 0.25}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_keeps_its_fields_and_refuses_assignment(name):
    cls, values = RECORDS[name]
    assert cls._fields == tuple(values)
    by_position, by_keyword = cls(*values.values()), cls(**values)
    for record in (by_position, by_keyword):
        for field, value in values.items():
            assert getattr(record, field) is value
        for field in values:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no __dict__ to take a new attribute either

