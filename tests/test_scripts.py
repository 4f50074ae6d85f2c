"""The experiment scripts run end to end and print one JSON report."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["limit_survey.py"],
    ["adjunction_battery.py", "--trials", "4"],
])
def test_script_exits_0_with_a_json_report(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if argv[0] == "limit_survey.py":
        assert report["adversarial_verdict"] == "inconclusive"
