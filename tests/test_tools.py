import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_ledger_prints_three_counts():
    run = subprocess.run([sys.executable, str(TOOLS / "ledger.py")],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 3
    for line, name in zip(lines, ("src lines", "exported names", "settable options")):
        assert re.fullmatch(rf"{name}: \d+", line), line
