"""Start-up cost of the package and of the two short CLI commands.

Runs each entry point in ``--runs`` fresh Python processes and prints a
header and one line per entry: the median wall time of a process, from
launch to exit, and the median peak resident memory the process reports
from ``resource.getrusage`` at its end.  The entries are

- ``import aamr``, ``import aamr.bench`` and ``import aamr.cli``;
- ``aamr solve`` and ``aamr angle`` (through ``aamr.cli.main``) on a fixed
  problem of two planes in R^4, written to a temporary directory; the solve
  projects the point (1, 2, 3, 4) with the default method and stop.

Each child imports ``aamr`` from the ``src/`` directory next to this script,
so a copy run in another checkout measures that tree:

    python3 tools/import_cost.py [--runs 15]
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBLEM = {"dim": 4, "sets": [
    {"type": "subspace", "basis": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]},
    {"type": "subspace", "basis": [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]},
]}

# the child's peak RSS goes to stderr, its command output to /dev/null
CHILD = """import resource, sys
sys.path.insert(0, {src!r})
{body}
sys.stderr.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
"""


def _entries(problem):
    cli = "import aamr.cli\nassert aamr.cli.main({argv!r}) == 0"
    return [("import aamr", "import aamr"),
            ("import aamr.bench", "import aamr.bench"),
            ("import aamr.cli", "import aamr.cli"),
            ("aamr solve", cli.format(argv=["solve", problem, "--q", "1,2,3,4"])),
            ("aamr angle", cli.format(argv=["angle", problem]))]


def _cost(body, runs):
    """(median wall s, median peak RSS MB) of ``runs`` fresh processes."""
    code = CHILD.format(src=str(SRC), body=body)
    walls, peaks = [], []
    for _ in range(runs):
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code], stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True, check=True)
        walls.append(time.perf_counter() - start)
        peaks.append(int(child.stderr) / 1024.0)  # ru_maxrss is in KiB on Linux
    return statistics.median(walls), statistics.median(peaks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "planes_r4.json"
        problem.write_text(json.dumps(PROBLEM))
        print("entry               wall_s  peak_rss_mb")
        for label, body in _entries(str(problem)):
            wall, peak = _cost(body, args.runs)
            print(f"{label:18s}  {wall:6.3f}  {peak:11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
