"""SHA-256 digests of the desk ``aamr bench`` outputs, for byte-for-byte
comparisons of two trees.

Runs ``aamr bench angle-profile|alpha|beta|rates --seed 0`` into a temporary
directory through ``aamr.cli.main``, importing ``aamr`` from the ``src/``
directory next to this script.  Prints one digest per written file and one
per sweep's stdout, with the output directory replaced by ``OUT`` so that
two runs compare equal.  To compare trees, copy this script into a checkout
of the other tree and diff the two outputs:

    python3 tools/desk_digests.py > mine.txt
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aamr import cli  # noqa: E402

SWEEPS = ("angle-profile", "alpha", "beta", "rates")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for sweep in SWEEPS:
            out = Path(tmp) / sweep
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = cli.main(["bench", sweep, "--seed", "0", "--out-dir", str(out)])
            if status:
                raise SystemExit(f"aamr bench {sweep} exited with {status}")
            text = stdout.getvalue().replace(str(out), "OUT")
            print(f"{hashlib.sha256(text.encode()).hexdigest()}  {sweep}/stdout")
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {sweep}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
