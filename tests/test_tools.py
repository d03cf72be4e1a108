import functools
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@functools.lru_cache(maxsize=None)
def _cost(*args, timeout=60):
    # cached: tests that read one run's two streams share it
    return subprocess.run([sys.executable, str(TOOLS / "cost.py"), *args],
                          capture_output=True, text=True, timeout=timeout)


def test_kernel_fingerprint_is_one_line_and_stable():
    # two calls in one process: the SHA-256 of the seeded BLAS results, then
    # numpy's version
    code = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); from desk_digests import "
            "kernel_fingerprint as f; print(f()); print(f())")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    first, second = run.stdout.splitlines()
    assert first == second
    assert re.fullmatch(r"[0-9a-f]{64}  kernel numpy \d+\.\d+\S*", first), first


def test_ledger_prints_three_counts():
    run = subprocess.run([sys.executable, str(TOOLS / "ledger.py")],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 3
    for line, name in zip(lines, ("src lines", "exported names", "settable options")):
        assert re.fullmatch(rf"{name}: \d+", line), line


def _check_row_table(lines):
    # µs per trip and per row-iteration, and the stopping check's µs per
    # monitored point
    assert lines[0] == "rows  us_per_trip  us_per_row_iter  us_per_check"
    assert [line.split()[0] for line in lines[1:]] == ["1", "2", "4", "10", "30", "76"]
    for line in lines[1:]:
        assert re.fullmatch(r"\s*\d+\s+\d+\.\d\d\s+\d+\.\d{3}\s+\d+\.\d{3}", line), line


def test_row_cost_prints_one_line_per_row_count():
    run = _cost("row", "--trips", "3")
    assert run.returncode == 0, run.stderr
    _check_row_table(run.stdout.splitlines())


def test_row_cost_prints_the_projection_rows_on_stderr():
    run = _cost("row", "--trips", "3")
    assert run.returncode == 0
    _check_row_table(run.stderr.splitlines())


def test_row_cost_spreads_the_rows_over_three_instances():
    run = _cost("row", "--trips", "3", "--instances", "3")
    assert run.returncode == 0, run.stderr
    _check_row_table(run.stdout.splitlines())
    _check_row_table(run.stderr.splitlines())
    refused = _cost("row", "--trips", "3", "--instances", "4")
    assert refused.returncode == 2 and "--instances" in refused.stderr


def test_step_cost_prints_one_line_per_family_dimension_and_driver():
    run = _cost("step", "--iters", "3", timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == ("family     n  driver              iters  us_per_iter"
                        "  res_iters  res_us_per_iter")
    pairs = ["aamr_solve", "dr_solve", "map_solve", "rap_solve", "haugazeau_solve",
             "hlwb_solve", "cm_solve"]
    triples = ["aamr_product_solve", "hlwb_solve", "cm_solve"]
    expected = [(family, n, driver) for n in ("10", "50", "200")
                for family, drivers in (("box2", pairs), ("box3", triples),
                                        ("kink2", pairs), ("kink3", triples),
                                        ("affine2", pairs))
                for driver in drivers]
    assert [tuple(line.split()[:3]) for line in lines[1:]] == expected
    for line in lines[1:]:
        assert re.fullmatch(r"\w+\s+\d+\s+\w+\s+\d+\s+\d+\.\d\d\s+\d+\s+\d+\.\d\d",
                            line), line
        # the residual stop runs at most the budget
        assert int(line.split()[5]) <= 3, line


def test_profile_cost_prints_one_line_per_stage():
    run = _cost("profile", "--seed", "0", timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "stage                  ms"
    names = [line.split()[0] for line in lines[1:]]
    families = ["engine.cm", "engine.haugazeau", "engine.projection", "engine.reflection"]
    assert names[0] == "bases_starts" and sorted(names[1:5]) == families
    assert names[5:] == ["grid_sweep", "aggregate", "runs_csv", "table_csv",
                         "angle_profile"]
    for line in lines[1:]:
        assert re.fullmatch(r"[\w.]+\s+\d+\.\d{3}", line), line


def test_profile_cost_counts_the_engine_runs_on_stderr():
    # per trip family, the instance-run projections of one angle_profile call
    # and the rows they project; seed 0 gives 12,028 runs of 33,868 rows
    run = _cost("profile", "--seed", "0", timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stderr.splitlines()
    assert lines[0] == "family        runs     rows"
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["cm", "haugazeau", "projection", "reflection",
                                        "total"]
    for line in lines[1:]:
        assert re.fullmatch(r"\w+\s+\d+\s+\d+", line), line
    counts = [(int(runs), int(projected)) for _, runs, projected in rows]
    assert counts[-1] == tuple(map(sum, zip(*counts[:-1]))) == (12028, 33868)


def test_import_cost_prints_one_line_per_entry_point():
    run = _cost("import", "--runs", "1", timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "entry               wall_s  peak_rss_mb"
    entries = ["import aamr", "import aamr.bench", "import aamr.cli", "aamr solve",
               "aamr angle", "aamr bench beta"]
    assert [line[:18].rstrip() for line in lines[1:]] == entries
    for line in lines[1:]:
        assert re.fullmatch(r"[\w. ]{18}\s+\d+\.\d{3}\s+\d+\.\d", line), line


def test_import_cost_refuses_zero_runs():
    refused = _cost("import", "--runs", "0")
    assert refused.returncode == 2 and "--runs" in refused.stderr
