"""The benchmark's own self-test passes on this checkout.

`bench/selftest.py` runs the benchmark's independent checkers on the
program's real output (CSV ring, audit JSON, SVG, analysis) and a tiny
run of each workload. Its file name keeps it out of pytest's collection,
so this runs it as the benchmark does: `python3 bench/selftest.py` from
the root of the checkout.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
