"""Smoke runs of the scan scripts at their smallest arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("behrend_sizes.py", ["--sizes", "30", "--exact-limit", "40"]),
    ("cover_vs_doubling.py", ["--sizes", "6", "--trials", "1"]),
    ("kronecker_ratio_scan.py", ["--dims", "1", "--n", "20", "--trials", "1"]),
])
def test_scan_script_prints_rows(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    # a header line, then at least one data row
    assert len(lines) >= 2
    assert lines[1].split()[0].isdigit()
