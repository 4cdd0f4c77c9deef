"""The benchmark's self-check passes against the current source tree.

bench/run.py imports bqcontrol from src/ and checks every workload's outputs
(reduced rounds) against computations made apart from bqcontrol, then feeds
its checks corrupted outputs that they must reject.  Running it here makes a
source change that breaks the benchmark fail the test suite.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "self-check: ok" in proc.stdout
