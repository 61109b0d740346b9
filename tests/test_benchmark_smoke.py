"""The benchmark's own smoke test passes on this checkout.

``benchmarks/smoke.py`` runs both workloads at their tiny sizes, traced and
untraced, and checks every output against the oracles (``brute_select`` for
des1 and des4, ``statistics.correlation`` for the des4 weights and the
correlations), the declared metrics, and byte-identical reruns. It takes
about 15 s. The benchmark files are only read, never changed.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    done = subprocess.run(
        [sys.executable, "benchmarks/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
