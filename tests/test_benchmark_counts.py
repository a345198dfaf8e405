"""The work counts of every benchmark workload, pinned: the ``counts:``
lines of ``perfbench/run.py --workload all --seed 7 --trace 1`` (verdicts,
dependences, lifts, LP solves per path, escalations, search starts and
convictions of each workload's first families) must not move unless a
change means to move them.

    python3 perfbench/run.py --workload all --seed 7 --seconds 1 --trace 1 \\
        | grep '^counts: ' | sha256sum
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

assert run.load_program() is not None, "tvlab sources are required"
import families as F  # noqa: E402  (needs the path set up by load_program)

# recorded with numpy 2.4.6 / OpenBLAS 0.3.31; a pool of the warm-up
# families alone gives the counts of the full pool
COUNTS_SHA256 = "c95b9007ad9a83ea0b0d9ddc9e5582b298ef49a7e778e495652092793b02a0f7"


def test_benchmark_counts_keep_recorded_bytes():
    h = hashlib.sha256()
    for name, w in F.WORKLOADS.items():
        lines = []
        result = run.run_workload(name, seed=7, seconds=0.2, trace=1, import_s=0.0,
                                  pool=w.prefix, emit=lines.append)
        assert result["correct"], lines
        h.update("".join(l + "\n" for l in lines if l.startswith("counts: ")).encode())
    assert h.hexdigest() == COUNTS_SHA256
