"""Absolute anchor: the acceptance-scale walk survey, timed once.

Runs exactly the walk survey of ``tests/test_acceptance.py`` (qubits
1..4 x steps 3, 10, 30, 100, 100 trials per cell, cell seeds
``SeedSequence([777, N, M])``) on one core and prints one JSON object:
the wall time, per-cell wall times and the fitted exponents.  It is
not one of the gated workloads; it takes minutes, and its result is
recorded in ``perfbench/anchor.json``.

    python3 perfbench/anchor.py > perfbench/anchor.json
"""

from __future__ import annotations

import json
import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from qspan.analysis import fit_power_law  # noqa: E402
from qspan.walk import critical_step_length  # noqa: E402

QUBITS = (1, 2, 3, 4)
STEPS = (3, 10, 30, 100)
TRIALS = 100


def main() -> int:
    cells = {}
    exponents = {}
    censored = 0
    wall = 0.0
    for n in QUBITS:
        means = []
        for m in STEPS:
            start = time.perf_counter()
            res = critical_step_length(n, m, TRIALS, np.random.SeedSequence([777, n, m]))
            elapsed = time.perf_counter() - start
            wall += elapsed
            cells[f"q{n}_m{m}"] = round(elapsed, 3)
            censored += res.censored_count
            means.append(res.mean)
        exponents[n] = fit_power_law(STEPS, means).exponent
    print(json.dumps({
        "survey": "acceptance walk survey, 100 trials, seeds [777, N, M]",
        "wall_s": round(wall, 2),
        "cell_wall_s": cells,
        "exponents": {f"q{n}": round(b, 4) for n, b in exponents.items()},
        "censored": censored,
        "nproc": os.cpu_count(),
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
