"""Golden outputs: small surveys must reproduce their stored files byte for byte.

Each file in ``tests/golden/`` is the CSV that ``qspan`` writes for the
command line listed in ``GOLDEN`` (default seed 0, ``--out`` the bare
file name), with the run's ``wall_clock_s`` masked.  They guard the
reproducibility contract: (seed, config) gives identical rows, so a
change to the walk or percolation kernels that moves a single bit fails
here.

Regenerate them only for a deliberate change of the random stream or
the file format:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import re
from pathlib import Path

import pytest

from qspan.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

#: file name -> command line that writes it
GOLDEN = {
    "walk-critical.csv": "--experiment walk-critical --qubits 1,2 --steps 3,10 --trials 4",
    "walk-critical-exact.csv":
        "--experiment walk-critical --qubits 1,2 --steps 3,10 --trials 4 --exact-step",
    "walk-critical-wide.csv": "--experiment walk-critical --qubits 3,4 --steps 3,30 --trials 2",
    "percolation-critical.csv":
        "--experiment percolation-critical --qubits 2,3 --steps 5,20 --samples 4",
    "percolation-critical-wide.csv":
        "--experiment percolation-critical --qubits 7,10 --steps 5,50 --samples 4",
    "concentration.csv":
        "--experiment concentration --qubits 1,3 --epsilon 0.1 --samples 2000",
}


def _masked(path: Path) -> bytes:
    text = path.read_text(encoding="utf-8")
    return re.sub(r'"wall_clock_s": [^,}]+', '"wall_clock_s": null', text).encode()


def _write(name: str) -> bytes:
    """Run the golden's command line in the current directory."""
    assert main(GOLDEN[name].split() + ["--out", name]) == 0
    return _masked(Path(name))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_is_reproduced(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _write(name) == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    os.chdir(GOLDEN_DIR)
    for name in GOLDEN:
        Path(name).write_bytes(_write(name))
