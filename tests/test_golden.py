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

It reads each old file before it overwrites it and prints, per file,
how many lines changed text and whether the rows, the fits and the
metadata kept their values: floats compared bit for bit, every value
with its type, and ``wall_clock_s`` and ``format_version`` left out.
"""

import math
import os
import re
from pathlib import Path

import pytest

from qspan.cli import ResultSet, main, read_result

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


def _typed_bits(value):
    """``value`` with every leaf as (type, value) and every float as its hex text."""
    if isinstance(value, dict):
        return {k: _typed_bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_typed_bits(v) for v in value]
    return (type(value), value.hex() if isinstance(value, float) else value)


def value_changes(old, new) -> str:
    """Which parts of result set ``new`` differ in value from ``old``."""
    masked = ("wall_clock_s", "format_version")
    parts = {
        "rows": (old.rows, new.rows),
        "fits": (old.fits, new.fits),
        "metadata": tuple({k: v for k, v in r.metadata.items() if k not in masked}
                          for r in (old, new)),
    }
    return ", ".join(
        f"{part} {'unchanged' if _typed_bits(a) == _typed_bits(b) else 'CHANGED'}"
        for part, (a, b) in parts.items()
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_is_reproduced(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _write(name) == (GOLDEN_DIR / name).read_bytes()


def test_value_changes_sees_one_bit_or_a_type():
    old = read_result(str(GOLDEN_DIR / "walk-critical.csv"))
    assert value_changes(old, old) == "rows unchanged, fits unchanged, metadata unchanged"
    first = old.rows[0]
    moved = {**first, "critical_delta_s": math.nextafter(first["critical_delta_s"], 1.0)}
    masked = {**old.metadata, "wall_clock_s": 1.0, "format_version": 9}
    new = ResultSet(masked, (moved, *old.rows[1:]), old.fits)
    assert value_changes(old, new) == "rows CHANGED, fits unchanged, metadata unchanged"
    retyped = {**old.metadata, "seed": float(old.metadata["seed"])}
    new = ResultSet(retyped, old.rows, old.fits)
    assert value_changes(old, new) == "rows unchanged, fits unchanged, metadata CHANGED"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    os.chdir(GOLDEN_DIR)
    for name in GOLDEN:
        old = Path(name).read_bytes() if Path(name).exists() else None
        before = read_result(name) if old is not None else None
        new = _write(name)
        Path(name).write_bytes(new)
        if before is None:
            print(f"{name}: new file")
            continue
        moved = sum(a != b for a, b in zip(old.splitlines(), new.splitlines()))
        moved += abs(len(old.splitlines()) - len(new.splitlines()))
        print(f"{name}: {moved} of {len(new.splitlines())} lines changed text; "
              + value_changes(before, read_result(name)))
