"""Reproducible experiment runner.

One entry point (``qspan`` on the command line, :func:`run_experiment`
from code) drives every survey the package supports: walk critical
strides, percolation thresholds, overlap concentration, device
accessibility, and the fitted scaling laws on top of the first two.

Reproducibility contract: every trial draws from its own substream,
keyed by (master seed, experiment kind, qubit count, step count, trial
index), so results are identical however trials are scheduled across
workers.  Outputs embed the full configuration and seed; rereading an
emitted file with :func:`read_result` reproduces the result set exactly,
value for value.  File format 2 (``format_version`` in the metadata)
prints floats as their shortest round-trip text; format 1 printed 17
significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import __version__
from ._checks import count, flag, positive, within
from .accessibility import DeviceParams, assess, max_qubits
from .analysis import (
    _BATCH as _CONCENTRATION_BATCH,
    FitError,
    empirical_concentration,
    fit_exponent_scaling,
    fit_power_law,
    fit_saturating_power_law,
)
from .percolation import ExperimentFailureError, critical_threshold_sample
from .walk import _CELL_TRIALS, _PROBE_BLOCK, _SCAN_CHUNK, WALK_STREAM, _cell_criticals

__all__ = [
    "EXPERIMENT_KINDS",
    "UsageError",
    "FileError",
    "ExperimentConfig",
    "ResultSet",
    "run_experiment",
    "emit",
    "render",
    "read_result",
    "main",
]

EXPERIMENT_KINDS = (
    "walk-critical",
    "percolation-critical",
    "concentration",
    "accessibility",
    "fit",
)

# Stable per-kind integers entering the substream keys.  The fit
# experiment reuses the code of the survey it runs, so a fit over a
# given grid and seed sees exactly the rows of the plain survey.
_KIND_CODES = {
    "walk-critical": 1,
    "percolation-critical": 2,
    "concentration": 3,
    "accessibility": 4,
}

#: Walk-stride fits drop step counts below this (the shortest walks sit
#: visibly off the power law).
_WALK_FIT_MIN_STEPS = 3

#: Version of the result file text; files without the key are format 1.
FORMAT_VERSION = 2


class UsageError(ValueError):
    """The supplied configuration cannot be run."""


class FileError(RuntimeError):
    """An output file could not be written or an input file read."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path


def _row_kind(kind: str, trials) -> str:
    """The experiment whose rows a run of ``kind`` writes.

    A fit runs the walk survey when given trials and the percolation
    survey otherwise, and emits that survey's rows.
    """
    if kind != "fit":
        return kind
    return "walk-critical" if trials is not None else "percolation-critical"


def _physical_memory() -> float:
    """Bytes of physical memory; infinite where the platform does not say."""
    try:
        return float(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _largest_array_bytes(config: ExperimentConfig) -> int:
    """Bytes of the largest array a run of ``config`` holds at once."""
    # past 64 qubits every estimate below exceeds any memory anyway
    dim = 2 ** min(max(config.qubits), 64)
    survey = _row_kind(config.kind, config.trials)
    if survey == "walk-critical":
        # one lockstep batch stacks the probe blocks of up to _CELL_TRIALS
        # trials: its (probes, steps, 2(D - 1)) block of normals; exact
        # steps also stack _SCAN_CHUNK complex rows of D per probe
        probes = min(config.trials, _CELL_TRIALS) * _PROBE_BLOCK
        normals = probes * max(config.steps) * 2 * (dim - 1) * 8
        if config.exact_step:
            return max(normals, probes * _SCAN_CHUNK * dim * 16)
        return normals
    if survey == "percolation-critical":
        # a cloud's (points, 2D) block of float64 normals (the same bytes as
        # its complex states) and its (points, points) complex Gram matrix
        points = max(config.steps)
        return points * max(dim, points) * 16
    if survey == "concentration":
        # one batch of state pairs, drawn as 2D normals each
        return min(_CONCENTRATION_BATCH, config.samples) * 2 * 2 * dim * 8
    return 0


def _int_tuple(value, field: str) -> tuple[int, ...]:
    try:
        items = tuple(positive(v, field, UsageError) for v in value)
    except TypeError as exc:
        raise UsageError(f"{field}: expected integers, got {value!r}") from exc
    if not items:
        raise UsageError(f"{field}: list must not be empty")
    if len(set(items)) < len(items):
        raise UsageError(f"{field}: counts must not repeat, got {list(items)}")
    return items


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment run.

    ``qubits`` and ``steps`` are lists of distinct whole counts; ``steps``
    is the step-count list M for walk experiments and doubles as the
    cloud-size list (at least 2 points) for percolation experiments (one
    threshold survey per (qubits, size) pair).  ``epsilon`` None is the
    paper's dimension-tied walk margin and a number a fixed one;
    concentration always needs a number (there it is the overlap
    deviation, not a span margin).  Device parameters are only read by
    the accessibility experiment.
    """

    kind: str
    qubits: tuple = (1,)
    steps: tuple = (10,)
    trials: int | None = None
    samples: int | None = None
    epsilon: float | None = None
    exact_step: bool = False
    seed: int = 0
    workers: int = 1
    out: str | None = None
    format: str = "csv"
    j_over_h_hz: float = 5.0e9
    t_decoherence_s: float = 10.0e-9
    t_evolution_s: float = 5.0e-6

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise UsageError(
                f"kind: unknown experiment {self.kind!r}; "
                f"expected one of {', '.join(EXPERIMENT_KINDS)}"
            )
        object.__setattr__(self, "qubits", _int_tuple(self.qubits, "qubits"))
        object.__setattr__(self, "steps", _int_tuple(self.steps, "steps"))
        for name in ("trials", "samples", "workers"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, positive(v, name, UsageError))
        survey = _row_kind(self.kind, self.trials)
        if survey == "percolation-critical" and min(self.steps) < 2:
            raise UsageError(f"steps: percolation clouds need >= 2 points, got {list(self.steps)}")
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", within(self.epsilon, "epsilon", error=UsageError))
            if survey == "walk-critical" and self.epsilon >= math.pi / 2:
                raise UsageError(f"epsilon: walk margins must be < pi/2, got {self.epsilon}")
        object.__setattr__(self, "exact_step", flag(self.exact_step, "exact_step", UsageError))
        object.__setattr__(self, "seed", count(self.seed, "seed", UsageError))
        if not 0 <= self.seed < 2**64:
            raise UsageError(f"seed: must fit in 64 bits, got {self.seed}")
        if self.out is not None and not isinstance(self.out, str):
            raise UsageError(f"out: expected a file path, got {self.out!r}")
        if self.out is not None and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise UsageError(f"out: {os.path.dirname(self.out)!r} is not a directory")
        if self.format not in ("csv", "json"):
            raise UsageError(f"format: expected csv or json, got {self.format!r}")
        for name in ("j_over_h_hz", "t_decoherence_s", "t_evolution_s"):
            object.__setattr__(self, name, within(getattr(self, name), name, error=UsageError))
        if self.kind == "accessibility":
            device = DeviceParams(1, self.j_over_h_hz, self.t_decoherence_s, self.t_evolution_s)
            try:
                max_qubits(device)
            except ValueError as exc:
                raise UsageError(f"device: {exc}") from exc

        if self.kind == "walk-critical" and self.trials is None:
            raise UsageError("trials: walk-critical needs --trials")
        if self.kind == "percolation-critical" and self.samples is None:
            raise UsageError("samples: percolation-critical needs --samples")
        if self.kind == "concentration":
            if self.samples is None:
                raise UsageError("samples: concentration needs --samples")
            if self.samples < 1000:
                raise UsageError(f"samples: concentration needs >= 1000, got {self.samples}")
            if self.epsilon is None:
                raise UsageError("epsilon: concentration needs a numeric --epsilon")
        if self.kind == "fit" and (self.trials is None) == (self.samples is None):
            raise UsageError(
                "fit: give exactly one of --trials (walk strides) or "
                "--samples (percolation thresholds)"
            )
        need, have = _largest_array_bytes(self), _physical_memory()
        if need > have:
            raise UsageError(
                f"memory: the largest array of this run needs {need / 2**30:.3g} GiB, "
                f"more than the {have / 2**30:.3g} GiB of physical memory"
            )

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class ResultSet:
    """Rows plus the metadata needed to regenerate them.

    ``metadata`` carries the experiment kind, artifact version, file
    format version, master seed, wall-clock seconds, and a full echo of
    the configuration; walk rows also record the ``walk_stream`` version
    their walks ran on, one number for default and exact-step walks
    (``config.exact_step`` tells the two apart).
    ``rows`` are plain dicts with an experiment-specific fixed key
    order; ``fits`` are summary dicts, empty unless a fit was requested.
    """

    metadata: dict
    rows: tuple
    fits: tuple = ()


def _finite_or_none(v):
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _map_tasks(fn, tasks: list, workers: int) -> list:
    """Order-preserving map, fanned out over processes when asked.

    The pool is capped at the task and CPU counts, since the fork start
    method starts all of its processes at the first submit.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    size = min(workers, len(tasks), os.cpu_count() or 1)
    chunk = max(1, len(tasks) // (4 * size))
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _seeded_survey(
    config: ExperimentConfig, kind: str, count: int, chunk: int, fn, *extra
) -> list:
    """Run ``fn`` on ``count`` substreams per (qubits, steps) cell, ``chunk`` at a time.

    Task ``(n, m, seed_seqs, *extra)`` gets up to ``chunk`` consecutive
    substreams of SeedSequence([seed, kind code, n, m]) and returns one
    outcome per substream.  Returns ((n, m, i), outcome) pairs in row
    order, substream ``i`` giving row ``i`` of its cell.
    """
    keys = []
    tasks = []
    for n in config.qubits:
        for m in config.steps:
            seeds = np.random.SeedSequence([config.seed, _KIND_CODES[kind], n, m]).spawn(count)
            keys += [(n, m, i) for i in range(count)]
            tasks += [(n, m, seeds[i:i + chunk], *extra) for i in range(0, count, chunk)]
    outcomes = [o for done in _map_tasks(fn, tasks, config.workers) for o in done]
    return list(zip(keys, outcomes))


def _walk_cell_task(task):
    qubits, steps, seed_seqs, epsilon, exact_step = task
    return _cell_criticals(qubits, steps, seed_seqs, epsilon=epsilon, exact_step=exact_step)


def _percolation_sample_task(task):
    qubits, n_points, seed_seqs = task
    return [critical_threshold_sample(qubits, n_points, ss) for ss in seed_seqs]


def _row(kind: str, *values) -> dict:
    return dict(zip((name for name, _ in _COLUMNS[kind]), values))


def _walk_rows(config: ExperimentConfig) -> list:
    outcomes = _seeded_survey(
        config, "walk-critical", config.trials, _CELL_TRIALS, _walk_cell_task,
        config.epsilon, config.exact_step,
    )
    return [_row("walk-critical", n, m, i, t.value, t.censored) for (n, m, i), t in outcomes]


def _percolation_rows(config: ExperimentConfig) -> list:
    outcomes = _seeded_survey(
        config, "percolation-critical", config.samples, 1, _percolation_sample_task
    )
    rows = []
    found: dict = {}
    for (n, p, i), value in outcomes:
        threshold = None if value is None else float(value)
        rows.append(_row("percolation-critical", n, p, i, threshold, value is None))
        found[(n, p)] = found.get((n, p), False) or value is not None
    for (n, p), any_found in found.items():
        if not any_found:
            raise ExperimentFailureError(
                f"no percolating threshold in any of {config.samples} samples "
                f"(qubits={n}, points={p})"
            )
    return rows


def _concentration_rows(config: ExperimentConfig) -> list:
    code = _KIND_CODES["concentration"]
    rows = []
    for n in config.qubits:
        seed = np.random.SeedSequence([config.seed, code, n])
        r = empirical_concentration(2**n, config.epsilon, config.samples, seed)
        rows.append(
            _row("concentration", r.dim, r.epsilon, r.bound, r.empirical_probability, r.samples)
        )
    return rows


def _accessibility_rows(config: ExperimentConfig) -> list:
    rows = []
    for n in config.qubits:
        report = assess(
            DeviceParams(
                n_qubits=n,
                j_over_h=config.j_over_h_hz,
                t_decoherence=config.t_decoherence_s,
                t_evolution=config.t_evolution_s,
            )
        )
        device = (config.j_over_h_hz, config.t_decoherence_s, config.t_evolution_s)
        rows.append(_row("accessibility", n, *device, report.index, report.passes, report.n_max))
    return rows


def _group_means(rows: list, group_key: str, value_key: str, keep) -> dict:
    """Mean of ``value_key`` per (qubits, group_key) over rows passing ``keep``."""
    sums: dict = {}
    for row in rows:
        if not keep(row):
            continue
        k = (row["qubits"], row[group_key])
        s, c = sums.get(k, (0.0, 0))
        sums[k] = (s + row[value_key], c + 1)
    return {k: s / c for k, (s, c) in sums.items()}


def _power_law_fits(
    config: ExperimentConfig, rows: list, label: str, group_key: str, keep, min_steps: int
) -> list:
    """One power-law fit of the mean critical stride against ``group_key`` per qubit count."""
    means = _group_means(rows, group_key, "critical_delta_s", keep)
    fits = []
    for n in config.qubits:
        pts = [(m, means[(n, m)]) for m in config.steps if m >= min_steps and (n, m) in means]
        if len(pts) < 2:
            continue
        fit = fit_power_law([p[0] for p in pts], [p[1] for p in pts])
        fits.append({"fit": label, "qubits": n, **asdict(fit)})
    return fits


def _scaling_fit_dict(label: str, x: list, y: list) -> dict:
    return {"fit": label, **asdict(fit_exponent_scaling(x, y))}


def _walk_fits(config: ExperimentConfig, rows: list) -> list:
    fits = _power_law_fits(
        config, rows, "stride-power-law", "steps",
        keep=lambda r: not r["censored"], min_steps=_WALK_FIT_MIN_STEPS,
    )
    per_qubits = {d["qubits"]: d for d in fits}
    if len(per_qubits) >= 2:
        ns = sorted(per_qubits)
        for key in ("amplitude", "exponent"):
            y = [per_qubits[n][key] for n in ns]
            fits.append(_scaling_fit_dict(f"{key}-vs-qubits", ns, y))
    return fits


def _percolation_fits(config: ExperimentConfig, rows: list) -> list:
    fits = _power_law_fits(
        config, rows, "threshold-power-law", "points",
        keep=lambda r: not r["is_none"], min_steps=1,
    )
    per_qubits = {d["qubits"]: d for d in fits}
    if len(per_qubits) >= 2:
        ns = sorted(per_qubits)
        dims = [2**n for n in ns]
        exponents = [per_qubits[n]["exponent"] for n in ns]
        fits.append(_scaling_fit_dict("exponent-vs-dimension", dims, exponents))
        if len(per_qubits) >= 4:
            amplitudes = [per_qubits[n]["amplitude"] for n in ns]
            sat = asdict(fit_saturating_power_law(dims, amplitudes))
            del sat["n_iterations"]
            fits.append({"fit": "amplitude-saturation", **sat})
    return fits


def run_experiment(config: ExperimentConfig) -> ResultSet:
    """Run the configured experiment and collect rows plus fit summaries.

    Deterministic for a fixed (seed, config) whatever the worker count.
    Module-level failures (no percolating threshold anywhere, degenerate
    fits) propagate with experiment context attached.
    """
    start = time.perf_counter()
    survey = _row_kind(config.kind, config.trials)
    rows = _SURVEYS[survey](config)
    fits = _FITS[survey](config, rows) if config.kind == "fit" else []
    rows = [{k: _finite_or_none(v) for k, v in row.items()} for row in rows]
    fits = [{k: _finite_or_none(v) for k, v in fit.items()} for fit in fits]
    metadata = {
        "kind": config.kind,
        "artifact_version": __version__,
        "format_version": FORMAT_VERSION,
        "seed": config.seed,
        "wall_clock_s": time.perf_counter() - start,
        "config": config.as_dict(),
    }
    if survey == "walk-critical":
        metadata["walk_stream"] = WALK_STREAM
    if config.kind == "fit":
        metadata["fit_weighting"] = "unweighted"
    return ResultSet(metadata=metadata, rows=tuple(rows), fits=tuple(fits))


_SURVEYS = {
    "walk-critical": _walk_rows,
    "percolation-critical": _percolation_rows,
    "concentration": _concentration_rows,
    "accessibility": _accessibility_rows,
}
_FITS = {"walk-critical": _walk_fits, "percolation-critical": _percolation_fits}


# --- serialization ---------------------------------------------------------

#: Row columns per experiment kind, in output order, with the type a
#: CSV cell is read back as.
_COLUMNS = {
    "walk-critical": (
        ("qubits", int),
        ("steps", int),
        ("trial", int),
        ("critical_delta_s", float),
        ("censored", bool),
    ),
    "percolation-critical": (
        ("qubits", int),
        ("points", int),
        ("sample", int),
        ("critical_delta_s", float),
        ("is_none", bool),
    ),
    "concentration": (
        ("dimension", int),
        ("epsilon", float),
        ("bound", float),
        ("empirical", float),
        ("samples", int),
    ),
    "accessibility": (
        ("qubits", int),
        ("j_over_h_hz", float),
        ("t_d_s", float),
        ("t_f_s", float),
        ("index", float),
        ("passes", bool),
        ("n_max", float),
    ),
}


def _row_columns(metadata: dict) -> tuple:
    """The (name, type) columns of the rows of a result with ``metadata``."""
    kind = _row_kind(metadata["kind"], metadata["config"]["trials"])
    if kind not in _COLUMNS:
        raise ValueError(f"kind: unknown experiment {kind!r}")
    return _COLUMNS[kind]


def _csv_cell(value) -> str:
    """Empty for None, true/false for a bool, else the shortest text that reads back."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    # float's own repr, also for numpy floats, whose repr names their type
    return float.__repr__(value) if isinstance(value, float) else str(value)


def render(result: ResultSet, format: str) -> str:
    """Serialize a result set to CSV or JSON text (file format 2)."""
    if format == "json":
        doc = {"metadata": result.metadata, "fits": list(result.fits), "rows": list(result.rows)}
        return json.dumps(doc, allow_nan=False) + "\n"
    if format != "csv":
        raise UsageError(f"format: expected csv or json, got {format!r}")
    columns = [name for name, _ in _row_columns(result.metadata)]
    lines = ["# qspan-result " + json.dumps(result.metadata, allow_nan=False)]
    lines += ["# fit " + json.dumps(fit, allow_nan=False) for fit in result.fits]
    lines.append(",".join(columns))
    lines += [",".join([_csv_cell(row[c]) for c in columns]) for row in result.rows]
    return "\n".join(lines) + "\n"


def emit(result: ResultSet, format: str, path: str) -> str:
    """Write the rendered result set to ``path`` and return the path."""
    text = render(result, format)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileError(path, str(exc)) from exc
    return path


def _typed_cell(column: str, kind: type, cell: str):
    if cell == "":
        return None
    if kind is bool and cell not in ("true", "false"):
        raise ValueError(f"column {column}: expected true/false, got {cell!r}")
    return cell == "true" if kind is bool else kind(cell)


def read_result(path: str) -> ResultSet:
    """Parse a file written by :func:`emit`, in any format, back into an equal ResultSet.

    A file that is not a result file raises ValueError naming ``path``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
            _row_columns(doc["metadata"])
            return ResultSet(doc["metadata"], tuple(doc["rows"]), tuple(doc["fits"]))
        metadata = header = None
        fits, cells = [], []
        for line in text.splitlines():
            if line.startswith("# qspan-result "):
                metadata = json.loads(line[len("# qspan-result "):])
            elif line.startswith("# fit "):
                fits.append(json.loads(line[len("# fit "):]))
            elif line.startswith("#") or not line.strip():
                continue
            elif header is None:
                header = line.split(",")
            else:
                cells.append(line.split(","))
                if len(cells[-1]) != len(header):
                    raise ValueError(f"row width {len(cells[-1])} != header {len(header)}")
        if metadata is None or header is None:
            raise ValueError("not a result file (missing metadata or header)")
        columns = _row_columns(metadata)
        if header != [name for name, _ in columns]:
            raise ValueError(f"header {','.join(header)!r} is not the {metadata['kind']} columns")
        rows = [
            {name: _typed_cell(name, kind, cell) for (name, kind), cell in zip(columns, row)}
            for row in cells
        ]
        return ResultSet(metadata, tuple(rows), tuple(fits))
    except OSError as exc:
        raise FileError(path, str(exc)) from exc
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


# --- command line ----------------------------------------------------------

def _parse_int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected true/false, yes/no, on/off or 1/0, got {text!r}")


def _parse_epsilon(text: str) -> float | None:
    """``paper`` (None: the dimension-tied margin) or a number."""
    if text == "paper":
        return None
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"expected 'paper' or a number, got {text!r}") from exc


#: Flag (``--`` plus the key with ``-`` for ``_``) or config-file key ->
#: (parser of its text, help).  Each key is the ExperimentConfig field it
#: sets, except ``experiment`` (sets ``kind``); defaults are the fields'
#: defaults.
_OPTIONS = {
    "experiment": (str, "experiment kind: " + ", ".join(EXPERIMENT_KINDS)),
    "qubits": (_parse_int_list, "comma-separated qubit counts"),
    "steps": (_parse_int_list, "comma-separated step counts (cloud sizes for percolation)"),
    "trials": (int, "walk trials per (qubits, steps) cell"),
    "samples": (int, "samples per cell (percolation/concentration)"),
    "epsilon": (
        _parse_epsilon,
        "success margin: 'paper' (dimension-tied, the default) or a number in (0, pi/2)",
    ),
    "exact_step": (_parse_bool, "rescale each stride so the realized distance matches exactly"),
    "seed": (int, "64-bit master seed"),
    "workers": (int, "worker processes, capped at the task and CPU counts"),
    "out": (str, "output file path (stdout when not given)"),
    "format": (str, "output format: csv or json"),
    "j_over_h_hz": (float, "qubit coupling frequency in Hz"),
    "t_decoherence_s": (float, "decoherence time in seconds"),
    "t_evolution_s": (float, "total evolution time in seconds"),
}


def _help(key: str) -> str:
    """The option's help, ending in its ExperimentConfig default if it has one."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    default = defaults.get(key)
    text = _OPTIONS[key][1]
    if default is None or default is MISSING:
        return text
    if isinstance(default, tuple):
        default = ",".join(map(str, default))
    elif isinstance(default, bool):
        default = str(default).lower()
    elif isinstance(default, float):
        default = format(default, "g")
    return f"{text} (default {default})"


def _parse_option(key: str, text: str, where: str):
    try:
        return _OPTIONS[key][0](text)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from exc


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"config: cannot read {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config: {path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise UsageError(f"config: {path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_option(key, value.strip(), f"config: {path}:{lineno}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspan",
        argument_default=argparse.SUPPRESS,
        description=(
            "Run a reproducible survey: walk critical strides, percolation "
            "thresholds, overlap concentration, device accessibility, or "
            "fitted scaling laws (fit over walk strides with --trials, over "
            "percolation thresholds with --samples)."
        ),
    )
    for key, (parse, _) in _OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if parse is _parse_bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, help=_help(key))
        else:
            parser.add_argument(flag, help=_help(key))
    parser.add_argument("--config", help="key = value file; flags take precedence")
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge the config file and the flags given (flags win) into a config."""
    given = dict(vars(args))
    values = _read_config_file(given.pop("config")) if "config" in given else {}
    for key, value in given.items():
        # flags arrive as text, except --[no-]exact-step as a bool
        values[key] = _parse_option(key, str(value), "--" + key.replace("_", "-"))
    if "experiment" not in values:
        raise UsageError("experiment: required (flag --experiment or config file)")
    values["kind"] = values.pop("experiment")
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    """Entry point: run one experiment, write one result file.

    Exit codes: 0 on success, 2 for configuration problems, all found
    before anything is drawn (among them percolation clouds of fewer than
    two points, arrays larger than physical memory and a missing output
    directory), 1 for runtime failures.
    """
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        result = run_experiment(config)
        if config.out is None:
            sys.stdout.write(render(result, config.format))
        else:
            emit(result, config.format, config.out)
            print(f"qspan: wrote {config.out} ({len(result.rows)} rows)", file=sys.stderr)
    except UsageError as exc:
        print(f"qspan: error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentFailureError, FitError, FileError, BrokenProcessPool) as exc:
        print(f"qspan: failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
