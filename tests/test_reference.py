"""The numbers of `koopcert reproduce example1|example2`, pinned.

tests/data/reference.json holds, per example, what a rerun in process must
give again:

- the sha256 of every artifact that comes from simulation alone (the
  dataset and its sidecar, the oracle grid, doa.txt), which must match
  exactly;
- every number of report.txt and doa.txt, and the diagnostics of
  model.txt, sigma^2 included;
- the largest magnitude of each certificate and oracle grid and its values
  at GRID_SAMPLES points drawn by a seeded generator.

Fitted numbers agree to FIT_RTOL relative, grid values to FIT_RTOL of their
grid's largest magnitude, and the simulation numbers exactly. The Lyapunov
series' tail_bound is a bound on grid values, below rounding in them, so it
is held to the grid's tolerance. These bars hold across BLAS thread counts;
a change that moves a number past them updates the reference, which is
rebuilt by running this file:

    PYTHONPATH=src python tests/test_reference.py
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from koopcert.cli import main

REFERENCE = Path(__file__).parent / "data" / "reference.json"
FIT_RTOL = 1e-10
GRID_SAMPLES = 100
# certificate grid, oracle grid, and the simulation-only files of each example
ARTIFACTS = {
    "example1": ("lyapunov_grid.csv", "lyapunov_oracle_grid.csv", ("dataset.csv", "dataset.csv.meta")),
    "example2": ("zubov_grid.csv", "zubov_oracle_grid.csv", ("dataset.csv", "dataset.csv.meta", "doa.txt")),
}


def _numbers(text: str, sections=None) -> dict[str, float | list[float]]:
    """section.key -> the number(s) of each key=value line of a koopcert file's
    text, in the given sections or in all but [certified_by]; "none" reads as NaN."""
    out, section = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line and (section in sections if sections else section != "certified_by"):
            key, raw = line.split("=", 1)
            values = [math.nan if v == "none" else float(v) for v in raw.split(",")]
            out[f"{section}.{key}"] = values if len(values) > 1 else values[0]
    return out


def _grid_values(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=-1)


def _sample_index(n: int) -> np.ndarray:
    return np.sort(np.random.default_rng(25).choice(n, GRID_SAMPLES, replace=False))


def snapshot(example: str, out: Path) -> dict:
    """The pinned record of a reproduced example in out."""
    grid, oracle, exact = ARTIFACTS[example]
    record = {
        "sha256": {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in (*exact, oracle)},
        "report": _numbers((out / "report.txt").read_text()),
        "diagnostics": _numbers((out / "model.txt").read_text(), ("diagnostics",)),
        "doa": _numbers((out / "doa.txt").read_text()) if example == "example2" else {},
        "grids": {},
    }
    for name in (grid, oracle):
        values = _grid_values(out / name)
        record["grids"][name] = {
            "max_abs": float(np.max(np.abs(values))),
            "values": values[_sample_index(len(values))].tolist(),
        }
    return record


def _reproduce(example: str, out: Path) -> dict:
    assert main(["reproduce", example, "--out", str(out), "--quiet"]) == 0
    return snapshot(example, out)


def _close(got, want, atol: float) -> bool:
    """got equals want to within atol where want is finite, and exactly (NaN
    matching NaN) where it is not."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    with np.errstate(invalid="ignore"):
        near = np.isfinite(want) & (np.abs(got - want) <= atol)
    return got.shape == want.shape and bool(np.all(near | (got == want) | (np.isnan(got) & np.isnan(want))))


@pytest.mark.parametrize("example", ["example1", "example2"])
def test_reproduce_matches_the_pinned_reference(tmp_path, example):
    want = json.loads(REFERENCE.read_text())[example]
    got = _reproduce(example, tmp_path / example)
    grid, oracle, _ = ARTIFACTS[example]
    for name, digest in want["sha256"].items():
        assert got["sha256"][name] == digest, f"{name} is not the pinned simulation output"
    assert got["grids"][oracle] == want["grids"][oracle], f"{oracle} is not the pinned simulation output"
    g, w = got["grids"][grid], want["grids"][grid]
    grid_tol = FIT_RTOL * w["max_abs"]
    assert _close(g["max_abs"], w["max_abs"], grid_tol), (g["max_abs"], w["max_abs"])
    moved = np.abs(np.array(g["values"]) - w["values"]).max() / w["max_abs"]
    assert _close(g["values"], w["values"], grid_tol), f"{grid} moved {moved:.3g} of its largest value"
    for part in ("report", "diagnostics", "doa"):
        assert got[part].keys() == want[part].keys(), part
        for key, value in want[part].items():
            if part == "doa":
                tol = 0.0
            elif key == "series.tail_bound":
                tol = grid_tol
            else:
                tol = FIT_RTOL * np.max(np.abs(value))
            assert _close(got[part][key], value, tol), f"{part} {key}: {got[part][key]} != {value}"


def _json(value, pad: str = "") -> str:
    """JSON with one line per key and each list on its line."""
    if not isinstance(value, dict):
        return json.dumps(value)
    items = ",\n".join(f"{pad} {json.dumps(k)}: {_json(v, pad + ' ')}" for k, v in value.items())
    return "{\n" + items + "\n" + pad + "}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {ex: _reproduce(ex, Path(tmp) / ex) for ex in ARTIFACTS}
    REFERENCE.write_text(_json(pinned) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
