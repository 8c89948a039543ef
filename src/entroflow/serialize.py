"""CSV/JSON artifact writers and config loading.

Measures travel as CSV point clouds with a JSON sidecar describing the
reference; couplings as sparse triplets; trajectories as per-step
diagnostic rows. Manifests are JSON with sorted keys so equal runs produce
byte-identical files (timestamps excepted). All writes are atomic.
"""
from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .measures import DiscreteMeasure, ReferenceMeasure, discretize_reference, potential_from_descriptor
from .transport import Coupling

__all__ = [
    "atomic_write_text",
    "write_csv",
    "write_measure_csv",
    "read_measure_csv",
    "write_reference",
    "read_reference_sidecar",
    "write_coupling_csv",
    "write_trajectory_csv",
    "write_manifest",
    "load_config",
]


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


CSV_BLOCK = 4096  # array values formatted per block


def _csv_text(header: list[str], rows) -> str:
    """CSV text: floats as %.17g (round-trip exact), anything else with str.

    ``rows`` is an iterable of tuples, each column of one type, whose row
    format is read off the first row; or a 2-D float array, formatted in
    blocks of about CSV_BLOCK values so no Python list of all of them is held.
    """
    out = [",".join(header)]
    if isinstance(rows, np.ndarray):
        fmt = ",".join(["%.17g"] * rows.shape[1])
        step = max(1, CSV_BLOCK // rows.shape[1])
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            # one format call per block: the row format repeated once per row
            out.append("\n".join([fmt] * len(block)) % tuple(block.ravel().tolist()))
    else:
        rows = iter(rows)
        first = next(rows, None)
        if first is not None:
            fmt = ",".join(["%.17g" if isinstance(v, float) else "%s" for v in first])
            out.append(fmt % tuple(first))
            out.extend([fmt % tuple(row) for row in rows])
    out.append("")  # closing newline, without copying the joined text once more
    return "\n".join(out)


def write_csv(path, header: list[str], rows) -> None:
    """Write ``rows`` under ``header`` as CSV, formatted as ``_csv_text`` does."""
    atomic_write_text(Path(path), _csv_text(header, rows))


def write_measure_csv(path, mu: DiscreteMeasure) -> None:
    header = [f"coord_{i + 1}" for i in range(mu.dim)] + ["weight"]
    write_csv(path, header, np.column_stack([mu.support, mu.weights]))


def read_measure_csv(path) -> DiscreteMeasure:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        k = len(header) - 1
        pts, ws = [], []
        for row in reader:
            pts.append([float(v) for v in row[:k]])
            ws.append(float(row[k]))
    return DiscreteMeasure.from_atoms(np.asarray(pts), np.asarray(ws))


def write_reference(path_base, gamma: ReferenceMeasure) -> None:
    """CSV of grid weights plus a JSON sidecar with the construction data."""
    base = Path(path_base)
    rows = np.column_stack([gamma.grid, gamma.weights])
    write_csv(base.with_suffix(".csv"), ["coord_1", "weight"], rows)
    sidecar = {
        "potential": gamma.potential.descriptor(),
        "bounds": [gamma.bounds[0], gamma.bounds[1]],
        "n": gamma.n,
        "log_partition": gamma.log_partition,
    }
    atomic_write_text(
        base.with_suffix(".json"), json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )


def read_reference_sidecar(path):
    with open(path) as handle:
        data = json.load(handle)
    pot = potential_from_descriptor(data["potential"])
    return discretize_reference(pot, int(data["n"]), tuple(data["bounds"]))


def write_coupling_csv(path, coupling: Coupling) -> None:
    rows = [
        (int(i), int(j), float(m))
        for i, j, m in zip(coupling.rows, coupling.cols, coupling.masses)
    ]
    write_csv(path, ["i", "j", "mass"], rows)


def write_trajectory_csv(path, traj) -> None:
    # the start row has no increment and no residual
    rows = np.column_stack([
        traj.times,
        traj.entropies,
        np.concatenate([[0.0], traj.w2_increments]),
        np.concatenate([[0.0], traj.evi_residuals]),
    ])
    write_csv(path, ["t", "entropy", "w2_increment", "evi_max_residual"], rows)


def write_manifest(path, data: dict) -> None:
    atomic_write_text(Path(path), json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_config(path) -> dict:
    with open(path) as handle:
        return json.load(handle)
