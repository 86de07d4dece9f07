"""File formats: ENSF1 field dumps, diagnostics CSV, margin summaries.

ENSF1 is one ASCII header line ``ENSF1 <n> <n> <kind> <time>`` followed by
the raw row-major 64-bit little-endian IEEE floats of one field component.
The header gives the size n of the square grid once per axis; a header whose
two sizes differ is rejected.  ``kind`` fixes the array shape on the grid:
``cell`` is (n, n), ``xface`` is (n+1, n), ``yface`` is (n, n+1).  One file
per component; bit-exact round-trip.

The CSV schema is fixed: first column ``t``, remaining columns the metric
names in sorted order, header row mandatory, values printed with %.17g so
identical runs produce bit-identical files.
"""

from __future__ import annotations

import os

import numpy as np

from .grid import Grid, ScalarField, VectorField

__all__ = [
    "write_component",
    "read_component",
    "write_scalar",
    "read_scalar",
    "write_vector",
    "read_vector",
    "write_csv",
    "write_summary",
    "ensure_dir",
]

_MAGIC = "ENSF1"
_KIND_SHAPE = {"cell": "shape_cell", "xface": "shape_u", "yface": "shape_v"}


def write_component(path: str, values: np.ndarray, grid: Grid, kind: str, time: float) -> None:
    if kind not in _KIND_SHAPE:
        raise ValueError(f"unknown field kind {kind!r}")
    expected = getattr(grid, _KIND_SHAPE[kind])
    if values.shape != expected:
        raise ValueError(f"kind {kind!r} expects shape {expected}, got {values.shape}")
    header = f"{_MAGIC} {grid.n} {grid.n} {kind} {time:.17g}\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_component(path: str):
    """Read one component file; returns (grid, kind, time, values)."""
    with open(path, "rb") as f:
        header = f.readline().decode("ascii").strip()
        parts = header.split()
        if len(parts) != 5 or parts[0] != _MAGIC:
            raise ValueError(f"{path}: not a {_MAGIC} file (header {header!r})")
        try:
            n, kind, time = int(parts[1]), parts[3], float(parts[4])
            if int(parts[2]) != n:
                raise ValueError(f"grid {n} x {parts[2]} is not square")
            if kind not in _KIND_SHAPE:
                raise ValueError(f"unknown field kind {kind!r}")
            grid = Grid(n)
        except ValueError as exc:  # every header error names the file
            raise ValueError(f"{path}: {exc}") from exc
        shape = getattr(grid, _KIND_SHAPE[kind])
        raw = f.read()
    count = shape[0] * shape[1]
    if len(raw) != 8 * count:
        raise ValueError(f"{path}: expected {8 * count} payload bytes, got {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    return grid, kind, time, values


def write_scalar(path: str, p: ScalarField, time: float) -> None:
    write_component(path, p.values, p.grid, "cell", time)


def read_scalar(path: str):
    grid, kind, time, values = read_component(path)
    if kind != "cell":
        raise ValueError(f"{path}: expected a cell field, got {kind!r}")
    return ScalarField(grid, values), time


def write_vector(stem: str, w: VectorField, time: float) -> tuple[str, str]:
    """Write both components as <stem>.u.ensf and <stem>.v.ensf."""
    pu, pv = stem + ".u.ensf", stem + ".v.ensf"
    write_component(pu, w.u, w.grid, "xface", time)
    write_component(pv, w.v, w.grid, "yface", time)
    return pu, pv


def read_vector(stem: str):
    gu, ku, tu, u = read_component(stem + ".u.ensf")
    gv, kv, tv, v = read_component(stem + ".v.ensf")
    if (ku, kv) != ("xface", "yface"):
        raise ValueError(f"{stem}: expected xface/yface pair, got {ku!r}/{kv!r}")
    if gu != gv or tu != tv:
        raise ValueError(f"{stem}: component files disagree on grid or time")
    return VectorField(gu, u, v), tu


def write_csv(path: str, rows) -> None:
    """Write diagnostics rows: each row is (t, {metric: value}).

    All rows must carry the same metric names; columns are t followed by the
    sorted names.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    names = sorted(rows[0][1].keys())
    for t, metrics in rows:
        if sorted(metrics.keys()) != names:
            raise ValueError("rows carry differing metric names")
    lines = [",".join(["t"] + names)]
    for t, metrics in rows:
        lines.append(",".join(f"{float(x):.17g}" for x in [t] + [metrics[n] for n in names]))
    # UTF-8 (same bytes here) skips the ascii codec's first lookup, as in write_summary
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_summary(path: str, entries) -> bool:
    """Write margin lines ``margin <name> = <value> PASS|FAIL``; True iff all pass.

    Each entry is (name, value, passed).
    """
    entries = list(entries)
    ok = all(bool(p) for _, _, p in entries)
    # UTF-8 (same bytes here) skips the ascii codec's ~0.5 ms first lookup before a first step
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for name, value, passed in entries:
            f.write(f"margin {name} = {float(value):.17g} {'PASS' if passed else 'FAIL'}\n")
        f.write(f"overall {'PASS' if ok else 'FAIL'}\n")
    return ok


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
