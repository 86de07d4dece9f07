"""Regenerate ``reference.json``: the final CSV rows the correctness gate
compares against, for every parameter combination a seed can draw.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a source checkout, at the commit whose results later
commits are held to.  Each combination runs once; any failure aborts.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def reference_rows(name: str, spec: dict, tmp: Path) -> dict:
    keys = sorted(spec["levels"])
    rows = {}
    for i, combo in enumerate(itertools.product(*(spec["levels"][k] for k in keys))):
        params = dict(zip(keys, combo))
        workdir = tmp / f"{name}-{i:03d}"
        rep = run.run_rep(workdir, spec, params, 0)
        why = run.gate(rep, workdir / "out", None, 0.0)
        if why is not None:
            raise SystemExit(f"{name} {params}: {why}")
        rows[run.param_key(params)] = {
            artifact: run.final_row(workdir / "out" / artifact)
            for artifact in spec["artifacts"]}
        shutil.rmtree(workdir)
        print(f"{name} {params}: ok", flush=True)
    return rows


def main(names) -> int:
    workloads = run.load_json("workloads.json")["workloads"]
    path = run.HERE / "reference.json"
    table = run.load_json("reference.json") if path.is_file() else {}
    run.RUNS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="ref-", dir=run.RUNS))
    try:
        for name in names or sorted(workloads):
            table[name] = reference_rows(name, workloads[name], tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
