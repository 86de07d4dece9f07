"""Self-tests of the benchmark itself, on tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that ``run.py --list-metrics`` prints every metric of BENCHMARK.json
with its unit; that a tiny run of each workload, traced and untraced, yields
every metric name; that per-layer counts repeat exactly across two traced
runs; that on each thread the traced self times sum to no more than the
traced wall time; and that ``run.py`` fails, printing no result, in a
directory that holds only the benchmark and no program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import run
from layers import layer_metrics, self_times

TINY = {
    "jl_compare_n64": {"grid": 16, "T": 0.01},
    "sr_direct_n128": {"grid": 16, "T": 0.004},
    "galerkin_n32": {"grid": 8, "modes": 8, "T": 0.002},
}


def check(ok: bool, what: str, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer_names = [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures: list = []

    listing = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--list-metrics"],
                             capture_output=True, text=True, check=True).stdout.split("\n")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(any(line.split()[1:3] == [m["name"], m["unit"]] for line in listing if line),
              f"--list-metrics prints {m['name']} [{m['unit']}]", failures)

    workloads = run.load_json("workloads.json")["workloads"]
    run.RUNS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RUNS))
    try:
        for name, override in TINY.items():
            spec = dict(workloads[name])
            spec["config"] = {**spec["config"], **override}
            params = run.draw_params(name, spec, 0)
            reps = []
            for i, trace in enumerate((0, 1, 1)):
                workdir = tmp / f"{name}-{i}"
                rep = run.run_rep(workdir, spec, params, trace)
                why = run.gate(rep, workdir / "out", None, 0.0)
                check(why is None, f"{name}: tiny repetition {i} passes ({why})", failures)
                if why is not None:
                    break
                rep["timings"] = run.rep_timings(rep, run.nsteps(spec))
                rep["layers"] = layer_metrics(rep["spans"], run.artifact_bytes(workdir / "out"))
                reps.append(rep)
            if len(reps) < 3:
                continue
            values, _ = run.end_to_end([reps[0]["timings"]])
            check(sorted(values) == sorted(e2e), f"{name}: every end-to-end metric", failures)
            names = set(reps[1]["layers"]) | {"trace.overhead_s"}
            check(names == set(layer_names), f"{name}: every per-layer metric", failures)
            counts = [k for k in reps[1]["layers"] if units[k] == "count"]
            same = all(reps[1]["layers"][k] == reps[2]["layers"][k] for k in counts)
            check(same, f"{name}: per-layer counts repeat exactly", failures)
            for rep in reps[1:]:
                own = self_times(rep["spans"])
                per_thread = defaultdict(float)
                for span in rep["spans"]:
                    per_thread[span[5]] += own[span[0]]
                wall = rep["timings"]["wall_s"]
                check(max(per_thread.values()) <= wall * (1 + 1e-9),
                      f"{name}: self times per thread {max(per_thread.values()):.4f} s "
                      f"<= traced wall {wall:.4f} s", failures)

        bare = tmp / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                               "sr_direct_n128", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"without the program run.py exits {proc.returncode} and prints no result",
              failures)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
