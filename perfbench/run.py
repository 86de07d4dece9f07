"""Benchmark of the ``enslab`` command: time to solution, set-up and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics

Run from the root of a source checkout.  Each repetition runs one ``enslab``
command in a fresh process (closed loop, one client, one command at a time,
cold factor cache), on a config whose parameters are drawn from the seed.
A run makes a fixed number of repetitions, as many as fill ``--seconds`` at
the workload's nominal repetition time, half before and half after the
known-defect probe, which runs once per invocation outside the timed
repetitions.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced repetitions
alternate and it holds the per-layer metrics and the tracing overhead.

A repetition counts as failed, with no timing, unless it exits 0, its
``summary.txt`` says ``overall PASS`` and the final rows of its CSV artifacts
match the values stored in ``reference.json`` for its parameters.
Artifacts go to a temporary directory under ``.perfbench_runs/`` that is
removed at the end; run records and the spans of one traced repetition are
kept there.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import STEP_NAMES, layer_metrics
from tracer import SPAN_FIELDS, STATE_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
REP_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Tolerance of the reference check.  The loosest solver tolerance on these
# paths is the 1e-9 of the Stokes lift of the initial condition (the step
# solves use 1e-12).  A solver that meets the same tolerance differently may
# move each solve by up to tolerance x condition number, where the condition
# number of I - c*Lap on these grids is 1 + 8c/h^2 <= 30, and the moves add
# up over the steps.
SOLVER_TOL = 1e-9
COND_BOUND = 30.0


def load_json(name: str):
    with open(HERE / name, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def draw_params(name: str, spec: dict, seed: int) -> dict:
    """Config parameters drawn from the workload's levels; same seed, same draw."""
    rng = random.Random(f"{name}:{seed}")
    return {key: rng.choice(values) for key, values in sorted(spec["levels"].items())}


def param_key(params: dict) -> str:
    return json.dumps(params, sort_keys=True)


def config_text(spec: dict, params: dict) -> str:
    items = {**spec["config"], **params}
    return "".join(f"{k} = {v}\n" for k, v in items.items())


def nsteps(spec: dict) -> int:
    return max(1, round(spec["config"]["T"] / spec["config"]["dt"]))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ENSLAB_THREADS", None)  # default fan-out width: one per core
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------

def run_rep(workdir: Path, spec: dict, params: dict, trace: int) -> dict:
    """Run one command in a fresh process; returns its record (spans, usage)."""
    workdir.mkdir(parents=True)
    cfg = workdir / "config.cfg"
    cfg.write_text(config_text(spec, params), encoding="ascii")
    result = workdir / "result.json"
    argv = [sys.executable, str(HERE / "child.py"), "--result", str(result),
            "--trace", str(trace), spec["command"], "--config", str(cfg),
            "--out", str(workdir / "out"), "--quiet"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=workdir, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"code": None, "elapsed_s": time.perf_counter() - start,
                "message": f"timed out after {REP_TIMEOUT_S} s"}
    rep = {"code": proc.returncode, "elapsed_s": time.perf_counter() - start,
           "message": (proc.stderr.strip().splitlines() or [""])[-1]}
    if result.is_file():
        with open(result, encoding="utf-8") as f:
            rep.update(json.load(f))
    return rep


def final_row(path: Path) -> dict:
    lines = path.read_text(encoding="ascii").splitlines()
    return dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))


def gate(rep: dict, out: Path, reference: dict | None, rtol: float) -> str | None:
    """Why the repetition failed, or None when its outputs are correct."""
    if rep["code"] != 0:
        return f"exit code {rep['code']}: {rep['message']}"
    summary = out / "summary.txt"
    if not summary.is_file() or summary.read_text().splitlines()[-1:] != ["overall PASS"]:
        return "summary.txt does not say overall PASS"
    if reference is None:
        return None
    scale = max(abs(v) for row in reference.values() for k, v in row.items() if k != "t")
    for name, expected in reference.items():
        path = out / name
        if not path.is_file():
            return f"missing artifact {name}"
        actual = final_row(path)
        for col, want in expected.items():
            got = actual.get(col)
            if got is None or not abs(got - want) <= rtol * (abs(want) + scale):
                return f"{name}: final {col} = {got!r}, reference {want!r} (rtol {rtol:.1e})"
    return None


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def rep_timings(rep: dict, steps_in_integrate: int) -> dict:
    """End-to-end timings of one repetition, read from its stepper spans."""
    spans = rep["spans"]
    main = next(s for s in spans if s[1] == "cli.main")
    steps = [s for s in spans if s[1] in STEP_NAMES]
    first, last = min(s[2] for s in steps), max(s[3] for s in steps)
    if any(s[1] == "galerkin.integrate_galerkin" for s in steps):
        # One call runs every step.  It builds the coupling tensor first; then
        # each step ends when its state is built, and the time between two
        # state builds is one step sample.  The first step includes the
        # tensor build; the stepping rate does not.
        mark = STATE_MARK.replace(":", ".")
        begin = max([first] + [s[3] for s in spans
                               if s[1] == "galerkin.coupling_tensor" and s[2] >= first])
        ends = sorted(s[3] for s in spans if s[1] == mark and begin <= s[2] <= last)
        if ends:
            bounds = [begin] + ends
            samples = [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
            first_step = ends[0] - first
            count, stepping = len(samples), ends[-1] - begin
        else:  # no state marks: one sample, the mean step
            count, stepping = steps_in_integrate, last - begin
            samples = [stepping / count * 1e3]
            first_step = begin - first + stepping / count
    else:
        # Every step call is a sample; in compare both routes' steps pool.
        samples = [(s[3] - s[2]) * 1e3 for s in steps]
        first_by_thread: dict = {}
        for s in sorted(steps, key=lambda s: s[2]):
            first_by_thread.setdefault(s[5], s)
        first_step = max(s[3] - s[2] for s in first_by_thread.values())
        count, stepping = len(steps), last - first
    return {
        "wall_s": main[3] - main[2],
        "setup_s": first - main[2],
        "first_step_ms": first_step * 1e3,
        "steps_per_s": count / stepping,
        "steps": count,
        "stepping_s": stepping,
        "cpu_s": rep["cpu_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "step_ms": samples,
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it."""
    if n < 20:
        return None
    return math.floor(100 * (n - 10) / n)


def end_to_end(reps: list) -> tuple[dict, list]:
    """Metric -> value over the repetitions, and the samples behind each."""
    values, rows = {}, []
    for name in ("wall_s", "setup_s", "first_step_ms", "steps_per_s", "cpu_s",
                 "peak_rss_mb"):
        samples = [r[name] for r in reps]
        values[name] = statistics.median(samples)
        rows.append((name, samples))
    # The stepping rate is that of the whole run, every step over all the
    # stepping time: a Galerkin repetition steps for well under a second.
    values["steps_per_s"] = (sum(r["steps"] for r in reps)
                             / sum(r["stepping_s"] for r in reps))
    steps = [v for r in reps for v in r["step_ms"]]
    values["step_ms_p50"] = percentile(steps, 50)
    values["step_ms_p90"] = percentile(steps, 90)
    rows.append(("step_ms", steps))
    return values, rows


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def provenance(versions: dict) -> dict:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    # Only this checkout's own repository counts, not one it happens to sit in.
    commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "enslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit or "not a git checkout",
            "source_sha256": digest.hexdigest()[:16], **versions,
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def list_metrics(bench: dict) -> None:
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            print(f"{kind:10s}  {m['name']:55s}  {m['unit']:6s}  {m['better']}")


def run_probe(tmp: Path, spec: dict) -> tuple[bool, str]:
    """The known-defect probe: one attempted operation, outside the timing."""
    out = tmp / "probe"
    rep = run_rep(out, spec, {}, 0)
    why = gate(rep, out / "out", None, 0.0)
    return why is None, f"{why or 'passed'} after {rep['elapsed_s']:.1f} s"


def rep_count(spec: dict, seconds: float) -> int:
    """Repetitions that fill ``seconds`` at the workload's nominal repetition
    time.  The count depends only on the arguments, so every run of a
    workload attempts the same number of operations."""
    return max(2, round(seconds / spec["rep_s"]))


def measure(runs: dict, name: str, spec: dict, params: dict, count: int,
            seconds: float, trace: int, tmp: Path, reference: dict) -> None:
    """Add to ``runs`` ``count`` gated repetitions (alternating untraced and
    traced ones when tracing).  Three failures end the run, and so does a
    host so slow that the repetitions take twice ``seconds``."""
    rtol = SOLVER_TOL * COND_BOUND * nsteps(spec)
    untraced, traced, failures, elapsed = (
        runs[k] for k in ("untraced", "traced", "failures", "elapsed"))
    deadline = time.perf_counter() + 2 * seconds
    for _ in range(count):
        if len(failures) >= 3 or time.perf_counter() > deadline:
            break
        i = len(elapsed)
        traced_rep = bool(trace and i % 2)
        workdir = tmp / f"rep-{i:03d}"
        rep = run_rep(workdir, spec, params, int(traced_rep))
        elapsed.append(rep["elapsed_s"])
        out = workdir / "out"
        why = gate(rep, out, reference, rtol)
        if why is not None:
            failures.append(why)
            print(f"repetition {i + 1} failed: {why}", file=sys.stderr)
            continue
        rep["artifact_bytes"] = artifact_bytes(out)
        rep["timings"] = rep_timings(rep, nsteps(spec))
        rep["run_id"] = f"{name}-r{i + 1}-{os.getpid()}"
        (traced if traced_rep else untraced).append(rep)
        shutil.rmtree(workdir)


def write_spans(path: Path, rep: dict) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as f:
        for span in rep["spans"]:
            f.write(json.dumps({"run": rep["run_id"], **dict(zip(SPAN_FIELDS, span))}) + "\n")


def main(argv=None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    workloads = load_json("workloads.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    if args.list_metrics:
        list_metrics(bench)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "enslab" / "cli.py").is_file():
        print(f"no enslab sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2

    spec = workloads["workloads"][args.workload]
    params = draw_params(args.workload, spec, args.seed)
    reference = load_json("reference.json")[args.workload].get(param_key(params))
    if reference is None:
        print(f"no reference values for {param_key(params)}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RUNS))
    try:
        # Half the repetitions run before the probe and half after it, so a
        # run samples the host over twice the time span.
        runs = {"untraced": [], "traced": [], "failures": [], "elapsed": []}
        count = rep_count(spec, args.seconds)
        for half, reps in enumerate((count // 2, count - count // 2)):
            if half:
                probe_ok, probe_note = run_probe(tmp, workloads["probe"])
            measure(runs, args.workload, spec, params, reps, args.seconds / 2,
                    args.trace, tmp, reference)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced, traced, failures = runs["untraced"], runs["traced"], runs["failures"]
    print(f"workload {args.workload}  seed {args.seed}  params {param_key(params)}")
    print(f"repetitions: {len(untraced)} untraced, {len(traced)} traced, "
          f"{len(failures)} failed")
    print(f"known-defect probe: {'ok' if probe_ok else 'FAILED'} ({probe_note})")
    if not untraced or (args.trace and not traced):
        print("no repetition passed its checks", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    values, rows = end_to_end([r["timings"] for r in untraced])
    print(f"{'metric':16s} {'unit':6s} {'value':>12s} {'tail':>18s} {'n':>5s}")
    for name, samples in rows:
        p = tail_percentile(len(samples))
        tail = f"p{p} {percentile(samples, p):.4g}" if p else "n<20"
        value = values.get(name, statistics.median(samples))
        print(f"{name:16s} {units.get(name, 'ms'):6s} "
              f"{value:12.5g} {tail:>18s} {len(samples):5d}")
    print(f"fail_frac (timed repetitions): {len(failures)}/"
          f"{len(failures) + len(untraced) + len(traced)}")

    if args.trace:
        per_rep = [layer_metrics(r["spans"], r["artifact_bytes"]) for r in traced]
        layer = {k: statistics.median_low(m[k] for m in per_rep) for k in per_rep[0]}
        counts_repeat = all(m[k] == per_rep[0][k] for m in per_rep for k in m
                            if units[k] == "count")
        traced_wall = statistics.median(r["timings"]["wall_s"] for r in traced)
        layer["trace.overhead_s"] = traced_wall - values["wall_s"]
        print(f"traced wall {traced_wall:.4f} s, untraced {values['wall_s']:.4f} s; "
              f"counts repeat across {len(per_rep)} traced repetitions: {counts_repeat}")
        for k, v in layer.items():
            print(f"  {k:55s} {v:14.6g} {units[k]}")
        metrics = {m["name"]: layer[m["name"]] for m in bench["per_layer"]}
        write_spans(RUNS / f"{args.workload}-seed{args.seed}.spans.jsonl.gz", traced[0])
    else:
        metrics = {m["name"]: values[m["name"]] for m in bench["end_to_end"]}

    missing = sorted({t for r in untraced + traced for t in r["missing"]})
    if missing:
        print(f"warning: targets not found in the program: {missing}")
    prov = provenance(untraced[0]["versions"])
    print("provenance: " + json.dumps(prov))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "params": params, "provenance": prov, "metrics": metrics,
              "repetitions": [{k: v for k, v in r["timings"].items() if k != "step_ms"}
                              for r in untraced + traced],
              "failures": failures, "probe": probe_note}
    with open(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    attempted = len(untraced) + len(traced) + len(failures) + 1
    failed = len(failures) + (0 if probe_ok else 1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
