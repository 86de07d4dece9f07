"""Per-layer metrics from the spans of one traced repetition.

A span's self time is its duration minus the part of its interval that its
child spans cover (children on other threads included), so self times of the
spans on one thread never sum to more than that thread's wall time.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import STEPPERS

def _covered(intervals) -> float:
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans) -> dict:
    """Span id -> self time in seconds."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children[sid])
            for sid, _, start, end, _, _, _ in spans}


STEP_NAMES = tuple(t.replace(":", ".") for t in STEPPERS)


def layer_metrics(spans, artifact_bytes: int) -> dict:
    """Every per-layer metric of BENCHMARK.json except the tracing overhead."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def pick(*names):
        return [s for n in names for s in by_name[n]]

    def count(*names):
        return len(pick(*names))

    def self_s(*names):
        return sum(own[s[0]] for s in pick(*names))

    def total_s(*names):
        return sum(s[3] - s[2] for s in pick(*names))

    def attr_sum(spans_, key):
        return sum((s[6] or {}).get(key, 0) for s in spans_)

    poisson = "linsolve.NeumannPoisson.solve_values"
    helmholtz = "linsolve.NoslipHelmholtz.solve"
    cg, stokes = "linsolve.cg_solve", "linsolve.stokes_solve"
    cached, lu = "linsolve._cached", "linsolve._lu_solver"
    pvs = "reference.projected_viscous_solve"
    lifts = ("stokes_lift.lift_divergence", "stokes_lift.lift_with_boundary")
    grid_ops = ("grid.divergence", "grid.gradient", "grid.vector_laplacian")
    writes = ("fieldio.write_component", "fieldio.write_csv", "fieldio.write_summary")
    jl_steps = ("ens_jl.step_decomposed", "ens_jl.step_direct")
    sr_steps = ("ens_sr.step_constructive", "ens_sr.step_direct_sr")

    # Factors keyed by the cache key that built them: when both compare
    # threads build one factor at once it counts once in builds and fill, so
    # these repeat exactly; the duplicate shows in factor.s and hit_ratio.
    keys = {s[0]: (s[6] or {}).get("key") for s in pick(cached)}
    fill = {}
    for s in pick(lu):
        fill.setdefault(keys.get(s[4], s[0]), (s[6] or {}).get("nnz", 0))

    pvs_ids = {s[0] for s in pick(pvs)}
    pvs_iters = attr_sum([s for s in pick(cg) if s[4] in pvs_ids], "iters")

    steps = pick(*STEP_NAMES)
    step_wall = (max(s[3] for s in steps) - min(s[2] for s in steps)) if steps else 0.0
    step_time = total_s(*STEP_NAMES)

    # Self time of the solver modules inside step calls, as a share of the
    # summed step time.
    parent_of = {s[0]: s[4] for s in spans}
    step_ids = {s[0] for s in steps}

    def in_step(sid):
        sid = parent_of[sid]
        while sid is not None and sid not in step_ids:
            sid = parent_of.get(sid)
        return sid is not None

    solver_self = sum(own[s[0]] for s in spans
                      if s[1].startswith(("linsolve.", "reference.", "stokes_lift."))
                      and in_step(s[0]))

    return {
        "linsolve.poisson.solves": count(poisson),
        "linsolve.poisson.self_s": self_s(poisson),
        "linsolve.cg.calls": count(cg),
        "linsolve.cg.iters": attr_sum(pick(cg), "iters"),
        "linsolve.cg.self_s": self_s(cg),
        "linsolve.stokes.calls": count(stokes),
        "linsolve.stokes.iters": attr_sum(pick(stokes), "iters"),
        "linsolve.stokes.self_s": self_s(stokes),
        "linsolve.helmholtz.solves": count(helmholtz),
        "linsolve.helmholtz.self_s": self_s(helmholtz),
        "linsolve.factor.builds": len(fill),
        "linsolve.factor.s": total_s(lu),
        "linsolve.factor.nnz": sum(fill.values()),
        "linsolve.factor.hit_ratio": count(cached) / count(lu) if fill else 0.0,
        "reference.projected_viscous_solve.calls": count(pvs),
        "reference.projected_viscous_solve.self_s": self_s(pvs),
        "reference.projected_viscous_solve.cg_iters_per_call":
            pvs_iters / len(pvs_ids) if pvs_ids else 0.0,
        "stokes_lift.lift.calls": count(*lifts),
        "stokes_lift.lift.self_s": self_s(*lifts),
        "stokes_lift.leray_project.calls": count("stokes_lift.leray_project"),
        "stokes_lift.leray_project.self_s": self_s("stokes_lift.leray_project"),
        "stokes_lift.decompose.s": total_s("stokes_lift.decompose"),
        "heat_oracle.heat_step.calls": count("heat_oracle.heat_step"),
        "heat_oracle.heat_step.self_s": self_s("heat_oracle.heat_step"),
        "advection.skew_advect.calls": count("advection.skew_advect"),
        "advection.skew_advect.self_s": self_s("advection.skew_advect"),
        "grid.ops.calls": count(*grid_ops),
        "grid.ops.self_s": self_s(*grid_ops),
        "ens_jl.step.self_s": self_s(*jl_steps),
        "ens_jl.check_energy_bound.s": total_s("ens_jl.check_energy_bound"),
        "ens_sr.step.self_s": self_s(*sr_steps),
        "ens_sr.pressure_poisson.self_s": self_s("ens_sr.pressure_poisson"),
        "galerkin.build_basis.s": total_s("galerkin.build_basis"),
        "galerkin.coupling_tensor.s": total_s("galerkin.coupling_tensor"),
        "galerkin.integrate.s": total_s("galerkin.integrate_galerkin"),
        "cli.self_s": self_s("cli.main"),
        "cli.overlap": step_time / step_wall if step_wall else 0.0,
        "steps.solver_share": solver_self / step_time if step_time else 0.0,
        "fieldio.write.calls": count(*writes),
        "fieldio.write.s": total_s(*writes),
        "fieldio.bytes": artifact_bytes,
    }
