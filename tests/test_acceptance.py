"""Acceptance suite: one test per advertised guarantee, at stated tolerance.

Each test prints one `criterion N: PASS` line with the measured numbers
(visible with -s; under plain pytest the -v status line per test carries the
same pass/fail verdict).  Tolerances here are the package's contract — they
must not be loosened to keep the suite green.
"""

import math
import time
from functools import partial

import numpy as np

from enslab import ens_jl, ens_sr, galerkin
from enslab.diagnostics import fit_decay_rate, norms
from enslab.grid import (
    BoundaryTrace,
    Grid,
    VectorField,
    divergence,
    face_norm,
    grad_inner,
    integral,
    scalar_norm,
)
from enslab.heat_oracle import heat_march
from enslab.reference import step_nse_projection
from enslab.scenarios import (
    eigen_divergence,
    eigen_lift,
    initial_velocity,
    mms_forcing,
    mms_velocity,
    perturbation_field,
    march,
    stream_vortex,
)
from enslab.stokes_lift import decompose, lift_divergence
from oracles import duhamel_quadrature, flow, fold_energy_ledger, fold_heat_estimates


def report(n, detail):
    print(f"criterion {n}: PASS - {detail}")


def test_criterion_01_reduction_to_standard_equations():
    # solenoidal no-flux start: every route keeps the divergence at zero and
    # the decomposed trajectory reproduces the projection reference
    started = time.monotonic()
    grid = Grid(32)
    u0 = stream_vortex(grid)
    nu, dt, nsteps = 0.1, 1e-3, 500

    jl, sr = flow(grid, nu, dt), flow(grid, nu, dt, lam=1.0)
    starts = {
        "jl_decomposed": (partial(ens_jl.step_decomposed, jl), ens_jl.jl_state(u0)),
        "jl_direct": (partial(ens_jl.step_direct, jl), ens_jl.jl_state(u0, decomposed=False)),
        "sr_constructive": (partial(ens_sr.step_constructive, sr), ens_sr.sr_state(u0)),
        "sr_direct": (partial(ens_sr.step_direct_sr, sr),
                      ens_sr.sr_state(u0, decomposed=False)),
    }
    runs = {label: list(march(step, s0, nsteps))
            for label, (step, s0) in starts.items()}
    worst_div = {label: max(scalar_norm(divergence(s.u)) for s in hist)
                 for label, hist in runs.items()}
    for label, value in worst_div.items():
        assert value <= 1e-9, f"{label} divergence {value:.3e}"

    uref = u0
    for _ in range(nsteps):
        uref = step_nse_projection(uref, dt, nu)
    gap = face_norm(runs["jl_decomposed"][-1].u - uref)
    assert gap <= 1e-6
    elapsed = time.monotonic() - started
    assert elapsed <= 120.0
    report(1, f"max div {max(worst_div.values()):.2e} (<=1e-9 all four routes), "
              f"reference gap {gap:.2e} (<=1e-6), {elapsed:.0f}s (<=120s)")


def test_criterion_02_divergence_heat_decay_rate():
    nu = 0.1
    analytic = -2.0 * math.pi ** 2 * nu
    rels = {}
    for system, bc in (("jl", "neumann"), ("sr", "dirichlet")):
        started = time.monotonic()
        grid = Grid(64)
        g0 = eigen_divergence(grid, system, 1.0, 1)
        hist = list(heat_march(g0, bc, nu, 5e-4, 400))
        rate = fit_decay_rate([s.time for s in hist],
                              [scalar_norm(s.g) for s in hist])
        rels[bc] = abs(rate - analytic) / abs(analytic)
        assert rels[bc] <= 0.01, f"{bc} rate {rate} vs {analytic}"
        assert time.monotonic() - started <= 60.0
    report(2, f"rate error neumann {rels['neumann']:.2e}, "
              f"dirichlet {rels['dirichlet']:.2e} (<=1e-2)")


def test_criterion_03_decomposition_orthogonality():
    started = time.monotonic()
    grid = Grid(32)
    rng = np.random.default_rng(2026)
    worst_pair = worst_div = 0.0
    for _ in range(100):
        uu = rng.standard_normal(grid.shape_u)
        vv = rng.standard_normal(grid.shape_v)
        uu[0, :] = uu[-1, :] = 0.0
        vv[:, 0] = vv[:, -1] = 0.0
        dec = decompose(VectorField(grid, uu, vv))
        pair = abs(grad_inner(dec.v, dec.z))
        scale = math.sqrt(grad_inner(dec.v, dec.v)) * math.sqrt(grad_inner(dec.z, dec.z))
        worst_pair = max(worst_pair, pair / scale)
        worst_div = max(worst_div, scalar_norm(divergence(dec.v)))
    assert worst_pair <= 1e-9
    assert worst_div <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0
    report(3, f"100 fields: worst pairing {worst_pair:.2e}, "
              f"worst div v {worst_div:.2e} (<=1e-9), {elapsed:.0f}s")


def test_criterion_04_lifting_constant_stability():
    cs = []
    for nx in (16, 32, 64):
        g0, z0 = eigen_lift(Grid(nx), "jl", 1.0, 1)
        cs.append(norms(z0)["h1"] / scalar_norm(g0))
    variation = max(cs) / min(cs) - 1.0
    assert variation <= 0.20
    report(4, "c = " + ", ".join(f"{c:.4f}" for c in cs)
              + f" over 16/32/64, variation {variation:.2%} (<=20%)")


def test_criterion_05_energy_ledger_second_order():
    grid = Grid(32)
    _, z0 = eigen_lift(grid, "jl", 0.1, 1)
    u0 = stream_vortex(grid) + z0
    horizon = 0.04

    def imbalance(dt):
        p = flow(grid, 0.1, dt)
        hist = list(march(partial(ens_jl.step_decomposed, p), ens_jl.jl_state(u0),
                          round(horizon / dt)))
        return fold_energy_ledger(p, hist)["imbalance_max"]

    i1, i2, i3 = imbalance(2e-3), imbalance(1e-3), imbalance(5e-4)
    f1, f2 = i1 / i2, i2 / i3
    assert 3.5 <= f1 <= 4.5
    assert 3.5 <= f2 <= 4.5
    report(5, f"imbalance halving factors {f1:.3f}, {f2:.3f} (within [3.5, 4.5])")


def test_criterion_06_growth_envelope_holds():
    grid = Grid(32)
    _, z0 = eigen_lift(grid, "jl", 1e-3, 1)  # v0 = 0, f = 0, small lifted start
    p = flow(grid, 0.1, 1e-3)
    hist = list(march(partial(ens_jl.step_decomposed, p), ens_jl.jl_state(z0), 500))
    rec = fold_energy_ledger(p, hist)
    margin = rec["envelope_margin_min"]
    assert margin >= -1e-12 * max(1.0, rec["envelope_final"])
    report(6, f"envelope margin min {margin:.2e} over t <= 0.5 (never below)")


def test_criterion_07_perturbation_response_is_linear():
    grid = Grid(16)
    base = initial_velocity(grid, "jl", "eigenmode_div", eps=0.01)
    direction = perturbation_field(grid)
    nu, dt, nsteps = 0.05, 2e-3, 50

    def end_u(u0):
        step = partial(ens_jl.step_decomposed, flow(grid, nu, dt))
        return list(march(step, ens_jl.jl_state(u0), nsteps))[-1].u

    end_base = end_u(base)
    ratios = []
    for eps in (1e-3, 1e-4, 1e-5):
        end = end_u(base + direction * eps)
        ratios.append(face_norm(end - end_base) / eps)
    spread = max(ratios) / min(ratios) - 1.0
    assert spread <= 0.10
    report(7, "gap ratios " + ", ".join(f"{r:.6f}" for r in ratios)
              + f", spread {spread:.2e} (<=10%)")


def test_criterion_08_solvability_gap_conserved_and_decaying():
    grid = Grid(32)
    # compatible data: mass-matched wall trace, gap stays at round-off
    g0 = eigen_divergence(grid, "sr", 0.01, 1)
    h0 = BoundaryTrace.constant(grid, integral(g0) / 4.0)
    z0 = lift_divergence(g0, h0)
    u0 = stream_vortex(grid) + z0
    hist = list(march(partial(ens_sr.step_constructive, flow(grid, 0.1, 1e-3, lam=1.0)),
                      ens_sr.sr_state(u0), 500))
    conserved = max(abs(ens_sr.solvability_gap(s.g, s.h)) for s in hist)
    assert conserved <= 1e-9

    # incompatible data: the gap must shed a factor e^{-lam t}
    lam, dt, nsteps = 1.5, 5e-3, 100
    sub = ens_sr.sr_gap_run(eigen_divergence(grid, "sr", 1.0, 1),
                            BoundaryTrace.zeros(grid), flow(grid, 0.02, dt, lam=lam), nsteps)
    gap0 = ens_sr.solvability_gap(sub[0][0], sub[0][1])
    gapT = ens_sr.solvability_gap(sub[-1][0], sub[-1][1])
    expected = math.exp(-lam * dt * nsteps)
    rel = abs(gapT / gap0 - expected) / expected
    assert rel <= 0.02
    report(8, f"compatible max |gap| {conserved:.2e} over T=0.5 (<=1e-9); "
              f"incompatible decay factor off by {rel:.2e} (<=2%)")


def test_criterion_09_boundary_update_second_order():
    grid = Grid(32)
    lam, nu, horizon = 2.0, 0.05, 0.2
    g0 = eigen_divergence(grid, "sr", 1.0, 1)
    h0 = BoundaryTrace.constant(grid, 0.3)
    nfine = 160
    dtf = horizon / nfine
    fine = ens_sr.sr_gap_run(g0, h0, flow(grid, nu, dtf, lam=lam), nfine)
    times = np.array([k * dtf for k in range(nfine + 1)])
    samples = np.array([ens_sr.compat_constant(g, nu, lam, integral(g)) for g, _ in fine])
    href = duhamel_quadrature(h0, times, samples, lam)

    def stepped_error(dt):
        hist = ens_sr.sr_gap_run(g0, h0, flow(grid, nu, dt, lam=lam), round(horizon / dt))
        return (hist[-1][1] - href).max_abs()

    e1, e2 = stepped_error(0.02), stepped_error(0.01)
    factor = e1 / e2
    assert 3.5 <= factor <= 4.5
    report(9, f"stepped-vs-quadrature errors {e1:.2e} -> {e2:.2e}, "
              f"halving factor {factor:.3f} (within [3.5, 4.5])")


def test_criterion_10_spectral_system_consistency():
    grid = Grid(16)
    # single-mode pure decay against the exponential
    basis1 = galerkin.build_basis(grid, 1)
    state = galerkin.GalerkinState(np.array([1.0]))
    nu, dt, horizon = 0.01, 1e-3, 1.0
    hist = galerkin.integrate_galerkin(basis1, state, nu, dt, round(horizon / dt))
    exact = math.exp(-nu * basis1.lam[0] * horizon)
    decay_err = abs(hist[-1].coeffs[0] - exact)
    assert decay_err <= 1e-8

    # unforced energy is monotone
    basis8 = galerkin.build_basis(grid, 8)
    seed = galerkin.project_onto_basis(basis8, stream_vortex(grid))
    traj = galerkin.integrate_galerkin(basis8, seed, nu, 2e-3, 50)
    energies = [0.5 * float(s.coeffs @ s.coeffs) for s in traj]
    rises = [b - a for a, b in zip(energies, energies[1:])]
    assert max(rises) <= 1e-14 * max(1.0, energies[0])

    # truncated system tracks the full solver, better with more modes
    gaps = {}
    for k in (8, 16):
        basis = galerkin.build_basis(grid, k)
        start = galerkin.project_onto_basis(basis, stream_vortex(grid))
        shared = galerkin.reconstruct(basis, start)
        end = galerkin.integrate_galerkin(basis, start, nu, 1e-3, 100)[-1]
        spectral = galerkin.reconstruct(basis, end)
        full = list(march(partial(ens_jl.step_decomposed, flow(grid, nu, 1e-3)),
                          ens_jl.jl_state(shared), 100))[-1].u
        gaps[k] = face_norm(spectral - full) / face_norm(full)
    assert gaps[8] <= 0.10
    assert gaps[16] < gaps[8]
    report(10, f"mode decay error {decay_err:.2e} (<=1e-8 at T=1); energy "
               f"monotone; solver gap k=8 {gaps[8]:.3f} (<=0.10), "
               f"k=16 {gaps[16]:.3f} (smaller)")


def test_criterion_11_divergence_estimates_hold():
    worst_sup = worst_grad = math.inf
    rng = np.random.default_rng(7)
    runs = 0
    for bc, system in (("neumann", "jl"), ("dirichlet", "sr")):
        for nu in (0.05, 0.2):
            for mode in (1, 2):
                grid = Grid(32)
                g0 = eigen_divergence(grid, system, 1.0, mode)
                rec = fold_heat_estimates(heat_march(g0, bc, nu, 1e-3, 100), bc, nu)
                worst_sup = min(worst_sup, rec["sup_margin"])
                worst_grad = min(worst_grad, rec["grad_margin"])
                runs += 1
        # rough data: random cell values, interior-mean-free for the flux case
        vals = rng.standard_normal((32, 32))
        grid = Grid(32)
        g0 = eigen_divergence(grid, system, 1.0, 1)
        rough = g0.values + 0.5 * (vals - vals.mean())
        from enslab.grid import ScalarField
        rough = ScalarField(grid, rough)
        rec = fold_heat_estimates(heat_march(rough, bc, 0.1, 1e-3, 100), bc, 0.1)
        worst_sup = min(worst_sup, rec["sup_margin"])
        worst_grad = min(worst_grad, rec["grad_margin"])
        runs += 1
    assert worst_sup >= -1e-8
    assert worst_grad >= -1e-8
    report(11, f"{runs} heat runs: worst sup margin {worst_sup:.2e}, "
               f"worst dissipation margin {worst_grad:.2e} (>= -1e-8)")


def test_criterion_12_routes_converge_to_each_other():
    orders = {}

    grid = Grid(32)
    _, z0 = eigen_lift(grid, "jl", 0.1, 1)
    u0 = stream_vortex(grid) + z0
    horizon = 0.08
    gaps = []
    for dt in (4e-3, 2e-3, 1e-3):
        n = round(horizon / dt)
        p = flow(grid, 0.1, dt)
        sa = list(march(partial(ens_jl.step_decomposed, p), ens_jl.jl_state(u0), n))[-1]
        sb = list(march(partial(ens_jl.step_direct, p),
                        ens_jl.jl_state(u0, decomposed=False), n))[-1]
        gaps.append(face_norm(sa.u - sb.u))
    orders["jl"] = (math.log2(gaps[0] / gaps[1]), math.log2(gaps[1] / gaps[2]))

    g0 = eigen_divergence(grid, "sr", 0.01, 1)
    h0 = BoundaryTrace.constant(grid, integral(g0) / 4.0)
    z0 = lift_divergence(g0, h0)
    u0 = stream_vortex(grid) + z0
    horizon = 0.1
    gaps = []
    for dt in (4e-3, 2e-3, 1e-3):
        n = round(horizon / dt)
        p = flow(grid, 0.02, dt, lam=1.0)
        sc = list(march(partial(ens_sr.step_constructive, p), ens_sr.sr_state(u0), n))[-1]
        sd = list(march(partial(ens_sr.step_direct_sr, p),
                        ens_sr.sr_state(u0, decomposed=False), n))[-1]
        gaps.append(face_norm(sc.u - sd.u))
    orders["sr"] = (math.log2(gaps[0] / gaps[1]), math.log2(gaps[1] / gaps[2]))

    for system, pair in orders.items():
        for order in pair:
            assert order >= 0.9, f"{system} order {order}"
    report(12, "route-gap refinement orders jl "
               + "/".join(f"{o:.3f}" for o in orders["jl"]) + ", sr "
               + "/".join(f"{o:.3f}" for o in orders["sr"]) + " (>=0.9)")


def test_criterion_13_manufactured_solution_order():
    started = time.monotonic()
    nu, horizon = 0.05, 0.1
    errors = []
    for nx, dt in ((16, 4e-3), (32, 2e-3), (64, 1e-3)):
        grid = Grid(nx)
        ustar = mms_velocity(grid)
        step = partial(ens_jl.step_direct, flow(grid, nu, dt, mms_forcing(grid, nu)))
        hist = list(march(step, ens_jl.jl_state(ustar, decomposed=False), round(horizon / dt)))
        errors.append(face_norm(hist[-1].u - ustar))
    o1 = math.log2(errors[0] / errors[1])
    o2 = math.log2(errors[1] / errors[2])
    assert o1 >= 1.8
    assert o2 >= 1.8
    elapsed = time.monotonic() - started
    assert elapsed <= 300.0
    report(13, f"errors {errors[0]:.2e}/{errors[1]:.2e}/{errors[2]:.2e} "
               f"over 16/32/64, orders {o1:.3f}, {o2:.3f} (>=1.8), {elapsed:.0f}s")
