"""Tour: the truncated spectral model of the solenoidal flow.

The divergence-free, no-slip velocity space has an orthonormal basis of
viscous eigenmodes.  Truncating the flow onto the first k modes turns the
PDE into k coupled ODEs with a quadratic transport term; the package builds
the basis, the coupling tensor, and a fourth-order integrator for the
reduced system, then cross-checks it against the full field solver.

Run:  python3 demos/spectral_portrait.py
"""

import math
from functools import partial

from enslab import ens_jl, galerkin
from enslab.grid import Grid, VectorField, face_norm
from enslab.reference import Flow
from enslab.scenarios import march, stream_vortex


def main() -> None:
    grid = Grid(16)

    print("=== 1. The viscous spectrum ===")
    basis = galerkin.build_basis(grid, 16)
    print("  first eigenvalues:",
          ", ".join(f"{v:.2f}" for v in basis.lam[:8]))
    print("  (pairs share values where the square's symmetry swaps x and y)")

    print()
    print("=== 2. Truncation error of a vortex ===")
    seed = stream_vortex(grid)
    print("   k    ||u - P_k u|| / ||u||")
    for k in (2, 4, 8, 16):
        b = galerkin.build_basis(grid, k)
        state = galerkin.project_onto_basis(b, seed)
        err = face_norm(seed - galerkin.reconstruct(b, state)) / face_norm(seed)
        print(f"  {k:3d}    {err:.4e}")

    print()
    print("=== 3. Reduced dynamics track the full solver ===")
    nu, dt, horizon = 0.01, 1e-3, 0.1
    for k in (8, 16):
        b = galerkin.build_basis(grid, k)
        start = galerkin.project_onto_basis(b, seed)
        shared = galerkin.reconstruct(b, start)
        traj = galerkin.integrate_galerkin(b, start, nu, dt, round(horizon / dt))
        spectral = galerkin.reconstruct(b, traj[-1])
        step = partial(ens_jl.step_decomposed, Flow(nu, dt, VectorField.zeros(grid)))
        full = list(march(step, ens_jl.jl_state(shared), round(horizon / dt)))[-1].u
        rel = face_norm(spectral - full) / face_norm(full)
        print(f"  k = {k:2d}: relative end-state gap = {rel:.4f}")

    print()
    print("=== 4. The reduced system keeps the energy honest ===")
    b = galerkin.build_basis(grid, 8)
    start = galerkin.project_onto_basis(b, seed)
    traj = galerkin.integrate_galerkin(b, start, nu, 2e-3, 100)
    rec = galerkin.galerkin_energy_ledger(b, traj, nu, 2e-3)
    print(f"  energy {rec['energy_initial']:.6f} -> {rec['energy_final']:.6f} "
          f"(transport moves energy, only viscosity removes it)")
    print(f"  per-step ledger imbalance rate: {rec['imbalance_rate_max']:.2e}")
    lam1 = b.lam[0]
    e0, e1 = rec["energy_initial"], rec["energy_final"]
    ceiling = e0 * math.exp(-2.0 * nu * lam1 * 0.2)
    print(f"  viscosity drains every mode at least at rate 2 nu lam1, so "
          f"E(t) <= E(0) e^(-2 nu lam1 t) = {ceiling:.6f}")
    print(f"  final energy {e1:.6f} sits below that ceiling: {e1 <= ceiling}")


if __name__ == "__main__":
    main()
