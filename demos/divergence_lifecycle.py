"""Tour: what happens to divergence that the incompressible model forbids.

Both systems in this package evolve velocity fields whose divergence is not
constrained to zero.  Instead the divergence obeys its own damped dynamics:
a zero-flux heat equation in the no-slip system, a zero-trace heat equation
plus a relaxing wall flux in the open-boundary system.  On divergence-free
data both collapse to the standard incompressible equations.

Run:  python3 demos/divergence_lifecycle.py
"""

import math

from enslab import ens_jl, ens_sr
from enslab.grid import Grid, divergence, face_norm, scalar_norm
from enslab.heat_oracle import divergence_state, heat_step
from enslab.reference import step_nse_projection
from enslab.scenarios import eigen_lift, march, stream_vortex


def main() -> None:
    grid = Grid(32)
    nu, dt = 0.1, 1e-3

    print("=== 1. Solenoidal start: every route is a plain flow solver ===")
    u0 = stream_vortex(grid)
    nsteps = 100
    starts = {
        "no-slip, decomposed   ": (ens_jl.step_decomposed, ens_jl.jl_state(u0, nu)),
        "no-slip, direct       ": (ens_jl.step_direct,
                                   ens_jl.jl_state(u0, nu, decomposed=False)),
        "open-wall, constructive": (ens_sr.step_constructive,
                                    ens_sr.sr_state(u0, 1.0, nu)),
        "open-wall, direct      ": (ens_sr.step_direct_sr,
                                    ens_sr.sr_state(u0, 1.0, nu, decomposed=False)),
    }
    runs = {label: list(march(step, s0, dt, nsteps))
            for label, (step, s0) in starts.items()}
    uref = u0
    for k in range(nsteps):
        uref = step_nse_projection(uref, k * dt, dt, nu)
    for label, hist in runs.items():
        worst = max(scalar_norm(divergence(s.u)) for s in hist)
        gap = face_norm(hist[-1].u - uref)
        print(f"  {label}: max ||div u|| = {worst:.2e},"
              f"  gap to projection reference = {gap:.2e}")

    print()
    print("=== 2. Divergent start: the no-slip system damps it like heat ===")
    g0, z0 = eigen_lift(grid, "jl", eps=0.05, mode=1)
    u0 = stream_vortex(grid) + z0
    nsteps = 200
    hist = list(march(ens_jl.step_decomposed, ens_jl.jl_state(u0, nu), dt, nsteps))
    oracle = list(march(heat_step, divergence_state(g0, "neumann", nu), dt, nsteps))
    print("     t      ||div u||     heat oracle    rel gap")
    for k in (0, 50, 100, 200):
        d = scalar_norm(divergence(hist[k].u))
        o = scalar_norm(oracle[k].g)
        print(f"  {hist[k].time:5.2f}   {d:.6e}  {o:.6e}  {abs(d - o) / o:.1e}")
    rate = -2.0 * math.pi ** 2 * nu
    print(f"  (the analytic decay rate for this mode is {rate:.4f})")

    rec = ens_jl.check_energy_bound(hist)
    print(f"  energy ledger: max per-step imbalance {rec['imbalance_max']:.2e}, "
          f"envelope margin min {rec['envelope_margin_min']:.2e}")

    print()
    print("=== 3. Open walls: the flux gap decays at exactly the dial rate ===")
    lam, dtg, ng = 1.5, 5e-3, 100
    from enslab.grid import BoundaryTrace
    from enslab.scenarios import eigen_divergence
    sub = ens_sr.sr_gap_run(eigen_divergence(grid, "sr", 1.0, 1),
                            BoundaryTrace.zeros(grid), lam, 0.02, dtg, ng)
    gap0 = ens_sr.solvability_gap(sub[0][0], sub[0][1])
    gapT = ens_sr.solvability_gap(sub[-1][0], sub[-1][1])
    print(f"  gap(0) = {gap0:.6f}, gap(T) = {gapT:.6f}, "
          f"ratio = {gapT / gap0:.8f} vs e^(-lam T) = "
          f"{math.exp(-lam * dtg * ng):.8f}")


if __name__ == "__main__":
    main()
