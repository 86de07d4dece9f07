"""Tour: splitting any flow into a solenoidal part and a divergence carrier.

Every no-flux velocity field splits uniquely as u = v + z where div v = 0 and
the gradients of v and z are orthogonal.  The z part is the minimal-energy
velocity whose divergence equals div u; it is produced by a saddle-point
solve, and its size is controlled by the divergence alone, uniformly in the
grid resolution.

Run:  python3 demos/decomposition_and_lift.py
"""

import math

import numpy as np

from enslab.diagnostics import norms
from enslab.grid import Grid, VectorField, divergence, face_norm, grad_inner, scalar_norm
from enslab.scenarios import eigen_lift
from enslab.stokes_lift import decompose


def main() -> None:
    grid = Grid(32)
    rng = np.random.default_rng(42)

    print("=== 1. A random field splits orthogonally ===")
    uu = rng.standard_normal(grid.shape_u)
    vv = rng.standard_normal(grid.shape_v)
    uu[0, :] = uu[-1, :] = 0.0
    vv[:, 0] = vv[:, -1] = 0.0
    u = VectorField(grid, uu, vv)
    dec = decompose(u)
    pair = abs(grad_inner(dec.v, dec.z))
    scale = math.sqrt(grad_inner(dec.v, dec.v) * grad_inner(dec.z, dec.z))
    print(f"  ||u|| = {face_norm(u):.4f} -> ||v|| = {face_norm(dec.v):.4f}, "
          f"||z|| = {face_norm(dec.z):.4f}")
    print(f"  gradient pairing <grad v, grad z> / scale = {pair / scale:.2e}")
    print(f"  ||div v|| = {scalar_norm(divergence(dec.v)):.2e}")
    print(f"  reconstruction ||u - (v + z)|| = {face_norm(u - (dec.v + dec.z)):.2e}")
    print(f"  divergence carried by z alone: "
          f"||div z - div u|| = {scalar_norm(divergence(dec.z) - divergence(u)):.2e}")

    print()
    print("=== 2. The lift is no larger than its divergence demands ===")
    print("  grid    ||z||_H1 / ||g||_L2")
    for n in (16, 32, 64):
        g0, z0 = eigen_lift(Grid(n), "jl", eps=1.0, mode=1)
        c = norms(z0)["h1"] / scalar_norm(g0)
        print(f"   {n:3d}    {c:.6f}")
    print("  (the ratio settles as the grid refines: the bound is uniform)")

    print()
    print("=== 3. Open-wall lift balances interior mass against wall flux ===")
    from enslab.grid import BoundaryTrace, integral, normal_trace
    from enslab.stokes_lift import lift_divergence
    from enslab.scenarios import eigen_divergence

    g0 = eigen_divergence(grid, "sr", eps=1.0, mode=1)
    mass = integral(g0)
    h0 = BoundaryTrace.constant(grid, mass / 4.0)
    z0 = lift_divergence(g0, h0)
    tr = normal_trace(z0)
    flux = grid.h * (np.sum(tr.left) + np.sum(tr.right)
                     + np.sum(tr.bottom) + np.sum(tr.top))
    print(f"  interior mass of g = {mass:.6f}, wall flux of lift = {flux:.6f}")
    print(f"  solvability defect = {flux - mass:.2e}")
    print(f"  ||div z - g|| = {scalar_norm(divergence(z0) - g0):.2e}")


if __name__ == "__main__":
    main()
