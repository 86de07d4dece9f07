"""Test oracles: assembled matrices, a dense saddle-point solve and closed forms.

The package steps with matrix-free operators on the grid's own arrays.  The
functions here stack the interior faces into one vector, build the same
operators on it as explicit scipy matrices from the dense 1-D second
differences, solve the Stokes problem through one dense bordered system,
evaluate the wall-relaxation Duhamel integral in closed form and by
quadrature, extrapolate the divergence to the walls, step the classical
splitting that the open-wall direct step reduces to, fold the energy
ledger over a whole history and compose the no-slip direct step from a
Poisson solve and a divergence-free solve, so that the tests can check the
package against an independent construction.  The face gradient of a cell
scalar and the zero-flux Poisson solve of a field, which the package forms
only inside its solvers, are here as whole-field operations.  They are the only users of
scipy.  The transport is here in its two halves, the advective
form and its exact transpose, whose half-difference the package evaluates
in flux-pair form, and the compatibility constant in its Laplacian form,
which the package evaluates as a wall sum.  The measurements that only
the tests make, of the lift's stability and of the no-slip system's
viscous term, are here too.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from enslab.advection import centered_differences, skew_advect, transport_coefficients
from enslab.diagnostics import TINY, fine_norm, htilde_norm
from enslab.ens_jl import EnergyLedger, JLState
from enslab.ens_sr import SRFlow, SRState
from enslab.grid import (
    BoundaryTrace, Grid, ScalarField, VectorField, _adopt, divergence, face_inner, face_norm,
    grad_inner, integral, normal_trace, scalar_norm, vector_laplacian,
    with_normal_trace,
)
from enslab.heat_oracle import HeatEstimates
from enslab.linsolve import (
    GeneralizedStokes, NoslipHelmholtz, _check_compatibility, _separable_eigenbasis,
    _tridiagonal_eigh, heat_solver, neumann_poisson,
)
from enslab.reference import Flow, cfl_check
from enslab.stokes_lift import leray_project, lift_divergence, wall_floor


# ---------------------------------------------------------------------------
# A run's fixed values, with the zero force most tests step under
# ---------------------------------------------------------------------------

def flow(grid: Grid, nu: float, dt: float, forcing: VectorField | None = None,
         lam: float | None = None) -> Flow:
    """A run's Flow, or its SRFlow when lam is given; no force unless given."""
    forcing = VectorField.zeros(grid) if forcing is None else forcing
    return Flow(nu, dt, forcing) if lam is None else SRFlow(lam, nu, dt, forcing)


# ---------------------------------------------------------------------------
# Whole-field operators: the face gradient and the zero-flux Poisson solve
# ---------------------------------------------------------------------------

def gradient(p: ScalarField) -> VectorField:
    """Face differences of a cell scalar; wall faces receive 0.

    Boundary conditions are the business of the solvers that use the
    operator, so wall faces carry the homogeneous-flux convention here.
    """
    g = p.grid
    gu = np.zeros(g.shape_u)
    gv = np.zeros(g.shape_v)
    gu[1:-1, :] = (p.values[1:, :] - p.values[:-1, :]) / g.h
    gv[:, 1:-1] = (p.values[:, 1:] - p.values[:, :-1]) / g.h
    return _adopt(VectorField, g, gu, gv)


def neumann_solve(rhs: ScalarField) -> ScalarField:
    """The mean-zero zero-flux Poisson solution of a cell field."""
    return _adopt(ScalarField, rhs.grid, neumann_poisson(rhs.grid).solve_values(rhs.values))


# ---------------------------------------------------------------------------
# The interior-face vector: the u faces, then the v faces, wall faces dropped
# ---------------------------------------------------------------------------

def _split(grid: Grid, x: np.ndarray):
    """Views of an interior-face vector as its u and v arrays."""
    n_u = (grid.n - 1) * grid.n
    return x[:n_u].reshape(grid.n - 1, grid.n), x[n_u:].reshape(grid.n, grid.n - 1)


def flatten_interior(w: VectorField) -> np.ndarray:
    """Stack the interior-face values (wall faces dropped) into one vector."""
    return np.concatenate([w.u[1:-1, :].ravel(), w.v[:, 1:-1].ravel()])


def unflatten_interior(grid: Grid, x: np.ndarray, trace: BoundaryTrace | None = None) -> VectorField:
    """Rebuild a vector field from interior values; walls from trace or zero."""
    u = np.zeros(grid.shape_u)
    v = np.zeros(grid.shape_v)
    u[1:-1, :], v[:, 1:-1] = _split(grid, x)
    w = VectorField(grid, u, v)
    return w if trace is None else with_normal_trace(w, trace)


def wall_rhs(grid: Grid, trace: BoundaryTrace) -> np.ndarray:
    """RHS contribution of Dirichlet wall-normal data to K z = -Lap z."""
    h2 = grid.h * grid.h
    b = np.zeros(2 * grid.n * (grid.n - 1))
    u, v = _split(grid, b)
    u[0, :] = (-trace.left) / h2
    u[-1, :] = trace.right / h2
    v[:, 0] = (-trace.bottom) / h2
    v[:, -1] = trace.top / h2
    return b


def wall_faces(grid: Grid) -> np.ndarray:
    """U: one row of interior-face indices per wall (bottom, top, left and
    right), the tangential faces next to it."""
    u, v = _split(grid, np.arange(2 * grid.n * (grid.n - 1)))
    return np.stack([u[:, 0], u[:, -1], v[0, :], v[-1, :]])


# ---------------------------------------------------------------------------
# Assembled operators on the interior-face and cell vectors
# ---------------------------------------------------------------------------

def _tridiagonal(n: int, h: float, kind: str) -> np.ndarray:
    """Dense 1-D second difference over n cells, of kind "neumann" (zero
    flux, ghost = interior), "cell" (zero wall value, ghost = -interior) or
    "node" (the n - 1 interior nodes, zero data at nodes 0 and n)."""
    m = n - 1 if kind == "node" else n
    t = np.eye(m, k=1) + np.eye(m, k=-1) - 2.0 * np.eye(m)
    t[0, 0] = t[-1, -1] = {"neumann": -1.0, "cell": -3.0, "node": -2.0}[kind]
    return t * (1.0 / (h * h))


def _kron_sum(grid: Grid, kind_x: str, kind_y: str) -> sp.spmatrix:
    """The assembled 2-D Kronecker sum of two 1-D tridiagonals."""
    tx = sp.csr_matrix(_tridiagonal(grid.n, grid.h, kind_x))
    ty = sp.csr_matrix(_tridiagonal(grid.n, grid.h, kind_y))
    return sp.kron(tx, sp.identity(ty.shape[0])) + sp.kron(sp.identity(tx.shape[0]), ty)


def laplacian_neumann_matrix(grid: Grid) -> sp.csr_matrix:
    return _kron_sum(grid, "neumann", "neumann").tocsr()


def laplacian_dirichlet_matrix(grid: Grid) -> sp.csr_matrix:
    return _kron_sum(grid, "cell", "cell").tocsr()


def apply_cell(matrix: sp.spmatrix, p: ScalarField) -> ScalarField:
    """A matrix on the cell vector applied to a cell field."""
    return ScalarField(p.grid, (matrix @ p.values.ravel()).reshape(p.grid.shape_cell))


def noslip_viscous_matrix(grid: Grid) -> sp.csr_matrix:
    """Minus the no-slip vector Laplacian on interior faces (SPD)."""
    return (-sp.block_diag([_kron_sum(grid, "node", "cell"), _kron_sum(grid, "cell", "node")])).tocsr()


def poincare_constant_from_eigenbases(grid: Grid) -> float:
    """The largest eigenvalue of each block of -K read off its two full 1-D
    eigenbases; ``reference.poincare_constant`` equals it bit for bit."""
    return min(-float(_separable_eigenbasis(grid, *kinds)[2].max())
               for kinds in (("node", "cell"), ("cell", "node")))


def _cell_difference(n: int) -> sp.spmatrix:
    """Cell j of a grid line reads interior nodes j + 1 and j (the wall nodes are zero)."""
    return sp.eye(n, n - 1) - sp.eye(n, n - 1, k=-1)


def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """Divergence D on the interior-face vector; the gradient is -D^T."""
    nx, ny = grid.n, grid.n
    D = sp.hstack([sp.kron(_cell_difference(nx), sp.identity(ny)),
                   sp.kron(sp.identity(nx), _cell_difference(ny))])
    return (D / grid.h).tocsr()


def curl_matrix(grid: Grid) -> sp.csr_matrix:
    """Curl C of the interior-node stream function onto the interior faces
    (``vector_from_stream`` with zero wall values); D C = 0."""
    nx, ny = grid.n, grid.n
    C = sp.vstack([sp.kron(sp.identity(nx - 1), _cell_difference(ny)),
                   -sp.kron(_cell_difference(nx), sp.identity(ny - 1))])
    return (C / grid.h).tocsr()


def dense_stokes_solve(g: ScalarField, boundary_velocity: BoundaryTrace | None = None,
                       alpha: float = 0.0, c: float = 1.0, f: VectorField | None = None):
    """Direct bordered-matrix solve of (alpha I + c K) u + G p = f, D u = g;
    oracle for small grids (<= 16x16).  The defaults are the Stokes lift."""
    grid = g.grid
    if grid.n > 16:
        raise ValueError("dense oracle restricted to grids of at most 16x16")
    trace = boundary_velocity if boundary_velocity is not None else BoundaryTrace.zeros(grid)
    _check_compatibility(g, trace)
    nf = (grid.n - 1) * grid.n + grid.n * (grid.n - 1)
    nc = grid.n * grid.n
    A = alpha * np.eye(nf) + c * noslip_viscous_matrix(grid).toarray()
    G = -divergence_matrix(grid).toarray().T
    b = c * wall_rhs(grid, trace)
    if f is not None:
        b = b + flatten_interior(f)
    fold = divergence(unflatten_interior(grid, np.zeros(nf), trace)).values.ravel()
    gprime = g.values.ravel() - fold
    # bordered symmetric system: [A G 0; G^T 0 1; 0 1^T 0]
    M = np.zeros((nf + nc + 1, nf + nc + 1))
    M[:nf, :nf] = A
    M[:nf, nf:nf + nc] = G
    M[nf:nf + nc, :nf] = G.T
    M[nf:nf + nc, nf + nc] = 1.0
    M[nf + nc, nf:nf + nc] = 1.0
    rhs = np.zeros(nf + nc + 1)
    rhs[:nf] = b
    rhs[nf:nf + nc] = -gprime
    sol = np.linalg.solve(M, rhs)
    z = unflatten_interior(grid, sol[:nf], trace)
    qv = sol[nf:nf + nc]
    q = ScalarField(grid, (qv - qv.mean()).reshape(grid.shape_cell))
    return z, q


# ---------------------------------------------------------------------------
# The divergence: the heat estimates over a whole history
# ---------------------------------------------------------------------------

def fold_heat_estimates(history, bc: str, nu: float):
    """HeatEstimates(bc, nu).record() after add() of every state of history,
    in order, each with its norm as `enslab heat` measures it."""
    estimates = HeatEstimates(bc, nu)
    for s in history:
        estimates.add(s, fine_norm(s.g))
    return estimates.record()


# ---------------------------------------------------------------------------
# Open walls: the Duhamel integral, the wall trace of the divergence and the
# classical splitting that the direct step reduces to
# ---------------------------------------------------------------------------

def step_average_constant(m0: float, m1: float, lam: float, dt: float) -> float:
    """The constant cbar of a step that carries the divergence mass from m0
    to m1: the exponentially-weighted step average of the instantaneous
    constant, (lam/4) (m1 - e^{-lam dt} m0) / (1 - e^{-lam dt})."""
    decay = math.exp(-lam * dt)
    return 0.25 * lam * (m1 - decay * m0) / (1.0 - decay)


def duhamel_closed_form(h0: BoundaryTrace, cbars, lam: float, dt: float) -> BoundaryTrace:
    """Compose the exact per-step updates in closed form (piecewise-constant data)."""
    if not (lam > 0.0 and dt > 0.0):
        raise ValueError("need lam > 0 and dt > 0")
    n = len(cbars)
    gain = 1.0 - math.exp(-lam * dt)
    acc = 0.0
    for k, c in enumerate(cbars):
        acc += math.exp(-lam * dt * (n - 1 - k)) * gain * c / lam
    return h0 * math.exp(-lam * dt * n) + BoundaryTrace.constant(h0.grid, acc)


def duhamel_quadrature(h0: BoundaryTrace, times, cbar_samples, lam: float) -> BoundaryTrace:
    """Duhamel value at the final sample time by Simpson quadrature.

    h(T) = e^{-lam (T-t0)} h0 + int_{t0}^{T} e^{-lam (T-s)} cbar(s) ds, with
    cbar(s) sampled (instantaneous form) on the given time grid.
    """
    from scipy.integrate import simpson

    times = np.asarray(times, dtype=np.float64)
    cb = np.asarray(cbar_samples, dtype=np.float64)
    if times.shape != cb.shape or times.size < 3:
        raise ValueError("need matching sample arrays with at least three points")
    T = float(times[-1])
    weights = np.exp(-lam * (T - times))
    val = float(simpson(weights * cb, x=times))
    return h0 * math.exp(-lam * (T - float(times[0]))) + BoundaryTrace.constant(h0.grid, val)


def boundary_divergence_trace(p: ScalarField) -> BoundaryTrace:
    """Quadratically extrapolated wall values of a cell scalar.

    Cell centers sit at distances h/2, 3h/2, 5h/2 from each wall; the
    three-point Lagrange extrapolant to the wall is (15 a - 10 b + 3 c)/8.
    Used to measure the wall trace of the divergence, the discrete content
    of a zero-divergence boundary condition.
    """
    vals = p.values

    def extrap(a, b, c):
        return (15.0 * a - 10.0 * b + 3.0 * c) / 8.0

    return BoundaryTrace(
        p.grid,
        extrap(vals[0, :], vals[1, :], vals[2, :]),
        extrap(vals[-1, :], vals[-2, :], vals[-3, :]),
        extrap(vals[:, 0], vals[:, 1], vals[:, 2]),
        extrap(vals[:, -1], vals[:, -2], vals[:, -3]),
    )


def boundary_divergence_max(s: SRState) -> float:
    """Extrapolated wall trace of div u, the measured boundary-divergence defect.

    The dynamics enforces a zero divergence trace through the Dirichlet ghost
    closure; this diagnostic extrapolates the cell values to the walls and is
    O(h^3) times the divergence amplitude for smooth data, so it is reported
    and asserted by the test suite at configuration-level scales rather than
    gating individual steps.
    """
    return boundary_divergence_trace(s.div_u).max_abs()


def step_nse_splitting(u: VectorField, dt: float, nu: float) -> VectorField:
    """The classical splitting of the standard unforced incompressible
    equations, to which the open-wall direct step reduces: backward-Euler
    viscosity, explicit transport, projection last.  Input must be discretely
    divergence-free with zero wall faces."""
    cfl_check(u, dt)
    w = NoslipHelmholtz(u.grid, nu * dt).solve(u - skew_advect(u, u) * dt)
    return leray_project(w)


# ---------------------------------------------------------------------------
# The no-slip system: the energy ledger over a whole history, the direct step
# as a chain of solves
# ---------------------------------------------------------------------------

def fold_energy_ledger(p: Flow, history):
    """EnergyLedger(p).record() after add() of every state of history, in order."""
    ledger = EnergyLedger(p)
    for s in history:
        ledger.add(s)
    return ledger.record()


def jl_direct_composed(p: Flow, s: JLState) -> JLState:
    """The no-slip direct step as a chain of solves, with the same g+.

    g+ is the backward-Euler Neumann heat step of div u and phi its zero-flux
    potential; y solves the divergence-free problem
    (I - nu dt Lap) y + G p = u + dt (f - a) + nu dt Lap grad phi, div y = 0,
    and u+ = y + grad phi.  As div grad phi = g+ and grad phi is a gradient
    with zero wall faces, u+ solves the step's one generalized Stokes problem.
    """
    grid, u, dt = s.u.grid, s.u, p.dt
    c = p.nu * dt
    gp = ScalarField(grid, heat_solver(grid, c, "neumann", theta="be")(s.div_u.values))
    gphi = gradient(neumann_solve(gp))
    rhs = (u + (p.forcing - skew_advect(u, u)) * dt
           + vector_laplacian(gphi) * c)
    y = GeneralizedStokes(grid, 1.0, c).solve(rhs, pressure=False)[0]
    return JLState(s.time + dt, y + gphi, gp, s.m0)


# ---------------------------------------------------------------------------
# The Galerkin basis, one parity block at a time, checked mode by mode
# ---------------------------------------------------------------------------

def parity_block_basis(grid: Grid, k: int):
    """The k lowest eigenvalues and stream functions of the scaled pencil of
    ``galerkin.build_basis``, from three dense parity blocks (even, even),
    (even, odd) and (odd, odd), assembled with Kronecker products and solved
    whole; the (odd, even) modes are the swaps of the (even, odd) ones.
    Returns (lam, nodes): nodes are the stream functions on all nodes,
    divided by h, signed as ``build_basis`` signs them."""
    n, h = grid.n, grid.h
    lam, q = _tridiagonal_eigh(n, "node")
    odd = np.abs(q[0] - q[-1]) > np.abs(q[0] + q[-1])
    parity = (np.flatnonzero(~odd), np.flatnonzero(odd))
    wall = np.outer(q[0], q[0]) + np.outer(q[-1], q[-1])
    vals, psi = [], []
    for a, b in ((0, 0), (0, 1), (1, 1)):
        ix, iy = parity[a], parity[b]
        d = -(lam[ix, None] + lam[iy]).ravel()
        s = 1.0 / np.sqrt(d)
        block = (np.kron(np.eye(ix.size), wall[np.ix_(iy, iy)])
                 + np.kron(wall[np.ix_(ix, ix)], np.eye(iy.size)))
        block *= (2.0 / h ** 4) * np.outer(s, s)
        block[np.diag_indices_from(block)] += d
        mu, y = np.linalg.eigh(block)
        y = y[:, :k]
        y = y * np.sign(y[np.argmax(np.abs(y), axis=0), np.arange(y.shape[1])])
        coeffs = (s[:, None] * y).T.reshape(-1, ix.size, iy.size)
        vals.append(mu[:k])
        psi.append(q[:, ix] @ coeffs @ q[:, iy].T)
        if a != b:
            vals.append(mu[:k])
            psi.append(psi[-1].transpose(0, 2, 1))
    order = np.argsort(np.concatenate(vals), kind="stable")[:k]
    nodes = np.pad(np.concatenate(psi)[order], ((0, 0), (1, 1), (1, 1))) / h
    return np.concatenate(vals)[order], nodes


def eigen_residual_loop(modes, lam) -> np.ndarray:
    """||P K w_j - lam_j w_j|| of each mode, one field operation at a time."""
    return np.array([face_norm(leray_project(-vector_laplacian(w)) - w * float(mu))
                     for w, mu in zip(modes, lam)])


# ---------------------------------------------------------------------------
# Transport: the advective form, its exact transpose and their half-difference
# ---------------------------------------------------------------------------

def _advect(w: VectorField, coeffs: tuple, b: VectorField) -> tuple:
    """The arrays of advect(w, b), given coeffs = transport_coefficients of w."""
    g = w.grid
    if b.grid != g:
        raise ValueError("advect: operands live on different grids")
    wu, wy, wx, wv = coeffs
    dxu, dyu, dxv, dyv = centered_differences(b.u, b.v, g.h)
    au = np.zeros(g.shape_u)
    av = np.zeros(g.shape_v)
    au[1:-1, :] = wu * dxu + wy * dyu
    av[:, 1:-1] = wx * dxv + wv * dyv
    return au, av


def _adjoint_advect(w: VectorField, coeffs: tuple, c: VectorField) -> tuple:
    """The arrays of adjoint_advect(w, c), given coeffs = transport_coefficients of w."""
    g = w.grid
    if c.grid != g:
        raise ValueError("adjoint_advect: operands live on different grids")
    wu, wy, wx, wv = coeffs
    h2 = 2.0 * g.h

    # Each product is written into the interior of a buffer whose edges
    # carry the closure (zero across the walls, the edge value along them),
    # so the neighbours are read as shifted slices of one array.

    # u-component output
    nx, ny = g.n, g.n
    pp = np.empty((nx + 3, ny))
    pp[[0, 1, -2, -1], :] = 0.0
    np.multiply(wu, c.u[1:-1, :], out=pp[2:-2, :])
    atu = (pp[:-2, :] - pp[2:, :]) / h2
    qq = np.empty((nx - 1, ny + 2))
    np.multiply(wy, c.u[1:-1, :], out=qq[:, 1:-1])
    qq[:, 0], qq[:, -1] = qq[:, 1], qq[:, -2]
    atu[1:-1, :] += (qq[:, :-2] - qq[:, 2:]) / h2

    # v-component output
    pp2 = np.empty((nx, ny + 3))
    pp2[:, [0, 1, -2, -1]] = 0.0
    np.multiply(wv, c.v[:, 1:-1], out=pp2[:, 2:-2])
    atv = (pp2[:, :-2] - pp2[:, 2:]) / h2
    qq2 = np.empty((nx + 2, ny - 1))
    np.multiply(wx, c.v[:, 1:-1], out=qq2[1:-1, :])
    qq2[0, :], qq2[-1, :] = qq2[1, :], qq2[-2, :]
    atv[:, 1:-1] += (qq2[:-2, :] - qq2[2:, :]) / h2
    return atu, atv


def advect(w: VectorField, b: VectorField) -> VectorField:
    """Advective form (w . grad) b on interior faces; wall faces are zero.

    Cross components of w are four-point averages onto the target face;
    tangential derivatives next to a wall use the odd reflection; wall
    values of both arguments are read as data."""
    return _adopt(VectorField, w.grid, *_advect(w, transport_coefficients(w.u, w.v), b))


def adjoint_advect(w: VectorField, c: VectorField) -> VectorField:
    """Exact transpose of ``advect(w, .)`` in the uniform face inner product,
    derived stencil by stencil: <advect(w, b), c> = <b, adjoint_advect(w, c)>.
    Wall faces of the result carry the couplings through which ``advect``
    reads wall data."""
    return _adopt(VectorField, w.grid, *_adjoint_advect(w, transport_coefficients(w.u, w.v), c))


def half_difference(w: VectorField, b: VectorField) -> VectorField:
    """0.5 (advect(w, b) - adjoint_advect(w, b)), the transport coefficients
    of w computed once for both halves: the skew transport in the form it
    was evaluated in before the flux-pair form."""
    coeffs = transport_coefficients(w.u, w.v)
    (fu, fv), (bu, bv) = _advect(w, coeffs, b), _adjoint_advect(w, coeffs, b)
    return _adopt(VectorField, w.grid, 0.5 * (fu - bu), 0.5 * (fv - bv))


def trilinear(w: VectorField, b: VectorField, c: VectorField) -> float:
    """The trilinear energy-exchange form <skew_advect(w, b), c>."""
    return face_inner(skew_advect(w, b), c)


# ---------------------------------------------------------------------------
# The compatibility constant in its Laplacian form
# ---------------------------------------------------------------------------

def compat_constant_laplacian(g: ScalarField, nu: float, lam: float) -> float:
    """Mean of (nu Lap g + lambda g) per boundary length, with the volume
    integral of the interior (Dirichlet-closure) Laplacian formed whole."""
    lap = apply_cell(laplacian_dirichlet_matrix(g.grid), g)
    return (integral(lap) * nu + integral(g) * lam) / 4.0


# ---------------------------------------------------------------------------
# Measurements of the lift and of the no-slip viscous term
# ---------------------------------------------------------------------------

def lifting_constant(g: ScalarField) -> float:
    """Measured stability ratio ||z||_H1 / ||g||_L2 of the zero-wall lift."""
    ng = scalar_norm(g)
    if ng == 0.0:
        return 0.0
    z = lift_divergence(g)
    l2 = face_norm(z)
    h1s = max(grad_inner(z, z), 0.0)
    return math.sqrt(l2 * l2 + h1s) / ng


def check_weak_lifting_bound(g: ScalarField) -> dict:
    """Informational dual-norm ratio ||z||_L2 / ||g||_dual for the lift.

    The continuum bound needs a curved-smooth boundary, which the unit square
    is not; the ratio is therefore recorded for trend inspection across
    refinement, never asserted.
    """
    ng = scalar_norm(g)
    if ng == 0.0:
        metrics = {"lift_l2": 0.0, "dual_norm": 0.0, "ratio": 0.0}
    else:
        z = lift_divergence(g)
        dual = htilde_norm(g)
        metrics = {
            "lift_l2": face_norm(z),
            "dual_norm": dual,
            "ratio": face_norm(z) / dual if dual > 0 else 0.0,
        }
    return metrics


def coercivity_probe(u: VectorField) -> dict:
    """Evaluate the quadratic-form remainder that breaks zero-wall coercivity.

    remainder(u) = -<u, P Lap u + grad div u> - ||grad Pu||^2 - ||div u||^2.

    For divergence-free u the remainder vanishes; in general it equals the
    gradient-pairing between the projected part and the potential part, whose
    sign is indefinite.
    """
    walls = normal_trace(u).max_abs()
    if walls > wall_floor(u):
        raise ValueError(f"probe requires zero wall faces (max {walls:.3e})")
    pu = leray_project(u)
    du = divergence(u)
    lap = vector_laplacian(u)
    quad = -face_inner(u, leray_project(lap) + gradient(du))
    remainder = quad - grad_inner(pu, pu) - scalar_norm(du) ** 2
    scale = max(grad_inner(u, u), TINY)
    metrics = {
        "remainder": remainder,
        "relative": remainder / scale,
        "sign": float(np.sign(remainder)),
        "gradient_energy": grad_inner(u, u),
    }
    return metrics


def stokes_pressure(u: VectorField) -> ScalarField:
    """Mean-zero potential of the non-projected part of (Lap u - grad div u).

    Its gradient is the complement-of-projection of the extended viscous
    term; taking the divergence of that term and inverting the Neumann
    Laplacian recovers the potential directly.
    """
    walls = normal_trace(u).max_abs()
    if walls > wall_floor(u):
        raise ValueError(f"pressure recovery requires zero wall faces (max {walls:.3e})")
    w = vector_laplacian(u) - gradient(divergence(u))
    return neumann_solve(divergence(w))


def check_stokes_pressure(u: VectorField) -> dict:
    """Interior harmonicity of the recovered pressure potential.

    The cell Laplacian of the potential reproduces its construction data
    everywhere; the harmonicity content lives on interior cells, where the
    data is a genuine commutator.  Wall-adjacent cells carry O(1/h) flux data
    by construction and are reported separately, not asserted against.
    """
    p = stokes_pressure(u)
    grid = u.grid
    lap = apply_cell(laplacian_neumann_matrix(grid), p)
    full = scalar_norm(lap)
    interior = grid.h * float(np.linalg.norm(lap.values[1:-1, 1:-1]))
    metrics = {
        "residual_interior": interior,
        "residual_full": full,
        "relative": interior / max(full, TINY),
    }
    return metrics
