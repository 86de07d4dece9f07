"""Initial-condition and forcing presets, and the time march every run uses.

Every preset is deterministic given (grid, parameters, seed).  No forcing
preset depends on time: each is a field sampled once, when a run builds its
initial state, and held by every state after it.  The
manufactured steady flow used for spatial-order studies is

    u*(x, y) = ( sin^2(pi x) sin(2 pi y), -sin(2 pi x) sin^2(pi y) ),

the curl of the stream function sin^2(pi x) sin^2(pi y) / pi: analytically
divergence-free with all velocity components vanishing on the walls.  Its
body force f = (u* . grad) u* - nu Lap u* makes u* a steady solution of the
momentum equation with zero pressure, so any gradient the discrete scheme
produces is absorbed by its own pressure and the computed flow should hold
still up to O(h^2) truncation.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import EnslabError
from .grid import (
    BoundaryTrace,
    Grid,
    VectorField,
    _adopt,
    face_norm,
    scalar_from_function,
    vector_from_functions,
    vector_from_stream,
)
from .stokes_lift import check_finite, leray_project, lift_divergence

__all__ = [
    "IC_PRESETS",
    "FORCING_PRESETS",
    "initial_velocity",
    "forcing_field",
    "stream_vortex",
    "perturbation_field",
    "mms_velocity",
    "mms_forcing",
    "eigen_lift",
    "located",
    "march",
]

IC_PRESETS = (
    "zero",
    "vortex",
    "eigenmode_div",
    "boundary_flux",
    "lift_plus_flow",
    "mms",
    "random_solenoidal",
)
FORCING_PRESETS = ("zero", "rotational", "mms")


def stream_vortex(grid: Grid, amplitude: float = 1.0) -> VectorField:
    """Single smooth vortex: exactly divergence-free, all wall values zero."""
    x = grid.nodes()[:, None]
    y = x.T
    psi = amplitude * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2 / np.pi
    return vector_from_stream(grid, psi)


def perturbation_field(grid: Grid) -> VectorField:
    """Unit-norm divergence-free no-slip field independent of stream_vortex."""
    x = grid.nodes()[:, None]
    y = x.T
    psi = np.sin(np.pi * x) ** 2 * np.sin(2.0 * np.pi * y) ** 2 / np.pi
    w = vector_from_stream(grid, psi)
    return w * (1.0 / face_norm(w))


def eigen_divergence(grid: Grid, system: str, eps: float, mode: int):
    """Heat-eigenmode divergence data matched to the system's oracle walls.

    The zero-flux system takes the cosine eigenmode; the relaxed-boundary
    system takes the sine eigenmode (zero wall trace).  Both decay at the
    analytic rate 2 (mode pi)^2 nu under the heat oracle.
    """
    m = float(mode) * np.pi
    if system == "jl":
        return scalar_from_function(
            grid, lambda x, y: eps * np.cos(m * x) * np.cos(m * y))
    if system == "sr":
        return scalar_from_function(
            grid, lambda x, y: eps * np.sin(m * x) * np.sin(m * y))
    raise ValueError(f"unknown system {system!r}")


def eigen_lift(grid: Grid, system: str, eps: float, mode: int):
    """Divergence data from a heat eigenmode plus its velocity lift.

    Returns (g0, z0).  The zero-flux system uses a zero-trace lift; the
    relaxed-boundary system pairs its eigenmode with the mass-matched
    constant wall flux that compatibility needs.  The mass sums g0 scaled by
    h^2, so that finite data have a finite mass, and the lift judges data
    too large to solve for.
    """
    g0 = eigen_divergence(grid, system, eps, mode)
    if system == "jl":
        z0 = lift_divergence(g0)
    else:
        mass = float(np.sum(g0.values * (grid.h * grid.h)))
        z0 = lift_divergence(g0, BoundaryTrace.constant(grid, mass / 4.0))
    return g0, z0


def _mms_u1(x, y):
    return np.sin(np.pi * x) ** 2 * np.sin(2.0 * np.pi * y)


def _mms_u2(x, y):
    return -np.sin(2.0 * np.pi * x) * np.sin(np.pi * y) ** 2


def _mms_lap_u1(x, y):
    return 2.0 * np.pi ** 2 * np.sin(2.0 * np.pi * y) * (2.0 * np.cos(2.0 * np.pi * x) - 1.0)


def _mms_lap_u2(x, y):
    return 2.0 * np.pi ** 2 * np.sin(2.0 * np.pi * x) * (1.0 - 2.0 * np.cos(2.0 * np.pi * y))


def _mms_adv1(x, y):
    dx_u1 = np.pi * np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)
    dy_u1 = 2.0 * np.pi * np.sin(np.pi * x) ** 2 * np.cos(2.0 * np.pi * y)
    return _mms_u1(x, y) * dx_u1 + _mms_u2(x, y) * dy_u1


def _mms_adv2(x, y):
    dx_u2 = -2.0 * np.pi * np.cos(2.0 * np.pi * x) * np.sin(np.pi * y) ** 2
    dy_u2 = -np.pi * np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)
    return _mms_u1(x, y) * dx_u2 + _mms_u2(x, y) * dy_u2


def mms_velocity(grid: Grid) -> VectorField:
    """The manufactured steady flow sampled on the staggered faces."""
    return vector_from_functions(grid, _mms_u1, _mms_u2)


def _force(grid: Grid, fu, fv) -> VectorField:
    """The body force (fu, fv)(x, y) on the faces, sampled in each run's
    set-up: each closure returns a fresh full-shape array, adopted without a
    copy.  A non-finite sample fails the initial state's check, unwarned."""
    nodes, cells = grid.nodes(), grid.cells()
    with np.errstate(over="ignore", invalid="ignore"):
        f = _adopt(VectorField, grid, fu(nodes[:, None], cells[None, :]),
                   fv(cells[:, None], nodes[None, :]))
    check_finite(0.0, forcing=f)
    return f


def mms_forcing(grid: Grid, nu: float) -> VectorField:
    """Body force that holds the manufactured flow steady at viscosity nu."""
    return _force(grid, lambda x, y: _mms_adv1(x, y) - nu * _mms_lap_u1(x, y),
                  lambda x, y: _mms_adv2(x, y) - nu * _mms_lap_u2(x, y))


def _through_flow(grid: Grid, amplitude: float) -> VectorField:
    """Balanced wall-to-wall flow: u rows constant in x, exactly solenoidal."""
    profile = amplitude * np.sin(2.0 * np.pi * grid.cells())
    u = np.tile(profile, (grid.n + 1, 1))
    return VectorField(grid, u, np.zeros(grid.shape_v))


def initial_velocity(grid: Grid, system: str, preset: str, eps: float = 0.01,
                     mode: int = 1, amplitude: float = 1.0, seed: int = 0) -> VectorField:
    """Build the initial velocity for a named preset."""
    if preset == "zero":
        return VectorField.zeros(grid)
    if preset == "vortex":
        return stream_vortex(grid, amplitude)
    if preset == "eigenmode_div":
        _, z0 = eigen_lift(grid, system, eps, mode)
        return z0
    if preset == "boundary_flux":
        if system != "sr":
            raise ValueError("preset 'boundary_flux' needs the relaxed-boundary "
                             "system (system = sr)")
        return _through_flow(grid, amplitude)
    if preset == "lift_plus_flow":
        _, z0 = eigen_lift(grid, system, eps, mode)
        return stream_vortex(grid, amplitude) + z0
    if preset == "mms":
        return mms_velocity(grid)
    if preset == "random_solenoidal":
        rng = np.random.default_rng(seed)
        raw = VectorField(grid, rng.standard_normal(grid.shape_u),
                          rng.standard_normal(grid.shape_v))
        w = leray_project(raw)
        nrm = face_norm(w)
        if nrm == 0.0:
            return w
        return w * (amplitude / nrm)
    raise ValueError(f"unknown initial-condition preset {preset!r}")


def forcing_field(grid: Grid, preset: str, amplitude: float = 1.0,
                  nu: float = 1.0) -> VectorField:
    """Sample the body-force preset on the grid."""
    if preset == "zero":
        return VectorField.zeros(grid)
    if preset == "rotational":
        return _force(grid, lambda x, y: amplitude * _mms_u1(x, y),
                      lambda x, y: amplitude * _mms_u2(x, y))
    if preset == "mms":
        return mms_forcing(grid, nu)
    raise ValueError(f"unknown forcing preset {preset!r}")


@contextmanager
def located(where: str):
    """Raise an EnslabError raised inside again as the same class, its
    message prefixed with "<where>: "; march locates each step's with it."""
    try:
        yield
    except EnslabError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def march(step, state, dt: float, nsteps: int):
    """Yield state, then each of nsteps states made by state = step(state, dt).

    Only the current state is held, so a consumer that folds the states as
    they come runs in memory independent of nsteps; list(march(...)) gives
    the whole history.  An EnslabError raised in step k (counted from 1) is
    raised again as the same class, its message prefixed with
    "step k, t = <the time the step starts from>: ".
    """
    yield state
    for k in range(1, nsteps + 1):
        try:
            state = step(state, dt)
        except EnslabError:
            with located(f"step {k}, t = {state.time:.6g}"):  # formatted only when a step fails
                raise
        yield state
