"""Exact scalar dynamics of the velocity divergence, with runtime estimates.

In both extended systems the divergence of the velocity obeys a pure heat
equation decoupled from the flow: with the zero-flux (Neumann) closure in the
no-slip system and the zero-value (Dirichlet) closure in the tangential
system.  Because this component has an analytic oracle (exact discrete
eigenfunctions of both Laplacians), it anchors the accuracy of everything
layered on top.

Stepping is Crank-Nicolson: second order, unconditionally L2-contractive for
these symmetric negative semi-definite operators, and exactly
mass-conservative in the Neumann case (the matrices have zero column sums).
The flow states hold their divergence as a field and step it by heat_step;
`enslab heat` marches a DivergenceState, a field with its own clock, by
heat_march, which takes the closure, viscosity and time step once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import CONTRACTION_RTOL, MASS_TOL, TINY
from .errors import CheckFailure
from .grid import ScalarField, integral, scalar_grad_inner, scalar_norm
from .linsolve import heat_solver
from .scenarios import march

__all__ = ["DivergenceState", "check_mass", "heat_step", "heat_march", "HeatEstimates"]


def check_mass(g: ScalarField, m0: float) -> None:
    """Raise CheckFailure when the zero-flux divergence g has lost the mass m0."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflows: judged where g is measured
        drift = abs(integral(g) - m0)
    if drift > MASS_TOL * max(1.0, abs(m0)):
        raise CheckFailure(f"zero-flux divergence state lost mass: drift {drift:.3e}")


@dataclass(frozen=True)
class DivergenceState:
    """Divergence field at its time."""

    g: ScalarField
    time: float


def heat_step(g: ScalarField, solve) -> ScalarField:
    """One step of g by the heat_solver ``solve``; checks L2 contraction."""
    out = ScalarField(g.grid, solve(g.values))
    n_old = scalar_norm(g)
    n_new = scalar_norm(out)
    if n_new > n_old * (1.0 + CONTRACTION_RTOL) + TINY:
        raise CheckFailure(
            f"heat step expanded the L2 norm: {n_old:.16e} -> {n_new:.16e}")
    return out


def heat_march(g: ScalarField, bc: str, nu: float, dt: float, nsteps: int):
    """The states of g under the closure bc from t = 0 (scenarios.march):
    nu, dt and the closure (by the one solver built) are checked here, and
    on zero-flux walls each step's mass against that of g."""
    if not (nu > 0.0 and math.isfinite(nu)):
        raise ValueError(f"viscosity must be positive and finite, got {nu}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive, got {dt}")
    solve = heat_solver(g.grid, nu * dt, bc)
    with np.errstate(over="ignore", invalid="ignore"):
        m0 = integral(g)

    def step(s: DivergenceState) -> DivergenceState:
        g1 = heat_step(s.g, solve)
        if bc == "neumann":
            check_mass(g1, m0)
        return DivergenceState(g1, s.time + dt)
    return march(step, DivergenceState(g, 0.0), nsteps)


class HeatEstimates:
    """Margins of the a-priori estimates along a fixed-step history under
    the closure bc and viscosity nu.

    add() states in time order, each with its measured L2 norm, then
    record().  The margins, each >= 0 up to global slack:
      sup-norm:   ||g0|| - max_t ||g(t)||
      gradient:   (2 nu)^{-1/2} ||g0|| - sqrt(integral of the gradient energy)

    add() keeps three scalars per state.
    """

    def __init__(self, bc: str, nu: float) -> None:
        self._bc, self._nu = bc, nu
        self._times: list[float] = []
        self._l2: list[float] = []
        self._grad_energy: list[float] = []

    def add(self, s: DivergenceState, l2: float) -> None:
        if self._times and s.time <= self._times[-1]:
            raise ValueError("HeatEstimates: non-increasing times")
        self._times.append(s.time)
        self._l2.append(l2)
        self._grad_energy.append(max(scalar_grad_inner(s.g, s.g, self._bc), 0.0))

    def record(self) -> dict:
        if not self._times:
            raise ValueError("HeatEstimates: empty history")
        g0 = self._l2[0]
        # one state integrates to 0.0
        grad_integral = float(np.trapezoid(self._grad_energy, self._times))
        grad_margin = g0 / math.sqrt(2.0 * self._nu) - math.sqrt(max(grad_integral, 0.0))
        return {
            "initial_l2": g0,
            "grad_energy_integral": grad_integral,
            "sup_margin": g0 - max(self._l2),
            "grad_margin": grad_margin,
        }
