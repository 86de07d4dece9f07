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
`enslab heat` marches a DivergenceState, with its own clock, by step_divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import CONTRACTION_RTOL, MASS_TOL, TINY
from .errors import CheckFailure
from .grid import ScalarField, integral, scalar_grad_inner, scalar_norm
from .linsolve import heat_solver

__all__ = ["DivergenceState", "divergence_state", "check_mass", "heat_step", "step_divergence",
           "HeatEstimates"]


def check_mass(g: ScalarField, m0: float) -> None:
    """Raise CheckFailure when the zero-flux divergence g has lost the mass m0."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflows: judged where g is measured
        drift = abs(integral(g) - m0)
    if drift > MASS_TOL * max(1.0, abs(m0)):
        raise CheckFailure(f"zero-flux divergence state lost mass: drift {drift:.3e}")


@dataclass(frozen=True)
class DivergenceState:
    """Divergence field with its closure, viscosity, and conserved mass."""

    g: ScalarField
    time: float
    bc: str
    nu: float
    m0: float

    def __post_init__(self):
        if self.bc not in ("neumann", "dirichlet"):
            raise ValueError(f"unknown bc {self.bc!r} (expected 'neumann' or 'dirichlet')")
        if not (self.nu > 0.0 and math.isfinite(self.nu)):
            raise ValueError(f"viscosity must be positive and finite, got {self.nu}")
        if self.bc == "neumann":
            check_mass(self.g, self.m0)


def divergence_state(g: ScalarField, bc: str, nu: float) -> DivergenceState:
    """Build the state at t = 0; the conserved mass is frozen from g."""
    with np.errstate(over="ignore", invalid="ignore"):
        return DivergenceState(g=g, time=0.0, bc=bc, nu=float(nu), m0=integral(g))


def heat_step(g: ScalarField, nu: float, dt: float, bc: str) -> ScalarField:
    """One Crank-Nicolson step of g under the closure bc; checks L2 contraction."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive, got {dt}")
    out = ScalarField(g.grid, heat_solver(g.grid, nu * dt, bc, theta="cn")(g.values))
    n_old = scalar_norm(g)
    n_new = scalar_norm(out)
    if n_new > n_old * (1.0 + CONTRACTION_RTOL) + TINY:
        raise CheckFailure(
            f"heat step expanded the L2 norm: {n_old:.16e} -> {n_new:.16e}")
    return out


def step_divergence(s: DivergenceState, dt: float) -> DivergenceState:
    """The heat step of a divergence state; re-validates its mass."""
    return DivergenceState(heat_step(s.g, s.nu, dt, s.bc), s.time + dt, s.bc, s.nu, s.m0)


class HeatEstimates:
    """Margins of the a-priori estimates along a fixed-step history.

    add() states in time order, each with its measured L2 norm, then
    record().  The margins, each >= 0 up to global slack:
      sup-norm:   ||g0|| - max_t ||g(t)||
      gradient:   (2 nu)^{-1/2} ||g0|| - sqrt(integral of the gradient energy)

    add() holds only the previous state and keeps three scalars per state.
    """

    def __init__(self) -> None:
        self._prev: DivergenceState | None = None
        self._times: list[float] = []
        self._l2: list[float] = []
        self._grad_energy: list[float] = []

    def add(self, s: DivergenceState, l2: float) -> None:
        a, self._prev = self._prev, s
        if a is not None:
            if s.bc != a.bc or s.nu != a.nu:
                raise ValueError("HeatEstimates: mixed bc or viscosity in history")
            if s.time <= a.time:
                raise ValueError("HeatEstimates: non-increasing times")
        self._times.append(s.time)
        self._l2.append(l2)
        self._grad_energy.append(max(scalar_grad_inner(s.g, s.g, s.bc), 0.0))

    def record(self) -> dict:
        if self._prev is None:
            raise ValueError("HeatEstimates: empty history")
        g0 = self._l2[0]
        # one state integrates to 0.0
        grad_integral = float(np.trapezoid(self._grad_energy, self._times))
        grad_margin = g0 / math.sqrt(2.0 * self._prev.nu) - math.sqrt(max(grad_integral, 0.0))
        return {
            "initial_l2": g0,
            "grad_energy_integral": grad_integral,
            "sup_margin": g0 - max(self._l2),
            "grad_margin": grad_margin,
        }
