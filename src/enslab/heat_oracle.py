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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import CONTRACTION_RTOL, MASS_TOL, TINY, fine_norm
from .errors import CheckFailure
from .grid import ScalarField, integral, scalar_grad_inner, scalar_norm
from .linsolve import heat_solver

__all__ = ["DivergenceState", "divergence_state", "heat_step", "HeatEstimates"]


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
            drift = abs(integral(self.g) - self.m0)
            if drift > MASS_TOL * max(1.0, abs(self.m0)):
                raise CheckFailure(
                    f"zero-flux divergence state lost mass: drift {drift:.3e}")


def divergence_state(g: ScalarField, bc: str, nu: float) -> DivergenceState:
    """Build the state at t = 0; the conserved mass is frozen from g.  A mass
    that overflows is not judged here but where g is measured."""
    with np.errstate(over="ignore", invalid="ignore"):
        return DivergenceState(g=g, time=0.0, bc=bc, nu=float(nu), m0=integral(g))


def heat_step(s: DivergenceState, dt: float) -> DivergenceState:
    """One Crank-Nicolson step; re-validates mass and L2 contraction."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive, got {dt}")
    step = heat_solver(s.g.grid, s.nu * dt, s.bc, theta="cn")
    out = ScalarField(s.g.grid, step(s.g.values))
    n_old = scalar_norm(s.g)
    n_new = scalar_norm(out)
    if n_new > n_old * (1.0 + CONTRACTION_RTOL) + TINY:
        raise CheckFailure(
            f"heat step expanded the L2 norm: {n_old:.16e} -> {n_new:.16e}")
    return DivergenceState(g=out, time=s.time + dt, bc=s.bc, nu=s.nu, m0=s.m0)


class HeatEstimates:
    """Margins of the a-priori estimates along a fixed-step history.

    add() states in time order, then record().  The margins, each >= 0 up to
    global slack:
      sup-norm:   ||g0|| - max_t ||g(t)||
      gradient:   (2 nu)^{-1/2} ||g0|| - sqrt(integral of the gradient energy)

    add() holds only the previous state and keeps three scalars per state.
    """

    def __init__(self) -> None:
        self._prev: DivergenceState | None = None
        self._times: list[float] = []
        self._l2: list[float] = []
        self._grad_energy: list[float] = []

    def add(self, s: DivergenceState) -> None:
        a, self._prev = self._prev, s
        if a is not None:
            if s.bc != a.bc or s.nu != a.nu:
                raise ValueError("HeatEstimates: mixed bc or viscosity in history")
            if s.time <= a.time:
                raise ValueError("HeatEstimates: non-increasing times")
        self._times.append(s.time)
        self._l2.append(fine_norm(s.g))
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
