"""enslab: a staggered-grid laboratory for two extended incompressible-flow
systems whose divergence obeys its own heat-type dynamics.

Subsystems
----------
grid         staggered grid, fields, discrete operators
linsolve     separable scalar solves, direct capacitance Stokes solver
heat_oracle  scalar heat evolution of the divergence with runtime estimates
stokes_lift  divergence lifting, orthogonal decomposition, Leray projection
advection    skew-symmetric transport operator
ens_jl       no-slip system: decomposition stepper and direct pressure stepper
ens_sr       tangential-boundary system with boundary relaxation
stokes_modes lowest eigenpairs of the Stokes operator, split by the square's symmetries
galerkin     discrete eigenbasis of the projected Laplacian and its ODE system
diagnostics  norms, margins, decay fits, convergence orders
cli          configuration, run drivers, file formats
"""

__version__ = "0.1.0"

from .grid import Grid, ScalarField, VectorField, BoundaryTrace  # noqa: F401
