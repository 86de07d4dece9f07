"""enslab: a staggered-grid laboratory for two extended incompressible-flow
systems whose divergence obeys its own heat-type dynamics.

Subsystems
----------
grid         square staggered grid Grid(n), fields, discrete operators
linsolve     separable scalar solves, direct capacitance Stokes solver
heat_oracle  scalar heat evolution of the divergence with runtime estimates
stokes_lift  divergence lifting, orthogonal decomposition, Leray projection
advection    skew-symmetric transport operator
ens_jl       no-slip system: decomposition stepper and direct stepper
ens_sr       tangential-boundary system with boundary relaxation
stokes_modes lowest eigenpairs of the Stokes operator, split by the square's symmetries
galerkin     discrete eigenbasis of the projected Laplacian and its ODE system
reference    standard projection-method solver, the external yardstick
scenarios    named initial conditions and forcings, and the time march
diagnostics  tolerance table, norms, margins, decay fits, convergence orders
config       key = value config files and their validation
fieldio      file formats: ENSF1 field dumps, diagnostics CSV, margin summaries
cli          the enslab command: run drivers, studies, exit codes
"""

__version__ = "0.1.0"

from .grid import Grid, ScalarField, VectorField, BoundaryTrace  # noqa: F401
