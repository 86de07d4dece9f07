"""Spans recorded from outside the program, around the calls into each layer.

A ``Tracer`` wraps named functions of the ``enslab`` modules and rebinds each
wrapper in every ``enslab.*`` module that holds the original under any name,
so a function imported by name (``from .linsolve import cg_solve``) is traced
wherever it is called.  Methods are wrapped on their class.

Each call becomes one span: (id, name, start, end, parent, thread, attrs).
The parent comes from a thread-local stack; a span opened on a thread with an
empty stack (a worker of the ``compare`` fan-out) takes the process's root
span as parent, so self times of the root account for work on every thread.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

# Step functions and the one that wraps the whole command: traced in every
# run, because the end-to-end step and set-up times are read from them.
STEPPERS = (
    "ens_jl:step_decomposed",
    "ens_jl:step_direct",
    "ens_sr:step_constructive",
    "ens_sr:step_direct_sr",
    "galerkin:integrate_galerkin",
)
# The Galerkin route runs all its steps in one call; each step ends by
# building its state, so these spans split that call into steps.
STATE_MARK = "galerkin:GalerkinState.__post_init__"
ALWAYS = ("cli:main", "galerkin:coupling_tensor", STATE_MARK) + STEPPERS

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "attrs")

# Layer boundaries traced only in the per-layer (traced) run.
LAYERS = (
    "linsolve:NeumannPoisson.solve_values",
    "linsolve:NoslipHelmholtz.solve",
    "linsolve:cg_solve",
    "linsolve:stokes_solve",
    "linsolve:_cached",
    "linsolve:_lu_solver",
    "reference:projected_viscous_solve",
    "stokes_lift:lift_divergence",
    "stokes_lift:lift_with_boundary",
    "stokes_lift:leray_project",
    "stokes_lift:decompose",
    "heat_oracle:heat_step",
    "advection:skew_advect",
    "grid:divergence",
    "grid:gradient",
    "grid:vector_laplacian",
    "ens_jl:check_energy_bound",
    "ens_sr:pressure_poisson",
    "galerkin:build_basis",
    "fieldio:write_component",
    "fieldio:write_csv",
    "fieldio:write_summary",
)


def _attrs_of(name: str, args, result) -> dict | None:
    """Counts read from a call's arguments and return value."""
    if name == "linsolve.cg_solve":
        return {"iters": int(result[1].iterations)}
    if name == "linsolve.stokes_solve":
        return {"iters": int(result[2].iterations)}
    if name == "linsolve._cached":
        return {"key": repr(args[0])}
    if name == "linsolve._lu_solver":
        lu = getattr(result, "__self__", None)
        if lu is not None and hasattr(lu, "L"):
            return {"nnz": int(lu.L.nnz + lu.U.nnz)}
    return None


class Tracer:
    """Records spans of the targets named ``module:qualname``."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list = []
        self.missing: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._root
            if tracer._root is None:
                tracer._root = sid
            stack.append(sid)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = (_attrs_of(name, args, result) if returned
                         else {"raised": True})
                tracer.spans.append((sid, name, start, end, parent,
                                     threading.get_ident(), attrs))

        return traced

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed
        in ``missing`` and its counts read zero."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "enslab" or n.startswith("enslab.")]
        for target in self.targets:
            modname, qualname = target.split(":")
            try:
                module = importlib.import_module(f"enslab.{modname}")
            except ModuleNotFoundError:
                module = None
            owner, _, attr = qualname.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, attr, None)
            if original is None:
                self.missing.append(target)
                continue
            wrapper = self._wrap(f"{modname}.{qualname}", original)
            if owner:
                setattr(holder, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
