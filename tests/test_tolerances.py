"""The tolerance table: every bound of the package is named once.

The scan tokenizes each module of ``src/enslab`` and fails on any float
literal with a negative exponent (``1e-9``, ``2.5E-3``) outside the table in
``diagnostics`` and the two solver bounds that ``linsolve`` defines for it.
"""

import io
import pathlib
import re
import tokenize

import pytest

from enslab import diagnostics, linsolve

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "enslab"
NEGATIVE_EXPONENT = re.compile(r"^[0-9_.]+[eE]-[0-9_]+$")

# module -> names whose module-level assignment may hold such a literal
ALLOWED = {
    "linsolve.py": {"STOKES_TOL", "COMPAT_TOL"},
    # perturbation amplitudes of the stability study, inputs rather than bounds
    "cli.py": {"_STABILITY_EPS"},
}

# the table's values; a change here is a change of a bound
TABLE = {
    "SLACK_ABS": 1e-8, "SLACK_REL": 1e-6, "TINY": 1e-300,
    "LIFT_FLOOR": 1e-12, "WALL_FLOOR": 1e-12,
    "DRIFT_RTOL": 1e-7, "DRIFT_ABS": 1e-14,
    "RECONSTRUCT_TOL": 1e-13, "WALL_FOLLOW_TOL": 1e-8,
    "SPLIT_TOL": 1e-9, "SPLIT_RECONSTRUCT_TOL": 1e-14, "SPLIT_WALL_TOL": 1e-10,
    "SOLVABILITY_TOL": 1e-7, "GAP_DECAY_TOL": 1e-9, "NET_SOURCE_TOL": 1e-8,
    "MASS_TOL": 1e-12, "CONTRACTION_RTOL": 1e-12,
    "GRAM_TOL": 1e-10, "EIGEN_RESIDUAL_TOL": 1e-8, "EIGEN_ORDER_RTOL": 1e-9,
    "PARITY_RTOL": 1e-10,
    "DIV_CEILING": 1e-9, "WALL_FOLLOW_RUN_TOL": 1e-8, "LEDGER_RATE_TOL": 1e-6,
    "STOKES_TOL": 1e-12, "COMPAT_TOL": 1e-10,
}


def stray_literals(path: pathlib.Path) -> list[str]:
    """Negative-exponent literals of one module outside its allowed assignments."""
    allowed = ALLOWED.get(path.name, set())
    table = path.name == "diagnostics.py"
    found = []
    assigned = None  # the name of the module-level assignment being read
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    for tok in tokens:
        if tok.type == tokenize.NAME and tok.start[1] == 0:
            assigned = tok.string
        elif tok.type == tokenize.NEWLINE:
            assigned = None
        elif tok.type == tokenize.NUMBER and NEGATIVE_EXPONENT.match(tok.string):
            in_table = table and assigned is not None and assigned.isupper()
            if not (in_table or assigned in allowed):
                found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    return found


def test_scan_covers_the_package():
    names = {p.name for p in SRC.glob("*.py")}
    assert {"diagnostics.py", "linsolve.py", "cli.py", "ens_jl.py", "ens_sr.py"} <= names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_bound_literal_outside_the_table(path):
    assert stray_literals(path) == []


def test_scan_flags_a_literal_outside_the_table(tmp_path):
    module = tmp_path / "ens_jl.py"
    module.write_text("X = 1\n\ndef f(a):\n    return a <= 1e-9 * max(1.0, a)\n")
    assert stray_literals(module) == ["ens_jl.py:4: 1e-9"]
    table = tmp_path / "diagnostics.py"
    table.write_text("GOOD = 1e-9  # scale\n\ndef f(a):\n    return a > 2.5E-3\n")
    assert stray_literals(table) == ["diagnostics.py:4: 2.5E-3"]


def test_table_values_are_unchanged():
    for name, value in TABLE.items():
        assert getattr(diagnostics, name) == value, name
        assert name in diagnostics.__all__, name


def test_solver_bounds_are_reexported():
    assert diagnostics.STOKES_TOL is linsolve.STOKES_TOL
    assert diagnostics.COMPAT_TOL is linsolve.COMPAT_TOL
