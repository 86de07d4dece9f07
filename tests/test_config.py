"""Config-file parsing and validation."""

import dataclasses
import math

import pytest

from enslab.config import Config, load_config, parse_config
from enslab.errors import ConfigError

MINIMAL = """
system = jl
nu = 0.1
dt = 1e-3
T = 0.5
grid = 32
"""


def make(**overrides):
    base = dict(system="jl", nu=0.1, dt=1e-3, horizon=0.5, grid=32)
    base.update(overrides)
    return Config(**base)


class TestParse:
    def test_minimal_file_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.system == "jl"
        assert cfg.nu == 0.1
        assert cfg.dt == 1e-3
        assert cfg.horizon == 0.5
        assert cfg.grid == 32
        assert cfg.route == "decomposed"
        assert cfg.lam is None
        assert cfg.ic == "vortex"
        assert cfg.ic_eps == 0.01
        assert cfg.ic_mode == 1
        assert cfg.ic_amplitude == 1.0
        assert cfg.forcing == "zero"
        assert cfg.forcing_amplitude == 1.0
        assert cfg.modes == 8
        assert cfg.out == "out"
        assert cfg.seed == 0

    def test_comments_and_blank_lines_ignored(self):
        text = MINIMAL + "\n# whole-line comment\nroute = direct  # trailing\n\n"
        cfg = parse_config(text)
        assert cfg.route == "direct"

    def test_all_keys_round_trip(self):
        text = """
        system = sr
        route = direct
        nu = 0.05
        lambda = 2.5
        dt = 2e-3
        T = 0.1
        grid = 16
        ic = eigenmode_div
        ic_eps = 0.02
        ic_mode = 3
        ic_amplitude = 1.5
        forcing = rotational
        forcing_amplitude = 0.25
        modes = 4
        out = results/run1
        seed = 7
        """
        cfg = parse_config(text)
        assert cfg.system == "sr"
        assert cfg.lam == 2.5
        assert cfg.ic_mode == 3
        assert cfg.forcing_amplitude == 0.25
        assert cfg.out == "results/run1"
        assert cfg.seed == 7

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 7.*viscosity"):
            parse_config(MINIMAL + "viscosity = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate.*nu"):
            parse_config(MINIMAL + "nu = 0.2\n")

    def test_missing_required_keys_listed(self):
        with pytest.raises(ConfigError, match="nu.*grid|grid.*nu"):
            parse_config("system = jl\ndt = 1e-3\nT = 0.5\n")

    def test_bad_number_names_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config(MINIMAL.replace("nu = 0.1", "nu = fast"))

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(MINIMAL + "grid64\n")


class TestValidation:
    def test_sr_requires_lambda(self):
        with pytest.raises(ConfigError, match="lambda"):
            make(system="sr")

    def test_lambda_only_for_sr(self):
        with pytest.raises(ConfigError, match="lambda"):
            make(system="jl", lam=1.0)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            make(system="sr", lam=-1.0)

    def test_unknown_system_and_route(self):
        with pytest.raises(ConfigError, match="system"):
            make(system="ns")
        with pytest.raises(ConfigError, match="route"):
            make(route="spectral")

    def test_positivity_of_nu_dt_horizon(self):
        with pytest.raises(ConfigError, match="nu"):
            make(nu=0.0)
        with pytest.raises(ConfigError, match="dt"):
            make(dt=-1e-3)
        with pytest.raises(ConfigError, match="T must be at least dt"):
            make(horizon=1e-4)

    @pytest.mark.parametrize("bad", [33, 4, 512, 0, -8, 24])
    def test_grid_must_be_power_of_two_in_range(self, bad):
        with pytest.raises(ConfigError, match="power of two"):
            make(grid=bad)

    @pytest.mark.parametrize("good", [8, 16, 32, 64, 128, 256])
    def test_valid_grids_accepted(self, good):
        assert make(grid=good).grid == good

    def test_boundary_flux_needs_sr(self):
        with pytest.raises(ConfigError, match="boundary_flux"):
            make(ic="boundary_flux")
        cfg = make(system="sr", lam=1.0, ic="boundary_flux")
        assert cfg.ic == "boundary_flux"

    def test_galerkin_route_constraints(self):
        with pytest.raises(ConfigError, match="galerkin requires system = jl"):
            make(system="sr", lam=1.0, route="galerkin")
        with pytest.raises(ConfigError, match="grid <= 64"):
            make(route="galerkin", grid=128)
        with pytest.raises(ConfigError, match="divergence-free"):
            make(route="galerkin", ic="eigenmode_div")
        cfg = make(route="galerkin", ic="vortex")
        assert cfg.modes == 8

    def test_mode_and_modes_positive(self):
        with pytest.raises(ConfigError, match="ic_mode"):
            make(ic_mode=0)
        with pytest.raises(ConfigError, match="modes"):
            make(modes=0)

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            make(seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            make(seed=2 ** 64)

    def test_non_finite_floats_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            make(ic_eps=float("nan"))

    @pytest.mark.parametrize("key, fields", [
        ("nu", {"nu": math.inf}), ("lambda", {"lam": math.inf}),
        ("dt", {"dt": math.inf, "horizon": math.inf}), ("T", {"horizon": math.inf}),
        ("ic_eps", {"ic_eps": math.inf}), ("ic_amplitude", {"ic_amplitude": -math.inf}),
        ("forcing_amplitude", {"forcing_amplitude": math.inf})])
    def test_infinite_numbers_rejected(self, key, fields):
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got -?inf$"):
            make(**{"system": "sr", "lam": 1.0, **fields})

    def test_step_count_fits_in_64_bits(self):
        assert make(dt=1.0, horizon=2.0 ** 62).nsteps == 2 ** 62
        for horizon, dt in ((2.0 ** 63, 1.0), (1e300, 1e-300)):
            with pytest.raises(ConfigError, match="T / dt = .* do not fit in a 64-bit integer"):
                make(dt=dt, horizon=horizon)

    def test_galerkin_coupling_tensor_bound(self):
        # 2 * k^3 float64 entries: 2^28 bytes at k = 256, more from k = 257
        assert 2 * 256 ** 3 * 8 == 2 ** 28 < 2 * 257 ** 3 * 8
        assert make(route="galerkin", ic="vortex", modes=256).modes == 256
        with pytest.raises(ConfigError, match="modes = 257 needs coupling tensors"):
            make(route="galerkin", ic="vortex", modes=257)
        assert make(modes=257).modes == 257  # the field routes build no tensor

    def test_nsteps_rounds_to_nearest(self):
        assert make(dt=1e-3, horizon=0.5).nsteps == 500
        assert make(dt=0.3, horizon=0.3).nsteps == 1

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make().nu = 0.2


class TestLoad:
    def test_load_applies_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL)
        cfg = load_config(str(path), out="elsewhere", seed=99)
        assert cfg.out == "elsewhere"
        assert cfg.seed == 99

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))
