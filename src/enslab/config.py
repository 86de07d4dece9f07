"""Run configuration: the `key = value` file format and its invariants."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError
from .galerkin import BASIS_COST, BASIS_GRID_MAX
from .scenarios import FORCING_PRESETS, IC_PRESETS

__all__ = ["Config", "ConfigError", "parse_config", "load_config"]

_SYSTEMS = ("jl", "sr")
_ROUTES = ("decomposed", "direct", "galerkin")
_TENSOR_BYTES_MAX = 2 ** 28  # the Galerkin coupling tensors, 2 modes^3 float64: modes <= 256


@dataclass(frozen=True)
class Config:
    system: str
    nu: float
    dt: float
    horizon: float
    grid: int
    route: str = "decomposed"
    lam: float | None = None
    ic: str = "vortex"
    ic_eps: float = 0.01
    ic_mode: int = 1
    ic_amplitude: float = 1.0
    forcing: str = "zero"
    forcing_amplitude: float = 1.0
    modes: int = 8
    out: str = "out"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.system not in _SYSTEMS:
            raise ConfigError(f"system must be one of {_SYSTEMS}, got {self.system!r}")
        if self.route not in _ROUTES:
            raise ConfigError(f"route must be one of {_ROUTES}, got {self.route!r}")
        if not (self.nu > 0.0):
            raise ConfigError(f"nu must be positive, got {self.nu!r}")
        if self.system == "sr":
            if self.lam is None:
                raise ConfigError("system = sr requires the key 'lambda'")
            if not (self.lam > 0.0):
                raise ConfigError(f"lambda must be positive, got {self.lam!r}")
        elif self.lam is not None:
            raise ConfigError("'lambda' is only valid with system = sr")
        if not (self.dt > 0.0):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if not (self.horizon >= self.dt):
            raise ConfigError(f"T must be at least dt, got T = {self.horizon!r}")
        if (self.grid < 8 or self.grid > 256
                or self.grid & (self.grid - 1) != 0):
            raise ConfigError(
                f"grid must be a power of two in [8, 256], got {self.grid!r}")
        if self.ic not in IC_PRESETS:
            raise ConfigError(f"ic must be one of {IC_PRESETS}, got {self.ic!r}")
        if self.ic == "boundary_flux" and self.system != "sr":
            raise ConfigError("ic = boundary_flux requires system = sr")
        if self.forcing not in FORCING_PRESETS:
            raise ConfigError(
                f"forcing must be one of {FORCING_PRESETS}, got {self.forcing!r}")
        if self.route == "galerkin":
            if self.system != "jl":
                raise ConfigError("route = galerkin requires system = jl")
            if self.grid > BASIS_GRID_MAX:
                raise ConfigError(f"route = galerkin requires grid <= {BASIS_GRID_MAX}: "
                                  f"{BASIS_COST}")
            if self.ic not in ("zero", "vortex", "random_solenoidal"):
                raise ConfigError(
                    "route = galerkin models the divergence-free flow only; "
                    "ic must be zero, vortex, or random_solenoidal")
            if 16 * self.modes ** 3 > _TENSOR_BYTES_MAX:
                raise ConfigError(f"route = galerkin with modes = {self.modes} needs coupling "
                                  f"tensors of 2 * modes^3 * 8 = {16 * self.modes ** 3:.3g} "
                                  f"bytes, above {_TENSOR_BYTES_MAX} (modes <= 256)")
        if self.ic_mode < 1:
            raise ConfigError(f"ic_mode must be a positive integer, got {self.ic_mode!r}")
        if self.modes < 1:
            raise ConfigError(f"modes must be a positive integer, got {self.modes!r}")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError(f"seed must fit in an unsigned 64-bit value, got {self.seed!r}")
        for key in ("nu", "lambda", "dt", "T", "ic_eps", "ic_amplitude", "forcing_amplitude"):
            value = getattr(self, _KEY_FIELDS[key][0])
            if value is not None and not (abs(value) < float("inf")):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if not (self.horizon / self.dt < 2.0 ** 63):
            raise ConfigError(f"T / dt = {self.horizon / self.dt:.3g} steps do not fit in a "
                              "64-bit integer; lower T or raise dt")

    @property
    def nsteps(self) -> int:
        return max(1, round(self.horizon / self.dt))


_KEY_FIELDS = {
    "system": ("system", str),
    "route": ("route", str),
    "nu": ("nu", float),
    "lambda": ("lam", float),
    "dt": ("dt", float),
    "T": ("horizon", float),
    "grid": ("grid", int),
    "ic": ("ic", str),
    "ic_eps": ("ic_eps", float),
    "ic_mode": ("ic_mode", int),
    "ic_amplitude": ("ic_amplitude", float),
    "forcing": ("forcing", str),
    "forcing_amplitude": ("forcing_amplitude", float),
    "modes": ("modes", int),
    "out": ("out", str),
    "seed": ("seed", int),
}
_REQUIRED = ("system", "nu", "dt", "T", "grid")


def parse_config(text: str) -> Config:
    """Parse `key = value` lines; `#` starts a comment; unknown keys are errors."""
    fields: dict = {}
    seen: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        seen.add(key)
        field_name, cast = _KEY_FIELDS[key]
        try:
            fields[field_name] = cast(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: invalid {cast.__name__} value for {key!r}: {value!r}")
    missing = [key for key in _REQUIRED if key not in seen]
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")
    return Config(**fields)


def load_config(path: str, out: str | None = None, seed: int | None = None) -> Config:
    """Read and parse a config file, with optional command-line overrides."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    cfg = parse_config(text)
    if out is not None:
        cfg = replace(cfg, out=out)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg
