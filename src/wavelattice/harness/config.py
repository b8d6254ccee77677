"""Experiment configuration: flat key=value text with sections.

The format is deliberately simple (configparser-compatible, no nesting) so
experiment provenance diffs cleanly.  Data selections are catalog strings,
e.g. ``gaussian center=0,0 width=0.3 amplitude=1``; vector values separate
components with commas, fields separate with spaces.  Configs round-trip
losslessly through ``to_text`` / ``from_text``; ``from_text`` refuses
any section or key that ``to_text`` does not write and takes every key the
text omits from the dataclass defaults.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import WaveLatticeError
from ..lattice import Domain, LatticeSpec
from ..spectral import DataFunction

__all__ = ["ConfigError", "ExperimentConfig", "parse_data_function", "format_data_function"]

_EXPERIMENTS = tuple(f"E{i}" for i in range(1, 9))


class ConfigError(WaveLatticeError):
    """Invalid or unserialisable experiment configuration."""


def _vector(text: str) -> list:
    return [float(part) for part in text.split(",") if part != ""]


#: parameters each catalog entry takes; any other key is rejected
_CATALOG_KEYS = {
    "gaussian": {"center", "width", "amplitude"},
    "modulated_gaussian": {"center", "width", "carrier", "amplitude"},
    "plane_wave": {"alpha"},
    "separable_cosine": {"alpha"},
    "smooth_bump": {"center", "radius", "amplitude"},
}


def parse_data_function(text: str, n: int):
    """Build a catalog DataFunction from its config string; '' / 'none' -> None."""
    text = text.strip()
    if text in ("", "none"):
        return None
    pieces = text.split()
    name, kvs = pieces[0], pieces[1:]
    if name not in _CATALOG_KEYS:
        raise ConfigError(f"unknown data-catalog entry {name!r}")
    params = {}
    for token in kvs:
        if "=" not in token:
            raise ConfigError(f"malformed data parameter {token!r} in {text!r}")
        key, value = token.split("=", 1)
        if key not in _CATALOG_KEYS[name]:
            raise ConfigError(f"{name} takes no parameter {key!r} in {text!r}")
        params[key] = _vector(value)

    def vec(key, default):
        raw = params.get(key, default)
        vals = list(raw)
        if len(vals) == 1:
            vals = vals * n
        if len(vals) != n:
            raise ConfigError(f"{key} needs 1 or {n} components in {text!r}")
        return tuple(vals)

    def scalar(key, default):
        raw = params.get(key, [default])
        if len(raw) != 1:
            raise ConfigError(f"{key} must be scalar in {text!r}")
        return float(raw[0])

    try:
        if name == "gaussian":
            return DataFunction.gaussian(
                vec("center", [0.0]),
                scalar("width", 0.3),
                amplitude=scalar("amplitude", 1.0),
            )
        if name == "modulated_gaussian":
            return DataFunction.modulated_gaussian(
                vec("center", [0.0]),
                scalar("width", 0.3),
                vec("carrier", [1.0]),
                amplitude=scalar("amplitude", 1.0),
            )
        if name == "plane_wave":
            return DataFunction.plane_wave(vec("alpha", [1.0]))
        if name == "separable_cosine":
            return DataFunction.separable_cosine(vec("alpha", [1.0]))
        if name == "smooth_bump":
            return DataFunction.smooth_bump(
                vec("center", [0.0]),
                scalar("radius", 0.5),
                amplitude=scalar("amplitude", 1.0),
            )
    except WaveLatticeError:
        raise
    except Exception as exc:  # malformed parameters
        raise ConfigError(f"cannot build data function from {text!r}: {exc}") from exc


def _fmt_vec(values) -> str:
    return ",".join(repr(float(v)) for v in np.atleast_1d(values))


def format_data_function(data) -> str:
    """Inverse of parse_data_function for catalog functions."""
    if data is None:
        return "none"
    if data.kind == "gaussian":
        return (
            f"gaussian center={_fmt_vec(data.center)} "
            f"width={data.width!r} amplitude={data.amplitude!r}"
        )
    if data.kind == "modulated_gaussian":
        return (
            f"modulated_gaussian center={_fmt_vec(data.center)} width={data.width!r} "
            f"carrier={_fmt_vec(data.carrier)} amplitude={data.amplitude!r}"
        )
    if data.kind == "plane_wave":
        return f"plane_wave alpha={_fmt_vec(data.alpha0)}"
    if data.kind == "separable_cosine":
        return f"separable_cosine alpha={_fmt_vec(data.alpha0)}"
    if data.kind == "smooth_bump":
        return (
            f"smooth_bump center={_fmt_vec(data.center)} "
            f"radius={data.radius!r} amplitude={data.amplitude!r}"
        )
    raise ConfigError(f"cannot serialize data function of kind {data.kind!r}")


def _vector_field(text: str) -> tuple:
    return tuple(_vector(text))


_INT, _FLOAT, _STR = (int, str), (float, repr), (str, str)
_VECTOR = (_vector_field, _fmt_vec)

#: section -> key -> (field, parse, format), in the order to_text writes them
_LAYOUT = {
    "experiment": {"id": ("experiment", *_STR), "n": ("n", *_INT),
                   "levels": ("levels", *_INT), "seed": ("seed", *_INT)},
    "lattice": {"dx": ("dx", *_FLOAT), "dt": ("dt", *_FLOAT), "t": ("T", *_FLOAT)},
    "domain": {"kind": ("domain_kind", *_STR), "lo": ("domain_lo", *_VECTOR),
               "hi": ("domain_hi", *_VECTOR), "window_lo": ("window_lo", *_VECTOR),
               "window_hi": ("window_hi", *_VECTOR)},
    "data": {name: (name, *_STR) for name in ("f", "g", "h", "w", "a", "sigma")},
    "tolerances": {"order_lo": ("order_lo", *_FLOAT),
                   "order_hi": ("order_hi", *_FLOAT)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "E1"
    n: int = 1
    dx: float = 0.2
    dt: float = 0.1
    T: float = 0.4
    levels: int = 5
    seed: int = 20260826
    domain_kind: str = "full_space"  # full_space | box | ball
    domain_lo: tuple = (0.0,)
    domain_hi: tuple = (1.0,)
    window_lo: tuple = (-0.5,)
    window_hi: tuple = (0.5,)
    f: str = "gaussian center=0.0 width=0.3 amplitude=1.0"
    g: str = "none"
    h: str = "none"
    w: str = "none"
    a: str = "none"
    sigma: str = "none"
    order_lo: float = 1.7
    order_hi: float = 2.3

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment id {self.experiment!r}")
        if self.n not in (1, 2, 3):
            raise ConfigError(f"dimension must be 1, 2 or 3, got {self.n}")
        if self.levels < 1:
            raise ConfigError("levels must be positive")
        if not (self.dx > 0 and self.dt > 0 and self.T > 0):
            raise ConfigError("dx, dt and T must be positive")
        if not self.base_spec().admissible():
            raise ConfigError(
                f"lattice dx={self.dx!r} dt={self.dt!r} T={self.T!r} is not "
                f"admissible in n={self.n}: T/dt must be an integer and "
                "dt/dx at most 1/sqrt(n)"
            )
        # Validate every referenced catalog item up front.
        for name in ("f", "g", "h", "w", "a", "sigma"):
            parse_data_function(getattr(self, name), self.n)

    # -- derived objects ---------------------------------------------------
    def base_spec(self) -> LatticeSpec:
        return LatticeSpec(self.n, self.dx, self.dt, self.T)

    def _axes(self, lo, hi) -> list:
        lo = list(lo) * self.n if len(lo) == 1 else list(lo)
        hi = list(hi) * self.n if len(hi) == 1 else list(hi)
        if len(lo) != self.n or len(hi) != self.n:
            raise ConfigError("bounds need 1 or n components per side")
        return list(zip(lo, hi))

    def domain(self) -> Domain:
        if self.domain_kind == "full_space":
            return Domain.full_space(self.window())
        if self.domain_kind == "box":
            return Domain.box(self._axes(self.domain_lo, self.domain_hi))
        if self.domain_kind == "ball":
            bounds = self._axes(self.domain_lo, self.domain_hi)
            center = tuple((lo + hi) / 2 for lo, hi in bounds)
            radius = (bounds[0][1] - bounds[0][0]) / 2
            return Domain.ball(center, radius)
        raise ConfigError(f"unknown domain kind {self.domain_kind!r}")

    def window(self) -> list:
        return self._axes(self.window_lo, self.window_hi)

    def data(self, name: str):
        return parse_data_function(getattr(self, name), self.n)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})

    # -- serialization -----------------------------------------------------
    def to_text(self) -> str:
        cp = configparser.ConfigParser()
        cp.read_dict({
            section: {key: fmt(getattr(self, name))
                      for key, (name, _, fmt) in keys.items()}
            for section, keys in _LAYOUT.items()
        })
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """Read a config; the dataclass supplies every key the text omits."""
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
            # the sections and keys to_text writes are the only ones read
            if cp.defaults():
                raise ConfigError("unknown section [DEFAULT]")
            fields = {}
            for section in cp.sections():
                if section not in _LAYOUT:
                    raise ConfigError(f"unknown section [{section}]")
                for key, value in cp[section].items():
                    if key not in _LAYOUT[section]:
                        raise ConfigError(f"unknown key {key!r} in [{section}]")
                    name, parse, _ = _LAYOUT[section][key]
                    fields[name] = parse(value)
            return cls(**fields)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"cannot parse experiment config: {exc}") from exc

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def read(cls, path) -> "ExperimentConfig":
        with open(path, encoding="ascii") as fh:
            return cls.from_text(fh.read())
