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
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import WaveLatticeError
from ..lattice import Domain, LatticeSpec
from ..spectral import CATALOG, DataFunction

__all__ = ["ConfigError", "ExperimentConfig", "parse_data_function", "format_data_function"]

_EXPERIMENTS = tuple(f"E{i}" for i in range(1, 9))


class ConfigError(WaveLatticeError):
    """Invalid or unserialisable experiment configuration."""


def _vector(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part != "")


def _broadcast(values, n: int, what: str) -> tuple:
    """`values` on n axes: one component is held on every axis."""
    if len(values) not in (1, n):
        raise ConfigError(f"{what} needs 1 or {n} components")
    return tuple(values) * (n // len(values))


def parse_data_function(text: str, n: int):
    """Build a catalog DataFunction from its config string; '' / 'none' -> None.

    A key the text omits takes its CATALOG default, and a vector given one
    component holds it on each of the n axes.
    """
    text = text.strip()
    if text in ("", "none"):
        return None
    name, *tokens = text.split()
    if name not in CATALOG:
        raise ConfigError(f"unknown data-catalog entry {name!r}")
    given = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or key in given:
            raise ConfigError(f"malformed or repeated parameter {token!r} in {text!r}")
        given[key] = value
    fields = {}
    try:
        for key, field, form, default in CATALOG[name]:
            values = _vector(given.pop(key)) if key in given else (default,)
            if form == "vector":
                fields[field] = _broadcast(values, n, f"{key} in {text!r}")
            elif len(values) != 1:
                raise ConfigError(f"{key} must be scalar in {text!r}")
            else:
                fields[field] = values[0]
        if given:
            key = next(iter(given))
            raise ConfigError(f"{name} takes no parameter {key!r} in {text!r}")
        return DataFunction(name, **fields)
    except ValueError as exc:  # a value that is no number or out of range
        raise ConfigError(f"cannot build data function from {text!r}: {exc}") from exc


def _fmt_vec(values) -> str:
    return ",".join(repr(float(v)) for v in np.atleast_1d(values))


def format_data_function(data) -> str:
    """Inverse of parse_data_function for catalog functions."""
    if data is None:
        return "none"
    return " ".join([data.kind] + [f"{key}={_fmt_vec(getattr(data, field))}"
                                   for key, field, _, _ in CATALOG[data.kind]])


_INT, _FLOAT, _STR = (int, str), (float, repr), (str, str)
_VECTOR = (_vector, _fmt_vec)

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
        # Validate every catalog item up front; no experiment reads w, a or sigma.
        for name in ("f", "g", "h", "w", "a", "sigma"):
            if self.data(name) is not None and name in ("w", "a", "sigma"):
                raise ConfigError(f"no experiment reads {name}: it takes only none")

    # -- derived objects ---------------------------------------------------
    def base_spec(self) -> LatticeSpec:
        return LatticeSpec(self.n, self.dx, self.dt, self.T)

    def _axes(self, lo, hi) -> list:
        return list(zip(_broadcast(lo, self.n, "a lower bound"),
                        _broadcast(hi, self.n, "an upper bound")))

    def domain(self) -> Domain:
        if self.domain_kind == "full_space":
            return Domain.full_space(self.window())
        if self.domain_kind == "box":
            return Domain.box(self._axes(self.domain_lo, self.domain_hi))
        if self.domain_kind == "ball":
            bounds = self._axes(self.domain_lo, self.domain_hi)
            extents = [hi - lo for lo, hi in bounds]
            if not all(math.isclose(e, extents[0], rel_tol=1e-12) for e in extents):
                raise ConfigError(
                    f"a ball needs bounds of equal extents, got {extents}")
            center = tuple((lo + hi) / 2 for lo, hi in bounds)
            return Domain.ball(center, extents[0] / 2)
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
