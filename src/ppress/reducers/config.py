"""Reducer configuration: method, error-bound mode, layout, fixed knobs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum

from ..errors import ConfigError


class Method(str, Enum):
    EBLC_PRED = "eblc_pred"
    EBLC_BITPLANE = "eblc_bitplane"
    TRUNC = "trunc"
    SAMPLE_NAIVE = "sample_naive"
    SAMPLE_WR = "sample_wr"
    SAMPLE_WOR = "sample_wor"
    LOSSLESS = "lossless"
    NONE = "none"


class Mode(str, Enum):
    NONE = "none"
    ABS = "abs"
    REL = "rel"
    PW_REL = "pw_rel"
    PSNR = "psnr"
    PREC = "prec"
    ACC = "acc"
    RATE = "rate"


class Layout(str, Enum):
    BY_COLUMN = "by_column"
    MATRIX = "matrix"


_MODES_FOR = {
    Method.EBLC_PRED: {Mode.ABS, Mode.REL, Mode.PW_REL, Mode.PSNR},
    Method.EBLC_BITPLANE: {Mode.PREC, Mode.ACC, Mode.RATE},
    Method.TRUNC: {Mode.NONE},
    Method.SAMPLE_NAIVE: {Mode.NONE},
    Method.SAMPLE_WR: {Mode.NONE},
    Method.SAMPLE_WOR: {Mode.NONE},
    Method.LOSSLESS: {Mode.NONE},
    Method.NONE: {Mode.NONE},
}

SAMPLING_METHODS = {Method.SAMPLE_NAIVE, Method.SAMPLE_WR, Method.SAMPLE_WOR}
BOUNDED_METHODS = {Method.EBLC_PRED, Method.EBLC_BITPLANE}


@dataclass(frozen=True)
class ReducerKnobs:
    """Fixed parameters, held constant while the bound is searched."""

    delta_order: int = 0  # bit-pattern delta passes before lossless coding
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delta_order not in (0, 1, 2):
            raise ConfigError(f"delta_order must be 0, 1 or 2, got {self.delta_order}")

    @classmethod
    def from_dict(cls, d: dict, where: str = "knobs") -> "ReducerKnobs":
        """Knobs from a mapping; a key that names no knob is a ConfigError."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"{where}: unknown knobs {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class ReducerConfig:
    """One point in configuration space: what to run and at which bound."""

    method: Method
    mode: Mode = Mode.NONE
    c: tuple[float, ...] = ()
    layout: Layout = Layout.BY_COLUMN
    knobs: ReducerKnobs = field(default_factory=ReducerKnobs)

    def __post_init__(self) -> None:
        method = Method(self.method)
        mode = Mode(self.mode)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "layout", Layout(self.layout))
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))
        if mode not in _MODES_FOR[method]:
            raise ConfigError(f"mode {mode.value} not valid for method {method.value}")
        if method in BOUNDED_METHODS or method in SAMPLING_METHODS:
            if len(self.c) != 1:
                raise ConfigError(
                    f"method {method.value} takes exactly one bound value, got {self.c}"
                )
            if not self.c[0] > 0:
                raise ConfigError(f"bound must be positive, got {self.c[0]}")
            if mode is Mode.PW_REL and not self.c[0] < 1:
                raise ConfigError(f"pw_rel bound must be in (0, 1), got {self.c[0]}")
            if mode is Mode.PREC and not self.c[0].is_integer():
                raise ConfigError(f"prec takes a whole number of planes, got {self.c[0]}")
        if method is Method.TRUNC:
            if len(self.c) != 1 or self.c[0] not in (32.0, 16.0):
                raise ConfigError("trunc takes a single target width of 32 or 16")
        if method in (Method.LOSSLESS, Method.NONE) and self.c:
            raise ConfigError(f"method {method.value} takes no bound values")
        if method is Method.SAMPLE_NAIVE:
            stride = self.c[0]
            if not (stride >= 1 and stride.is_integer()):
                raise ConfigError(f"naive sampling stride must be an integer >= 1, got {stride}")
        elif method in (Method.SAMPLE_WR, Method.SAMPLE_WOR):
            if not 0 < self.c[0] <= 1:
                raise ConfigError(f"sampling fraction must be in (0, 1], got {self.c[0]}")

    @property
    def bound(self) -> float:
        if not self.c:
            raise ConfigError(f"method {self.method.value} has no bound")
        return self.c[0]

    def label(self) -> str:
        """method:mode:bounds:layout, then each knob that is not at its default
        as name=value; a part with nothing to say is left out."""
        parts = [self.method.value]
        if self.mode is not Mode.NONE:
            parts.append(self.mode.value)
        if self.c:
            parts.append("/".join(format(x, "g") for x in self.c))
        parts.append(self.layout.value)
        for f in fields(ReducerKnobs):
            value = getattr(self.knobs, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return ":".join(parts)

    def to_dict(self) -> dict:
        # built field by field: dataclasses.asdict deep-copies every value
        knobs = {f.name: getattr(self.knobs, f.name) for f in fields(ReducerKnobs)}
        return {"method": self.method.value, "mode": self.mode.value,
                "c": list(self.c), "layout": self.layout.value, "knobs": knobs}

    @classmethod
    def from_dict(cls, d: dict) -> "ReducerConfig":
        return cls(
            method=Method(d["method"]),
            mode=Mode(d.get("mode", "none")),
            c=tuple(d.get("c", ())),
            layout=Layout(d.get("layout", "by_column")),
            knobs=ReducerKnobs.from_dict(d.get("knobs", {})),
        )


def canonical_json(doc: dict) -> str:
    """The byte-stable form of a ReducerConfig.to_dict() or an application
    definition that cache keys hash."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
