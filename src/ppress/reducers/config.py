"""Reducer configuration: method, error-bound mode, layout, fixed knobs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum

from ..errors import ConfigError
from .truncation import NARROW


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
_NO_BOUND = {Method.LOSSLESS, Method.NONE}


def check_fields(
    method: Method, mode: Mode, c: tuple[float, ...], width: int | None = None
) -> None:
    """ConfigError unless mode suits method and c is a bound that method
    takes under it, positive and finite; given the values' width in bytes,
    also unless a truncation is narrower than the values and a rate at most
    their bits.  The one check of a bound: ReducerConfig applies it without
    a width; compress, container.unpack and run_campaign (both ends of each
    search domain) at the data's.  The codecs take the bound as it passed."""
    if mode not in _MODES_FOR[method]:
        raise ConfigError(f"mode {mode.value} not valid for method {method.value}")
    if method in _NO_BOUND:
        if c:
            raise ConfigError(f"method {method.value} takes no bound values")
        return
    if len(c) != 1:
        raise ConfigError(f"method {method.value} takes exactly one bound value, got {c}")
    if method is Method.TRUNC:
        if c[0] not in NARROW:
            raise ConfigError(f"trunc takes a target width in {sorted(NARROW)}, got {c[0]}")
        if width is not None and c[0] >= 8 * width:
            raise ConfigError(f"trunc {c[0]:g} is not narrower than the {8 * width}-bit values")
        return
    if not 0 < c[0] < math.inf:
        what = method.value if mode is Mode.NONE else mode.value
        raise ConfigError(f"{what} bound must be positive and finite, got {c[0]}")
    if method in SAMPLING_METHODS:
        if method is Method.SAMPLE_NAIVE:
            if not c[0].is_integer():
                raise ConfigError(f"naive sampling stride must be an integer >= 1, got {c[0]}")
        elif not c[0] <= 1:
            raise ConfigError(f"sampling fraction must be in (0, 1], got {c[0]}")
        return
    if mode is Mode.PW_REL and not c[0] < 1:
        raise ConfigError(f"pw_rel bound must be in (0, 1), got {c[0]}")
    if mode is Mode.PREC and not c[0].is_integer():
        raise ConfigError(f"prec takes a whole number of planes, got {c[0]}")
    if mode is Mode.RATE and width is not None and c[0] > 8 * width:
        raise ConfigError(f"bit-plane rate {c[0]:g} runs past the {8 * width}-bit values")


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
        check_fields(method, mode, self.c)

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
