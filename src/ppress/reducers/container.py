"""Self-describing binary container for reduced datasets.

Byte layout (all integers little-endian), in order:

  magic "PPRS" | version u16 | method u8 | mode u8 | n_bound u8 |
  bound f64 x n_bound | layout u8 | dtype-width u8 | n_obs u64 | n_feat u32 |
  stream length u64 | stream crc32 u32 | stream bytes

The one stream runs to the end of the container.  Everything a decoder
needs is in the container; no side channel.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DataFormatError
from ..tabular import DTYPES
from .config import Layout, Method, Mode, ReducerConfig

MAGIC = b"PPRS"
VERSION = 9

_METHOD_CODE = {
    Method.EBLC_PRED: 1,
    Method.EBLC_BITPLANE: 2,
    Method.TRUNC: 3,
    Method.SAMPLE_NAIVE: 4,
    Method.SAMPLE_WR: 5,
    Method.SAMPLE_WOR: 6,
    Method.LOSSLESS: 7,
    Method.NONE: 8,
}
_CODE_METHOD = {v: k for k, v in _METHOD_CODE.items()}

_MODE_CODE = {
    Mode.NONE: 0,
    Mode.ABS: 1,
    Mode.REL: 2,
    Mode.PW_REL: 3,
    Mode.PSNR: 4,
    Mode.PREC: 5,
    Mode.ACC: 6,
    Mode.RATE: 7,
}
_CODE_MODE = {v: k for k, v in _MODE_CODE.items()}

_LAYOUT_CODE = {Layout.BY_COLUMN: 0, Layout.MATRIX: 1}
_CODE_LAYOUT = {v: k for k, v in _LAYOUT_CODE.items()}

_FIXED = struct.Struct("<4sHBBB")  # magic, version, method, mode, n_bound
_SHAPE = struct.Struct("<BBQIQI")  # layout, dtype width, n_obs, n_feat, stream length, crc32


@dataclass(frozen=True)
class Artifact:
    """A reduced dataset plus the header needed to restore it.

    ``restored`` is the encoder's reconstruction of the table's values in
    the stream's order (float64), which the decoder rebuilds exactly; only
    the predictive and bit-plane encoders leave one.  It is not part of the
    container: pack drops it and unpack leaves it None.
    """

    method: Method
    mode: Mode
    c: tuple[float, ...]
    layout: Layout
    dtype: str
    n_obs: int
    n_feat: int
    stream: bytes
    restored: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def value_width(self) -> int:
        return DTYPES[self.dtype].itemsize

    @property
    def orig_bytes(self) -> int:
        return self.n_obs * self.n_feat * self.value_width

    @property
    def header_bytes(self) -> int:
        return _FIXED.size + 8 * len(self.c) + _SHAPE.size

    @property
    def comp_bytes(self) -> int:
        return self.header_bytes + len(self.stream)


def pack(artifact: Artifact) -> bytes:
    parts = [
        _FIXED.pack(
            MAGIC,
            VERSION,
            _METHOD_CODE[artifact.method],
            _MODE_CODE[artifact.mode],
            len(artifact.c),
        ),
        struct.pack(f"<{len(artifact.c)}d", *artifact.c),
        _SHAPE.pack(
            _LAYOUT_CODE[artifact.layout],
            artifact.value_width,
            artifact.n_obs,
            artifact.n_feat,
            len(artifact.stream),
            zlib.crc32(artifact.stream),
        ),
        artifact.stream,
    ]
    out = b"".join(parts)
    if len(out) != artifact.comp_bytes:
        raise AssertionError("container size accounting is wrong")
    return out


def unpack(buf: bytes) -> Artifact:
    if len(buf) < _FIXED.size:
        raise DataFormatError("container shorter than fixed header")
    magic, version, method_code, mode_code, n_bound = _FIXED.unpack_from(buf, 0)
    if magic != MAGIC:
        raise DataFormatError(f"bad container magic {magic!r}")
    if version != VERSION:
        raise DataFormatError(f"unsupported container version {version}")
    off = _FIXED.size
    if len(buf) < off + 8 * n_bound + _SHAPE.size:
        raise DataFormatError("container header truncated")
    c = struct.unpack_from(f"<{n_bound}d", buf, off)
    off += 8 * n_bound
    layout_code, width, n_obs, n_feat, length, crc = _SHAPE.unpack_from(buf, off)
    off += _SHAPE.size

    method = _CODE_METHOD.get(method_code)
    mode = _CODE_MODE.get(mode_code)
    layout = _CODE_LAYOUT.get(layout_code)
    dtype = next((name for name, dt in DTYPES.items() if dt.itemsize == width), None)
    if method is None or mode is None or layout is None or dtype is None:
        raise DataFormatError("container header has unknown enum codes")
    if n_feat == 0:
        raise DataFormatError("container declares no columns")
    try:  # the decoders take the bound as the method accepts it
        ReducerConfig(method, mode, c, layout)
    except ConfigError as exc:
        raise DataFormatError(f"container header: {exc}") from None

    stream = buf[off:]
    if len(stream) != length:
        raise DataFormatError(
            f"stream declares {length} bytes, but {len(stream)} follow the header"
        )
    if zlib.crc32(stream) != crc:
        raise DataFormatError("stream failed its checksum")
    return Artifact(
        method=method,
        mode=mode,
        c=tuple(c),
        layout=layout,
        dtype=dtype,
        n_obs=n_obs,
        n_feat=n_feat,
        stream=stream,
    )
