"""Delta coding, width truncation, sampling, and the lossless codec slot."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppress.errors import CodecError, ConfigError
from ppress.reducers import Method, ReducerConfig, compress, decompress, delta, lossless, sampling
from ppress.tabular import Dataset, from_array


def test_delta_order1_integers():
    out = delta.delta_transform(np.array([1, 2, 3], dtype=np.int64), 1)
    assert out.tolist() == [1, 1, 1]


def test_delta_constant_sequence():
    out = delta.delta_transform(np.full(6, 42, dtype=np.int64), 1)
    assert out.tolist() == [42, 0, 0, 0, 0, 0]


def test_delta_round_trip_floats():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    for order in (1, 2):
        back = delta.inverse_delta(delta.delta_transform(x, order), order)
        assert back.tobytes() == x.tobytes()


def test_delta_round_trip_f32():
    x = np.array([1.5, -2.5, 1e-30, 3e8], dtype=np.float32)
    back = delta.inverse_delta(delta.delta_transform(x, 2), 2)
    assert back.tobytes() == x.tobytes()


def test_delta_rejects_bad_order():
    with pytest.raises(CodecError):
        delta.delta_transform(np.arange(4.0), 3)


@settings(max_examples=60, deadline=None)
@given(
    data=st.binary(min_size=8, max_size=400),
    order=st.sampled_from([1, 2]),
)
def test_delta_round_trip_property(data, order):
    n = len(data) - len(data) % 8
    x = np.frombuffer(data[:n], np.float64)
    if x.size < order:
        return
    back = delta.inverse_delta(delta.delta_transform(x, order), order)
    assert back.tobytes() == x.tobytes()


def truncated(ds, width):
    """ds through a `trunc` artifact of the given width and back."""
    artifact, _, _ = compress(ds, ReducerConfig(Method.TRUNC, c=(float(width),)))
    return decompress(artifact, names=ds.names)[0]


def test_truncate_exact_values_survive():
    ds = from_array(np.array([[1.0], [0.5], [-2.0]]))
    out = truncated(ds, 32)
    assert out.dtype == "f64"
    assert np.array_equal(out.values, ds.values)


def test_truncate_rounds_to_nearest_f32():
    ds = from_array(np.array([[0.1]]))
    out = truncated(ds, 32)
    assert out.values[0, 0] == float(np.float32(0.1))
    assert out.values[0, 0] != 0.1


def test_truncate_overflow_is_error():
    ds = from_array(np.array([[1e39]]))
    with pytest.raises(CodecError):
        truncated(ds, 32)
    with pytest.raises(CodecError):
        truncated(from_array(np.array([[70000.0]])), 16)


def test_truncate_width16_from_f32():
    ds = from_array(np.array([[1.25], [3.5]], dtype=np.float32), dtype="f32")
    out = truncated(ds, 16)
    assert out.dtype == "f32"
    assert np.array_equal(out.values, ds.values)  # exactly representable in f16


def test_truncate_rejects_same_width():
    ds = from_array(np.array([[1.0]], dtype=np.float32), dtype="f32")
    with pytest.raises(ConfigError):
        truncated(ds, 32)


def test_naive_stride_identity_and_every_other():
    assert sampling.sample_indices(6, "naive", 1, 0).tolist() == [0, 1, 2, 3, 4, 5]
    assert sampling.sample_indices(6, "naive", 2, 0).tolist() == [0, 2, 4]


def test_wor_sample_unique_count():
    idx = sampling.sample_indices(1000, "wor", 0.25, 7)
    assert idx.size == 250
    assert np.unique(idx).size == 250
    assert idx.min() >= 0 and idx.max() < 1000


def test_wr_sample_count_and_range():
    idx = sampling.sample_indices(1000, "wr", 0.5, 7)
    assert idx.size == 500
    assert idx.min() >= 0 and idx.max() < 1000


def test_sampling_deterministic_per_seed():
    a = sampling.sample_indices(500, "wor", 0.3, 11)
    b = sampling.sample_indices(500, "wor", 0.3, 11)
    c = sampling.sample_indices(500, "wor", 0.3, 12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_empty_output_rejected():
    with pytest.raises(ConfigError):
        sampling.sample_indices(100, "wor", 0.001, 0)
    with pytest.raises(ConfigError):
        sampling.sample_indices(10, "naive", 1.5, 0)


def test_sample_dataset_keeps_names():
    ds = from_array(np.arange(20.0).reshape(10, 2), names=["u", "v"])
    artifact, _, _ = compress(ds, ReducerConfig(Method.SAMPLE_NAIVE, c=(5.0,)))
    out, _, _ = decompress(artifact, names=ds.names)
    assert out.names == ("u", "v")
    assert out.values.tolist() == [[0.0, 1.0], [10.0, 11.0]]


def test_lossless_empty_round_trip():
    buf = lossless.lossless_encode(b"")
    assert lossless.lossless_decode(buf) == b""
    assert len(buf) == 9


def test_lossless_zero_megabyte_ratio():
    data = bytes(1 << 20)
    buf = lossless.lossless_encode(data)
    assert lossless.lossless_decode(buf) == data
    assert len(data) / len(buf) >= 100


def test_lossless_random_bytes_bounded_expansion():
    data = np.random.default_rng(3).integers(0, 256, 1 << 16, dtype=np.uint8).tobytes()
    buf = lossless.lossless_encode(data)
    assert lossless.lossless_decode(buf) == data
    assert len(buf) == len(data) + 9  # stored raw behind the frame header
    assert buf[0] == 0 and buf[9:] == data


def test_lossless_text_round_trip_and_gain():
    data = (b"the quick brown fox jumps over the lazy dog; " * 400)[:-7]
    buf = lossless.lossless_encode(data)
    assert lossless.lossless_decode(buf) == data
    assert len(buf) < len(data) // 4


def test_lossless_overlapping_matches():
    data = b"ab" * 5000 + b"abc" + b"ab" * 100
    buf = lossless.lossless_encode(data)
    assert lossless.lossless_decode(buf) == data


def frame(kind, length, body):
    return struct.pack("<BQ", kind, length) + body


def test_lossless_unknown_codec_rejected():
    # the kind byte names the codec: 0 stored, 1 zlib, nothing else
    for kind in (2, 7, 255):
        with pytest.raises(CodecError, match="unknown lossless frame kind"):
            lossless.lossless_decode(frame(kind, 2, b"xx"))


def test_lossless_corrupt_stream_rejected():
    data = b"some payload that compresses " * 50
    buf = lossless.lossless_encode(data)
    assert buf[0] == 1
    body = zlib.compress(data)
    assert buf == frame(1, len(data), body)
    damaged = [
        buf[: len(buf) // 2],
        buf[:8],
        b"",
        buf + b"\0",  # a byte after the zlib stream
        buf + zlib.compress(b"more"),  # a second zlib stream
        frame(1, len(data) - 1, body),  # inflates past the declared length
        frame(1, 0, body),
        frame(1, len(data) + 1, body),  # inflates short of it
        frame(1, 1 << 63, body),
        frame(1, len(data), b""),
        frame(0, 5, b"abcd"),  # stored body shorter than declared
        frame(0, 3, b"abcd"),  # and longer
        frame(0, 1 << 63, b"abcd"),
    ]
    damaged += [buf[:cut] for cut in range(9, len(buf))]  # every truncation
    for bad in damaged:
        with pytest.raises(CodecError):
            lossless.lossless_decode(bad)
    # a flipped bit either raises or sits in the padding after the last
    # deflate block, which inflate never reads
    intact = 0
    for bit in range(8 * len(body)):
        bad = bytearray(body)
        bad[bit // 8] ^= 0x80 >> (bit % 8)
        try:
            out = lossless.lossless_decode(frame(1, len(data), bytes(bad)))
        except CodecError:
            continue
        assert out == data
        intact += 1
    assert intact < 8


def test_lossless_frames_read_one_after_another():
    # a frame knows where it ends: read_frame returns each frame's data and
    # where the next starts, stored and zlib frames alike, and checks a
    # declared length; lossless_decode takes one frame and nothing after it
    parts = [b"", b"abc" * 300, bytes(range(256)), b"x"]
    frames = [lossless.lossless_encode(part) for part in parts]
    assert [f[0] for f in frames] == [0, 1, 0, 0]
    buf = b"".join(frames)
    off = 0
    for part in parts:
        data, off = lossless.read_frame(buf, off, len(part))
        assert data == part
    assert off == len(buf)
    with pytest.raises(CodecError, match="9 bytes after the lossless frame"):
        lossless.lossless_decode(frames[0] + frames[0])
    with pytest.raises(CodecError, match="declares 900 bytes, not 899"):
        lossless.read_frame(buf, len(frames[0]), 899)


def test_lossless_inflate_stops_at_declared_length():
    # a frame that declares 10 bytes is rejected without inflating the
    # 20 MB its body holds
    bad = frame(1, 10, zlib.compress(bytes(20_000_000), 9))
    tracemalloc.start()
    try:
        with pytest.raises(CodecError, match="does not end"):
            lossless.lossless_decode(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


random_bytes = st.builds(
    lambda seed, n: np.random.default_rng(seed).bytes(n),
    st.integers(0, 2**32 - 1),
    st.integers(0, 5000),
)


@settings(max_examples=80, deadline=None)
@given(data=st.binary(max_size=3000) | random_bytes)
def test_lossless_round_trip_property(data):
    buf = lossless.lossless_encode(data)
    assert lossless.lossless_decode(buf) == data
    assert len(buf) <= len(data) + 9


@settings(max_examples=30, deadline=None)
@given(
    pattern=st.binary(min_size=1, max_size=8),
    reps=st.integers(1, 2000),
)
def test_lossless_periodic_round_trip(pattern, reps):
    data = pattern * reps
    assert lossless.lossless_decode(lossless.lossless_encode(data)) == data
