import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppress.errors import CodecError
from ppress.reducers import huffman


def round_trip(stream):
    stream = np.asarray(stream, dtype=np.int64)
    table = huffman.HuffmanTable.from_symbols(stream)
    buf, n_bits = huffman.encode(stream, table)
    wire, end = huffman.HuffmanTable.from_bytes(table.to_bytes(), 0)
    assert end == len(table.to_bytes())
    out = huffman.decode(buf, n_bits, stream.size, wire)
    return out


def test_round_trip_small():
    stream = [0, 0, 0, 1, 1, 2, 7, 0, 0, 2]
    assert round_trip(stream).tolist() == stream


def test_single_symbol_alphabet():
    stream = [5] * 100
    table = huffman.HuffmanTable.from_symbols(np.array(stream, dtype=np.int64))
    buf, n_bits = huffman.encode(np.array(stream, dtype=np.int64), table)
    # one symbol gets a 1-bit code: 100 bits -> 13 bytes
    assert n_bits == 100
    assert len(buf) == 13
    assert round_trip(stream).tolist() == stream


def test_kraft_equality_and_prefix_freedom():
    rng = np.random.default_rng(0)
    stream = np.minimum(rng.geometric(0.3, size=2000), huffman.MAX_SYMBOLS) + 10
    table = huffman.HuffmanTable.from_symbols(stream.astype(np.int64))
    lengths = table.lengths.tolist()
    assert sum(2.0 ** -l for l in lengths) == pytest.approx(1.0)
    words = sorted(format(c, f"0{l}b") for c, l in zip(table.codes().tolist(), lengths))
    for a, b in zip(words, words[1:]):
        assert not b.startswith(a)


def test_optimality_against_entropy():
    # Huffman is within 1 bit/symbol of the entropy bound
    rng = np.random.default_rng(1)
    stream = rng.choice([0, 1, 2, 3], size=4096, p=[0.7, 0.15, 0.1, 0.05])
    stream = stream.astype(np.int64)
    table = huffman.HuffmanTable.from_symbols(stream)
    buf, n_bits = huffman.encode(stream, table)
    _, counts = np.unique(stream, return_counts=True)
    p = counts / counts.sum()
    entropy = -(p * np.log2(p)).sum()
    assert n_bits / stream.size <= entropy + 1.0
    assert n_bits / stream.size >= entropy


def test_skewed_counts_give_the_deepest_code():
    # doubling counts make the deepest tree a full alphabet allows
    stream = np.repeat(np.arange(huffman.MAX_SYMBOLS), 2 ** np.arange(huffman.MAX_SYMBOLS))
    table = huffman.HuffmanTable.from_symbols(stream)
    assert int(table.lengths.max()) == huffman.MAX_LENGTH
    assert np.array_equal(round_trip(stream), stream)


def test_seventeenth_symbol_rejected():
    stream = np.arange(huffman.MAX_SYMBOLS + 1, dtype=np.int64)
    huffman.HuffmanTable.from_symbols(stream[:-1])
    with pytest.raises(CodecError, match="at most 16"):
        huffman.HuffmanTable.from_symbols(stream)


def test_table_of_seventeen_entries_rejected():
    # a complete code, one codeword of each length 1..15 and two of 16,
    # is one entry and one bit past what any table may hold
    lengths = list(range(1, huffman.MAX_LENGTH + 1)) + [huffman.MAX_LENGTH + 1] * 2
    wire = (
        np.uint32(len(lengths)).tobytes()
        + np.arange(len(lengths), dtype="<u4").tobytes()
        + np.array(lengths, dtype=np.uint8).tobytes()
    )
    with pytest.raises(CodecError, match="at most 16"):
        huffman.HuffmanTable.from_bytes(wire, 0)


def test_corrupt_table_rejected():
    stream = np.array([1, 2, 3, 1], dtype=np.int64)
    table = huffman.HuffmanTable.from_symbols(stream)
    wire = bytearray(table.to_bytes())
    wire[-1] = 0  # zero out a code length
    with pytest.raises(CodecError):
        t, _ = huffman.HuffmanTable.from_bytes(bytes(wire), 0)
        huffman.decode(b"\x00", 8, 4, t)


def test_truncated_stream_rejected():
    stream = np.array([1, 2, 3, 1, 2, 3, 3, 3], dtype=np.int64)
    table = huffman.HuffmanTable.from_symbols(stream)
    buf, n_bits = huffman.encode(stream, table)
    with pytest.raises(CodecError):
        huffman.decode(buf, n_bits + 3, stream.size, table)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(0, 2**32 - 1), min_size=1, max_size=huffman.MAX_SYMBOLS, unique=True
    ).flatmap(lambda alphabet: st.lists(st.sampled_from(alphabet), min_size=1, max_size=500)),
)
def test_round_trip_property(symbols):
    assert round_trip(symbols).tolist() == symbols


def reference_decode(buf, n_bits, n_symbols, table):
    """Per-symbol decoder: grow each codeword one bit at a time until it
    matches a canonical code, with the codes assigned one by one."""
    lookup = {}
    code, prev = 0, int(table.lengths[0])
    for sym, length in zip(table.symbols.tolist(), table.lengths.tolist()):
        code <<= length - prev
        lookup[(length, code)] = sym
        code += 1
        prev = length
    if len(lookup) == 1:
        # the one-symbol code claims every bit
        lookup[(1, 1)] = int(table.symbols[0])
    bits = np.unpackbits(np.frombuffer(buf, np.uint8)).tolist()
    out = []
    pos = 0
    for _ in range(n_symbols):
        code = length = 0
        while (length, code) not in lookup:
            if pos >= n_bits or length == huffman.MAX_LENGTH:
                raise CodecError("no codeword")
            code = 2 * code + bits[pos]
            pos += 1
            length += 1
        out.append(lookup[(length, code)])
    if pos != n_bits:
        raise CodecError("trailing bits")
    return np.array(out, dtype=np.int64)


def decode_outcome(decode, *args):
    try:
        return decode(*args).tolist()
    except CodecError:
        return "CodecError"


@st.composite
def complete_tables(draw):
    """A random complete canonical code of at most MAX_SYMBOLS codewords."""
    lengths = [1, 1]
    for _ in range(draw(st.integers(0, huffman.MAX_SYMBOLS - 2))):
        k = draw(st.integers(0, len(lengths) - 1))
        lengths[k:k + 1] = [lengths[k] + 1] * 2
    if draw(st.booleans()) and len(lengths) == 2:
        lengths = [1]  # the one-symbol code
    symbols = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(lengths),
                            max_size=len(lengths), unique=True))
    order = sorted(zip(lengths, symbols))
    return huffman.HuffmanTable(
        np.array([s for _, s in order], dtype=np.uint32),
        np.array([l for l, _ in order], dtype=np.uint8),
    )


# the deepest code a table allows: one codeword of each length 1..14,
# then two of length 15
DEEPEST = huffman.HuffmanTable(
    np.arange(huffman.MAX_SYMBOLS, dtype=np.uint32) * 1000,
    np.array(list(range(1, huffman.MAX_LENGTH)) + [huffman.MAX_LENGTH] * 2, dtype=np.uint8),
)


@settings(max_examples=80, deadline=None)
@example(table=DEEPEST, seed=0, n=30000, flips=[12345])
@given(
    table=complete_tables(),
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 200), st.integers(5000, 40000)),
    flips=st.lists(st.integers(0, 2**31), max_size=3),
)
def test_decode_matches_per_symbol_reference(table, seed, n, flips):
    # long streams span several of the decoder's chunks
    rng = np.random.default_rng(seed)
    stream = table.symbols[rng.integers(0, table.symbols.size, size=n)].astype(np.int64)
    buf, n_bits = huffman.encode(stream, table)
    wire, _ = huffman.HuffmanTable.from_bytes(table.to_bytes(), 0)
    out = huffman.decode(buf, n_bits, n, wire)
    assert np.array_equal(out, stream)
    assert np.array_equal(reference_decode(buf, n_bits, n, wire), stream)
    # damaged payloads: both decoders agree, symbol for symbol or on failing
    bad = bytearray(buf)
    for f in flips:
        bad[f % len(bad)] ^= 1 << (f % 8)
    for args in ((bytes(bad), n_bits, n), (buf, n_bits, n - 1), (buf, n_bits, n + 1)):
        assert decode_outcome(huffman.decode, *args, wire) == decode_outcome(
            reference_decode, *args, wire
        )


def test_one_symbol_stream_over_several_chunks():
    n = 3 * huffman._CHUNK + 5
    stream = np.full(n, 9, dtype=np.int64)
    table = huffman.HuffmanTable.from_symbols(stream)
    buf, n_bits = huffman.encode(stream, table)
    assert n_bits == n
    assert np.array_equal(huffman.decode(buf, n_bits, n, table), stream)


def test_payload_length_must_match_bit_count():
    stream = np.array([1, 2, 3, 1, 2, 3, 3, 3], dtype=np.int64)
    table = huffman.HuffmanTable.from_symbols(stream)
    buf, n_bits = huffman.encode(stream, table)
    for payload in (buf[:-1], buf + b"\x00"):
        with pytest.raises(CodecError):
            huffman.decode(payload, n_bits, stream.size, table)


@pytest.mark.parametrize(
    "symbols, lengths",
    [
        ([1, 2, 3], [1, 2, 3]),     # incomplete: leaves a code unused
        ([1, 2, 3], [1, 1, 2]),     # oversubscribed
        ([2, 1], [1, 1]),           # symbols out of canonical order
        ([1, 2], [1, 19]),          # longer than any table allows
    ],
)
def test_malformed_tables_rejected(symbols, lengths):
    wire = (
        np.uint32(len(symbols)).tobytes()
        + np.array(symbols, dtype="<u4").tobytes()
        + np.array(lengths, dtype=np.uint8).tobytes()
    )
    with pytest.raises(CodecError):
        huffman.HuffmanTable.from_bytes(wire, 0)


@pytest.mark.parametrize("stream", [[5] * 9, [0, 0, 0, 1, 1, 2, 7, 0, 0, 2], list(range(16)) * 3])
def test_section_round_trip_and_size(stream):
    stream = np.asarray(stream, dtype=np.int64)
    table = huffman.HuffmanTable.from_symbols(stream)
    n_bits = huffman.encode(stream, table)[1]
    section = huffman.pack(stream, table)
    assert len(section) == huffman.section_bytes(table, n_bits)
    assert huffman.unpack(b"head" + section, 4, stream.size).tolist() == stream.tolist()
    head = len(table.to_bytes())
    for bad in (section[:head], section[:head] + bytes([8]) + section[head + 1 :], section + b"\0"):
        with pytest.raises(CodecError):
            huffman.unpack(bad, 0, stream.size)
