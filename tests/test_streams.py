import os
import struct
import tracemalloc

import numpy as np
import pytest

import streamrpca.streams
from streamrpca.exceptions import ContractViolation, ParseError
from streamrpca.streams import (RAW_F64_MAGIC, WRITE_BLOCK, ObservationStream,
                                ingest_stream, write_raw_f64)

from conftest import write_csv


def test_csv_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    stream = ingest_stream(path, "csv")
    np.testing.assert_array_equal(stream.get(0), [1.0, 2.0])
    np.testing.assert_array_equal(stream.get(1), [3.0, 4.0])
    assert stream.get(2) is None
    assert stream.dim == 2


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    stream = ingest_stream(path, "csv")
    assert stream.get(0) is None


def test_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("\n1.0,2.0\n  \n\n3.0,4.0\n\n")
    stream = ingest_stream(path, "csv")
    np.testing.assert_array_equal(stream.get(0), [1.0, 2.0])
    np.testing.assert_array_equal(stream.get(1), [3.0, 4.0])
    assert stream.get(2) is None


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    stream = ingest_stream(path, "csv")
    stream.get(0)
    with pytest.raises(ParseError, match="line=2"):
        stream.get(1)


def test_csv_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,spam\n")
    stream = ingest_stream(path, "csv")
    with pytest.raises(ParseError, match="non-numeric"):
        stream.get(0)


def test_csv_non_ascii_byte_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,2\n3,\xff\n")
    stream = ingest_stream(path, "csv")
    stream.get(0)
    with pytest.raises(ParseError, match=f"path={path}; line=2"):
        stream.get(1)


def test_raw_f64_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(70))
    M = rng.standard_normal((5, 9))
    path = tmp_path / "m.f64"
    write_raw_f64(path, M)
    stream = ingest_stream(path, "raw-f64")
    for i in range(9):
        np.testing.assert_array_equal(stream.get(i), M[:, i])
    assert stream.get(9) is None


def test_raw_f64_truncation_names_byte_counts(tmp_path):
    rng = np.random.Generator(np.random.PCG64(71))
    M = rng.standard_normal((4, 6))
    path = tmp_path / "m.f64"
    write_raw_f64(path, M)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ParseError, match="expected 216 bytes, got 208"):
        ingest_stream(path, "raw-f64")


@pytest.mark.parametrize("size", [24 + 32 + 13, 24 + 32 + 16])
def test_raw_f64_cut_after_opening_names_the_sample(tmp_path, size):
    # the size is checked when the stream opens, and the samples are read
    # at the first get; a file cut in between, mid-value or on a value
    # boundary, is refused as truncated at the sample it cuts, not with
    # numpy's buffer error or as a short sample
    path = tmp_path / "m.f64"
    write_raw_f64(path, np.ones((4, 3)))
    stream = ingest_stream(path, "raw-f64")
    os.truncate(path, size)
    np.testing.assert_array_equal(stream.get(0), np.ones(4))
    with pytest.raises(ParseError, match=f"truncated data: sample 1 has "
                       f"{size - 56} of 32 bytes; path={path}; "
                       f"byte-offset={size}"):
        stream.get(1)


def test_raw_f64_trailing_data_is_refused(tmp_path):
    # a header of 4 samples over 6 samples' data: the last 2 were dropped
    path = tmp_path / "m.f64"
    write_raw_f64(path, np.ones((4, 6)))
    data = bytearray(path.read_bytes())
    data[16:24] = struct.pack("<Q", 4)
    path.write_bytes(data)
    with pytest.raises(ParseError, match="trailing data: expected 152 bytes, "
                       "got 216; .*byte-offset=152"):
        ingest_stream(path, "raw-f64")


def test_raw_f64_bad_magic(tmp_path):
    path = tmp_path / "m.f64"
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(ParseError, match="magic"):
        ingest_stream(path, "raw-f64")


@pytest.mark.parametrize("header,message", [
    (struct.pack("<Q", RAW_F64_MAGIC) + b"\x00" * 2,
     "truncated header: expected 24 bytes, got 10"),
    (struct.pack("<QQQ", RAW_F64_MAGIC, 0, 5), "raw-f64 declares m = 0"),
], ids=["short", "zero-m"])
def test_raw_f64_header_is_refused(tmp_path, header, message):
    path = tmp_path / "m.f64"
    path.write_bytes(header)
    with pytest.raises(ParseError, match=message):
        ingest_stream(path, "raw-f64")


def test_raw_f64_zero_samples(tmp_path):
    path = tmp_path / "m.f64"
    write_raw_f64(path, np.zeros((3, 0)))
    stream = ingest_stream(path, "raw-f64")
    assert stream.get(0) is None
    assert stream.dim == 3


def _one_copy_raw_f64(M):
    """The raw-f64 bytes as first written: one transposed copy of M."""
    return (struct.pack("<QQQ", RAW_F64_MAGIC, *M.shape)
            + np.ascontiguousarray(M.T, dtype="<f8").tobytes())


@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
@pytest.mark.parametrize("t", [0, 4, 5, 6, 17])
def test_raw_f64_blocks_write_the_one_copy_bytes(tmp_path, monkeypatch,
                                                 layout, t):
    # 4 rows and a 20-value block: 5 samples a block, so t = 4, 5 and 6 is
    # below, at and above one block, and 17 ends in a partial block
    monkeypatch.setattr(streamrpca.streams, "WRITE_BLOCK", 20)
    rng = np.random.Generator(np.random.PCG64(73))
    if layout == "sliced":
        M = rng.standard_normal((8, 3 * t + 1))[::2, 1::3]
        assert not (M.flags.c_contiguous or M.flags.f_contiguous) or t < 2
    else:
        M = np.asarray(rng.standard_normal((4, t)), order=layout)
    path = tmp_path / "m.f64"
    write_raw_f64(path, M)
    assert path.read_bytes() == _one_copy_raw_f64(M)


def test_raw_f64_block_narrower_than_a_sample(tmp_path, monkeypatch):
    monkeypatch.setattr(streamrpca.streams, "WRITE_BLOCK", 3)
    M = np.random.Generator(np.random.PCG64(74)).standard_normal((7, 4))
    write_raw_f64(tmp_path / "m.f64", M)
    assert (tmp_path / "m.f64").read_bytes() == _one_copy_raw_f64(M)


def test_raw_f64_writer_transient_is_one_block(tmp_path):
    # an 8 MiB row-major matrix: a whole transposed copy (and a bytes copy
    # of it) would be O(m T); the blocked writer holds about one block
    M = np.random.Generator(np.random.PCG64(75)).standard_normal(
        (64, 16384))
    tracemalloc.start()
    try:
        write_raw_f64(tmp_path / "m.f64", M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * WRITE_BLOCK <= M.nbytes / 4
    assert (tmp_path / "m.f64").stat().st_size == 24 + M.nbytes


def test_csv_writer_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(72))
    M = rng.standard_normal((3, 4))
    path = tmp_path / "m.csv"
    write_csv(path, M)
    stream = ingest_stream(path, "csv")
    for i in range(4):
        np.testing.assert_array_equal(stream.get(i), M[:, i])


def test_stream_retention_and_replay():
    M = np.arange(40, dtype=float).reshape(2, 20)
    stream = ObservationStream.from_matrix(M, retain=5)
    for i in range(12):
        stream.get(i)
    # replay within the horizon works, behind it raises
    np.testing.assert_array_equal(stream.get(8), M[:, 8])
    with pytest.raises(ContractViolation, match="retained horizon"):
        stream.get(3)


@pytest.mark.parametrize("retain", [0, -3])
def test_stream_refuses_a_horizon_below_one(tmp_path, retain):
    # such a stream kept no sample: every get() raised a bare IndexError
    M = np.arange(8, dtype=float).reshape(2, 4)
    write_raw_f64(tmp_path / "m.f64", M)
    for build in (lambda: ObservationStream.from_matrix(M, retain=retain),
                  lambda: ingest_stream(tmp_path / "m.f64", "raw-f64",
                                        retain=retain)):
        with pytest.raises(ContractViolation,
                           match=f"retain must be >= 1, not {retain}"):
            build()
    np.testing.assert_array_equal(
        ObservationStream.from_matrix(M, retain=1).get(3), M[:, 3])


@pytest.mark.parametrize("retain", [2.5, 3.0, True, "4"])
def test_stream_refuses_a_horizon_that_is_not_an_int(tmp_path, retain):
    # retain=2.5 was accepted and the third get raised a bare TypeError
    M = np.arange(8, dtype=float).reshape(2, 4)
    write_raw_f64(tmp_path / "m.f64", M)
    for build in (lambda: ObservationStream.from_matrix(M, retain=retain),
                  lambda: ingest_stream(tmp_path / "m.f64", "raw-f64",
                                        retain=retain)):
        with pytest.raises(ContractViolation, match="retain must be an int"):
            build()
    np.testing.assert_array_equal(
        ObservationStream.from_matrix(M, retain=np.int64(2)).get(3), M[:, 3])


def test_stream_get_probes_forward():
    M = np.arange(8, dtype=float).reshape(2, 4)
    stream = ObservationStream.from_matrix(M)
    np.testing.assert_array_equal(stream.get(3), M[:, 3])
    assert stream.get(4) is None


def test_stream_dimension_mismatch():
    vectors = [np.zeros(3), np.zeros(4)]
    stream = ObservationStream(vectors)
    stream.get(0)
    with pytest.raises(ContractViolation, match="dimension"):
        stream.get(1)
