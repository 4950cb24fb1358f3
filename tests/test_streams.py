import numpy as np
import pytest

from streamrpca.exceptions import ContractViolation, ParseError
from streamrpca.streams import (ObservationStream, ingest_stream, write_csv,
                                write_raw_f64)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    stream = ingest_stream(path, "csv")
    np.testing.assert_array_equal(stream.get(0), [1.0, 2.0])
    np.testing.assert_array_equal(stream.get(1), [3.0, 4.0])
    assert stream.get(2) is None
    assert stream.exhausted_length == 2
    assert stream.dim == 2


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    stream = ingest_stream(path, "csv")
    assert stream.get(0) is None
    assert stream.exhausted_length == 0


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


def test_raw_f64_bad_magic(tmp_path):
    path = tmp_path / "m.f64"
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(ParseError, match="magic"):
        ingest_stream(path, "raw-f64")


def test_raw_f64_zero_samples(tmp_path):
    path = tmp_path / "m.f64"
    write_raw_f64(path, np.zeros((3, 0)))
    stream = ingest_stream(path, "raw-f64")
    assert stream.get(0) is None
    assert stream.dim == 3


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
