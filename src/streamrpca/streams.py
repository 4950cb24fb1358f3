"""Observation streams and the on-disk stream formats.

An ObservationStream hands out m-dimensional samples by absolute 0-based
index, reading its source lazily and retaining a configurable trailing
horizon so that a change-point restart can replay recent samples without
re-opening the input.

Two file formats are supported:

  csv      one sample per line, comma-separated decimal numbers.
  raw-f64  header of three little-endian u64 words (magic, m, T) followed
           by T*m little-endian float64 values, sample-major.
"""

import io
import struct

import numpy as np

from .exceptions import ContractViolation, ParseError

RAW_F64_MAGIC = int.from_bytes(b"SRPCAF64", "little")
_HEADER = struct.Struct("<QQQ")
WRITE_BLOCK = 1 << 17   # float64 values per write_raw_f64 block (1 MiB)


class ObservationStream:
    """Random access over a lazily-read sequence of equal-length vectors.

    retain: number of trailing samples kept for replay (None = keep all).
    Reads behind the retained horizon raise ContractViolation.
    """

    def __init__(self, source, retain=None, dim=None):
        self._it = iter(source)
        self._retain = retain
        self._dim = dim
        self._hist = []
        self._hist_start = 0  # absolute index of _hist[0]
        self._next = 0        # absolute index of the next unread sample
        self._end = None      # set once the source is exhausted

    @classmethod
    def from_matrix(cls, M, retain=None):
        """Wrap an m x N matrix whose columns are samples."""
        M = np.asarray(M, dtype=float)
        if M.ndim != 2:
            raise ContractViolation("from_matrix: expected a 2-D array")
        return cls((M[:, i].copy() for i in range(M.shape[1])),
                   retain=retain, dim=M.shape[0])

    @property
    def dim(self):
        return self._dim

    def get(self, i):
        """Return sample i, or None past the end of the source."""
        if i < self._hist_start:
            raise ContractViolation(
                f"stream replay beyond retained horizon: index {i} < "
                f"{self._hist_start}"
            )
        while self._end is None and i >= self._next:
            self._pull()
        if self._end is not None and i >= self._end:
            return None
        return self._hist[i - self._hist_start]

    def _pull(self):
        try:
            x = next(self._it)
        except StopIteration:
            self._end = self._next
            return
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ContractViolation("stream samples must be 1-D vectors")
        if self._dim is None:
            self._dim = x.shape[0]
        elif x.shape[0] != self._dim:
            raise ContractViolation(
                f"stream sample {self._next} has dimension {x.shape[0]}, "
                f"expected {self._dim}"
            )
        self._hist.append(x)
        self._next += 1
        if self._retain is not None and len(self._hist) > self._retain:
            drop = len(self._hist) - self._retain
            del self._hist[:drop]
            self._hist_start += drop


def _iter_csv(path):
    dim = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            try:
                row = np.array([float(tok) for tok in tokens])
            except ValueError:
                raise ParseError("non-numeric token", path=path, line=lineno)
            if dim is None:
                dim = row.shape[0]
            elif row.shape[0] != dim:
                raise ParseError(
                    f"ragged row: {row.shape[0]} fields, expected {dim}",
                    path=path, line=lineno)
            yield row


def _read_raw_header(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ParseError(
                f"truncated header: expected {_HEADER.size} bytes, "
                f"got {len(header)}", path=path, offset=0)
        magic, m, t = _HEADER.unpack(header)
        if magic != RAW_F64_MAGIC:
            raise ParseError(f"bad magic 0x{magic:016x}", path=path, offset=0)
        if m == 0:
            raise ParseError("raw-f64 declares m = 0", path=path)
        fh.seek(0, io.SEEK_END)
        actual = fh.tell()
        expected = _HEADER.size + 8 * m * t
        if actual < expected:
            raise ParseError(
                f"truncated data: expected {expected} bytes, got {actual}",
                path=path, offset=actual)
    return m, t


def _iter_raw_f64(path, m, t):
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        for _ in range(t):
            buf = fh.read(8 * m)
            yield np.frombuffer(buf, dtype="<f8").astype(float)


def ingest_stream(path, fmt="csv", retain=None):
    """Open a sample stream from a file.

    fmt is "csv" or "raw-f64". An empty csv file yields an empty stream.
    The header and total byte count of a raw-f64 file are validated up
    front; samples are then read lazily.
    """
    if fmt == "csv":
        return ObservationStream(_iter_csv(path), retain=retain)
    if fmt == "raw-f64":
        m, t = _read_raw_header(path)
        return ObservationStream(_iter_raw_f64(path, m, t), retain=retain,
                                 dim=m)
    raise ContractViolation(f"unknown stream format: {fmt!r}")


def write_raw_f64(path, M):
    """Write an m x T matrix as a raw-f64 stream file (columns = samples),
    WRITE_BLOCK values at a time: a row-major M costs one block's copy."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ContractViolation("write_raw_f64: expected a 2-D array")
    m, t = M.shape
    step = max(1, WRITE_BLOCK // max(m, 1))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(RAW_F64_MAGIC, m, t))
        for j in range(0, t, step):
            fh.write(np.ascontiguousarray(M[:, j:j + step].T, dtype="<f8"))
