"""Path-or-stream handling, the one CSV writer and reader, the one check of an integer, a
bitstring, a type or rows and the one read of a real argument, a ValueError naming it, and
scalar-in, float-out."""
from __future__ import annotations

import contextlib
import numbers
import operator
import os
import stat
import sys

import numpy as np


def as_index(value, name: str) -> int:
    """``operator.index(value)``, or a ValueError naming the argument (1.5, 2.0, "2", True)."""
    try:
        if not isinstance(value, bool):  # a numpy bool has no __index__
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def require_finite(**params):
    """Each value in ``params`` read as a real: a Python float if scalar, else a float64 array
    (a float64 one as is, not copied; a list of reals that numpy holds as objects, element by
    element); the one value, or a tuple of them in keyword order.  ValueError "<name> must be
    finite" for a nan, an inf or an int past float range (a float is quoted); "... must be
    real" for anything else not real: a str, a complex, a ragged list.  A bool scalar is
    refused by name; an array of bools reads as 0s and 1s."""
    out = []
    for name, value in params.items():
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a number, got the bool {value!r}")
        if isinstance(value, (int, float)):  # about 50x faster than numpy on a scalar
            if not abs(value) <= sys.float_info.max:  # an int compares exactly: 10**400 fails
                got = repr(value) if isinstance(value, float) else f"a {value.bit_length()}-bit int"
                raise ValueError(f"{name} must be finite, got {got}")
            out.append(float(value))
        else:
            try:
                arr = np.asarray(value)
            except ValueError:  # a ragged sequence
                arr = None
            if arr is not None and arr.dtype == object and all(  # [0, 2**64], say
                    isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
                    for v in arr.flat):
                if not all(abs(v) <= sys.float_info.max for v in arr.flat):  # as for a scalar
                    raise ValueError(f"{name} must be finite")
                arr = arr.astype(float)
            if arr is None or arr.dtype.kind not in "biuf":
                raise ValueError(f"{name} must be real, got {value!r}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            out.append(float(arr) if arr.ndim == 0 else arr.astype(float, copy=False))
    return out[0] if len(out) == 1 else tuple(out)


def require_type(value, cls, name: str):
    """``value``, or a ValueError naming the argument and ``cls`` unless it is a ``cls``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def require_rows(rows, width: int, name: str) -> tuple:
    """``rows`` as a nonempty tuple, or a ValueError naming the argument; of the rows that are a
    str or do not hold ``width`` values, it quotes the first."""
    if not (rows := tuple(rows)):
        raise ValueError(f"{name} must hold at least one row")
    for row in rows:
        if isinstance(row, str) or not (hasattr(row, "__len__") and len(row) == width):
            raise ValueError(f"{name} must be rows of {width} values, got row {row!r}")
    return rows


def float_if_scalar(out):
    """A 0-d result as a Python float, any other as is: a scalar in gives a float out."""
    return float(out) if np.ndim(out) == 0 else out


def check_bits(bits, n: int, name: str) -> None:
    """ValueError naming the argument unless ``bits`` is a str of n characters 0 and 1."""
    if not isinstance(bits, str) or len(bits) != n or set(bits) - {"0", "1"}:
        raise ValueError(f"{name} must be a {n}-bit string of 0s and 1s, got {bits!r}")


@contextlib.contextmanager
def open_text(path_or_buf, mode: str = "r"):
    """Yield a text stream for ``path_or_buf``.

    A path is opened as UTF-8 with ``newline=""`` (rows are written with explicit ``\\n`` and
    read back verbatim) and closed on exit; an open stream is yielded as is, left to its owner.
    Mode "w" writes over old bytes in place, not by O_TRUNC (50-100 ms on ext4 with discard),
    then cuts a regular file to the bytes written, on an error too: a crash can leave old after new.
    """
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        if mode == "w":  # a symlink, a hard link or a file's permissions stay as they were
            path_or_buf = os.open(path_or_buf, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(path_or_buf, mode, encoding="utf-8", newline="") as fh:
            try:
                yield fh
            finally:  # not for /dev/null, a pipe or a tty
                if mode == "w" and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
    else:
        yield path_or_buf


def write_rows(path_or_buf, header: str, rows) -> None:
    """Write ``header`` and the rows, LF-terminated: str fields as is, others as float reprs."""
    with open_text(path_or_buf, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else repr(float(v)) for v in row) + "\n")


def read_rows(path_or_buf, header: str, *types) -> list:
    """Read a CSV with first line ``header`` as a list of tuples.

    Spaces around each header name and field are ignored and blank lines
    are skipped; field k of a row is converted with ``types[k]``.  A row of
    the wrong width, or a field its type rejects, raises
    ``ValueError("line N: ...")``.
    """
    rows = []
    with open_text(path_or_buf) as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"expected header {header!r}, got an empty file")
        if [h.strip() for h in first.split(",")] != header.split(","):
            raise ValueError(f"expected header {header!r}, got {first.rstrip()!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.split(",")
            if len(fields) != len(types):
                raise ValueError(f"line {lineno}: expected {len(types)} fields, got {len(fields)}")
            try:
                rows.append(tuple(t(f.strip()) for t, f in zip(types, fields)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return rows
