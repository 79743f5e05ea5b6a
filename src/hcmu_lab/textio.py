"""Small text-serialization helpers shared by the file formats.

All floating-point output uses 17 significant digits, which round-trips IEEE
doubles bit-identically through decimal.  Every output file is written
through ``atomic_write``, so a failed write never leaves a partial file.
Tables go out through one row template per record kind (``format_rows``).
Each table reader walks the lines of its file once, checking on each line
only what its text shows (record kind, order, token count), and then
converts each record kind's tokens in one numpy call (``records_array``).
A fault found on a line is raised only after the records before it have
converted and passed their checks, so the error a reader raises is always
that of the first bad line.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

from .errors import FormatError


@contextmanager
def atomic_write(path):
    """A text handle whose contents appear at ``path`` only once complete.

    The text goes to a temporary file in the target's directory, which
    replaces the target by ``os.replace`` after it is closed.  If the body
    raises, the temporary file is removed and an existing target is left
    as it was.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x")
    except OSError as e:
        # name the file the caller asked for, not the temporary one
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def fmt17(x: float) -> str:
    return "%.17g" % x


def format_rows(template: str, rows) -> str:
    """Every row of a 2-D array rendered through one %-template.

    template holds one conversion per column and ends the line, e.g.
    ``"v %.17g %.17g %.17g\n"``.  The values pass through ``tolist()``, so
    they render as Python floats and ints, digit for digit as their numpy
    scalars would.
    """
    return (template * len(rows)) % tuple(rows.ravel().tolist())


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_text(path, error=FormatError) -> str:
    """The text of a UTF-8 file, newlines translated as text mode does.

    Bytes that do not decode raise error (FormatError or a subclass of it)
    naming their line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _universal_newlines(data.decode())
    except UnicodeDecodeError as e:
        ln = _universal_newlines(data[:e.start].decode()).count("\n") + 1
        raise error(f"not UTF-8 text ({e.reason})", ln) from None


def records_array(tokens, widths, lns, dtype, check_row):
    """Records of number tokens as one array of dtype, one row per record.

    tokens holds the number tokens of all records, in line order; widths
    holds each record's token count and lns its line number.  Records of
    one width convert in one numpy call.  Only if their widths differ or
    that call fails does check_row(row, ln) go over the records in line
    order, to raise the FormatError of the first bad one.  If it raises
    for none, the widths differ and the result is None.
    """
    import numpy as np  # here, so that the exact kernel's files load without it

    shape = set(widths)
    if len(shape) <= 1:
        try:
            return np.array(tokens, dtype).reshape(len(widths), *shape)
        except (ValueError, OverflowError):
            pass
    end = 0
    for width, ln in zip(widths, lns):
        start, end = end, end + width
        check_row(tokens[start:end], ln)
    return None


def grid_header(nx: int, ny: int, hx: float, hy: float, x0: float,
                y0: float) -> str:
    """The ``# nx,ny,hx,hy = ...`` and ``# origin = ...`` comment lines."""
    return (f"# nx,ny,hx,hy = {nx},{ny},{fmt17(hx)},{fmt17(hy)}\n"
            f"# origin = {fmt17(x0)},{fmt17(y0)}\n")


def parse_grid_header(key: str, value: str) -> dict | None:
    """The entries of one grid header line, or None for another key.

    Raises ValueError when the value does not parse or a spacing or
    origin coordinate is not finite.
    """
    if key == "nx,ny,hx,hy":
        nx, ny, hx, hy = value.split(",")
        return dict(nx=int(nx), ny=int(ny), hx=_finite(hx), hy=_finite(hy))
    if key == "origin":
        x0, y0 = value.split(",")
        return dict(x0=_finite(x0), y0=_finite(y0))
    return None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_header_comment(line: str, ln: int, float_keys=()) -> dict:
    """The entries of the ``# key = value`` comment on line number ln.

    The grid header keys are always known; float_keys names further keys
    that take one float.  Any other line raises FormatError.
    """
    body = line[1:].strip()
    if "=" not in body:
        raise FormatError(f"bad header comment {line!r}", ln)
    key, value = (t.strip() for t in body.split("=", 1))
    try:
        entry = ({key: float(value)} if key in float_keys
                 else parse_grid_header(key, value))
    except ValueError:
        raise FormatError(f"bad header value {value!r}", ln) from None
    if entry is None:
        raise FormatError(f"unknown header key {key!r}", ln)
    return entry


def write_lines(lines, path):
    """Write an iterable of text lines, each ended by a newline.

    The lines are consumed inside the write, so an iterable that raises
    midway leaves the old file in place.
    """
    with atomic_write(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def write_kv_lines(pairs, path):
    """Write an iterable of (key, value) as ``key=value`` lines."""
    write_lines((f"{key}={value}" for key, value in pairs), path)


def kv_records(lines, error=FormatError):
    """(line number, key, value) of each ``key=value`` line, both stripped.

    Blank lines and ``#`` comment lines are skipped; any other line without
    ``=`` raises error (FormatError or a subclass of it).
    """
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"expected key=value, got {line!r}", ln)
        key, value = line.split("=", 1)
        yield ln, key.strip(), value.strip()


def read_kv_lines(path) -> dict[str, str]:
    return {key: value
            for _, key, value in kv_records(read_text(path).split("\n"))}
