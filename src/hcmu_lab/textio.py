"""Small text-serialization helpers shared by the file formats.

All floating-point output uses 17 significant digits, which round-trips IEEE
doubles bit-identically through decimal.  Every output file is written
through ``atomic_write``, so a failed write never leaves a partial file.
"""

from __future__ import annotations

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


def grid_header(nx: int, ny: int, hx: float, hy: float, x0: float,
                y0: float) -> str:
    """The ``# nx,ny,hx,hy = ...`` and ``# origin = ...`` comment lines."""
    return (f"# nx,ny,hx,hy = {nx},{ny},{fmt17(hx)},{fmt17(hy)}\n"
            f"# origin = {fmt17(x0)},{fmt17(y0)}\n")


def parse_grid_header(key: str, value: str) -> dict | None:
    """The entries of one grid header line, or None for another key.

    Raises ValueError when the value does not parse.
    """
    if key == "nx,ny,hx,hy":
        nx, ny, hx, hy = value.split(",")
        return dict(nx=int(nx), ny=int(ny), hx=float(hx), hy=float(hy))
    if key == "origin":
        x0, y0 = value.split(",")
        return dict(x0=float(x0), y0=float(y0))
    return None


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


def read_kv_lines(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"expected key=value, got {line!r}", ln)
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
