"""Small text-serialization helpers shared by the file formats.

All floating-point output uses 17 significant digits, which round-trips IEEE
doubles bit-identically through decimal.  Every output file is UTF-8 text,
written whole by ``atomic_write`` to a temporary file beside its target and
renamed over the target, so a failed write never leaves a partial file.
Tables go out through one row template per record kind (``format_rows``).
The mesh and field readers each have two parts: a bulk reader that takes
only its writer's exact layout, one numpy call per record kind
(``header_block``, ``record_block``, ``csv_block``), and gives None, never
an error, for any other file; and a line reader, the format's rules, which
reads every other file in line order and alone raises, so its error names
the first bad line.  The profile reader, which no command calls, is a
line reader alone.
"""

from __future__ import annotations

import math
import os

from .errors import FormatError


def atomic_write(path, chunks):
    """Write the str chunks, UTF-8 encoded, to ``path``, all or nothing.

    The bytes go by ``os.write`` to ``.<name>.<hex>.tmp`` in the target's
    directory, which replaces the target by ``os.replace`` once closed.
    chunks is consumed one chunk at a time, so a large file need never be
    joined in memory.  If anything fails, the temporary file is removed and
    an existing target is left as it was; an OSError is raised again naming
    ``path``.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:
        # name the file the caller asked for, not the temporary one
        raise OSError(e.errno, e.strerror, path) from None
    try:
        try:
            for chunk in chunks:
                _write_all(fd, chunk.encode())
                # let this chunk go before the next one is made
                del chunk
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except OSError as e:
        os.unlink(tmp)
        raise OSError(e.errno, e.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


def _write_all(fd: int, data: bytes):
    """Write all of data to fd: ``os.write`` may write less than given."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


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


def record_block(lines, kind: str, dtype):
    """The records of lines that each begin ``kind`` and a space, one row
    of dtype per line of the numbers after kind, or None where a line does
    not begin so, a number does not convert or the widths differ.  The
    checks are made on all tokens at once: where each line begins with
    kind and the other tokens convert, kind can only sit where rows begin.
    """
    import numpy as np  # here, so that the exact kernel's files load without it

    text = "\n".join(lines)
    n = len(lines)
    head = kind + " "
    if not text.startswith(head) or text.count("\n" + head) != n - 1:
        return None
    tokens = text.split()
    width = len(tokens) // n
    if len(tokens) != n * width or tokens[::width].count(kind) != n:
        return None
    del tokens[::width]
    try:
        return np.array(tokens, dtype).reshape(n, width - 1)
    except (ValueError, OverflowError):
        return None


def csv_block(lines):
    """The comma-separated rows of lines as one float array, one row per
    line, or None where there are none, their widths differ or a value
    does not convert."""
    import numpy as np

    commas = [line.count(",") for line in lines]
    if not commas or commas.count(commas[0]) != len(commas):
        return None
    try:
        return np.array(",".join(lines).split(","), float).reshape(
            len(lines), commas[0] + 1)
    except ValueError:
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


def header_block(lines, keys, float_keys=()) -> dict | None:
    """The entries of the comments ``# key = value``, one line per key of
    keys in turn, as ``parse_header_comment`` gives them, or None."""
    if [line.partition(" = ")[0] for line in lines] != [f"# {key}"
                                                         for key in keys]:
        return None
    meta: dict = {}
    try:
        for line in lines:
            meta.update(parse_header_comment(line, 0, float_keys))
    except FormatError:
        return None
    return meta


def write_lines(lines, path):
    """Write an iterable of text lines, each ended by a newline.

    The lines are joined before the write begins, so an iterable that
    raises midway leaves the old file in place.
    """
    atomic_write(path, ["".join([line + "\n" for line in lines])])


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
