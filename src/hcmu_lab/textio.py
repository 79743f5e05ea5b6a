"""Small text-serialization helpers shared by the file formats.

All floating-point output uses 17 significant digits, which round-trips IEEE
doubles bit-identically through decimal.  Every output file is written
through ``atomic_write``, so a failed write never leaves a partial file.
Tables go out through one row template per record kind (``format_rows``) and
come back through ``parse_text``, which converts each kind's tokens in one
numpy call and falls back to a line-by-line pass only to name a bad line.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

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


def read_text(path) -> str:
    """The text of a UTF-8 file, newlines translated as text mode does.

    Bytes that do not decode raise FormatError naming their line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _universal_newlines(data.decode())
    except UnicodeDecodeError as e:
        ln = _universal_newlines(data[:e.start].decode()).count("\n") + 1
        raise FormatError(f"not UTF-8 text ({e.reason})", ln) from None


def record_runs(text: str, kinds: dict):
    """Leading comment lines, and one array per record kind, read in bulk.

    text must be laid out as the writers lay it out: ``#`` comment lines,
    then one run of records per kind of kinds (a dict of kind -> dtype), in
    its order, one record per line: the kind, a space, and as many numbers
    as every other record of its run.  Returns (comment lines, {kind: array
    of shape (records, numbers)}).  Any other layout, and any token that
    does not convert, raises ValueError or OverflowError.
    """
    comments = []
    pos = 0
    while text.startswith("#", pos):
        end = text.index("\n", pos)
        comments.append(text[pos:end])
        pos = end + 1
    body = text[pos:]
    counts = {kind: body.count(f"\n{kind} ") + body.startswith(f"{kind} ")
              for kind in kinds}
    if (sum(counts.values()) != body.count("\n")
            or body and not body.endswith("\n")):
        raise ValueError("not one record on every line")
    # So every line starts with a kind name.  Each run below deletes one
    # token in every width, as many as it has records, and converts the
    # rest to numbers.  As many tokens are deleted as lines start with a
    # name, and no name converts, so once the rest have converted the
    # deleted tokens are the line starts: each line is one record.
    tokens = body.split()
    arrays = {}
    end = len(tokens)
    for kind in reversed(kinds):
        n = counts[kind]
        start = tokens.index(kind) if n else end
        run = tokens[start:end]
        width = len(run) // n if n else 1
        if not width or len(run) != n * width:
            raise ValueError(f"{kind} records of unequal width")
        del run[::width]
        arrays[kind] = np.array(run, dtype=kinds[kind]).reshape(n, width - 1)
        end = start
    return comments, arrays


def parse_text(path, build):
    """build(text, strict) on the text of the file at path.

    The first pass (strict=False) keeps every record's tokens as text and
    converts each record kind with one numpy call.  If that pass fails in any
    way, the strict pass converts and checks each record on its own line, so
    the error it raises names the first bad line, as a line-by-line reader's
    would.
    """
    text = read_text(path)
    try:
        return build(text, False)
    except (FormatError, ValueError, OverflowError):
        return build(text, True)


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
