"""The text codec of the mesh, field CSV and profile CSV formats and the
key=value readers: writers render value for value as ``"%.17g"``, readers
give the values back bit for bit, read every file as the line-by-line
reference readers below do, and fail only with FormatError."""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcmu_lab import fields, realize
from hcmu_lab.algebra import Certificate, write_obstruction_file
from hcmu_lab.cli import parse_config
from hcmu_lab.errors import ConfigError, FormatError
from hcmu_lab.fields import GridDomain, read_field_csv, write_field_csv
from hcmu_lab.profile import (
    CurvatureProfile,
    read_profile_csv,
    solve_curvature_ode,
    validate_params,
    write_profile_csv,
)
from hcmu_lab.ratpoly import RationalPoly
from hcmu_lab.realize import (
    Mesh,
    export_mesh,
    integrate_frame,
    parse_mesh,
    solve_codazzi_family,
)
from hcmu_lab.textio import (
    grid_header,
    parse_header_comment,
    read_kv_lines,
    read_text,
)
from obstruction_file import certificate_from_lines, poly_from_line

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
PARAMS = validate_params(2, 1)
GRID = GridDomain.create(PARAMS, 1.5, 8, 8, 0.01, 0.01, origin=(-0.04, 0.0))
SPECIAL = [0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.1, 1 / 3, 1e-300,
           np.inf, -np.inf, 123456789.0]

# -- the writers, value by value ------------------------------------------------


def g17(v) -> str:
    return "%.17g" % v


def mesh_text(mesh: Mesh) -> str:
    out = ["# hcmu-mesh 1\n",
           grid_header(mesh.nx, mesh.ny, mesh.hx, mesh.hy, mesh.x0, mesh.y0),
           f"# c = {g17(mesh.c)}\n"]
    out += ["v " + " ".join(g17(v) for v in row) + "\n" for row in mesh.vertices]
    out += ["vn " + " ".join(g17(v) for v in row) + "\n" for row in mesh.normals]
    out += [f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in mesh.faces]
    return "".join(out)


def field_text(arr: np.ndarray, grid: GridDomain) -> str:
    return grid_header(grid.nx, grid.ny, grid.hx, grid.hy, grid.x0,
                       grid.y0) + "".join(",".join(g17(v) for v in row) + "\n"
                                          for row in arr)


def profile_text(prof: CurvatureProfile) -> str:
    return "x,K,mu,phi\n" + "".join(
        ",".join(g17(v) for v in row) + "\n"
        for row in zip(prof.xs, prof.Ks, prof.mus, prof.phis))


def small_mesh(dim: int, values) -> Mesh:
    nx, ny = 2, 3
    values = np.resize(np.asarray(values, dtype=float), 2 * nx * ny * dim)
    vertices, normals = values.reshape(2, nx * ny, dim)
    faces = np.array([[0, 3, 1], [1, 3, 4], [1, 4, 2], [2, 4, 5]])
    return Mesh(vertices, faces, normals, nx, ny, 0.25, 1e-3, -0.05, 0.0,
                0.0 if dim == 3 else 1.0)


def a_profile(values) -> CurvatureProfile:
    cols = np.asarray(values, dtype=float).reshape(4, -1)
    return CurvatureProfile(PARAMS, 1.5, 1e-3, *cols)


@pytest.mark.parametrize("mesh", [
    small_mesh(3, SPECIAL),
    small_mesh(4, SPECIAL[::-1]),
    Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64),
         np.zeros((0, 3)), 0, 0, 0.1, 0.1, 0.0, 0.0, 0.0),
], ids=["3-dim", "4-dim", "empty"])
def test_export_mesh_renders_every_value_at_17_digits(tmp_path, mesh):
    path = tmp_path / "mesh.txt"
    export_mesh(mesh, path)
    assert path.read_text() == mesh_text(mesh)


def test_field_and_profile_writers_render_every_value_at_17_digits(tmp_path):
    arr = np.resize(np.array(SPECIAL), (GRID.nx, GRID.ny))
    write_field_csv(arr, GRID, tmp_path / "h11.csv")
    assert (tmp_path / "h11.csv").read_text() == field_text(arr, GRID)
    prof = a_profile(SPECIAL[:8])
    write_profile_csv(prof, tmp_path / "profile.csv")
    assert (tmp_path / "profile.csv").read_text() == profile_text(prof)


def bits(*arrays):
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays]


doubles = st.floats(allow_nan=False)


@PROPERTY
@given(st.sampled_from([3, 4]),
       st.lists(doubles, min_size=1, max_size=48))
def test_mesh_roundtrip_is_bit_identical(tmp_path_factory, dim, values):
    mesh = small_mesh(dim, values)
    path = tmp_path_factory.mktemp("mesh") / "mesh.txt"
    export_mesh(mesh, path)
    back = parse_mesh(path)
    assert bits(back.vertices, back.normals, back.faces) == bits(
        mesh.vertices, mesh.normals, mesh.faces)
    assert (back.nx, back.ny, back.hx, back.hy, back.x0, back.y0, back.c) == (
        mesh.nx, mesh.ny, mesh.hx, mesh.hy, mesh.x0, mesh.y0, mesh.c)


@PROPERTY
@given(st.lists(doubles, min_size=64, max_size=64),
       st.lists(doubles, max_size=12).map(lambda v: v[:len(v) // 4 * 4]))
def test_csv_roundtrips_are_bit_identical(tmp_path_factory, field, table):
    path = tmp_path_factory.mktemp("csv")
    arr = np.array(field).reshape(GRID.nx, GRID.ny)
    write_field_csv(arr, GRID, path / "h11.csv")
    back, meta = read_field_csv(path / "h11.csv")
    assert bits(back) == bits(arr)
    assert (meta["hx"], meta["x0"]) == (GRID.hx, GRID.x0)
    prof = a_profile(table)
    write_profile_csv(prof, path / "profile.csv")
    assert bits(*read_profile_csv(path / "profile.csv")) == bits(
        prof.xs, prof.Ks, prof.mus, prof.phis)


# -- the reference: line-by-line readers --------------------------------------
# Each converts and checks every record on its own line, so the first fault in
# the file is the one it raises.  The readers under test must give the same
# arrays, or the same FormatError, on every file.


def reference_mesh(text: str) -> Mesh:
    meta: dict = {}
    verts: list[list[float]] = []
    norms: list[list[float]] = []
    faces: list[list[int]] = []
    stage = 0  # 0: v, 1: vn, 2: f
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not line[1:].strip().startswith("hcmu-mesh"):
                meta.update(parse_header_comment(line, ln, ("c",)))
            continue
        parts = line.split()
        try:
            if parts[0] == "v":
                if stage != 0:
                    raise FormatError("vertex after normals or faces", ln)
                if len(parts) not in (4, 5):
                    raise FormatError("vertex needs 3 or 4 coordinates", ln)
                verts.append([float(t) for t in parts[1:]])
            elif parts[0] == "vn":
                if stage > 1:
                    raise FormatError("normal after faces", ln)
                stage = 1
                norms.append([float(t) for t in parts[1:]])
            elif parts[0] == "f":
                stage = 2
                if len(parts) != 4:
                    raise FormatError("face needs exactly 3 indices", ln)
                tri = [int(t) for t in parts[1:]]
                if min(tri) < 1 or max(tri) > len(verts):
                    raise FormatError("face index out of range", ln)
                faces.append(tri)
            else:
                raise FormatError(f"unknown record {parts[0]!r}", ln)
        except ValueError:
            raise FormatError(f"bad number in {line!r}", ln) from None
    for key in ("nx", "ny", "hx", "hy", "x0", "y0", "c"):
        if key not in meta:
            raise FormatError(f"missing header entry for {key}")
    if norms and len(norms) != len(verts):
        raise FormatError("normal count disagrees with vertex count")
    dim = len(verts[0]) if verts else (3 if meta["c"] == 0 else 4)
    if any(len(v) != dim for v in verts) or any(len(v) != dim for v in norms):
        raise FormatError("inconsistent coordinate dimension")
    vertices = np.array(verts).reshape(len(verts), dim)
    normals = np.array(norms) if norms else np.zeros((len(verts), dim))
    try:
        return Mesh(vertices,
                    np.array(faces, dtype=np.int64).reshape(len(faces), 3) - 1,
                    normals, meta["nx"], meta["ny"], meta["hx"], meta["hy"],
                    meta["x0"], meta["y0"], meta["c"])
    except ValueError as e:
        raise FormatError(str(e)) from None


def reference_field(text: str) -> tuple[np.ndarray, dict]:
    meta: dict = {}
    rows, lns = [], []
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            meta.update(parse_header_comment(line, ln))
            continue
        try:
            rows.append(list(map(float, line.split(","))))
        except ValueError:
            raise FormatError(f"bad float in row {line!r}", ln) from None
        lns.append(ln)
    if "nx" not in meta:
        raise FormatError("missing nx,ny,hx,hy metadata line")
    for row, ln in zip(rows, lns):
        if len(row) != len(rows[0]):
            raise FormatError(f"row has {len(row)} values, the first row "
                              f"{len(rows[0])}", ln)
    arr = np.array(rows, dtype=float)
    if arr.shape != (meta["nx"], meta["ny"]):
        raise FormatError(
            f"data shape {arr.shape} disagrees with metadata "
            f"({meta['nx']}, {meta['ny']})"
        )
    return arr, meta


def reference_profile(text: str) -> tuple[np.ndarray, ...]:
    lines = text.split("\n")
    if not lines or lines[0].strip() != "x,K,mu,phi":
        raise FormatError("missing profile header 'x,K,mu,phi'", 1)
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row = line.split(",")
        if len(row) != 4:
            raise FormatError(f"expected 4 columns, got {len(row)}", ln)
        try:
            rows.append(list(map(float, row)))
        except ValueError:
            raise FormatError(f"bad float in {line!r}", ln) from None
    return tuple(np.array(rows, dtype=float).reshape(-1, 4).T.copy())


READERS = {"mesh.txt": (parse_mesh, reference_mesh),
           "h11.csv": (read_field_csv, reference_field),
           "profile.csv": (read_profile_csv, reference_profile)}


def outcome(read, path):
    try:
        got = read(path)
    except FormatError as err:
        return str(err)
    if isinstance(got, Mesh):
        return bits(got.vertices, got.normals, got.faces), repr(
            (got.nx, got.ny, got.hx, got.hy, got.x0, got.y0, got.c))
    if isinstance(got, tuple) and len(got) == 2:
        return bits(got[0]), repr(got[1])
    return bits(*got)


def assert_reads_as_reference(name, path):
    """The reader's whole outcome on the file equals the reference's."""
    read, reference = READERS[name]
    got = outcome(read, path)
    assert got == outcome(lambda p: reference(read_text(p)), path)
    return got


# -- the readers -------------------------------------------------------------------


def written_files(tmp_path):
    export_mesh(small_mesh(4, SPECIAL), tmp_path / "mesh.txt")
    write_field_csv(np.ones((GRID.nx, GRID.ny)), GRID, tmp_path / "h11.csv")
    write_profile_csv(a_profile(SPECIAL[:8]), tmp_path / "profile.csv")


def test_a_short_os_write_is_continued(tmp_path, monkeypatch):
    # os.write may write fewer bytes than it is given
    whole, short = tmp_path / "whole", tmp_path / "short"
    whole.mkdir()
    short.mkdir()
    written_files(whole)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
    written_files(short)
    monkeypatch.undo()
    assert sorted(p.name for p in short.iterdir()) == [
        "h11.csv", "mesh.txt", "profile.csv"]
    for path in short.iterdir():
        assert path.read_bytes() == (whole / path.name).read_bytes()


@pytest.mark.parametrize("name", ["mesh.txt", "h11.csv", "profile.csv"])
@pytest.mark.parametrize("at_line", [1, 3])
def test_undecodable_bytes_raise_format_error(tmp_path, name, at_line):
    written_files(tmp_path)
    read = READERS[name][0]
    path = tmp_path / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[at_line - 1] = b"\xff" + lines[at_line - 1]
    path.write_bytes(b"".join(lines))
    with pytest.raises(FormatError, match=f"line {at_line}: not UTF-8"):
        read(path)


def test_ragged_field_rows_name_the_short_row(tmp_path):
    path = tmp_path / "h11.csv"
    path.write_text("# nx,ny,hx,hy = 2,2,0.1,0.1\n# origin = 0,0\n1,2\n3\n")
    with pytest.raises(FormatError, match="line 4: row has 1 values"):
        read_field_csv(path)


def test_mesh_records_that_disagree_with_the_header_raise_format_error(tmp_path):
    path = tmp_path / "mesh.txt"
    export_mesh(small_mesh(3, SPECIAL), path)
    text = path.read_text().replace("nx,ny,hx,hy = 2,3", "nx,ny,hx,hy = 5,3")
    path.write_text(text)
    with pytest.raises(FormatError, match="vertex count disagrees"):
        parse_mesh(path)


def split_record(lines):
    head, last = lines[4].rsplit(" ", 1)
    lines[4:5] = [head, last]


def join_records(lines):
    lines[4:6] = [lines[4] + " " + lines[5]]


def blank_and_comment(lines):
    lines[6:6] = ["", "# c = 0"]


def tab_after_kind(lines):
    lines[5] = lines[5].replace(" ", "\t", 1)


def five_coordinates(lines):
    lines[:] = [line + " 0 0" if line.startswith("v") else line for line in lines]


def quad_faces(lines):
    lines[:] = [line + " 1" if line.startswith("f") else line for line in lines]


def normal_first(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("vn "))
    lines[4], lines[i] = lines[i], lines[4]


# edits at the boundaries of the runs of one record kind


def comment_between_runs(lines):
    lines[10:10] = ["# c = 0"]


def blank_between_runs(lines):
    lines[10:10] = ["", "  "]


def no_normals(lines):
    lines[:] = [line for line in lines if not line.startswith("vn ")]


def single_record_runs(lines):
    lines[:] = [part for line in lines for part in (line, "")]


def formfeed_in_first_records(lines):
    lines[4] = lines[4].replace(" ", " \x0c", 1)
    lines[10] = lines[10].replace(" ", "\x0c", 1)


def underscore_in_first_records(lines):
    lines[4] = "v 1_0 2 3"
    lines[16] = "f 0_1 4 2"


def wide_vertex_run(lines):
    lines[7:10] = [line + " 0" for line in lines[7:10]]


@pytest.mark.parametrize("edit,fails", [
    (split_record, True), (join_records, True), (five_coordinates, True),
    (quad_faces, True), (normal_first, True), (blank_and_comment, False),
    (tab_after_kind, False), (comment_between_runs, False),
    (blank_between_runs, False), (no_normals, False),
    (single_record_runs, False), (formfeed_in_first_records, False),
    (underscore_in_first_records, False), (wide_vertex_run, True),
])
def test_mesh_layouts_off_the_bulk_path_read_as_line_by_line(tmp_path, edit,
                                                             fails):
    path = tmp_path / "mesh.txt"
    export_mesh(small_mesh(3, SPECIAL), path)
    lines = path.read_text().split("\n")
    edit(lines)
    text = "\n".join(lines)
    path.write_text(text)
    got = assert_reads_as_reference("mesh.txt", path)
    assert isinstance(got, str) == fails


@pytest.mark.parametrize("name,edit,added,error", [
    ("mesh.txt", {5: "v x 1 2 3"}, ["v 1 2 3 4"], "line 6: bad number"),
    ("mesh.txt", {5: "v x 1 2 3"}, ["# bogus"], "line 6: bad number"),
    ("mesh.txt", {10: "vn x 1 2 3"}, ["f 1 2"], "line 11: bad number"),
    ("mesh.txt", {16: "f 0 1 2", 17: "f 1 x 2"}, [],
     "line 17: face index out of range"),
    ("mesh.txt", {16: "f 1 2 99999999999999999999", 17: "f 1 x 2"}, [],
     "line 17: face index out of range"),
    ("mesh.txt", {17: "f 99999999999999999999 x 1"}, [],
     "line 18: bad number"),
    ("mesh.txt", {19: "f 1 2 7"}, ["vn 1 2 3 4"],
     "line 20: face index out of range"),
    ("mesh.txt", {4: "v 1 2 3", 18: "f 1 2 x"}, [], "line 19: bad number"),
    ("mesh.txt", {4: "v 1 2 3"}, [], "inconsistent coordinate dimension"),
    ("h11.csv", {3: "1,x"}, ["# bogus"], "line 4: bad float"),
    ("h11.csv", {3: "1,1", 5: "1,y"}, [], "line 6: bad float"),
    ("h11.csv", {0: "", 4: "z"}, [], "line 5: bad float"),
    ("h11.csv", {3: "1,1"}, [], "line 4: row has 2 values"),
    ("profile.csv", {1: "0,x,0,0"}, ["1,2,3"], "line 2: bad float"),
    ("profile.csv", {1: "0,0,0", 2: "x,0,0,0"}, [], "line 2: expected 4"),
    ("profile.csv", {1: "\u2028", 2: "x,0,0,0"}, [], "line 3: bad float"),
    # at the boundaries of the runs of one record kind
    ("mesh.txt", {4: "v 1_0 x 0 0"}, [], "line 5: bad number"),
    ("mesh.txt", {9: "v 1 2 3 x"}, [], "line 10: bad number"),
    ("mesh.txt", {10: "vn\x0c1_0 1 2 y"}, [], "line 11: bad number"),
    ("mesh.txt", {10: "# bogus"}, [], "line 11: bad header comment"),
    ("mesh.txt", {15: "v 1 2 3 4"}, [],
     "line 16: vertex after normals or faces"),
    ("mesh.txt", {5: "", 6: "v x 0 0 0", 7: ""}, [], "line 7: bad number"),
    ("mesh.txt", {16: "f 1 2 7"}, [], "line 17: face index out of range"),
    ("mesh.txt", {18: "f 0 1 2"}, [], "line 19: face index out of range"),
    ("mesh.txt", {19: "f 1 2 x"}, [], "line 20: bad number"),
    ("mesh.txt", {12: "vnx 1 2 3 4"}, [], "line 13: unknown record 'vnx'"),
    ("h11.csv", {9: "1,1,1"}, [], "line 10: row has 3 values"),
    ("h11.csv", {5: "", 6: "1,1"}, [], "line 7: row has 2 values"),
    ("h11.csv", {8: "1,1,1,1,1,1,1,1,1,1", 9: "1,1,1,1,1,1"}, [],
     "line 9: row has 10 values"),
    ("h11.csv", {5: "# c = 0", 6: "1,x,1,1,1,1,1,1"}, [],
     "line 6: unknown header key"),
    ("h11.csv", {5: "", 6: "1_0,x,1,1,1,1,1,1"}, [], "line 7: bad float"),
    ("profile.csv", {}, ["1,2,3,4", "", "1,x,3,4"], "line 6: bad float"),
    ("profile.csv", {}, ["1,2,3,4,5"], "line 4: expected 4 columns, got 5"),
    ("profile.csv", {1: "0,0,0", 2: "0,0,0"}, [],
     "line 2: expected 4 columns, got 3"),
    # the checks made once the last line is read
    ("h11.csv", {0: ""}, [], "missing nx,ny,hx,hy metadata line"),
    ("h11.csv", {5: ""}, [], "data shape (7, 8) disagrees with metadata (8, 8)"),
    ("mesh.txt", {3: ""}, [], "missing header entry for c"),
    ("mesh.txt", {12: ""}, [], "normal count disagrees with vertex count"),
])
def test_the_first_bad_line_is_the_one_reported(tmp_path, name, edit, added,
                                                error):
    written_files(tmp_path)
    path = tmp_path / name
    lines = path.read_text().split("\n")[:-1]
    for i, line in edit.items():
        lines[i] = line
    path.write_text("\n".join(lines + added) + "\n")
    assert assert_reads_as_reference(name, path).startswith(error)


def realize_mesh() -> Mesh:
    """The mesh ``realize`` writes on the realize workload's 101x41 grid."""
    prof = solve_curvature_ode(PARAMS, 1.5, (-1.0, 1.0), 1e-3)
    grid = GridDomain.create(PARAMS, 1.5, 101, 41, 1e-3, 1e-3,
                             origin=(-0.05, 0.0))
    return integrate_frame(solve_codazzi_family(prof, 0.0, 1.0), grid)


def repeat_line(i):
    """An edit that repeats line i at the end of the file."""
    return lambda lines: lines.insert(len(lines) - 1, lines[i])


# name: (writer, reader, one valid edit off the writer's layout)
WRITTEN = {
    "3-dim.mesh": (lambda p: export_mesh(small_mesh(3, SPECIAL), p),
                   parse_mesh, repeat_line(3)),
    "4-dim.mesh": (lambda p: export_mesh(small_mesh(4, SPECIAL[::-1]), p),
                   parse_mesh, repeat_line(3)),
    "101x41.mesh": (lambda p: export_mesh(realize_mesh(), p), parse_mesh,
                    repeat_line(3)),
    "h11.csv": (lambda p: write_field_csv(
        np.resize(np.array(SPECIAL), (GRID.nx, GRID.ny)), GRID, p),
        read_field_csv, repeat_line(1)),
}


@pytest.mark.parametrize("name", WRITTEN)
def test_written_files_take_the_bulk_pass(tmp_path, monkeypatch, name):
    """Every mesh and field CSV its writer emits is read without the line
    readers, and one valid edit off its layout sends it to them and reads
    the same."""
    write, read, edit = WRITTEN[name]
    path = tmp_path / name
    write(path)

    def refuse(lines):
        raise AssertionError("read line by line")

    monkeypatch.setattr(realize, "_mesh_by_line", refuse)
    monkeypatch.setattr(fields, "_field_by_line", refuse)
    bulk = outcome(read, path)
    assert not isinstance(bulk, str)
    lines = path.read_text().split("\n")
    edit(lines)
    path.write_text("\n".join(lines))
    with pytest.raises(AssertionError, match="read line by line"):
        read(path)
    monkeypatch.undo()
    assert outcome(read, path) == bulk


def test_profile_rows_end_only_at_newlines(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("x,K,mu,phi\n0,1,\x0c2,3\n")
    table = read_profile_csv(path)
    assert [col.tolist() for col in table] == [[0.0], [1.0], [2.0], [3.0]]
    assert_reads_as_reference("profile.csv", path)


# Edits that keep most of a file readable, to reach the checks of every line.
PIECES = ["v", "vn", "f", " ", "\n", "\r", "\t", "#", ",", "0", "1", "7", "-1",
          "x", "nan", "1e400", "1_0", "\x0c", "v 1 2 3\n", "f 1 1 1\n",
          "# c = 1\n", "1,2\n", "\n\n"]
edits = st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from(PIECES),
                           st.integers(0, 2)), max_size=4)


def edited(text: str, changes) -> str:
    for where, piece, cut in changes:
        i = int(where * len(text))
        text = text[:i] + piece + text[i + cut:]
    return text


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["mesh.txt", "h11.csv", "profile.csv"]), edits,
       st.binary(max_size=4))
def test_edited_files_read_as_line_by_line_or_raise_format_error(
        tmp_path_factory, name, changes, junk):
    tmp = tmp_path_factory.mktemp("edit")
    written_files(tmp)
    path = tmp / name
    path.write_bytes(edited(path.read_text(), changes).encode() + junk)
    # anything but FormatError propagates
    assert_reads_as_reference(name, path)


# -- the key=value readers ----------------------------------------------------


def test_undecodable_key_value_files_raise_format_error(tmp_path):
    (tmp_path / "report.txt").write_bytes(b"\xffa=1\n")
    with pytest.raises(FormatError, match="line 1: not UTF-8"):
        read_kv_lines(tmp_path / "report.txt")
    (tmp_path / "run.cfg").write_bytes(b"\xffk1 = 2\n")
    with pytest.raises(ConfigError, match="line 1: not UTF-8"):
        parse_config(tmp_path / "run.cfg")


KV_PIECES = ["\n", "=", " = ", "#", " ", "k1", "k2", "grid", "verdict",
             "interval", "root_count", "root_interval", "no-root",
             "roots-isolated", "0", "1/2", "-3", "1/0", "2.5", "x", "\xff"]
kv_text = st.lists(st.one_of(st.sampled_from(KV_PIECES), st.text(max_size=4)),
                   max_size=16).map("".join)


@PROPERTY
@given(kv_text, st.binary(max_size=8))
def test_key_value_readers_fail_only_with_format_error(tmp_path_factory,
                                                       text, junk):
    path = tmp_path_factory.mktemp("kv") / "file.txt"
    for data in (text.encode(), junk + text.encode(), text.encode() + junk):
        path.write_bytes(data)
        for read in (read_kv_lines, parse_config):
            try:
                read(path)
            except FormatError:  # ConfigError is one
                pass
    for read in (lambda: certificate_from_lines(text.split("\n")),
                 lambda: poly_from_line(text)):
        try:
            read()
        except FormatError:
            pass


def test_huge_certificate_exponents_raise_format_error():
    start = time.perf_counter()
    with pytest.raises(FormatError, match="line 2: bad certificate value"):
        certificate_from_lines(["verdict=no-root", "interval=0 1e100000000"])
    assert time.perf_counter() - start < 1.0


fractions = st.fractions(max_denominator=10**6).filter(
    lambda q: abs(q.numerator) < 10**12)
intervals = st.tuples(fractions, fractions)


@PROPERTY
@given(st.lists(fractions, max_size=5), intervals,
       st.lists(intervals, max_size=3))
def test_obstruction_file_reads_back_exactly(tmp_path_factory, coeffs,
                                             interval, roots):
    phi = RationalPoly(coeffs)
    cert = Certificate(interval, not roots, tuple(roots))
    path = tmp_path_factory.mktemp("obstruction") / "phi.txt"
    write_obstruction_file(phi, cert, path)
    first, *rest = path.read_text().split("\n")
    assert poly_from_line(first) == phi
    assert certificate_from_lines(rest) == cert
