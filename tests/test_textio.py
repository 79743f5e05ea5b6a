"""The text codec of the mesh, field CSV and profile CSV formats: writers
render value for value as ``"%.17g"``, readers give the values back bit for
bit, and readers fail only with FormatError."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcmu_lab import fields, profile, realize
from hcmu_lab.errors import FormatError
from hcmu_lab.fields import GridDomain, read_field_csv, write_field_csv
from hcmu_lab.profile import (
    CurvatureProfile,
    read_profile_csv,
    validate_params,
    write_profile_csv,
)
from hcmu_lab.realize import Mesh, export_mesh, parse_mesh
from hcmu_lab.textio import grid_header

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


# -- the readers -------------------------------------------------------------------


def written_files(tmp_path):
    mesh = small_mesh(4, SPECIAL)
    export_mesh(mesh, tmp_path / "mesh.txt")
    write_field_csv(np.ones((GRID.nx, GRID.ny)), GRID, tmp_path / "h11.csv")
    write_profile_csv(a_profile(SPECIAL[:8]), tmp_path / "profile.csv")
    return {"mesh.txt": parse_mesh, "h11.csv": read_field_csv,
            "profile.csv": read_profile_csv}


def test_written_files_are_read_in_one_bulk_pass(tmp_path, monkeypatch):
    passes = []
    for module, name in ((realize, "_mesh_from_text"),
                         (fields, "_field_from_text"),
                         (profile, "_profile_from_text")):
        build = getattr(module, name)
        monkeypatch.setattr(module, name, lambda text, strict, build=build:
                            passes.append(strict) or build(text, strict))
    for name, read in written_files(tmp_path).items():
        read(tmp_path / name)
    assert passes == [False, False, False]


@pytest.mark.parametrize("name", ["mesh.txt", "h11.csv", "profile.csv"])
@pytest.mark.parametrize("at_line", [1, 3])
def test_undecodable_bytes_raise_format_error(tmp_path, name, at_line):
    read = written_files(tmp_path)[name]
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


@pytest.mark.parametrize("edit,fails", [
    (split_record, True), (join_records, True), (five_coordinates, True),
    (quad_faces, True), (normal_first, True), (blank_and_comment, False),
    (tab_after_kind, False),
])
def test_mesh_layouts_off_the_bulk_path_read_as_line_by_line(tmp_path, edit,
                                                             fails):
    path = tmp_path / "mesh.txt"
    export_mesh(small_mesh(3, SPECIAL), path)
    lines = path.read_text().split("\n")
    edit(lines)
    text = "\n".join(lines)
    path.write_text(text)
    got = outcome(parse_mesh, path)
    assert isinstance(got, str) == fails
    assert got == outcome(lambda _: realize._mesh_lines(text), path)


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["mesh.txt", "h11.csv", "profile.csv"]), edits,
       st.binary(max_size=4))
def test_edited_files_read_as_line_by_line_or_raise_format_error(
        tmp_path_factory, name, changes, junk):
    tmp = tmp_path_factory.mktemp("edit")
    read = written_files(tmp)[name]
    path = tmp / name
    path.write_bytes(edited(path.read_text(), changes).encode() + junk)
    got = outcome(read, path)  # anything but FormatError propagates
    if name == "mesh.txt" and not isinstance(got, str):
        # the bulk reading agrees with the line-by-line one
        text = path.read_bytes().decode().replace("\r\n", "\n").replace("\r", "\n")
        assert outcome(lambda _: realize._mesh_lines(text), path) == got
