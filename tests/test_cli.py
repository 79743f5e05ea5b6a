import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcmu_lab import algebra, cli, errors, fields, optimize, profile, realize
from hcmu_lab.errors import ConfigError
from hcmu_lab.profile import read_profile_csv
from hcmu_lab.ratpoly import ISOLATION_WIDTH
from hcmu_lab.realize import parse_mesh
from hcmu_lab.textio import read_kv_lines, write_kv_lines, write_lines


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def test_parse_config_basic(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# a comment\nk1 = 2\nk2 = 1\nseed = 7   # trailing\n")
    cfg = cli.parse_config(p)
    assert cfg.fraction("k1") == 2
    assert cfg.integer("seed") == 7


def test_parse_config_cusp_rational(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("k1 = 1\nk2 = -1/2\n")
    cfg = cli.parse_config(p)
    params, k0 = cli._params_from(cfg)
    assert params.kind == "cusp"
    assert k0 == 0.25  # (K1 + K2) / 2 without a k0


def test_parse_config_rejections(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("k1 = 2\nwhatever = 3\n")
    with pytest.raises(ConfigError) as err:
        cli.parse_config(p)
    assert "line 2" in str(err.value) and "whatever" in str(err.value)
    p.write_text("k1 = 2\nk1 = 3\n")
    with pytest.raises(ConfigError) as err:
        cli.parse_config(p)
    assert "duplicate" in str(err.value)
    p.write_text("k1 = \n")
    with pytest.raises(ConfigError):
        cli.parse_config(p)
    p.write_text("k1 = 2\nk2 1  # k2 = 1\n")
    with pytest.raises(ConfigError, match="line 2: expected key=value"):
        cli.parse_config(p)
    # no command reads h, so it is not a key
    p.write_text("h = 0.5\n")
    with pytest.raises(ConfigError, match="unknown key 'h'"):
        cli.parse_config(p)


def test_inadmissible_params_exit_2(tmp_path):
    # parsing succeeds, validation fails -> exit code 2
    p = tmp_path / "run.cfg"
    p.write_text("k1 = 1\nk2 = -2\n")
    out = tmp_path / "x.csv"
    code = run_cli("profile", "--config", str(p), "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run_cli("no-such-command") == 1
    assert run_cli("profile", "--k1", "2", "--k2", "1") == 1  # missing --out
    assert run_cli() == 1
    # a non-finite H is a usage error, not a numerical failure
    out = str(tmp_path / "report.txt")
    for h in ("nan", "inf", "1e400"):
        assert run_cli("optimize", "--k1", "2", "--k2", "1",
                       "--constraint", f"cmc:{h}", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 6 and all(line.startswith("error: ") for line in err)
    assert all("finite" in line for line in err[3:])


def test_constraint_takes_an_exact_rational(tmp_path, capsys):
    def optimize(h):
        out = tmp_path / "report.txt"
        code = run_cli("optimize", "--k1", "2", "--k2", "1", "--k0", "1.5",
                       "--grid", "8,8,0.01,0.01", "--max-iter", "3",
                       "--constraint", f"cmc:{h}", "--out", str(out))
        return code, out.read_text() if code == 0 else None

    code, report = optimize("1/2")
    assert code == 0 and "constraint=cmc:0.5\n" in report
    assert optimize("0.5") == (0, report)
    capsys.readouterr()
    for h in ("1/0", "1e400"):
        assert optimize(h) == (1, None)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: ") for line in lines)


def _argv_vocabulary():
    """The real subcommand names and every flag they take, bar --help."""
    top, commands = cli._build_parser()
    subs = next(a for a in top._actions
                if isinstance(a, argparse._SubParsersAction))
    assert subs.choices is commands
    flags = {o for p in commands.values() for a in p._actions
             for o in a.option_strings}
    return sorted(commands), sorted(flags - {"-h", "--help"})


_COMMAND_NAMES, _FLAG_NAMES = _argv_vocabulary()
_JUNK = ["1", "-1", "2/3", "x", "cmc:0.5", "minimal", "a.cfg", "32,32,0.01,0.01"]
# each is an unknown option, rejected wherever it stands
_REJECTED = ["--bogus", "-z", "--threads=x", "--seed-x"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_COMMAND_NAMES + _FLAG_NAMES + _JUNK),
                max_size=8),
       st.sampled_from(_REJECTED), st.integers(0, 8))
def test_argv_errors_are_one_error_line_and_exit_1(tokens, bad, at):
    argv = tokens[:at] + [bad] + tokens[at:]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code == 1, argv
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Traceback" not in err.getvalue()


def _outcome(argv, where):
    """cli.main's exit code, stdout and stderr on argv, run in the empty
    directory where, and the files it left there."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mp.chdir(where)
        code = cli.main(argv)
    files = {p.name: p.read_bytes() for p in Path(where).iterdir()}
    return code, out.getvalue(), err.getvalue(), files


def _through_the_top_parser(argv, where):
    """`_outcome` with every argv parsed by the top parser, as before the
    routing by command name."""
    top, _ = cli._build_parser()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_build_parser", lambda: (top, {}))
        return _outcome(argv, where)


def _assert_routing_changes_nothing(argv, where):
    routed, top = Path(where) / "routed", Path(where) / "top"
    routed.mkdir()
    top.mkdir()
    assert _outcome(argv, routed) == _through_the_top_parser(argv, top), argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_COMMAND_NAMES + _FLAG_NAMES + _JUNK),
                max_size=8))
def test_routing_by_command_name_matches_the_top_parser(tmp_path_factory,
                                                        tokens):
    _assert_routing_changes_nothing(tokens, tmp_path_factory.mktemp("argv"))


@pytest.mark.parametrize("argv", [
    *([name, *help_flag] for name in _COMMAND_NAMES
      for help_flag in ([], ["--help"])),
    ["obstruction", "--k1", "2", "--k2", "1", "--c", "21/10",
     "--out", "o.txt"],
    # a repeated flag: the last one counts
    ["obstruction", "--k1=3", "--k2", "1", "--out=o.txt", "--k1", "2"],
    ["profile", "--k1", "2", "--k2", "1", "--x-min", "-0.1", "--x-max", "0.1",
     "--step", "0.01", "--out", "p.csv"],
], ids=" ".join)
def test_routing_matches_the_top_parser_on_help_and_whole_commands(tmp_path,
                                                                   argv):
    _assert_routing_changes_nothing(argv, tmp_path)


def test_help_exits_0():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run_cli("optimize", "--help") == 0
    assert "--constraint" in out.getvalue()


def test_numerical_failure_exit_3(tmp_path):
    out = tmp_path / "x.csv"
    code = run_cli("profile", "--k1", "2", "--k2", "1", "--k0", "1.5",
                   "--step", "2.0", "--out", str(out))
    assert code == 3


def test_obstruction_file_contents(tmp_path, monkeypatch):
    # numpy is loaded in this process, so a run leaves the BLAS variable alone
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    out = tmp_path / "obs.txt"
    assert run_cli("obstruction", "--k1", "2", "--k2", "1", "--c", "0",
                   "--out", str(out)) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    lines = out.read_text().splitlines()
    assert lines[0] == "-56/3 0 0 8"
    assert "verdict=no-root" in lines
    assert "interval=1 2" in lines


def test_obstruction_root_interval_is_narrow(tmp_path):
    # cusp case: the root in (K2, K1) = (-1, 2) is located to the default
    # isolation width, not to the whole curvature range
    out = tmp_path / "obs.txt"
    assert run_cli("obstruction", "--k1", "2", "--k2", "-1", "--c", "3",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert "interval=-1 2" in lines
    boxes = [ln.split("=", 1)[1].split() for ln in lines
             if ln.startswith("root_interval=")]
    assert len(boxes) == 1
    lo, hi = (Fraction(t) for t in boxes[0])
    assert -1 < lo <= hi < 2
    assert hi - lo <= ISOLATION_WIDTH


# sha256 of the obstruction file for "K1 K2 c": the README command, the cusp
# pairs, one isolated root in (1, 2), a triple root at the endpoint K2, and
# rationals in 8ths and 16ths like the benchmark's draws (no, one or three
# roots inside, repeated roots at an endpoint or outside the interval)
_OBSTRUCTION_DIGESTS = {
    "2 1 0": "54d3ad03527c4cf133b9e7c16dbc69078be15d2471c2acdf9531bd3c7d5673dd",
    "2 -1 0": "fc6e921459805a2f7e1e3cd186e5cd7bc3c75eb5e98ec6b91890ff203307b16f",
    "2 -1 -1": "6934880a2040d8c0205357bb946acd09a440939702e7ef2f106356da1c13a724",
    "2 1 21/10":
        "7f4f231e9ddd040f6d7e9b0be0615655de5e6bf0a04898657d74b3b437e293f9",
    "3 0 0": "ca7312224b0e7b166b4bc3370768a422bcdd0500d59b4b9ed0a3af6cf6727f97",
    "1/4 1/8 1/4":
        "3f1468afa3b03df0ee361351ec5a92eb9ee2d3092ed31735dad740de10082e1e",
    "3/8 1/4 -5/8":
        "f3e8e69bde2e43f8e9c979fb18ee5df3be1648452e21eb21be2913a78c1b6205",
    "1/2 -1/4 -1/4":
        "0aadb191e68e2ff5e390ad5a4185a610c6fcf57c4df43e1f6bff19b14306e573",
    "3/8 -3/16 3/8":
        "9359fc19635fe0c8f4e76bb51515520a46dcfcf98a6442811d3c45274b61e77a",
    "5/4 3/16 7/8":
        "0629eb5f52ca9a60a858206fd132fe6a5a16447cbfee8f96de51d154d3aaaa13",
    "3/2 -3/4 11/8":
        "a5b91feb3b7c362546b6becddfc9a57b71e15b3946a5477b6606a45be5fa3a2b",
    "7/8 5/16 -3/8":
        "4117d0ca13ef78b21a964c93c19c4c1c0392dc14060a986c8da51426c7abd458",
    "13/8 9/16 15/8":
        "caee29059cd65dbd2e12b3eb5aee73f7c7945be7fd43ee40f23b02a528298e93",
    "5/2 -5/4 -9/8":
        "11474531275e2d6d2cd452b444b0beb888de3775cf25ccfdd9269c3dbb6627c5",
    "9/8 1/16 1/2":
        "ca7ef49936307c4235e2ff98a26fa43e71eafd06c3047aa9455c49eb00221032",
    "11/4 15/16 3":
        "fe613239264f8cfe36025e105a517f0678950c2c6ef75c061ee0a85eb8096fef",
    "15/8 7/16 -21/8":
        "444a4d6f1ff58d5924b0132cc7dac50e0c2f4157ee0a6aceb47f086b3ea9771d",
    "7/4 -5/16 5/4":
        "f7ed3d999277d94cbe8ea68be633ed5badd5a9636b948b1537d452fc43593816",
    # a cusp pair whose root -5/16 is a bisection midpoint of narrowing
    "1 -1/2 -1/8":
        "06c82f2028b25aa035bb196015e6d097892663510d0b6f424fbc2e5e56513c4a",
    # an irrational root beside the exact root 27/16, met while narrowing
    "7/4 -1/4 15/8":
        "b3f1c89f7f3f387906f4f8b2e9576fed784e992de58ec1b383db98fa75c18686",
}


@pytest.mark.parametrize("params", list(_OBSTRUCTION_DIGESTS))
def test_the_obstruction_files_are_pinned(tmp_path, params):
    k1, k2, c = params.split()
    out = tmp_path / "obstruction.txt"
    assert run_cli("obstruction", f"--k1={k1}", f"--k2={k2}", f"--c={c}",
                   "--out", str(out)) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _OBSTRUCTION_DIGESTS[params]


def test_profile_csv_is_monotone(tmp_path):
    out = tmp_path / "prof.csv"
    assert run_cli("profile", "--k1", "2", "--k2", "1", "--k0", "1.5",
                   "--x-min", "-1", "--x-max", "1", "--step", "0.01",
                   "--out", str(out)) == 0
    table = read_profile_csv(out)
    assert np.all(np.diff(table.Ks) > 0)


def test_optimize_reports_floor(tmp_path):
    out = tmp_path / "opt.txt"
    code = run_cli("optimize", "--k1", "2", "--k2", "1", "--k0", "1.5",
                   "--grid", "12,12,0.01,0.01", "--seed", "7",
                   "--constraint", "minimal", "--max-iter", "15",
                   "--out", str(out))
    assert code == 0
    rep = read_kv_lines(out)
    assert rep["converged"] == "false"
    assert float(rep["floor_l2"]) > 1e-4
    assert "floor_12x12" in rep and "floor_24x24" in rep
    # the optimizer's counters follow the residual keys, in this order
    assert list(rep)[-6:] == ["floor_12x12", "floor_24x24", "stop_reason",
                              "factorizations", "rejected_steps",
                              "stop_reason_24x24"]
    assert rep["stop_reason"] == "floor"
    assert (rep["factorizations"], rep["rejected_steps"]) == ("8", "2")
    assert rep["stop_reason_24x24"] in {"converged", "max_iter", "floor",
                                        "lam_max"}
    assert int(rep["factorizations"]) > int(rep["rejected_steps"]) >= 0


def test_a_grid_above_the_band_cap_is_a_usage_error(tmp_path, monkeypatch,
                                                    capsys):
    # the 2x run of an 8x8 minimal grid needs a band of 33280 doubles
    monkeypatch.setattr(optimize, "MAX_BAND_DOUBLES", 33279)
    out = tmp_path / "opt.txt"
    assert run_cli(*_OPT, "--constraint", "minimal", "--out", str(out)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: a 16x16 grid needs an LM band of 33280 doubles, "
                     "more than 33279"]
    assert not out.exists()


def test_realize_verify_chain(tmp_path):
    mesh_path = tmp_path / "mesh.txt"
    code = run_cli("realize", "--k1", "2", "--k2", "1", "--k0", "1.5",
                   "--k2-init", "1", "--grid", "21,11,0.002,0.002",
                   "--origin=-0.02,0", "--x-min", "-0.5", "--x-max", "0.5",
                   "--out", str(mesh_path))
    assert code == 0
    mesh = parse_mesh(mesh_path)
    assert mesh.vertices.shape == (231, 3)
    rep_path = tmp_path / "verify.txt"
    code = run_cli("verify", "--k1", "2", "--k2", "1", "--k0", "1.5",
                   "--k2-init", "1", "--mesh", str(mesh_path),
                   "--x-min", "-0.5", "--x-max", "0.5",
                   "--out", str(rep_path))
    assert code == 0
    rep = read_kv_lines(rep_path)
    assert float(rep["metric_rel_err"]) < 1e-6
    assert rep["cmc_flag"] == "false"


def test_realize_profile_range_follows_the_grid(tmp_path, monkeypatch):
    ranges = []
    lattice = profile._x_lattice

    def recording_lattice(x_range, step):
        ranges.append(x_range)
        return lattice(x_range, step)

    monkeypatch.setattr(profile, "_x_lattice", recording_lattice)
    argv = ["realize", "--k1", "2", "--k2", "1", "--k0", "1.5", "--k2-init",
            "1", "--grid", "21,11,0.002,0.002", "--origin=-0.02,0"]
    derived, fixed = tmp_path / "derived.mesh", tmp_path / "fixed.mesh"
    assert run_cli(*argv, "--out", str(derived)) == 0
    assert run_cli(*argv, "--x-min", "-2", "--x-max", "2",
                   "--out", str(fixed)) == 0
    x_pad = 0.02 + 21 * 0.002 + 0.5  # |x0| + nx hx + 0.5, as verify uses
    assert ranges == [(-x_pad, x_pad), (-2.0, 2.0)]
    # the mesh depends on the grid alone, not on how far the family reaches
    assert derived.read_bytes() == fixed.read_bytes()


def test_realize_and_verify_march_no_profile(tmp_path, monkeypatch):
    def no_march(*args):
        raise AssertionError("realize and verify take K from the closed form")

    monkeypatch.setattr(profile, "solve_curvature_ode", no_march)
    args = ["--k1", "2", "--k2", "1", "--c=-1", "--k0", "1.5", "--k2-init",
            "1"]
    mesh, rep = str(tmp_path / "surface.mesh"), str(tmp_path / "verify.txt")
    assert run_cli("realize", *args, "--grid", "21,11,0.002,0.002",
                   "--origin=-0.02,0", "--out", mesh) == 0
    assert run_cli("verify", *args, "--mesh", mesh, "--out", rep) == 0
    assert float(read_kv_lines(rep)["metric_rel_err"]) < 1e-6


def test_verify_of_an_unresolved_mesh_fails_without_a_report(tmp_path, capsys):
    # realize accepts hy = 1e-320 (every row of the mesh is the spine), but
    # verify's report would read nan
    args = [*_K, "--c=-1", "--k0", "1.5", "--k2-init", "-1"]
    mesh, rep = tmp_path / "m.mesh", tmp_path / "v.txt"
    assert run_cli("realize", *args, "--grid", "11,10,1e-3,1e-320",
                   "--out", str(mesh)) == 0
    capsys.readouterr()
    assert run_cli("verify", *args, "--mesh", str(mesh), "--out",
                   str(rep)) == 3
    assert capsys.readouterr().err == (
        "error: numerical failure: k2_rel_err is nan: the mesh does not "
        "resolve the family\n")
    assert not rep.exists()


def test_readme_realize_and_verify_each_invert_two_lattices(tmp_path,
                                                            monkeypatch):
    # one curvature_at call for the grid and one for the family's samples;
    # the frame tables read the grid's K
    from hcmu_lab import fields, realize
    calls = []

    def counting(inverse):
        def wrapper(*args):
            calls.append(np.size(args[2]))
            return inverse(*args)
        return wrapper

    for module in (fields, realize):
        monkeypatch.setattr(module, "curvature_at",
                            counting(module.curvature_at))
    k = [*_K, "--k0", "1.5", "--k2-init", "1"]
    mesh = str(tmp_path / "surface.mesh")
    assert run_cli("realize", *k, "--grid", "101,41,1e-3,1e-3",
                   "--origin=-0.05,0", "--out", mesh) == 0
    # the half-step lattice of 101 columns, then x in +-0.651 at step 1e-3
    assert calls == [201, 1303]
    calls.clear()
    assert run_cli("verify", *k, "--mesh", mesh,
                   "--out", str(tmp_path / "verify.txt")) == 0
    assert calls == [1303, 201]


@pytest.mark.parametrize("x_range", [[], ["--x-min", "-20", "--x-max", "20"]],
                         ids=["grid-range", "wide-range"])
def test_a_coarse_realize_step_truncates_the_family(tmp_path, capsys,
                                                    x_range):
    # K is closed form, so no step is too large for it (an RK4 profile at
    # step 0.3 leaves (K2, K1) on [-20, 20]); at this step k2 jumps by more
    # than a quarter two samples out from the anchor, so the family keeps
    # 4 samples, too few to difference
    out = tmp_path / "surface.mesh"
    assert run_cli("realize", *_K, "--k0", "1.5", "--grid", "8,8,0.01,0.01",
                   "--step", "0.3", *x_range, "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: family too short to difference\n"
    assert not out.exists()


def test_check_gc_roundtrip(tmp_path):
    # build a field with the optimizer machinery, dump, re-check via CLI
    from hcmu_lab.fields import GridDomain, write_field_csv
    from hcmu_lab.profile import validate_params
    from hcmu_lab.realize import family_shape_field, solve_codazzi_family
    from hcmu_lab.profile import solve_curvature_ode

    params = validate_params(2, 1)
    prof = solve_curvature_ode(params, 1.5, (-1, 1), 1e-3)
    fam = solve_codazzi_family(prof, 0.0, 1.0)
    grid = GridDomain.create(params, 1.5, 11, 11, 1e-3, 1e-3,
                             origin=(-0.005, 0.0))
    fld = family_shape_field(fam, grid)
    paths = {}
    for name in ("h11", "h12", "h22"):
        paths[name] = tmp_path / f"{name}.csv"
        write_field_csv(getattr(fld, name), grid, paths[name])
    out = tmp_path / "gc.txt"
    code = run_cli("check-gc", "--k1", "2", "--k2", "1", "--k0", "1.5",
                   "--h11", str(paths["h11"]), "--h12", str(paths["h12"]),
                   "--h22", str(paths["h22"]), "--out", str(out))
    assert code == 0
    rep = read_kv_lines(out)
    assert float(rep["gauss_max"]) < 1e-8
    assert float(rep["codazzi_max"]) < 1e-4


def test_byte_reproducibility(tmp_path):
    outs = []
    for tag in ("a", "b"):
        obs = tmp_path / f"obs_{tag}.txt"
        prof = tmp_path / f"prof_{tag}.csv"
        opt = tmp_path / f"opt_{tag}.txt"
        assert run_cli("obstruction", "--k1", "3/2", "--k2", "0.25",
                       "--c", "1/3", "--out", str(obs)) == 0
        assert run_cli("profile", "--k1", "2", "--k2", "1", "--k0", "1.5",
                       "--x-min", "-0.5", "--x-max", "0.5", "--step", "0.01",
                       "--out", str(prof)) == 0
        assert run_cli("optimize", "--k1", "2", "--k2", "1", "--k0", "1.5",
                       "--grid", "10,10,0.01,0.01", "--seed", "11",
                       "--constraint", "cmc:0.5", "--max-iter", "10",
                       "--out", str(opt)) == 0
        outs.append((obs.read_bytes(), prof.read_bytes(), opt.read_bytes()))
    assert outs[0] == outs[1]


def test_one_parser_serves_every_call_without_state(tmp_path):
    # a run, an argv error, --help, a bad --config and the run again, in
    # one process: the shared parser answers each exactly as a fresh one
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("k1 = 2\nbogus = 1\n")

    def obstruction(name):
        return ["obstruction", "--k1", "2", "--k2", "1", "--c", "21/10",
                "--out", str(tmp_path / name)]

    def session(tag, fresh):
        results = []
        for argv in (obstruction(f"{tag}_first.txt"),
                     ["optimize", "--k1", "2", "--bogus"],
                     ["obstruction", "--help"],
                     ["obstruction", "--config", str(bad_cfg),
                      "--out", str(tmp_path / "never.txt")],
                     obstruction(f"{tag}_again.txt")):
            if fresh:
                cli._build_parser.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    shared = session("shared", fresh=False)
    assert session("fresh", fresh=True) == shared
    assert [code for code, _, _ in shared] == [0, 1, 0, 1, 0]
    assert shared[0][1:] == shared[4][1:]
    assert shared[0][1].startswith("obstruction: ") and shared[0][2] == ""
    for _, out, err in (shared[1], shared[3]):
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert "unknown key 'bogus'" in shared[3][2]
    assert "--k1" in shared[2][1] and shared[2][2] == ""
    files = {(tmp_path / f"{tag}_{run}.txt").read_bytes()
             for tag in ("shared", "fresh") for run in ("first", "again")}
    assert len(files) == 1
    assert cli._build_parser() is cli._build_parser()
    assert not (tmp_path / "never.txt").exists()
    # the routed subparsers are the cached parser's own, rebuilt with it
    old_top, old_commands = cli._build_parser()
    cli._build_parser.cache_clear()
    top, commands = cli._build_parser()
    assert top is not old_top and sorted(commands) == sorted(old_commands)
    assert not any(commands[name] is old_commands[name] for name in commands)
    assert next(a for a in top._actions if isinstance(
        a, argparse._SubParsersAction)).choices is commands


def test_config_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k1 = 2\nk2 = 1\nk0 = 1.2\nstep = 0.01\n"
                   "x_min = -0.5\nx_max = 0.5\n")
    out = tmp_path / "prof.csv"
    assert run_cli("profile", "--config", str(cfg), "--k0", "1.8",
                   "--out", str(out)) == 0
    table = read_profile_csv(out)
    mid = np.argmin(np.abs(table.xs))
    assert abs(table.Ks[mid] - 1.8) < 1e-12


def _field_csv(hx="0.01", origin="0,0", value="0"):
    rows = (",".join([value] * 8) + "\n") * 8
    return f"# nx,ny,hx,hy = 8,8,{hx},0.01\n# origin = {origin}\n{rows}"


_K = ["--k1", "2", "--k2", "1"]


def _mesh_text(nx, ny, hx, hy, rows):
    """A mesh file on the grid (nx, ny, hx, hy) at the origin (0, 0), in
    R^3, with the given vertex lines and no normals or faces."""
    return (f"# nx,ny,hx,hy = {nx},{ny},{hx},{hy}\n# origin = 0,0\n"
            f"# c = 0\n{rows}")


_OPT = ["optimize", *_K, "--k0", "1.5", "--grid", "8,8,0.01,0.01"]
_GC = ["check-gc", *_K, "--h11", "h11.csv", "--h12", "h12.csv",
       "--h22", "h22.csv"]
_FAILURES = [
    # argv, files written first, exit code, the error's text
    pytest.param(["profile", *_K, "--k0", "3"], {}, 2, "K2 < K0 < K1",
                 id="k0-outside"),
    pytest.param(["obstruction", "--k2", "1"], {}, 1, "'k1'",
                 id="missing-k1"),
    pytest.param(["verify", *_K], {}, 1, "'mesh'", id="missing-mesh"),
    pytest.param([*_OPT, "--seed", "x"], {}, 1, "'seed'",
                 id="non-integer"),
    pytest.param(["obstruction", "--config", "missing.cfg"], {}, 1,
                 "cannot open config file", id="unreadable-config"),
    pytest.param(["optimize", *_K, "--grid", "8,8,0.01"], {}, 1,
                 "grid must be nx,ny,hx,hy", id="grid-parts"),
    pytest.param([*_OPT, "--origin", "0"], {}, 1,
                 "origin must be x0,y0", id="origin-parts"),
    pytest.param(["optimize", *_K, "--grid", "8,8,0.01,1/0"], {}, 1,
                 "'hy'", id="grid-part-value"),
    pytest.param(_GC, {"h11.csv": _field_csv(), "h12.csv": _field_csv("0.5"),
                       "h22.csv": _field_csv()}, 1,
                 "disagree on their grid", id="check-gc-hx"),
    pytest.param(_GC, {"h11.csv": _field_csv(), "h12.csv": _field_csv(),
                       "h22.csv": _field_csv(origin="7,0")}, 1,
                 "disagree on their grid", id="check-gc-origin"),
    pytest.param(_GC, {name: _field_csv("nan")
                       for name in ("h11.csv", "h12.csv", "h22.csv")},
                 1, "bad header value '8,8,nan,0.01'", id="check-gc-nan-hx"),
    pytest.param(["profile", *_K, "--step", "1e400"], {}, 1, "'step'",
                 id="step-overflow"),
    pytest.param(["profile", *_K, "--step", "1e300"], {}, 1,
                 "to no step", id="step-beyond-range"),
    pytest.param([*_OPT, "--tol", "1e400"], {}, 1, "'tol'",
                 id="tol-overflow"),
    pytest.param(["optimize", *_K, "--grid", "32,32,1e400,0.01"], {},
                 1, "'hx'", id="grid-overflow"),
    pytest.param([*_OPT, "--origin", "1e400,0"], {}, 1, "'x0'",
                 id="origin-overflow"),
    pytest.param(["realize", *_K, "--grid", "8,8,0.01,0.01",
                  "--k2-init", "1e400"], {}, 1, "'k2_init'",
                 id="k2-init-overflow"),
    pytest.param(["verify", *_K, "--mesh", "s.mesh"],
                 {"s.mesh": "# nx,ny,hx,hy = 0,0,0.01,0.01\n# origin = 0,0\n"
                            "# c = -1\n"}, 1,
                 "mesh lies in the space form c = -1.0, the family in c = 0.0",
                 id="verify-c-disagrees"),
    pytest.param(["realize", *_K, "--k0", "1.5",
                  "--grid", "12,9,1e-3,1e300"], {}, 3,
                 "frame drift nan at node (0, 1)", id="realize-nan-frame"),
    pytest.param(["verify", *_K, "--mesh", "s.mesh"],
                 {"s.mesh": _mesh_text(7, 7, 0.01, 0.01, "v 0 0 0\n" * 49)},
                 1, "grid needs nx, ny >= 8", id="verify-7x7"),
    # rows 1e-320 apart in y, as realize writes them: each column's point
    # repeats ny times, so the recovered g22 is 0 and k2 is 0/0
    pytest.param(["verify", *_K, "--k0", "1.5", "--mesh", "s.mesh"],
                 {"s.mesh": _mesh_text(11, 10, 1e-3, 1e-320, "".join(
                     f"v {i} 0 0\n" for i in range(11) for _ in range(10)))},
                 3, "k2_rel_err is nan", id="verify-nan-report"),
    pytest.param(["realize", *_K, "--k0", "1.5", "--k2-init", "1e-10",
                  "--grid", "8,8,1e-3,1e-3"], {}, 1,
                 "family too short to difference", id="realize-tiny-k2-init"),
    pytest.param(["optimize", *_K, "--grid", "12,9,1e-320,0.5",
                  "--max-iter", "3", "--constraint", "minimal",
                  "--origin=-1e308,0.5"], {}, 3,
                 "non-finite residual at the initial field",
                 id="optimize-overflow"),
    pytest.param([*_OPT, "--max-iter", "-3"], {}, 1, "'max_iter'",
                 id="max-iter-negative"),
    pytest.param([*_OPT, "--seed", "-1"], {}, 1, "'seed'",
                 id="seed-negative"),
    pytest.param(["optimize", *_K, "--grid=-8,8,0.01,0.01"], {}, 1,
                 "'nx'", id="nx-negative"),
    # one BLAS thread always: a config file may not ask for more
    pytest.param(["obstruction", "--config", "run.cfg"],
                 {"run.cfg": "k1 = 2\nk2 = 1\nthreads = 1\n"}, 1,
                 "unknown key 'threads'", id="threads-config"),
    # h11 h22 - h12^2 is inf - inf
    pytest.param(_GC, {name: _field_csv(value="1e200")
                       for name in ("h11.csv", "h12.csv", "h22.csv")}, 3,
                 "numerical failure: gauss_max is nan", id="check-gc-overflow"),
    # hx hy underflows to 0, so the LM weight is 0 and the run converges at
    # F = 0, but the Codazzi L2 norm is 0 times an infinite sum
    pytest.param(["optimize", *_K, "--k0", "1.5",
                  "--grid", "8,8,1e-300,1e-300"], {}, 3,
                 "numerical failure: codazzi_l2 is nan",
                 id="optimize-nan-report"),
    # the LM's gates end these runs, with no numpy warning on the way
    pytest.param([*_OPT, "--constraint", "cmc:1e200"], {}, 3,
                 "non-finite Gauss-Newton step", id="optimize-cmc-overflow"),
    pytest.param(["optimize", "--k1", "1e150", "--k2", "1",
                  "--grid", "8,8,0.01,0.01"], {}, 3,
                 "non-finite Gauss-Newton step", id="optimize-k1-overflow"),
    # mu^2 overflows, and the family's k2 is nan off its anchor: its gates
    # cut it short, with no numpy warning on the way
    pytest.param(["realize", "--k1", "1e150", "--k2", "1",
                  "--grid", "8,8,0.01,0.01"], {}, 1,
                 "family too short to difference", id="realize-k1-overflow"),
    pytest.param(["verify", "--k1", "1e150", "--k2", "1", "--mesh", "s.mesh"],
                 {"s.mesh": _mesh_text(8, 8, 0.01, 0.01, "v 0 0 0\n" * 64)},
                 1, "grid leaves the family range",
                 id="verify-k1-overflow"),
]


@pytest.mark.parametrize("argv, files, code, named", _FAILURES)
def test_failures_are_one_error_line_and_write_nothing(
        tmp_path, monkeypatch, capsys, argv, files, code, named):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run_cli(*argv, "--out", "out.txt") == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert named in lines[0]
    assert not (tmp_path / "out.txt").exists()


# The reports of README's optimize commands, 32x32 with --seed 7, and their
# 64x64 refinements: every line, and the summary line on stdout
_README_REPORTS = {
    "minimal": ("converged=false floor_l2=0.480664", [
        "iterations=8", "converged=false",
        "gauss_max=1.6156211308597677", "gauss_l2=0.48066351369320698",
        "codazzi_max=4.5718187841327815e-14",
        "codazzi_l2=7.0198486533222736e-15",
        "floor_l2=0.48066351369320698", "floor_32x32=0.48066351369320698",
        "floor_64x64=0.48125263788888362", "stop_reason=floor",
        "factorizations=8", "rejected_steps=2", "stop_reason_64x64=floor"]),
    "none": ("converged=true floor_l2=2.86313e-10", [
        "iterations=14", "converged=true",
        "gauss_max=1.1302594193907112e-08",
        "gauss_l2=2.8595440037068371e-10",
        "codazzi_max=5.3344501732555116e-10",
        "codazzi_l2=1.4320230476620812e-11",
        "floor_l2=2.8631274524942271e-10",
        "floor_32x32=2.8631274524942271e-10",
        "floor_64x64=4.9614712024412716e-09", "stop_reason=converged",
        "factorizations=35", "rejected_steps=6",
        "stop_reason_64x64=converged"]),
    "cmc:0.5": ("converged=false floor_l2=0.400763", [
        "iterations=8", "converged=false",
        "gauss_max=1.3656211308597677", "gauss_l2=0.4007632682900294",
        "codazzi_max=1.7837749630973377e-12",
        "codazzi_l2=3.0401951522146584e-13",
        "floor_l2=0.4007632682900294", "floor_32x32=0.4007632682900294",
        "floor_64x64=0.40135226746058777", "stop_reason=floor",
        "factorizations=9", "rejected_steps=2", "stop_reason_64x64=floor"]),
}


@pytest.mark.parametrize("constraint", list(_README_REPORTS))
def test_the_readme_optimize_reports_are_pinned(tmp_path, capsys,
                                                constraint):
    out = tmp_path / "report.txt"
    assert run_cli("optimize", "--k1", "2", "--k2", "1", "--k0", "1.5",
                   "--grid", "32,32,0.01,0.01", "--constraint", constraint,
                   "--seed", "7", "--out", str(out)) == 0
    summary, lines = _README_REPORTS[constraint]
    std = capsys.readouterr()
    assert (std.out, std.err) == (f"optimize: {summary}\n", "")
    assert out.read_text().splitlines() == [f"constraint={constraint}",
                                            "seed=7", *lines]


# The reports of optimize on non-square grids with --seed 7: nx < ny orders
# the unknowns node-major along x, nx > ny along y (`optimize._Problem._grid`)
_NON_SQUARE_REPORTS = {
    ("12,20", "minimal"): ("converged=false floor_l2=0.232425", [
        "iterations=8", "converged=false",
        "gauss_max=1.5413448035067012", "gauss_l2=0.23242497642883986",
        "codazzi_max=1.7587762300936592e-14",
        "codazzi_l2=1.1667453042402444e-15",
        "floor_l2=0.23242497642883986", "floor_12x20=0.23242497642883986",
        "floor_24x40=0.23271495592184649", "stop_reason=floor",
        "factorizations=8", "rejected_steps=2", "stop_reason_24x40=floor"]),
    ("12,20", "none"): ("converged=true floor_l2=8.38876e-10", [
        "iterations=18", "converged=true",
        "gauss_max=2.1866980226548094e-08",
        "gauss_l2=8.3526724156274287e-10",
        "codazzi_max=2.8820030806286923e-09",
        "codazzi_l2=7.7725981207062526e-11",
        "floor_l2=8.3887585075649547e-10",
        "floor_12x20=8.3887585075649547e-10",
        "floor_24x40=9.9233521704815854e-10", "stop_reason=converged",
        "factorizations=35", "rejected_steps=6",
        "stop_reason_24x40=converged"]),
    ("20,12", "minimal"): ("converged=false floor_l2=0.232506", [
        "iterations=8", "converged=false",
        "gauss_max=1.5713253116179533", "gauss_l2=0.23250639726585084",
        "codazzi_max=2.6151469469546446e-14",
        "codazzi_l2=1.854851698337096e-15",
        "floor_l2=0.23250639726585084", "floor_20x12=0.23250639726585084",
        "floor_40x24=0.23279497142568556", "stop_reason=floor",
        "factorizations=8", "rejected_steps=2", "stop_reason_40x24=floor"]),
    ("20,12", "none"): ("converged=true floor_l2=2.42938e-09", [
        "iterations=13", "converged=true",
        "gauss_max=2.2660524456874498e-07",
        "gauss_l2=2.4287265696020421e-09",
        "codazzi_max=2.1791107807089816e-09",
        "codazzi_l2=5.6553019886072323e-11",
        "floor_l2=2.4293849003295335e-09",
        "floor_20x12=2.4293849003295335e-09",
        "floor_40x24=5.5407890739549267e-09", "stop_reason=converged",
        "factorizations=26", "rejected_steps=2",
        "stop_reason_40x24=converged"]),
}


@pytest.mark.parametrize("grid, constraint", list(_NON_SQUARE_REPORTS))
def test_the_non_square_optimize_reports_are_pinned(tmp_path, capsys, grid,
                                                    constraint):
    out = tmp_path / "report.txt"
    assert run_cli("optimize", "--k1", "2", "--k2", "1", "--k0", "1.5",
                   "--grid", f"{grid},0.01,0.01", "--constraint", constraint,
                   "--seed", "7", "--out", str(out)) == 0
    summary, lines = _NON_SQUARE_REPORTS[grid, constraint]
    std = capsys.readouterr()
    assert (std.out, std.err) == (f"optimize: {summary}\n", "")
    assert out.read_text().splitlines() == [f"constraint={constraint}",
                                            "seed=7", *lines]


def test_an_overflowing_lm_run_reports_finite_floors_silently(tmp_path,
                                                              capsys):
    # hy = 1e300 overflows the residual's gradient and CG's products, which
    # the LM leaves to its gates; the floors themselves are finite
    out = tmp_path / "report.txt"
    assert run_cli("optimize", *_K, "--grid", "9,12,1/3,1e300",
                   "--out", str(out)) == 0
    std = capsys.readouterr()
    assert std.err == ""
    assert std.out == "optimize: converged=false floor_l2=1.99766e+151\n"
    rep = read_kv_lines(out)
    assert all(np.isfinite(float(rep[key])) for key in rep
               if key.startswith(("gauss_", "codazzi_", "floor_")))


_EXITS = {
    # every workbench error: its exit code and the label of its error line
    errors.HcmuError: (3, ""),
    errors.InadmissibleParams: (2, "inadmissible parameters: "),
    errors.NumericalFailure: (3, "numerical failure: "),
    errors.StepTooLarge: (3, "numerical failure: "),
    errors.FrameDrift: (3, "numerical failure: "),
    errors.NonFiniteIterate: (3, "numerical failure: "),
    errors.PathLeavesDomain: (3, ""),
    errors.AlgebraConsistencyError: (3, ""),
    errors.FormatError: (1, ""),
    errors.ConfigError: (1, ""),
    ValueError: (1, ""),
    OSError: (1, ""),
}


def test_the_exit_table_names_every_workbench_error():
    workbench = {t for t in vars(errors).values()
                 if isinstance(t, type) and issubclass(t, errors.HcmuError)}
    assert workbench == set(_EXITS) - {ValueError, OSError}


@pytest.mark.parametrize("error", list(_EXITS), ids=lambda t: t.__name__)
def test_each_error_exits_with_its_code_and_one_labelled_line(
        monkeypatch, capsys, error):
    def fail(cfg):
        if error is errors.InadmissibleParams:
            raise error("K1 = -1", "K1 > 0")
        raise error("K1 = -1")

    _, help_text, params = cli._COMMANDS["obstruction"]
    monkeypatch.setitem(cli._COMMANDS, "obstruction", (fail, help_text, params))
    code, label = _EXITS[error]
    assert run_cli("obstruction", "--k1", "2") == code
    assert capsys.readouterr() == ("", f"error: {label}K1 = -1\n")


def test_the_config_keys_are_the_commands_parameters():
    assert cli._CONFIG_KEYS == {
        "k1", "k2", "c", "k0", "k2_init", "grid", "origin", "seed", "tol",
        "max_iter", "step", "x_min", "x_max", "constraint", "out",
        "h11", "h12", "h22", "mesh"}


def test_module_entry_point_runs_in_a_fresh_interpreter(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def hcmu_lab(*argv):
        return subprocess.run([sys.executable, "-m", "hcmu_lab.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)

    done = hcmu_lab("obstruction", "--k1", "2", "--k2", "1", "--c", "0",
                    "--out", "obstruction.txt")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("obstruction: ")
    lines = (tmp_path / "obstruction.txt").read_text().splitlines()
    assert lines[0] == "-56/3 0 0 8" and "verdict=no-root" in lines
    failed = hcmu_lab("profile", "--k1", "2", "--k2", "1", "--step", "1e400",
                      "--out", "profile.csv")
    assert failed.returncode == 1 and failed.stdout == ""
    assert "Traceback" not in failed.stderr
    assert failed.stderr.count("\n") == 1
    assert failed.stderr.startswith("error: value for 'step'")
    assert not (tmp_path / "profile.csv").exists()


# Runs `import hcmu_lab`, then each argv read from stdin through cli.main,
# all in one fresh interpreter, and prints as JSON whether numpy and scipy
# are loaded after each step, with the exit code and OPENBLAS_NUM_THREADS;
# the first step also lists the exported names that dir() leaves out.
_LOADS = """
import json, os, sys
loaded = lambda: ["numpy" in sys.modules, "scipy" in sys.modules]
import hcmu_lab
steps = [loaded() + [sorted(set(hcmu_lab.__all__) - set(dir(hcmu_lab)))]]
from hcmu_lab.cli import main
for argv in sys.stdin.read().splitlines():
    code = main(argv.split())
    steps.append([code, *loaded(), os.environ.get("OPENBLAS_NUM_THREADS")])
print(json.dumps(steps))
"""


def test_each_command_loads_only_what_it_needs(tmp_path):
    for name in ("h11", "h12", "h22"):
        (tmp_path / f"{name}.csv").write_text(_field_csv())
    k = "--k1 2 --k2 1 --k0 1.5"
    commands = [
        "obstruction --k1 2 --k2 1 --out obstruction.txt",
        f"profile {k} --x-min -0.5 --x-max 0.5 --step 0.01 --out profile.csv",
        f"realize {k} --grid 21,11,0.002,0.002 --origin=-0.02,0 "
        "--out mesh.txt",
        f"verify {k} --mesh mesh.txt --out verify.txt",
        f"check-gc {k} --h11 h11.csv --h12 h12.csv --h22 h22.csv "
        "--out gc.txt",
        f"optimize {k} --grid 8,8,0.01,0.01 --max-iter 2 --out opt.txt",
    ]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", _LOADS],
                          input="\n".join(commands), cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.splitlines()[-1])
    # (exit code, numpy loaded, scipy loaded, OPENBLAS_NUM_THREADS): the
    # first run sets it to 1 over the 2 it inherits, before numpy loads
    assert steps == [[False, False, []],
                     [0, False, False, "1"],
                     [0, True, False, "1"],
                     [0, True, False, "1"],
                     [0, True, False, "1"],
                     [0, True, False, "1"],
                     [0, True, True, "1"]]


def test_file_errors_exit_1_with_one_error_line(tmp_path, capsys):
    missing_dir = tmp_path / "no-such-dir" / "obs.txt"
    assert run_cli("obstruction", "--k1", "2", "--k2", "1",
                   "--out", str(missing_dir)) == 1
    assert run_cli("verify", "--k1", "2", "--k2", "1", "--k0", "1.5",
                   "--mesh", str(tmp_path / "no-such.mesh"),
                   "--out", str(tmp_path / "verify.txt")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: ") for line in err)
    assert "no-such-dir" in err[0] and "no-such.mesh" in err[1]


def test_huge_exponents_exit_1_at_once(tmp_path, capsys):
    out = str(tmp_path / "out.txt")
    for argv in (["obstruction", "--k1", "1e100000000", "--k2", "1"],
                 ["profile", "--k1", "2", "--k2", "1",
                  "--step", "1e-100000000"]):
        start = time.perf_counter()
        assert run_cli(*argv, "--out", out) == 1
        assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("neither decimal nor rational" in line
                                 for line in err)


def test_a_profile_beyond_the_step_cap_fails_before_its_first_step(
        tmp_path, capsys):
    # 1e-300 would plan 5e300 RK4 steps on [-5, 5]; 1e-320, a subnormal,
    # makes 5/step infinite, which round() could not take
    mesh = str(tmp_path / "s.mesh")
    assert run_cli("realize", *_K, "--grid", "8,8,0.01,0.01",
                   "--out", mesh) == 0
    capsys.readouterr()
    out = tmp_path / "out.txt"
    for argv in (["profile", *_K, "--step", "1e-300"],
                 ["profile", *_K, "--step", "1e-320"],
                 ["realize", *_K, "--grid", "8,8,0.01,0.01",
                  "--step", "1e-300"],
                 ["verify", *_K, "--mesh", mesh, "--step", "1e-300"]):
        start = time.perf_counter()
        assert run_cli(*argv, "--out", str(out)) == 1
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("error: step ") and
               f"more than {profile.MAX_PROFILE_STEPS} steps" in line
               for line in lines), lines


def test_exact_parameters_are_bounded_in_digits(tmp_path, capsys):
    out = str(tmp_path / "out.txt")
    bound = cli.MAX_EXACT_DIGITS
    at_bound = "9" * bound
    assert run_cli("obstruction", "--k1", at_bound, "--k2", "1",
                   "--c", f"1/{at_bound}", "--out", out) == 0
    capsys.readouterr()
    for argv in (["--k1", "1e1000", "--k2", "1"],
                 ["--k1", f"1{at_bound}", "--k2", "1"],
                 ["--k1", "2", f"--k2=-1/1{at_bound}"],
                 ["--k1", "2", "--k2", "1", "--c", f"1e-{bound}"]):
        start = time.perf_counter()
        assert run_cli("obstruction", *argv, "--out", out) == 1
        assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(
        line.startswith("error: value for ") and f"{bound} digits" in line
        for line in err)
    # the bound holds in every command, and on K1, K2 and c alone
    assert run_cli("profile", "--k1", "1e1000", "--k2", "1",
                   "--out", out) == 1
    assert "digits" in capsys.readouterr().err
    assert cli.Config({"tol": "1e-300"}).fraction("tol") == Fraction(1, 10 ** 300)


def test_verify_takes_the_mesh_from_a_config_file(tmp_path):
    mesh_path = tmp_path / "mesh.txt"
    assert run_cli("realize", "--k1", "2", "--k2", "1", "--k0", "1.5",
                   "--k2-init", "1", "--grid", "21,11,0.002,0.002",
                   "--origin=-0.02,0", "--x-min", "-0.5", "--x-max", "0.5",
                   "--out", str(mesh_path)) == 0
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"k1 = 2\nk2 = 1\nk0 = 1.5\nk2_init = 1\n"
                   f"mesh = {mesh_path}\nx_min = -0.5\nx_max = 0.5\n")
    rep_path = tmp_path / "verify.txt"
    assert run_cli("verify", "--config", str(cfg),
                   "--out", str(rep_path)) == 0
    assert float(read_kv_lines(rep_path)["metric_rel_err"]) < 1e-6


def test_a_failed_write_leaves_the_old_output_and_no_temp_file(tmp_path,
                                                               monkeypatch):
    out = tmp_path / "obs.txt"
    out.write_text("previous run\n")

    def lines_then_fail(self):
        yield "verdict=no-root"
        raise RuntimeError("writer failed midway")

    monkeypatch.setattr(algebra.Certificate, "to_lines", lines_then_fail)
    with pytest.raises(RuntimeError, match="midway"):
        cli.main(["obstruction", "--k1", "2", "--k2", "1", "--out", str(out)])

    def pairs():
        yield "gauss_max", "0"
        raise RuntimeError("writer failed midway")

    with pytest.raises(RuntimeError, match="midway"):
        write_kv_lines(pairs(), out)
    assert out.read_text() == "previous run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["obs.txt"]

    # the operating system fails the rename, or a write halfway through
    def no_replace(src, dst):
        raise OSError(errno.EACCES, "Permission denied", src, dst)

    real_write = os.write

    def half_then_disk_full(fd, data):
        real_write(fd, data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    grid = fields.GridDomain.create(profile.validate_params(2, 1), 1.5, 8, 8,
                                    0.01, 0.01)
    mesh = realize.Mesh(np.ones((6, 3)), np.array([[0, 3, 1], [1, 3, 4]]),
                        np.ones((6, 3)), 2, 3, 0.25, 1e-3, -0.05, 0.0, 0.0)
    prof = profile.CurvatureProfile(grid.params, 1.5, 1e-3,
                                    *np.ones((4, 5)))
    writers = [
        lambda path: write_lines(["verdict=no-root", "interval=1 2"], path),
        lambda path: realize.export_mesh(mesh, path),
        lambda path: fields.write_field_csv(np.ones((8, 8)), grid, path),
        lambda path: profile.write_profile_csv(prof, path),
    ]
    for name, fake in (("replace", no_replace),
                       ("write", half_then_disk_full)):
        for writer in writers:
            with monkeypatch.context() as mp:
                mp.setattr(os, name, fake)
                with pytest.raises(OSError) as err:
                    writer(out)
            # the error names the caller's file, not the temporary one
            assert err.value.filename == str(out)
            assert out.read_bytes() == b"previous run\n"
            assert [p.name for p in tmp_path.iterdir()] == ["obs.txt"]
