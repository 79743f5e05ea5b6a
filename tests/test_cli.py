import argparse
import contextlib
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

from hcmu_lab import algebra, cli, optimize, profile
from hcmu_lab.errors import ConfigError
from hcmu_lab.profile import read_profile_csv
from hcmu_lab.ratpoly import ISOLATION_WIDTH
from hcmu_lab.realize import parse_mesh
from hcmu_lab.textio import read_kv_lines, write_kv_lines


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
    params = cli._params_from(cfg)
    assert params.kind == "cusp"


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
    subs = next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    flags = {o for p in subs.choices.values() for a in p._actions
             for o in a.option_strings}
    return sorted(subs.choices), sorted(flags - {"-h", "--help"})


_COMMAND_NAMES, _FLAG_NAMES = _argv_vocabulary()
_JUNK = ["1", "-1", "2/3", "x", "cmc:0.5", "minimal", "a.cfg", "32,32,0.01,0.01"]
# each is rejected wherever it stands: an unknown option, or --threads=x,
# which the run checks before its command unless a later --threads replaces
# it (so none is drawn after it; test_threads_precedence_flag_env_config
# checks that the last one wins)
_REJECTED = ["--bogus", "-z", "--threads=x", "--seed-x"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_COMMAND_NAMES + _FLAG_NAMES + _JUNK),
                max_size=8),
       st.sampled_from(_REJECTED), st.integers(0, 8))
def test_argv_errors_are_one_error_line_and_exit_1(tokens, bad, at):
    after = [t for t in tokens[at:] if bad != "--threads=x" or t != "--threads"]
    argv = tokens[:at] + [bad] + after
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code == 1, argv
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Traceback" not in err.getvalue()


def test_help_exits_0():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run_cli("optimize", "--help") == 0
    assert "--constraint" in out.getvalue()


def test_numerical_failure_exit_3(tmp_path):
    out = tmp_path / "x.csv"
    code = run_cli("profile", "--k1", "2", "--k2", "1", "--k0", "1.5",
                   "--step", "2.0", "--out", str(out))
    assert code == 3


def test_obstruction_file_contents(tmp_path):
    out = tmp_path / "obs.txt"
    assert run_cli("obstruction", "--k1", "2", "--k2", "1", "--c", "0",
                   "--out", str(out)) == 0
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
    assert (rep["factorizations"], rep["rejected_steps"]) == ("9", "2")
    assert rep["stop_reason_24x24"] in {"converged", "stalled", "max_iter",
                                        "floor", "lam_max"}
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


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("HCMU_LAB_THREADS", "not-an-int")
    out = tmp_path / "obs.txt"
    assert run_cli("obstruction", "--k1", "2", "--k2", "1",
                   "--out", str(out)) == 1
    monkeypatch.setenv("HCMU_LAB_THREADS", "2")
    assert run_cli("obstruction", "--k1", "2", "--k2", "1",
                   "--out", str(out)) == 0


def test_threads_precedence_flag_env_config(tmp_path, monkeypatch):
    # the flag overrides HCMU_LAB_THREADS, which overrides the config file;
    # of repeated flags the last wins
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k1 = 2\nk2 = 1\nthreads = lots\n")
    out = tmp_path / "obs.txt"

    def obstruction(*argv):
        return run_cli("obstruction", "--config", str(cfg), *argv,
                       "--out", str(out))

    monkeypatch.setenv("HCMU_LAB_THREADS", "not-an-int")
    assert obstruction() == 1
    assert obstruction("--threads", "2") == 0
    monkeypatch.setenv("HCMU_LAB_THREADS", "2")
    assert obstruction() == 0
    assert obstruction("--threads", "x") == 1
    assert obstruction("--threads=x", "--threads", "1") == 0
    assert obstruction("--threads", "1", "--threads=x") == 1
    monkeypatch.delenv("HCMU_LAB_THREADS")
    assert obstruction() == 1
    assert obstruction("--threads", "0") == 0


def _field_csv(hx="0.01", origin="0,0"):
    rows = "0,0,0,0,0,0,0,0\n" * 8
    return f"# nx,ny,hx,hy = 8,8,{hx},0.01\n# origin = {origin}\n{rows}"


_K = ["--k1", "2", "--k2", "1"]
_OPT = ["optimize", *_K, "--k0", "1.5", "--grid", "8,8,0.01,0.01"]
_GC = ["check-gc", *_K, "--h11", "h11.csv", "--h12", "h12.csv",
       "--h22", "h22.csv"]
_FAILURES = [
    # argv, files written first, HCMU_LAB_THREADS, exit code, the error's text
    pytest.param(["profile", *_K, "--k0", "3"], {}, None, 2, "K2 < K0 < K1",
                 id="k0-outside"),
    pytest.param(["obstruction", "--k2", "1"], {}, None, 1, "'k1'",
                 id="missing-k1"),
    pytest.param(["verify", *_K], {}, None, 1, "'mesh'", id="missing-mesh"),
    pytest.param([*_OPT, "--seed", "x"], {}, None, 1, "'seed'",
                 id="non-integer"),
    pytest.param(["obstruction", "--config", "missing.cfg"], {}, None, 1,
                 "cannot open config file", id="unreadable-config"),
    pytest.param(["optimize", *_K, "--grid", "8,8,0.01"], {}, None, 1,
                 "grid must be nx,ny,hx,hy", id="grid-parts"),
    pytest.param([*_OPT, "--origin", "0"], {}, None, 1,
                 "origin must be x0,y0", id="origin-parts"),
    pytest.param(["optimize", *_K, "--grid", "8,8,0.01,1/0"], {}, None, 1,
                 "'hy'", id="grid-part-value"),
    pytest.param(_GC, {"h11.csv": _field_csv(), "h12.csv": _field_csv("0.5"),
                       "h22.csv": _field_csv()}, None, 1,
                 "disagree on their grid", id="check-gc-hx"),
    pytest.param(_GC, {"h11.csv": _field_csv(), "h12.csv": _field_csv(),
                       "h22.csv": _field_csv(origin="7,0")}, None, 1,
                 "disagree on their grid", id="check-gc-origin"),
    pytest.param(_GC, {name: _field_csv("nan")
                       for name in ("h11.csv", "h12.csv", "h22.csv")}, None,
                 1, "bad header value '8,8,nan,0.01'", id="check-gc-nan-hx"),
    pytest.param(["profile", *_K, "--step", "1e400"], {}, None, 1, "'step'",
                 id="step-overflow"),
    pytest.param(["profile", *_K, "--step", "1e300"], {}, None, 1,
                 "to no step", id="step-beyond-range"),
    pytest.param([*_OPT, "--tol", "1e400"], {}, None, 1, "'tol'",
                 id="tol-overflow"),
    pytest.param(["optimize", *_K, "--grid", "32,32,1e400,0.01"], {}, None,
                 1, "'hx'", id="grid-overflow"),
    pytest.param([*_OPT, "--origin", "1e400,0"], {}, None, 1, "'x0'",
                 id="origin-overflow"),
    pytest.param(["realize", *_K, "--grid", "8,8,0.01,0.01",
                  "--k2-init", "1e400"], {}, None, 1, "'k2_init'",
                 id="k2-init-overflow"),
    pytest.param(["verify", *_K, "--mesh", "s.mesh"],
                 {"s.mesh": "# nx,ny,hx,hy = 0,0,0.01,0.01\n# origin = 0,0\n"
                            "# c = -1\n"}, None, 1,
                 "mesh lies in the space form c = -1.0, the family in c = 0.0",
                 id="verify-c-disagrees"),
    pytest.param(["realize", *_K, "--k0", "1.5",
                  "--grid", "12,9,1e-3,1e300"], {}, None, 3,
                 "frame drift nan at node (0, 1)", id="realize-nan-frame"),
    pytest.param(["optimize", *_K, "--grid", "12,9,1e-320,0.5",
                  "--max-iter", "3", "--constraint", "minimal",
                  "--origin=-1e308,0.5"], {}, None, 3,
                 "non-finite residual at the initial field",
                 id="optimize-overflow"),
    pytest.param([*_OPT, "--max-iter", "-3"], {}, None, 1, "'max_iter'",
                 id="max-iter-negative"),
    pytest.param([*_OPT, "--seed", "-1"], {}, None, 1, "'seed'",
                 id="seed-negative"),
    pytest.param(["optimize", *_K, "--grid=-8,8,0.01,0.01"], {}, None, 1,
                 "'nx'", id="nx-negative"),
    pytest.param(["obstruction", *_K, "--threads", "-1"], {}, None, 1,
                 "'threads'", id="threads-negative"),
    pytest.param(["obstruction", *_K], {}, "-1", 1, "'threads'",
                 id="threads-env-negative"),
    pytest.param(["obstruction", "--config", "run.cfg"],
                 {"run.cfg": "k1 = 2\nk2 = 1\nthreads = lots\n"}, None, 1,
                 "'threads'", id="threads-config-lots"),
]


@pytest.mark.parametrize("argv, files, threads, code, named", _FAILURES)
def test_failures_are_one_error_line_and_write_nothing(
        tmp_path, monkeypatch, capsys, argv, files, threads, code, named):
    monkeypatch.chdir(tmp_path)
    if threads is None:
        monkeypatch.delenv("HCMU_LAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("HCMU_LAB_THREADS", threads)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run_cli(*argv, "--out", "out.txt") == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert named in lines[0]
    assert not (tmp_path / "out.txt").exists()


def test_module_entry_point_runs_in_a_fresh_interpreter(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("HCMU_LAB_THREADS", None)

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
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("HCMU_LAB_THREADS", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    done = subprocess.run([sys.executable, "-c", _LOADS],
                          input="\n".join(commands), cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.splitlines()[-1])
    # (exit code, numpy loaded, scipy loaded, the BLAS cap: 1 by default)
    assert steps == [[False, False, []],
                     [0, False, False, "1"],
                     [0, True, False, "1"],
                     [0, True, False, "1"],
                     [0, True, False, "1"],
                     [0, True, False, "1"],
                     [0, True, True, "1"]]


def test_the_blas_cap_is_clamped_and_set_only_before_numpy(monkeypatch,
                                                            tmp_path):
    cap = cli._blas_threads
    cpus = str(os.cpu_count() or 1)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert cap(cli.Config()) == "1"
    assert cap(cli.Config({"threads": "1"})) == "1"
    assert cap(cli.Config({"threads": str(10**6)})) == cpus
    assert cap(cli.Config({"threads": "0"})) is None
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert cap(cli.Config()) is None
    assert cap(cli.Config({"threads": str(10**6)})) == cpus
    with pytest.raises(ConfigError, match="'threads'"):
        cap(cli.Config({"threads": "-2"}))
    # numpy is loaded in this process, so a run leaves the variable alone
    assert run_cli("obstruction", "--k1", "2", "--k2", "1", "--threads",
                   str(10**6), "--out", str(tmp_path / "obs.txt")) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


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
