"""Deterministic command-line front end.

Subcommands: obstruction | profile | check-gc | optimize | realize | verify.
Exit codes: 0 success, 1 usage/config/file error, 2 inadmissible params,
3 numerical failure.  Identical (argv, config, seed) produce byte-identical
output files; parameters that feed the exact kernel are parsed as exact
rationals (decimal literals are scaled integers, never binary floats).

`run` merges the config file, ``HCMU_LAB_THREADS`` and the flags into one
`Config`, and every command reads its parameters from it: `Config.fraction`
and `Config.real` take exact rationals (a float beyond the double range is
a usage error), `Config.integer` takes non-negative integers, and the
parts of ``grid`` and ``origin`` are read by the same two.

Each command imports the modules it calls when it runs, so `obstruction`
loads neither numpy nor scipy and only `optimize` loads scipy.  That also
lets `run` cap OpenBLAS's threads (``OPENBLAS_NUM_THREADS``) from the merged
``threads`` before numpy first loads; see `_blas_threads`.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    EXIT_INADMISSIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    FormatError,
    HcmuError,
    InadmissibleParams,
    NumericalFailure,
)
from .ratpoly import as_fraction
from .textio import fmt17, kv_records, read_text, write_kv_lines, write_lines

_CONFIG_KEYS = {
    "k1", "k2", "c", "k0", "k2_init", "grid", "origin", "seed", "tol",
    "max_iter", "step", "x_min", "x_max", "constraint", "threads",
    "out", "h11", "h12", "h22", "mesh",
}

# K1, K2 and c feed the exact kernel.  Phi's coefficients have up to about
# seven times as many digits as these (1,400 at the bound, well under
# CPython's 4,300-digit int-to-str limit), and the slowest bounded input
# measured certifies in about 0.3 s; at 1,000 digits it took 2 s and
# could not be written.
MAX_EXACT_DIGITS = 200
_EXACT_KEYS = ("k1", "k2", "c")


@dataclass
class Config:
    """Raw parameter bag: the merged config file, environment and flags."""

    values: dict[str, str] = field(default_factory=dict)

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str, default=None) -> str:
        raw = self.values.get(key, default)
        if raw is None:
            raise ConfigError(f"missing required parameter {key!r}")
        return raw

    def fraction(self, key: str, default=None) -> Fraction:
        raw = self.require(key, default)
        try:
            value = as_fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"value for {key!r} is neither decimal nor rational: {raw!r}"
            ) from None
        if key in _EXACT_KEYS and max(abs(value.numerator), value.denominator
                                      ) >= 10 ** MAX_EXACT_DIGITS:
            raise ConfigError(
                f"value for {key!r} has more than {MAX_EXACT_DIGITS} digits "
                "in its numerator or denominator"
            )
        return value

    def real(self, key: str, default=None) -> float:
        try:
            return float(self.fraction(key, default))
        except OverflowError:
            raise ConfigError(f"value for {key!r} is beyond the double "
                              f"range: {self.get(key, default)!r}") from None

    def integer(self, key: str, default=None) -> int:
        raw = self.require(key, default)
        try:
            value = int(raw)
        except ValueError:
            value = None
        if value is None or value < 0:
            raise ConfigError(
                f"value for {key!r} is not a non-negative integer: {raw!r}")
        return value


def parse_config(path) -> Config:
    """Read ``key = value`` lines into a Config.

    A '#' comment may end any line; unknown, duplicate and empty keys fail.
    """
    try:
        text = read_text(path, ConfigError)
    except OSError as e:
        raise ConfigError(f"cannot open config file: {e}") from None
    values: dict[str, str] = {}
    lines = (line.split("#", 1)[0] for line in text.split("\n"))
    for ln, key, value in kv_records(lines, ConfigError):
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", ln)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", ln)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", ln)
        values[key] = value
    return Config(values)


def _split(cfg: Config, key: str, names, default=None) -> Config:
    """The comma-separated parts of key's value, as a Config keyed by names."""
    raw = cfg.require(key, default)
    parts = raw.split(",")
    if len(parts) != len(names):
        raise ConfigError(f"{key} must be {','.join(names)}, got {raw!r}")
    return Config(dict(zip(names, parts)))


def _params_from(cfg: Config) -> profile.HcmuParams:
    from . import profile
    k1 = cfg.real("k1")
    k2 = cfg.real("k2")
    c = cfg.real("c", "0")
    return profile.validate_params(k1, k2, c)


def _grid_from(cfg: Config, params, k0) -> fields.GridDomain:
    from . import fields
    grid = _split(cfg, "grid", ("nx", "ny", "hx", "hy"), "32,32,0.05,0.05")
    nx, ny = grid.integer("nx"), grid.integer("ny")
    hx, hy = grid.real("hx"), grid.real("hy")
    if cfg.get("origin") is None:
        x0, y0 = -0.5 * (nx - 1) * hx, 0.0
    else:
        origin = _split(cfg, "origin", ("x0", "y0"))
        x0, y0 = origin.real("x0"), origin.real("y0")
    return fields.GridDomain.create(params, k0, nx, ny, hx, hy, (x0, y0))


def _default_k0(cfg: Config, params) -> float:
    if cfg.get("k0") is not None:
        k0 = cfg.real("k0")
    else:
        k0 = 0.5 * (params.k1 + params.k2)
    if not params.k2 < k0 < params.k1:
        raise InadmissibleParams(
            f"K0 = {k0} violates K2 < K0 < K1", "K2 < K0 < K1"
        )
    return k0


# -- subcommands -----------------------------------------------------------------


def _cmd_obstruction(cfg: Config) -> int:
    from . import algebra
    k1 = cfg.fraction("k1")
    k2 = cfg.fraction("k2")
    c = cfg.fraction("c", "0")
    cubic = algebra.CubicData.from_extremes(k1, k2)
    phi = algebra.obstruction_poly(cubic, c)
    cert = algebra.certify_nonvanishing(phi, (cubic.k2, cubic.k1))
    algebra.write_obstruction_file(phi, cert, cfg.require("out"))
    print(f"obstruction: {algebra.poly_to_line(phi)}; {cert}")
    return EXIT_OK


def _cmd_profile(cfg: Config) -> int:
    from . import profile
    params = _params_from(cfg)
    k0 = _default_k0(cfg, params)
    x_min = cfg.real("x_min", "-5")
    x_max = cfg.real("x_max", "5")
    step = cfg.real("step", "0.001")
    prof = profile.solve_curvature_ode(params, k0, (x_min, x_max), step)
    profile.write_profile_csv(prof, cfg.require("out"))
    print(f"profile: {prof.xs.size} samples, K in "
          f"[{prof.Ks[0]:.6g}, {prof.Ks[-1]:.6g}]")
    return EXIT_OK


def _cmd_check_gc(cfg: Config) -> int:
    from . import fields
    params = _params_from(cfg)
    k0 = _default_k0(cfg, params)
    comps, metas = zip(*(fields.read_field_csv(cfg.require(name))
                         for name in ("h11", "h12", "h22")))
    grids = {(m["nx"], m["ny"], m["hx"], m["hy"], m.get("x0", 0.0),
              m.get("y0", 0.0)) for m in metas}
    if len(grids) != 1:
        raise ConfigError("field components disagree on their grid")
    nx, ny, hx, hy, x0, y0 = grids.pop()
    grid = fields.GridDomain.create(params, k0, nx, ny, hx, hy, (x0, y0))
    norms = fields.residual_norms(fields.ShapeField(grid, *comps), params.c)
    pairs = list(zip(("gauss_max", "gauss_l2", "codazzi_max", "codazzi_l2"),
                     map(fmt17, norms)))
    write_kv_lines(pairs, cfg.require("out"))
    print("check-gc: " + ", ".join(f"{k}={v}" for k, v in pairs))
    return EXIT_OK


def _cmd_optimize(cfg: Config) -> int:
    from . import fields, optimize
    params = _params_from(cfg)
    k0 = _default_k0(cfg, params)
    grid = _grid_from(cfg, params, k0)
    try:
        constraint = fields.TraceConstraint.parse(cfg.get("constraint", "none"))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    seed = cfg.integer("seed", "0")
    tol = cfg.real("tol", "1e-8")
    max_iter = cfg.integer("max_iter", "60")
    _, report = optimize.optimize_shape_field(grid, params.c, constraint,
                                              seed=seed, tol=tol,
                                              max_iter=max_iter)
    write_lines(report.to_lines(), cfg.require("out"))
    print(f"optimize: converged={str(report.converged).lower()} "
          f"floor_l2={report.floor_l2:.6g}")
    return EXIT_OK


def _family_from(cfg: Config, params, k0, nx: int, hx: float, x0: float):
    """The diagonal family for a grid of nx columns hx apart from x0.

    Unless the config sets x_min or x_max, the profile spans the grid's
    columns and the anchor x = 0 with 0.5 to spare on either side.
    """
    from . import profile, realize
    x_pad = abs(x0) + nx * hx + 0.5
    x_min = cfg.real("x_min", str(-x_pad))
    x_max = cfg.real("x_max", str(x_pad))
    step = cfg.real("step", "0.001")
    prof = profile.solve_curvature_ode(params, k0, (x_min, x_max), step)
    return realize.solve_codazzi_family(prof, params.c,
                                        cfg.real("k2_init", "1"))


def _cmd_realize(cfg: Config) -> int:
    from . import realize
    params = _params_from(cfg)
    k0 = _default_k0(cfg, params)
    grid = _grid_from(cfg, params, k0)
    family = _family_from(cfg, params, k0, grid.nx, grid.hx, grid.x0)
    mesh = realize.integrate_frame(family, grid)
    realize.export_mesh(mesh, cfg.require("out"))
    print(f"realize: {mesh.vertices.shape[0]} vertices, "
          f"{mesh.faces.shape[0]} faces, ambient dim {mesh.vertices.shape[1]}")
    return EXIT_OK


def _cmd_verify(cfg: Config) -> int:
    from . import realize
    params = _params_from(cfg)
    k0 = _default_k0(cfg, params)
    mesh = realize.parse_mesh(cfg.require("mesh"))
    family = _family_from(cfg, params, k0, mesh.nx, mesh.hx, mesh.x0)
    report = realize.verify_immersion(mesh, family)
    write_lines(report.to_lines(), cfg.require("out"))
    print(f"verify: metric_rel_err={report.metric_rel_err:.3e} "
          f"weingarten_spread={report.weingarten_spread:.3e} "
          f"cmc={str(report.cmc_flag).lower()}")
    return EXIT_OK


_COMMANDS = {
    "obstruction": _cmd_obstruction,
    "profile": _cmd_profile,
    "check-gc": _cmd_check_gc,
    "optimize": _cmd_optimize,
    "realize": _cmd_realize,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """Raises `ConfigError` (exit 1, one ``error:`` line) on a usage error
    where argparse prints its usage block and exits 2; subparsers inherit it."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    It keeps no state between calls: each ``parse_args`` fills a fresh
    Namespace, so a run, a usage error or ``--help`` leaves nothing behind
    for the next call of `main` in the same process.
    """
    top = _Parser(
        prog="hcmu-lab",
        description="Extremal-metric curvature profiles, integrability "
                    "certificates, and hypersurface realization.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *names):
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--threads",
                       help="cap on BLAS threads, at most the CPU count; 0 for "
                            "no cap (default 1)")
        p.add_argument("--out", help="output file (required, never implicit)")
        for n in names:
            flag = "--" + n.replace("_", "-")
            p.add_argument(flag, dest=n)

    p = sub.add_parser("obstruction", help="emit obstruction cubic + certificate")
    common(p, "k1", "k2", "c")
    p = sub.add_parser("profile", help="emit curvature profile CSV")
    common(p, "k1", "k2", "c", "k0", "x_min", "x_max", "step")
    p = sub.add_parser("check-gc", help="residual report for a shape field")
    common(p, "k1", "k2", "c", "k0", "h11", "h12", "h22")
    p = sub.add_parser("optimize", help="constrained residual minimization")
    common(p, "k1", "k2", "c", "k0", "grid", "origin", "seed", "tol",
           "max_iter", "constraint")
    p = sub.add_parser("realize", help="integrate a frame into a mesh")
    common(p, "k1", "k2", "c", "k0", "k2_init", "grid", "origin", "step",
           "x_min", "x_max")
    p = sub.add_parser("verify", help="re-check a realized mesh")
    common(p, "k1", "k2", "c", "k0", "k2_init", "mesh", "step", "x_min",
           "x_max")
    return top


def _blas_threads(cfg: Config) -> str | None:
    """The ``OPENBLAS_NUM_THREADS`` value that the merged cfg asks for.

    A ``threads`` value n > 0 gives min(n, CPU count) and 0 gives None, no
    cap.  Without one the cap is 1, or None where the environment sets the
    variable already.  OpenBLAS reads the variable once, when numpy loads,
    so `run` writes the value only in a process that has not loaded numpy.
    """
    if cfg.get("threads") is None:
        return None if "OPENBLAS_NUM_THREADS" in os.environ else "1"
    threads = cfg.integer("threads")
    return str(min(threads, os.cpu_count() or 1)) if threads else None


def run(argv: list[str]) -> int:
    """Parse argv and run its command on the merged parameters.

    A flag overrides ``HCMU_LAB_THREADS``, which overrides the config file.
    """
    args = _build_parser().parse_args(argv)
    cfg = parse_config(args.config) if args.config else Config()
    env = os.environ.get("HCMU_LAB_THREADS")
    if env is not None:
        cfg.values["threads"] = env
    for name, val in vars(args).items():
        if val is not None and name not in ("command", "config"):
            cfg.values[name] = val
    threads = _blas_threads(cfg)
    if threads is not None and "numpy" not in sys.modules:
        os.environ["OPENBLAS_NUM_THREADS"] = threads
    return _COMMANDS[args.command](cfg)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(argv)
    except SystemExit:
        # argparse exits only after --help; usage errors raise ConfigError
        return EXIT_OK
    except InadmissibleParams as e:
        print(f"error: inadmissible parameters: {e}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except NumericalFailure as e:
        print(f"error: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except HcmuError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
