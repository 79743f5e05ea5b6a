"""Deterministic command-line front end.

Subcommands: obstruction | profile | check-gc | optimize | realize | verify.
Exit codes: 0 success, 1 usage/config/file error, 2 inadmissible params,
3 numerical failure.  Identical (argv, config, seed) produce byte-identical
output files; parameters that feed the exact kernel are parsed as exact
rationals (decimal literals are scaled integers, never binary floats).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import algebra, fields, optimize, profile, realize
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
from .textio import read_text, write_kv_lines, write_lines

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
    """Raw parameter bag: CLI flags override config-file entries."""

    values: dict[str, str] = field(default_factory=dict)

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"missing required parameter {key!r}")
        return self.values[key]

    def fraction(self, key: str, default=None) -> Fraction:
        raw = self.get(key, default)
        if raw is None:
            raise ConfigError(f"missing required parameter {key!r}")
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
        return float(self.fraction(key, default))

    def integer(self, key: str, default=None) -> int:
        raw = self.get(key, default)
        if raw is None:
            raise ConfigError(f"missing required parameter {key!r}")
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"value for {key!r} is not an integer: {raw!r}") from None


def parse_config(path) -> Config:
    """Read ``key = value`` lines; '#' comments; unknown or duplicate keys fail."""
    values: dict[str, str] = {}
    try:
        text = read_text(path, ConfigError)
    except OSError as e:
        raise ConfigError(f"cannot open config file: {e}") from None
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", ln)
        key, value = (t.strip() for t in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", ln)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", ln)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", ln)
        values[key] = value
    return Config(values)


def _merge(args: argparse.Namespace) -> Config:
    """The config file's values, overridden by every parameter flag given."""
    cfg = Config()
    if args.config:
        cfg = parse_config(args.config)
    for name, val in vars(args).items():
        if val is not None and name not in ("command", "config", "threads"):
            cfg.values[name] = str(val)
    return cfg


def _params_from(cfg: Config) -> profile.HcmuParams:
    k1 = cfg.real("k1")
    k2 = cfg.real("k2")
    c = cfg.real("c", "0")
    return profile.validate_params(k1, k2, c)


def _grid_from(cfg: Config, params, k0) -> fields.GridDomain:
    raw = cfg.get("grid", "32,32,0.05,0.05")
    try:
        nx_s, ny_s, hx_s, hy_s = raw.split(",")
        nx, ny = int(nx_s), int(ny_s)
        hx, hy = float(as_fraction(hx_s)), float(as_fraction(hy_s))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"grid must be nx,ny,hx,hy, got {raw!r}") from None
    origin_raw = cfg.get("origin")
    if origin_raw is None:
        x0 = -0.5 * (nx - 1) * hx
        y0 = 0.0
    else:
        try:
            x0_s, y0_s = origin_raw.split(",")
            x0, y0 = float(as_fraction(x0_s)), float(as_fraction(y0_s))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"origin must be x0,y0, got {origin_raw!r}") from None
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


def _cmd_obstruction(args) -> int:
    cfg = _merge(args)
    k1 = cfg.fraction("k1")
    k2 = cfg.fraction("k2")
    c = cfg.fraction("c", "0")
    cubic = algebra.CubicData.from_extremes(k1, k2)
    phi = algebra.obstruction_poly(cubic, c)
    cert = algebra.certify_nonvanishing(phi, (cubic.k2, cubic.k1))
    algebra.write_obstruction_file(phi, cert, cfg.require("out"))
    print(f"obstruction: {algebra.poly_to_line(phi)}; {cert}")
    return EXIT_OK


def _cmd_profile(args) -> int:
    cfg = _merge(args)
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


def _cmd_check_gc(args) -> int:
    cfg = _merge(args)
    params = _params_from(cfg)
    k0 = _default_k0(cfg, params)
    comps = {}
    meta = None
    for name in ("h11", "h12", "h22"):
        arr, m = fields.read_field_csv(cfg.require(name))
        comps[name] = arr
        if meta is None:
            meta = m
        elif (m["nx"], m["ny"]) != (meta["nx"], meta["ny"]):
            raise ConfigError("field components disagree on grid shape")
    grid = fields.GridDomain.create(
        params, k0, meta["nx"], meta["ny"], meta["hx"], meta["hy"],
        (meta.get("x0", 0.0), meta.get("y0", 0.0)),
    )
    fld = fields.ShapeField(grid, comps["h11"], comps["h12"], comps["h22"])
    norms = fields.residual_norms(fld, params.c)
    pairs = [(k, "%.17g" % v) for k, v in zip(
        ("gauss_max", "gauss_l2", "codazzi_max", "codazzi_l2"), norms)]
    write_kv_lines(pairs, cfg.require("out"))
    print("check-gc: " + ", ".join(f"{k}={v}" for k, v in pairs))
    return EXIT_OK


def _cmd_optimize(args) -> int:
    cfg = _merge(args)
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
    x_pad = abs(x0) + nx * hx + 0.5
    x_min = cfg.real("x_min", str(-x_pad))
    x_max = cfg.real("x_max", str(x_pad))
    step = cfg.real("step", "0.001")
    prof = profile.solve_curvature_ode(params, k0, (x_min, x_max), step)
    return realize.solve_codazzi_family(prof, params.c,
                                        cfg.real("k2_init", "1"))


def _cmd_realize(args) -> int:
    cfg = _merge(args)
    params = _params_from(cfg)
    k0 = _default_k0(cfg, params)
    grid = _grid_from(cfg, params, k0)
    family = _family_from(cfg, params, k0, grid.nx, grid.hx, grid.x0)
    mesh = realize.integrate_frame(family, grid)
    realize.export_mesh(mesh, cfg.require("out"))
    print(f"realize: {mesh.vertices.shape[0]} vertices, "
          f"{mesh.faces.shape[0]} faces, ambient dim {mesh.vertices.shape[1]}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _merge(args)
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
        p.add_argument("--threads", type=int,
                       help="integer cap on parallelism (no effect: single-threaded)")
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


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "threads", None) is None:
        env = os.environ.get("HCMU_LAB_THREADS")
        if env is not None:
            try:
                args.threads = int(env)
            except ValueError:
                raise ConfigError(
                    f"HCMU_LAB_THREADS is not an integer: {env!r}"
                ) from None
    return _COMMANDS[args.command](args)


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
