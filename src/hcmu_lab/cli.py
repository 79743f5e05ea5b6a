"""Deterministic command-line front end.

Subcommands: obstruction | profile | check-gc | optimize | realize | verify,
each declared once in `_COMMANDS` with its function, its help text and the
parameters it reads; the subparsers, the config-file keys and the dispatch
are built from that table.  Exit codes: 0 success, 1 usage/config/file
error, 2 inadmissible params, 3 numerical failure; a workbench error
carries its code and the label of its one ``error:`` line (`errors`).
Identical (argv, config, seed) produce byte-identical output files;
parameters that feed the exact kernel are parsed as exact rationals
(decimal literals are scaled integers, never binary floats).

`run` routes argv by its first word: a command name sends the rest of argv
straight to that command's subparser, and `run` sets ``command`` itself;
any other argv (empty, ``--help``, an unknown command) goes to the top
parser, which would otherwise scan every option before handing the same
words to the subparser.  Both parsers come from the one cached
`_build_parser`, and the two routes give the same exit code, output and
error line.  `run` then merges the config file and the flags into one
`Config`, and every command reads its parameters from it:
`Config.fraction` and `Config.real` take exact rationals (a float beyond
the double range is a usage error), `Config.integer` takes non-negative
integers, and the parts of ``grid`` and ``origin`` are read by the same
two.

Each command imports the modules it calls when it runs, so `obstruction`
loads neither numpy nor scipy and only `optimize` loads scipy.  That also
lets `run` pin OpenBLAS to one thread before numpy first loads; see `run`.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (EXIT_OK, EXIT_USAGE, ConfigError, HcmuError,
                     InadmissibleParams)
from .ratpoly import as_fraction
from .textio import fmt17, kv_records, read_text, write_kv_lines, write_lines

# K1, K2 and c feed the exact kernel.  Phi's coefficients have up to about
# seven times as many digits as these (1,400 at the bound, well under
# CPython's 4,300-digit int-to-str limit).  The slowest bounded input
# measured, K1 = 10^200 - 1, K2 = 1, c = 1/K1, bisects its root about 700
# times and certifies in about 7 ms (0.07 s for the whole command; 2 vCPUs,
# Python 3.11); at 1,000 digits it took 0.43 s and could not be written.
MAX_EXACT_DIGITS = 200
_EXACT_KEYS = ("k1", "k2", "c")


@dataclass
class Config:
    """Raw parameter bag: the merged config file and flags."""

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


def _params_from(cfg: Config) -> tuple[profile.HcmuParams, float]:
    """cfg's admissible (K1, K2, c), and K0: cfg's k0 or (K1 + K2) / 2."""
    from . import profile
    params = profile.validate_params(cfg.real("k1"), cfg.real("k2"),
                                     cfg.real("c", "0"))
    if cfg.get("k0") is not None:
        k0 = cfg.real("k0")
    else:
        k0 = 0.5 * (params.k1 + params.k2)
    if not params.k2 < k0 < params.k1:
        raise InadmissibleParams(
            f"K0 = {k0} violates K2 < K0 < K1", "K2 < K0 < K1"
        )
    return params, k0


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


# -- subcommands -----------------------------------------------------------------


def _cmd_obstruction(cfg: Config) -> None:
    from . import algebra
    k1 = cfg.fraction("k1")
    k2 = cfg.fraction("k2")
    c = cfg.fraction("c", "0")
    cubic = algebra.CubicData.from_extremes(k1, k2)
    phi = algebra.obstruction_poly(cubic, c)
    cert = algebra.certify_nonvanishing(phi, (cubic.k2, cubic.k1))
    algebra.write_obstruction_file(phi, cert, cfg.require("out"))
    print(f"obstruction: {algebra.poly_to_line(phi)}; {cert}")


def _cmd_profile(cfg: Config) -> None:
    from . import profile
    params, k0 = _params_from(cfg)
    x_min = cfg.real("x_min", "-5")
    x_max = cfg.real("x_max", "5")
    step = cfg.real("step", "0.001")
    prof = profile.solve_curvature_ode(params, k0, (x_min, x_max), step)
    profile.write_profile_csv(prof, cfg.require("out"))
    print(f"profile: {prof.xs.size} samples, K in "
          f"[{prof.Ks[0]:.6g}, {prof.Ks[-1]:.6g}]")


def _cmd_check_gc(cfg: Config) -> None:
    from . import fields
    params, k0 = _params_from(cfg)
    comps, metas = zip(*(fields.read_field_csv(cfg.require(name))
                         for name in ("h11", "h12", "h22")))
    grids = {(m["nx"], m["ny"], m["hx"], m["hy"], m.get("x0", 0.0),
              m.get("y0", 0.0)) for m in metas}
    if len(grids) != 1:
        raise ConfigError("field components disagree on their grid")
    nx, ny, hx, hy, x0, y0 = grids.pop()
    grid = fields.GridDomain.create(params, k0, nx, ny, hx, hy, (x0, y0))
    norms = fields.residual_norms(fields.ShapeField(grid, *comps), params.c)
    pairs = list(zip(fields.NORM_NAMES[:4], map(fmt17, norms)))
    write_kv_lines(pairs, cfg.require("out"))
    print("check-gc: " + ", ".join(f"{k}={v}" for k, v in pairs))


def _cmd_optimize(cfg: Config) -> None:
    from . import fields, optimize
    params, k0 = _params_from(cfg)
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


def _family_from(cfg: Config, params, k0, nx: int, hx: float, x0: float):
    """The diagonal family for a grid of nx columns hx apart from x0.

    The family is sampled on the x lattice that `profile` would write, with
    K from the closed form; no profile is marched.  Unless the config sets
    x_min or x_max, the lattice spans the grid's columns and the anchor
    x = 0 with 0.5 to spare on either side.
    """
    from . import profile, realize
    x_pad = abs(x0) + nx * hx + 0.5
    x_min = cfg.real("x_min", str(-x_pad))
    x_max = cfg.real("x_max", str(x_pad))
    step = cfg.real("step", "0.001")
    xs, _ = profile._x_lattice((x_min, x_max), step)
    return realize.sample_codazzi_family(params, k0, xs, step, params.c,
                                         cfg.real("k2_init", "1"))


def _cmd_realize(cfg: Config) -> None:
    from . import realize
    params, k0 = _params_from(cfg)
    grid = _grid_from(cfg, params, k0)
    family = _family_from(cfg, params, k0, grid.nx, grid.hx, grid.x0)
    mesh = realize.integrate_frame(family, grid)
    realize.export_mesh(mesh, cfg.require("out"))
    print(f"realize: {mesh.vertices.shape[0]} vertices, "
          f"{mesh.faces.shape[0]} faces, ambient dim {mesh.vertices.shape[1]}")


def _cmd_verify(cfg: Config) -> None:
    from . import realize
    params, k0 = _params_from(cfg)
    mesh = realize.parse_mesh(cfg.require("mesh"))
    family = _family_from(cfg, params, k0, mesh.nx, mesh.hx, mesh.x0)
    report = realize.verify_immersion(mesh, family)
    write_lines(report.to_lines(), cfg.require("out"))
    print(f"verify: metric_rel_err={report.metric_rel_err:.3e} "
          f"weingarten_spread={report.weingarten_spread:.3e} "
          f"cmc={str(report.cmc_flag).lower()}")


# name: (function, help text, the parameters it reads in --help order)
_COMMANDS = {
    "obstruction": (_cmd_obstruction, "emit obstruction cubic + certificate",
                    ("k1", "k2", "c")),
    "profile": (_cmd_profile, "emit curvature profile CSV",
                ("k1", "k2", "c", "k0", "x_min", "x_max", "step")),
    "check-gc": (_cmd_check_gc, "residual report for a shape field",
                 ("k1", "k2", "c", "k0", "h11", "h12", "h22")),
    "optimize": (_cmd_optimize, "constrained residual minimization",
                 ("k1", "k2", "c", "k0", "grid", "origin", "seed", "tol",
                  "max_iter", "constraint")),
    "realize": (_cmd_realize, "integrate a frame into a mesh",
                ("k1", "k2", "c", "k0", "k2_init", "grid", "origin", "step",
                 "x_min", "x_max")),
    "verify": (_cmd_verify, "re-check a realized mesh",
               ("k1", "k2", "c", "k0", "k2_init", "mesh", "step", "x_min",
                "x_max")),
}
_CONFIG_KEYS = {"out"}.union(
    *(params for _, _, params in _COMMANDS.values()))


class _Parser(argparse.ArgumentParser):
    """Raises `ConfigError` (exit 1, one ``error:`` line) on a usage error
    where argparse prints its usage block and exits 2; subparsers inherit it."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The one parser of this process and its subparsers by command name,
    built on first use.

    They keep no state between calls: each ``parse_args`` fills a fresh
    Namespace, so a run, a usage error or ``--help`` leaves nothing behind
    for the next call of `main` in the same process.
    """
    top = _Parser(
        prog="hcmu-lab",
        description="Extremal-metric curvature profiles, integrability "
                    "certificates, and hypersurface realization.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help_text, params) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--out", help="output file (required, never implicit)")
        for n in params:
            p.add_argument("--" + n.replace("_", "-"), dest=n)
    return top, sub.choices


def run(argv: list[str]) -> int:
    """Parse argv, routed by its first word, and run its command on the
    merged parameters.

    Flags override the config file.  A process that has not loaded numpy
    yet gets one BLAS thread, whatever the environment asks for: OpenBLAS
    reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads, and a threaded
    reduction sums in another order, so it changes a report's last bits.
    """
    top, commands = _build_parser()
    if argv and argv[0] in commands:
        args = commands[argv[0]].parse_args(
            argv[1:], argparse.Namespace(command=argv[0]))
    else:
        args = top.parse_args(argv)
    cfg = parse_config(args.config) if args.config else Config()
    for name, val in vars(args).items():
        if val is not None and name not in ("command", "config"):
            cfg.values[name] = val
    if "numpy" not in sys.modules:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _COMMANDS[args.command][0](cfg)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(argv)
    except SystemExit:
        # argparse exits only after --help; usage errors raise ConfigError
        return EXIT_OK
    except HcmuError as e:
        print(f"error: {e.label}{e}", file=sys.stderr)
        return e.exit_code
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
