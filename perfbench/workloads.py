"""The benchmark's five workloads: seeded inputs, one op, and its output check.

Each workload turns a seed into a list of inputs (the program sees only
those), runs one op per input through the CLI in-process or, where no CLI
exists, through the library API, and checks every output.  Inputs are drawn
with a fixed make-up per block (for example a fixed number of
root-isolating draws among the obstruction draws), so that the cost of a
run does not depend on which seed the run was given.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hcmu_lab import cli, fields, optimize, profile, realize


class CheckFailed(Exception):
    """An op's output is wrong."""


def _cli(argv):
    """Run the CLI in-process; its stdout is discarded, its stderr kept."""
    err = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"hcmu-lab {argv[0]} exited {code}: "
                          f"{err.getvalue().strip()}")


def _read_kv(path) -> dict[str, str]:
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


class Workload:
    """inputs(seed) -> list; run(input, work_dir) -> output; check raises."""

    name = ""
    min_ops = 1   # fewest ops per run
    block = 1     # a run ends on a whole block of the input mix, so that
                  # its median has a fixed make-up

    def counters(self, out) -> dict:
        """Exact per-op counts read from the output, for the traced run."""
        return {}


# -- certify: CLI obstruction, the exact kernel -------------------------------------


def phi_float_coeffs(k1: float, k2: float, c: float) -> list[float]:
    """Phi(K) = 2 P'' (K-c)^2 + P' (K-c) - P, degree-descending floats.

    Expanded by hand from P = -(4/3) K^3 + p1 K + p0 and the identity
    mu mu'' + mu'^2 = P''/2, independently of the exact kernel.
    """
    p1 = 4.0 / 3.0 * (k1 * k1 + k1 * k2 + k2 * k2)
    p0 = -4.0 / 3.0 * k1 * k2 * (k1 + k2)
    return [-56.0 / 3.0, 36.0 * c, -16.0 * c * c, -(p1 * c + p0)]


def real_roots_inside(coeffs, lo: float, hi: float):
    """Real roots of the polynomial strictly inside (lo, hi), and all roots."""
    roots = np.roots(np.asarray(coeffs, dtype=float))
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r))]
    return [r for r in real if lo < r < hi], roots


def _well_separated(roots, lo: float, hi: float) -> bool:
    # Discard draws whose roots sit near an endpoint or near each other, or
    # come as a nearly real complex pair: a float count there is not robust
    # (numpy.roots splits a double root by about 1e-8).
    pts = [lo, hi]
    for r in roots:
        if 0 < abs(r.imag) < 1e-6:
            return False
        if r.imag == 0 or abs(r.imag) <= 1e-9 * max(1.0, abs(r)):
            pts.append(r.real)
    pts.sort()
    return all(b - a > 1e-6 for a, b in zip(pts, pts[1:]))


@dataclass(frozen=True)
class CertifyInput:
    k1: Fraction
    k2: Fraction
    c: Fraction
    roots_inside: int   # the generator's float count, for composition only


# One block of draws: (cusp?, wants a root inside (K2, K1)?).  Three in ten
# isolate a root; a cusp pair always has one there.
_CERTIFY_BLOCK = ((False, True), (False, True), (True, True),
                  (False, False), (False, False), (False, False),
                  (False, False), (False, False), (False, False),
                  (False, False))


def _draw_certify(rng: random.Random, cusp: bool, want_root: bool) -> CertifyInput:
    while True:
        k1 = Fraction(rng.randint(4, 32), 8)
        if cusp:
            k2 = -k1 / 2
        else:
            k2 = -k1 / 2 + Fraction(3, 2) * k1 * Fraction(rng.randint(1, 15), 16)
        for _ in range(64):
            c = Fraction(rng.randint(-48, 48), 8)
            inside, roots = real_roots_inside(
                phi_float_coeffs(float(k1), float(k2), float(c)),
                float(k2), float(k1))
            if bool(inside) == want_root and _well_separated(
                    roots, float(k2), float(k1)):
                return CertifyInput(k1, k2, c, len(inside))


def _phi_exact(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in coeffs:
        acc = acc * x + a
    return acc


def check_obstruction_file(inp: CertifyInput, text: str):
    lines = text.splitlines()
    _require(bool(lines), "empty obstruction file")
    coeffs = [Fraction(t) for t in lines[0].split()]
    _require(len(coeffs) == 4 and coeffs[0] != 0, "cubic is not of degree 3")
    _require(coeffs[0] == Fraction(-56, 3), f"leading coefficient {coeffs[0]}")
    kv: dict[str, str] = {}
    intervals = []
    for line in lines[1:]:
        key, value = line.split("=", 1)
        if key == "root_interval":
            a, b = (Fraction(t) for t in value.split())
            intervals.append((a, b))
        else:
            kv[key] = value
    lo, hi = inp.k2, inp.k1
    _require(kv.get("interval") == f"{lo} {hi}", "certificate interval")
    count = int(kv["root_count"])
    _require(count == len(intervals), "root_count disagrees with root_interval lines")
    _require(kv["verdict"] == ("no-root" if count == 0 else "roots-isolated"),
             f"verdict {kv['verdict']} with {count} roots")
    prev_hi = lo
    for a, b in intervals:
        _require(prev_hi <= a <= b <= hi,
                 f"interval ({a}, {b}) outside ({lo}, {hi}) or out of order")
        if a == b:
            _require(lo < a < hi and _phi_exact(coeffs, a) == 0,
                     f"degenerate interval at {a} is not an inner root")
        else:
            _require(_phi_exact(coeffs, a) * _phi_exact(coeffs, b) < 0,
                     f"no sign change of Phi on ({a}, {b})")
        prev_hi = b
    inside, _ = real_roots_inside([float(a) for a in coeffs], float(lo), float(hi))
    _require(len(inside) == count,
             f"numpy.roots finds {len(inside)} roots, certificate {count}")


class Certify(Workload):
    name = "certify"
    block = len(_CERTIFY_BLOCK)

    def inputs(self, seed: int):
        rng = random.Random(seed)
        return [_draw_certify(rng, cusp, root)
                for _ in range(60) for cusp, root in _CERTIFY_BLOCK]

    def run(self, inp: CertifyInput, work: str):
        path = os.path.join(work, "obstruction.txt")
        _cli(["obstruction", f"--k1={inp.k1}", f"--k2={inp.k2}",
              f"--c={inp.c}", "--out", path])
        return path

    def check(self, inp: CertifyInput, out):
        with open(out) as fh:
            check_obstruction_file(inp, fh.read())


# -- falsify: CLI optimize under the minimal trace constraint --------------------------


_CONTRAST_GRID = ["--k1", "2", "--k2", "1", "--k0", "1.5",
                  "--grid", "32,32,0.01,0.01", "--origin=-0.16,0"]


def check_floors(report: dict[str, str]):
    f32 = float(report["floor_32x32"])
    f64 = float(report["floor_64x64"])
    _require(f32 > 1e-4, f"floor_32x32 = {f32:.3e} is not above 1e-4")
    _require(f64 / f32 >= 0.9, f"floor ratio 64/32 = {f64 / f32:.4f} < 0.9")


class Falsify(Workload):
    name = "falsify"
    min_ops = 2

    def inputs(self, seed: int):
        rng = random.Random(seed)
        return [rng.randrange(1 << 31) for _ in range(64)]

    def run(self, opt_seed: int, work: str):
        path = os.path.join(work, "report.txt")
        _cli(["optimize", *_CONTRAST_GRID, "--constraint", "minimal",
              "--seed", str(opt_seed), "--max-iter", "25", "--out", path])
        return _read_kv(path)

    def check(self, opt_seed, report):
        check_floors(report)

    def counters(self, report):
        return {"optimize.iterations": int(report["iterations"])}


# -- converge: library optimize from a perturbed diagonal family ----------------------


# Each member's family covers the contrast grid; ops take them in turn.
_CONVERGE_K2 = (1.0, -1.0, 2.0, 0.5)


@dataclass(frozen=True, eq=False)
class ConvergeInput:
    k2_init: float
    noise: np.ndarray   # (3, 32, 32), about 1e-2


class Converge(Workload):
    name = "converge"
    min_ops = 2

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        return [ConvergeInput(_CONVERGE_K2[i % 4],
                              1e-2 * rng.standard_normal((3, 32, 32)))
                for i in range(16)]

    def run(self, inp: ConvergeInput, work: str):
        params = profile.validate_params(2.0, 1.0)
        grid = fields.GridDomain.create(params, 1.5, 32, 32, 0.01, 0.01,
                                        origin=(-0.16, 0.0))
        prof = profile.solve_curvature_ode(params, 1.5, (-1.0, 1.0), 1e-3)
        fam = realize.solve_codazzi_family(prof, 0.0, inp.k2_init)
        base = realize.family_shape_field(fam, grid)
        start = fields.ShapeField(grid, base.h11 + inp.noise[0],
                                  base.h12 + inp.noise[1],
                                  base.h22 + inp.noise[2])
        _, report = optimize.optimize_shape_field(
            grid, 0.0, fields.TraceConstraint("none"), init_field=start,
            tol=1e-10, max_iter=40, refine=True)
        return report

    def check(self, inp, report):
        _require(len(report.refinement_history) == 2, "refinement study missing")
        for nx, ny, floor in report.refinement_history:
            _require(floor < 1e-8, f"floor_{nx}x{ny} = {floor:.3e} is not below 1e-8")

    def counters(self, report):
        return {"optimize.iterations": report.iterations}


# -- realize: the README realize / verify / check-gc chain -----------------------------


_REALIZE_C = ("0", "1", "-1")   # R^3, the S^3 quadric, the Minkowski H^3 quadric
_REALIZE_GRID = ["--grid", "101,41,1e-3,1e-3", "--origin=-0.05,0"]
_PATHS = ([(0, 0), (100, 0), (100, 40)], [(0, 0), (0, 40), (100, 40)])


@dataclass(frozen=True)
class RealizeInput:
    c: str
    k2_init: str


@dataclass(frozen=True)
class RealizeOutput:
    verify: dict
    gc: dict
    path_gap: float


def check_realization(c: str, verify: dict, gc: dict, path_gap: float):
    _require(float(verify["metric_rel_err"]) < 1e-6, "metric_rel_err >= 1e-6")
    _require(float(verify["weingarten_spread"]) < 1e-6, "weingarten_spread >= 1e-6")
    _require(verify["cmc_flag"] == "false", "mesh flagged as CMC")
    _require(float(verify["mean_curv_range"]) > 1e-3, "mean_curv_range <= 1e-3")
    if float(Fraction(c)) != 0:
        _require(float(verify["quadric_drift"]) < 1e-7, "quadric_drift >= 1e-7")
    _require(path_gap < 1e-6, f"frame transport path gap {path_gap:.3e}")
    _require(float(gc["gauss_max"]) <= 1e-12, f"gauss_max {gc['gauss_max']}")
    _require(float(gc["codazzi_max"]) <= 1e-5, f"codazzi_max {gc['codazzi_max']}")


class Realize(Workload):
    name = "realize"
    block = len(_REALIZE_C)

    def inputs(self, seed: int):
        rng = random.Random(seed)
        return [RealizeInput(_REALIZE_C[i % 3], f"{rng.randint(85, 115) / 100:.2f}")
                for i in range(48)]

    def run(self, inp: RealizeInput, work: str):
        p = lambda name: os.path.join(work, name)
        common = ["--k1", "2", "--k2", "1", f"--c={inp.c}", "--k0", "1.5"]
        _cli(["realize", *common, "--k2-init", inp.k2_init, *_REALIZE_GRID,
              "--out", p("surface.mesh")])
        _cli(["verify", *common, "--k2-init", inp.k2_init,
              "--mesh", p("surface.mesh"), "--out", p("verify.txt")])
        c = float(Fraction(inp.c))
        params = profile.validate_params(2.0, 1.0, c)
        prof = profile.solve_curvature_ode(params, 1.5, (-1.0, 1.0), 1e-3)
        fam = realize.solve_codazzi_family(prof, c, float(Fraction(inp.k2_init)))
        grid = fields.GridDomain.create(params, 1.5, 101, 41, 1e-3, 1e-3,
                                        origin=(-0.05, 0.0))
        fld = realize.family_shape_field(fam, grid)
        for name in ("h11", "h12", "h22"):
            fields.write_field_csv(getattr(fld, name), grid, p(f"{name}.csv"))
        _cli(["check-gc", *common, "--h11", p("h11.csv"), "--h12", p("h12.csv"),
              "--h22", p("h22.csv"), "--out", p("residuals.txt")])
        f1, f2 = (realize.transport_frame(fam, grid, path) for path in _PATHS)
        return RealizeOutput(_read_kv(p("verify.txt")), _read_kv(p("residuals.txt")),
                             float(np.linalg.norm(f1.X - f2.X)))

    def check(self, inp: RealizeInput, out: RealizeOutput):
        check_realization(inp.c, out.verify, out.gc, out.path_gap)


# -- holonomy: library transport around a loop -------------------------------------------


# (K1, K2, c, K0) anchors; the cusp pair (2, -1) is kept exact.
_HOLONOMY_ANCHORS = ((2.0, 1.0, 3.0, 1.5), (2.0, 1.0, 2.5, 1.5),
                     (3.0, 0.5, 4.0, 1.8), (2.0, -1.0, 3.0, 0.5),
                     (1.0, 0.2, 1.5, 0.6))


@dataclass(frozen=True)
class HolonomyInput:
    k1: float
    k2: float
    c: float
    k0: float


def check_holonomy(measured: complex, predicted: complex):
    gap = abs(measured / predicted - 1.0)
    _require(gap <= 0.05, f"|measured/predicted - 1| = {gap:.4f} > 0.05")


class Holonomy(Workload):
    name = "holonomy"
    block = len(_HOLONOMY_ANCHORS)

    def inputs(self, seed: int):
        rng = random.Random(seed)
        out = []
        for i in range(400):
            k1, k2, c, k0 = _HOLONOMY_ANCHORS[i % len(_HOLONOMY_ANCHORS)]
            c = k1 + (c - k1) * rng.uniform(0.9, 1.1)
            k0 = k0 + 0.05 * (k1 - k2) * rng.uniform(-1.0, 1.0)
            out.append(HolonomyInput(k1, k2, c, k0))
        return out

    def run(self, inp: HolonomyInput, work: str):
        params = profile.validate_params(inp.k1, inp.k2, inp.c)
        grid = fields.GridDomain.create(params, inp.k0, 41, 41, 1e-3, 1e-3,
                                        origin=(-0.02, 0.0))
        K0 = grid.K[0]
        h0 = math.sqrt(params.mu_sq(K0) * (inp.c - K0) / 4.0) * np.exp(0.3j)
        return fields.holonomy_defect(grid, inp.c, h0, (4, 4, 36, 36))

    def check(self, inp, hd):
        check_holonomy(hd.measured, hd.predicted)


WORKLOADS = {w.name: w for w in (Certify(), Falsify(), Converge(), Realize(),
                                 Holonomy())}
