"""Grid discretization of the Gauss and Codazzi conditions.

The orthonormal coframe is w1 = mu dx, w2 = mu dy.  With phi = ln mu and
dK/dx = mu^2/2, the rotation rate is phi_x = mu'(K) mu / 2 and the
Levi-Civita connection acts on the frame as

    D_y e1 = (mu' mu / 2) e2,      D_y e2 = -(mu' mu / 2) e1,

(all x-derivatives of the frame have no tangential rotation part), where
mu' = d mu / dK.  The covariant derivative h_{ijk} of a symmetric field
h_{ij} then gives two independent Codazzi defects per node,

    C1 = (1/mu) (d_y h11 - d_x h12) - mu' h12,
    C2 = (1/mu) (d_x h22 - d_y h12) + (mu'/2) (h22 - h11),

and the Gauss defect K - c - (h11 h22 - h12^2).  First derivatives are
central differences; the boundary ring is excluded from every norm.

The module also integrates the over-determined transport system for the
complex function behind a would-be minimal immersion,

    dh = a w + b wbar,  a = 3 mu' mu h / 4 + mu^2 h / (4(K - c)),
                        b = -mu' mu h / 4,

whose failure to close (holonomy per unit area) equals
2i * mu^2 h Phi(K, c) / (16 (K - c)^2) with Phi the obstruction cubic.
Its x half, h_x = r h with r real, has the first integral |h| ~ m =
sqrt(mu^2 (c - K)), and its y half, h_y = i beta h, is a rotation per column.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, NumericalFailure, PathLeavesDomain
from .profile import HcmuParams, curvature_at
from .ratpoly import as_fraction
from .textio import (atomic_write, csv_block, format_rows, grid_header,
                     header_block, parse_header_comment, read_text)


@dataclass(frozen=True, eq=False)
class GridDomain:
    """Uniform (x, y) grid carrying the x-dependent metric background.

    K_half holds K on the half-step lattice x0 + k hx/2, where the frame
    RK4 of realize reads its midpoint K; the columns are its even entries.
    """

    params: HcmuParams
    k0: float
    nx: int
    ny: int
    hx: float
    hy: float
    x0: float
    y0: float
    xs: np.ndarray = field(repr=False)
    K_half: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    dmu: np.ndarray = field(repr=False)  # d mu / dK per column

    @classmethod
    def create(cls, params: HcmuParams, k0: float, nx: int, ny: int,
               hx: float, hy: float, origin=(0.0, 0.0)) -> "GridDomain":
        if nx < 8 or ny < 8:
            raise ValueError("grid needs nx, ny >= 8")
        if not (hx > 0 and hy > 0):
            raise ValueError("grid spacings must be positive")
        x0, y0 = float(origin[0]), float(origin[1])
        if not (math.isfinite(x0) and math.isfinite(y0)):
            raise ValueError("grid origin must be finite")
        xs = x0 + hx * np.arange(nx)
        K_half = curvature_at(params, k0,
                              x0 + 0.5 * hx * np.arange(2 * nx - 1))
        K = K_half[::2]
        # mu and dmu overflow for extreme K1 and K2; each run on the grid
        # gates its own results on finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            mu = params.mu(K)
            dmu = params.mu_sq_prime(K) / (2.0 * mu)
        return cls(params, float(k0), nx, ny, float(hx), float(hy), x0, y0,
                   xs, K_half, mu, dmu)

    @property
    def K(self) -> np.ndarray:
        return self.K_half[::2]

    def cell_area(self) -> float:
        return self.hx * self.hy


@dataclass(frozen=True)
class TraceConstraint:
    """Trace condition on the shape field: none, minimal, or cmc(H)."""

    kind: str  # "none" | "minimal" | "cmc"
    H: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "minimal", "cmc"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if not math.isfinite(self.H):
            raise ValueError(f"mean curvature H must be finite, got {self.H}")

    @classmethod
    def parse(cls, text: str) -> "TraceConstraint":
        text = text.strip()
        if text == "none":
            return cls("none")
        if text == "minimal":
            return cls("minimal")
        if text.startswith("cmc:"):
            try:
                H = float(as_fraction(text[4:]))
            except (ValueError, ZeroDivisionError, OverflowError):
                raise ValueError("mean curvature H must be a finite decimal "
                                 f"or rational, got {text[4:]!r}") from None
            return cls("cmc", H)
        raise ValueError(f"cannot parse constraint {text!r}")

    def trace_target(self) -> float | None:
        if self.kind == "minimal":
            return 0.0
        if self.kind == "cmc":
            return 2.0 * self.H
        return None

    def __str__(self):
        if self.kind == "cmc":
            # the shortest text that parses back to H; "cmc:1", not "cmc:1.0"
            return f"cmc:{self.H!r}".removesuffix(".0")
        return self.kind


@dataclass(eq=False)
class ShapeField:
    """Shape-operator coefficients (h11, h12, h22) on a GridDomain.

    Symmetry h21 = h12 is structural.  When a trace constraint is attached,
    h11 + h22 must equal its target at every node.
    """

    grid: GridDomain
    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray
    constraint: TraceConstraint = TraceConstraint("none")

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        for name in ("h11", "h12", "h22"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, grid wants {shape}")
        target = self.constraint.trace_target()
        if target is not None:
            gap = np.max(np.abs(self.h11 + self.h22 - target))
            if not gap <= 1e-12:  # a NaN gap fails too
                raise ValueError(
                    f"trace constraint violated by {gap:.3e} "
                    f"(target {target})"
                )


def gauss_residual(fld: ShapeField, c: float) -> np.ndarray:
    """K - c - det(h) at every node; zero iff the Gauss equation holds."""
    g = fld.grid
    det = fld.h11 * fld.h22 - fld.h12 * fld.h12
    return g.K[:, None] - c - det


def codazzi_residual(fld: ShapeField) -> tuple[np.ndarray, np.ndarray]:
    """The two independent Codazzi defects on the interior (nx-2, ny-2)."""
    g = fld.grid
    h11, h12, h22 = fld.h11, fld.h12, fld.h22
    inv_mu = 1.0 / g.mu[1:-1, None]
    dmu = g.dmu[1:-1, None]

    dy_h11 = (h11[1:-1, 2:] - h11[1:-1, :-2]) / (2.0 * g.hy)
    dx_h12 = (h12[2:, 1:-1] - h12[:-2, 1:-1]) / (2.0 * g.hx)
    dy_h12 = (h12[1:-1, 2:] - h12[1:-1, :-2]) / (2.0 * g.hy)
    dx_h22 = (h22[2:, 1:-1] - h22[:-2, 1:-1]) / (2.0 * g.hx)

    mid12 = h12[1:-1, 1:-1]
    c1 = inv_mu * (dy_h11 - dx_h12) - dmu * mid12
    c2 = inv_mu * (dx_h22 - dy_h12) + 0.5 * dmu * (h22[1:-1, 1:-1] - h11[1:-1, 1:-1])
    return c1, c2


NORM_NAMES = ("gauss_max", "gauss_l2", "codazzi_max", "codazzi_l2", "total_l2")


def residual_norms(fld: ShapeField, c: float) -> tuple[float, ...]:
    """The residual norms of a field, named by NORM_NAMES.

    The l2 norms are discrete L2(domain) norms, weighted by the cell area;
    total_l2 combines the Gauss and Codazzi ones.  A norm that is not
    finite raises NumericalFailure naming the first one.
    """
    area = fld.grid.cell_area()
    # an overflow, or a cell area of 0 times an infinite sum, gives nan or
    # inf here, which the finiteness check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        rg = gauss_residual(fld, c)
        cod = np.concatenate([r.ravel() for r in codazzi_residual(fld)])
        gauss_l2 = float(np.sqrt(area * np.sum(rg * rg)))
        codazzi_l2 = float(np.sqrt(area * np.sum(cod * cod)))
        norms = (float(np.max(np.abs(rg))), gauss_l2,
                 float(np.max(np.abs(cod))), codazzi_l2,
                 float(np.sqrt(gauss_l2 ** 2 + codazzi_l2 ** 2)))
    for name, value in zip(NORM_NAMES, norms):
        if not math.isfinite(value):
            raise NumericalFailure(f"{name} is {value}: the residual is "
                                   "beyond the double range")
    return norms


# -- the minimal-immersion transport system ----------------------------------


def _ansatz_rates(params: HcmuParams, c: float, K):
    """m = sqrt(mu^2 (c - K)) and beta, with h proportional to m along x and
    h_y = i beta h; ln m integrates h_x / h = mu' mu/2 + mu^2/(4(K - c)).
    Also mu^2 and mu' mu, which a and b of the ansatz reuse."""
    mu_sq = params.mu_sq(K)
    dmu_mu = 0.5 * params.mu_sq_prime(K)  # mu' mu
    beta = dmu_mu + mu_sq / (4.0 * (K - c))
    return np.sqrt(mu_sq * (c - K)), beta, mu_sq, dmu_mu


def _require_supercritical(params: HcmuParams, c: float):
    if not c > params.k1:
        raise ValueError(
            f"ambient curvature c = {c} must exceed K1 = {params.k1} for the "
            "transport system to carry real data (K - c must not vanish)"
        )


@dataclass(frozen=True, eq=False)
class MinimalAnsatz:
    """Transported complex field h and its induced coefficients a, b.

    b = -mu' mu h / 4 pointwise; the associated shape field is the minimal
    one with h11 = 2 Im(h)/mu, h12 = 2 Re(h)/mu, h22 = -h11.
    """

    grid: GridDomain
    c: float
    h: np.ndarray  # complex, (nx, ny)
    a: np.ndarray
    b: np.ndarray

    def shape_field(self) -> ShapeField:
        mu = self.grid.mu[:, None]
        h11 = 2.0 * np.imag(self.h) / mu
        h12 = 2.0 * np.real(self.h) / mu
        return ShapeField(self.grid, h11, h12, -h11, TraceConstraint("minimal"))


def lattice_legs(grid: GridDomain, nodes):
    """Yield the straight legs (i0, j0, i1, j1) of a polyline of grid nodes.

    Every node must be a pair of integers indexing the grid, and every leg
    must run along a lattice line, or PathLeavesDomain is raised.
    """
    try:
        nodes = [(operator.index(i), operator.index(j)) for i, j in nodes]
    except (TypeError, ValueError):
        raise PathLeavesDomain(
            "path nodes must be pairs of integers") from None
    for i, j in nodes:
        if not (0 <= i < grid.nx and 0 <= j < grid.ny):
            raise PathLeavesDomain(f"node ({i}, {j}) outside the grid")
    for (i0, j0), (i1, j1) in zip(nodes, nodes[1:]):
        if i0 != i1 and j0 != j1:
            raise PathLeavesDomain("path segments must follow lattice lines")
        yield i0, j0, i1, j1


def integrate_minimal_ansatz(grid: GridDomain, c: float,
                             h0: complex) -> MinimalAnsatz:
    """Sweep the transport system over the grid: x spine, then y columns.

    The x spine is h0 m / m[0], from the first integral of the x half
    (`_ansatz_rates`).  Along a column the rate i beta(x) is constant, so
    the y transport is the exact rotation h -> h exp(i beta dy).
    """
    _require_supercritical(grid.params, c)
    if h0 == 0:
        raise ValueError("h0 must be nonzero")
    m, beta, mu_sq, dmu_mu = _ansatz_rates(grid.params, c, grid.K)
    spine = complex(h0) * (m / m[0])
    dy = grid.hy * np.arange(grid.ny)
    h = spine[:, None] * np.exp(1j * beta[:, None] * dy[None, :])

    a = (0.75 * dmu_mu[:, None] * h
         + mu_sq[:, None] * h / (4.0 * (grid.K[:, None] - c)))
    b = -0.25 * dmu_mu[:, None] * h
    return MinimalAnsatz(grid, float(c), h, a, b)


def transport_ansatz(grid: GridDomain, c: float, h0: complex,
                     nodes) -> complex:
    """Transport h0 along a lattice polyline of (i, j) grid nodes: x legs
    scale h by m[i1] / m[i0], y legs rotate it by exp(i beta dy)."""
    _require_supercritical(grid.params, c)
    m, beta, _, _ = _ansatz_rates(grid.params, c, grid.K)
    h = complex(h0)
    for i0, j0, i1, j1 in lattice_legs(grid, nodes):
        if j0 == j1:
            h = h * (m[i1] / m[i0])
        else:
            h = h * np.exp(1j * beta[i0] * (j1 - j0) * grid.hy)
    return h


@dataclass(frozen=True)
class HolonomyDefect:
    measured: complex   # circulation of dh per unit enclosed area
    predicted: complex  # 2i mu^2 h0 Phi / (16 (K-c)^2), K at the center
    area: float
    center_x: float
    center_K: float


def holonomy_defect(grid: GridDomain, c: float, h0: complex,
                    loop: tuple[int, int, int, int]) -> HolonomyDefect:
    """Circulation of the transport around a ccw rectangle, per unit area.

    loop = (i0, j0, i1, j1) in node indices, i1 > i0, j1 > j0.  The exact
    prediction carries the orientation factor 2i of wbar wedge w against
    dx wedge dy.  It is evaluated with h0, the h at the base corner (i0, j0)
    where the circulation starts and ends, and with K at the loop center
    x0 + (i0 + i1) hx/2, an entry of the grid's half-step K.  Then the
    measured/predicted gap falls as the square of the loop's side.
    """
    i0, j0, i1, j1 = loop
    if i1 <= i0 or j1 <= j0:
        raise ValueError("loop corners must satisfy i1 > i0, j1 > j0")
    if (i1 - i0) * (j1 - j0) < 4:
        raise ValueError("loop must enclose at least 4 grid cells")
    corners = [(i0, j0), (i1, j0), (i1, j1), (i0, j1), (i0, j0)]
    h_end = transport_ansatz(grid, c, h0, corners)
    area = (i1 - i0) * grid.hx * (j1 - j0) * grid.hy
    measured = (h_end - h0) / area

    Kc = grid.K_half[i0 + i1]
    phi_val = grid.params.obstruction(Kc, c)
    mu_sq = grid.params.mu_sq(Kc)
    predicted = 2j * mu_sq * h0 * phi_val / (16.0 * (Kc - c) ** 2)
    return HolonomyDefect(measured, predicted, area,
                          float(grid.x0 + 0.5 * grid.hx * (i0 + i1)),
                          float(Kc))


# -- field CSV serialization ---------------------------------------------------


def write_field_csv(arr: np.ndarray, grid: GridDomain, path):
    """One component, row-major (row = x index), with grid metadata up top."""
    with atomic_write(path) as fh:
        fh.write(grid_header(grid.nx, grid.ny, grid.hx, grid.hy, grid.x0,
                             grid.y0))
        fh.write(format_rows(",".join(["%.17g"] * arr.shape[1]) + "\n", arr))


def read_field_csv(path) -> tuple[np.ndarray, dict]:
    """One component and its grid metadata; FormatError names the first bad
    line.  A file in ``write_field_csv``'s layout is read in bulk, any
    other line by line, and only that raises."""
    lines = read_text(path).split("\n")
    return _field_bulk(lines) or _field_by_line(lines)


def _field_bulk(lines) -> tuple[np.ndarray, dict] | None:
    """The field in write_field_csv's layout, or None; never raises."""
    meta = header_block(lines[:2], ("nx,ny,hx,hy", "origin"))
    if meta is None or lines[-1]:
        return None
    arr = csv_block(lines[2:-1])
    if arr is None or arr.shape != (meta["nx"], meta["ny"]):
        return None
    return arr, meta


def _field_by_line(lines) -> tuple[np.ndarray, dict]:
    """The field of lines in any layout: the format's rules, line by line."""
    meta: dict = {}
    rows, lns = [], []
    for ln, raw in enumerate(lines, start=1):
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
    arr = np.array(rows, float)
    if arr.shape != (meta["nx"], meta["ny"]):
        raise FormatError(
            f"data shape {arr.shape} disagrees with metadata "
            f"({meta['nx']}, {meta['ny']})"
        )
    return arr, meta
