"""Realize the existing non-minimal immersions by frame integration.

The one-parameter family solved here is the diagonal shape operator
h = diag(k1, k2) in the coframe w1 = mu dx, w2 = mu dy, with

    k1 = (K - c) / k2            (Gauss equation, exact by construction)
    dk2/dx = mu mu' (k1 - k2)/2  (Codazzi equation for the diagonal ansatz)

K(x) is read from profile.curvature_at, one call for the family's samples,
while the frame tables read the grid's K (GridDomain.create inverts it once
on the half-step lattice); nothing is marched: K is monotone in x
(dK/dx = mu^2/2), and in the variable K the Codazzi equation has the first
integral

    P(K) (k2^2 - (K - c)) + Q(K) = const,   P = mu^2,  Q' = P,

so k2 is evaluated from it, with the constant fixed by k2 = k2_init at the
anchor x = 0, where K = k0.

Given such a field, the first-order frame system for the position X and the
adapted frame (e1, e2, xi) in the flat model is integrated by RK4:

    along x:  X' = mu e1,  e1' = mu k1 xi - c mu X,  e2' = 0,
              xi' = -mu k1 e1
    along y:  X' = mu e2,  e1' = s e2,
              e2' = -s e1 + mu k2 xi - c mu X,      xi' = -mu k2 e2

with s = mu' mu / 2 the tangential rotation rate of the frame.  With the
rows S = (X, e1, e2, xi), both systems are linear, S' = A S, with a 4x4
matrix A that depends on x alone; so one RK4 step is a fixed 4x4 map, its
propagator.  One batched step gives the x spine's, one per cell, and one
gives each grid column's y step, applied on every row.  The ambient model
is R^3 for c = 0, the quadric <X, X> = 1/c in R^4 for c > 0, and the same
quadric in Minkowski space (signature -+++) for c < 0; the system
preserves the quadric and frame orthonormality exactly, so drift measures
integration error and Gauss-Codazzi failure.  Re-orthonormalization is
deliberately never applied.  The y march applies each column's rounded
propagator on every row, so its rounding adds up with the row count, and
drift on long y legs measures it as well as RK4's truncation (quadric
drift 4.2e-15, 3.4e-14, 2.7e-13 at ny = 41, 321, 2561 for c = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, FrameDrift, NumericalFailure, PathLeavesDomain
from .fields import GridDomain, ShapeField, lattice_legs
from .profile import CurvatureProfile, HcmuParams, curvature_at, rk4_step
from .textio import (atomic_write, fmt17, format_rows, grid_header,
                     header_block, parse_header_comment, read_text,
                     record_block)

# The largest family Codazzi gap that `integrate_frame` integrates, the
# largest frame drift `integrate_frame_tables` accepts at a node, and the
# range of H's column means, relative to max(1, their largest |H|), under
# which `verify_immersion` flags the mesh CMC.
RESIDUAL_GATE = 1e-6
FRAME_TOL = 1e-6
CMC_TOL = 1e-6


# -- the diagonal Codazzi family ------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiagonalFamily:
    """Sampled diagonal solution (k1, k2) over a curvature profile grid,
    anchored at x = 0, where K = k0 and k2 = k2_init."""

    params: HcmuParams
    k0: float
    c: float
    k2_init: float
    xs: np.ndarray
    Ks: np.ndarray
    k1s: np.ndarray
    k2s: np.ndarray
    truncated: bool

    @property
    def x_min(self) -> float:
        return float(self.xs[0])

    @property
    def x_max(self) -> float:
        return float(self.xs[-1])


def _k2_of_K(params: HcmuParams, c: float, K0: float, k2_0: float, K):
    """k2 of the diagonal family at curvature K, where k2(K0) = k2_0.

    With P = mu^2 and Q' = P, the first integral P(K) (k2^2 - (K - c)) + Q(K)
    = const gives k2^2 = k2_0^2 (P0/P) + ((K - c) P - (K0 - c) P0 - dQ)/P,
    which is k2_0^2 to the bit at K0; k2 keeps the sign of k2_0, and is nan
    where k2^2 would be negative.  dQ = Q(K) - Q(K0), the integral of the
    cubic P, is taken by Simpson's rule, which is exact for it and, unlike
    Q = -K^4/3 + (p1/2) K^2 + p0 K differenced, adds only positive terms.
    """
    P, P0 = params.mu_sq(K), params.mu_sq(K0)
    dQ = (K - K0) / 6.0 * (P0 + 4.0 * params.mu_sq(0.5 * (K + K0)) + P)
    k2_sq = k2_0 * k2_0 * (P0 / P) + ((K - c) * P - (K0 - c) * P0 - dQ) / P
    with np.errstate(invalid="ignore"):
        return math.copysign(1.0, k2_0) * np.sqrt(k2_sq)


def sample_codazzi_family(params: HcmuParams, k0: float, xs: np.ndarray,
                          step: float, c: float,
                          k2_init: float) -> DiagonalFamily:
    """Sample the diagonal family on a uniform grid xs of spacing step,
    anchored at x = 0, where K = k0 and k2 = k2_init.

    K comes from one curvature_at call on the grid (the anchor sample is
    exactly k0), and k2 from the first integral through k2_init at the
    anchor.  Each way out from the anchor the family stops before the
    first sample whose k2 is not finite, has changed sign, or jumps by more
    than 0.25 |k2| from its neighbour (k2 -> 0 makes k1 = (K-c)/k2 singular
    and the grid no longer resolves it); a family cut short of the grid is
    flagged truncated.
    """
    if k2_init == 0:
        raise ValueError("k2_init must be nonzero")
    anchor = int(np.argmin(np.abs(xs)))
    if abs(xs[anchor]) > 1e-9 * step:
        raise ValueError("profile grid does not contain the anchor x = 0")
    # an extreme K1 overflows mu^2 and leaves k2 nan off the anchor, which
    # the cuts below reject
    with np.errstate(over="ignore", invalid="ignore"):
        Ks = curvature_at(params, k0, xs)
        Ks[anchor] = k0
        k2s = _k2_of_K(params, c, k0, k2_init, Ks)

    def reach(k2: np.ndarray) -> int:
        # the samples of a leg (anchor first) kept before its first bad one
        with np.errstate(invalid="ignore"):
            bad = (~np.isfinite(k2[1:]) | (k2[1:] * k2_init <= 0)
                   | (np.abs(np.diff(k2)) > 0.25 * np.abs(k2[:-1])))
        return 1 + int(np.argmax(bad)) if bad.any() else k2.size

    lo_ok = anchor - reach(k2s[anchor::-1]) + 1
    hi_ok = anchor + reach(k2s[anchor:]) - 1
    sl = slice(lo_ok, hi_ok + 1)
    truncated = (lo_ok, hi_ok) != (0, xs.size - 1)
    # a k2_init too small to resolve off the anchor cuts the family to its
    # anchor sample, which family_codazzi_gap and family_shape_field reject;
    # one whose square underflows gives k2 = 0, so k1 = inf, there
    with np.errstate(divide="ignore", invalid="ignore"):
        k1s = (Ks[sl] - c) / k2s[sl]
    return DiagonalFamily(params, float(k0), float(c), float(k2_init), xs[sl],
                          Ks[sl], k1s, k2s[sl], truncated)


def solve_codazzi_family(profile: CurvatureProfile, c: float,
                         k2_init: float) -> DiagonalFamily:
    """sample_codazzi_family on the profile grid; the profile's K samples
    are not read, since K comes from the closed form."""
    return sample_codazzi_family(profile.params, profile.k0, profile.xs,
                                 profile.step, c, k2_init)


def family_shape_field(family: DiagonalFamily, grid: GridDomain) -> ShapeField:
    """Broadcast the family onto a grid whose columns sit on family samples."""
    if family.xs.size < 2:
        raise ValueError("family has one sample; it cannot cover a grid")
    step = family.xs[1] - family.xs[0]
    idx = np.rint((grid.xs - family.xs[0]) / step).astype(int)
    if np.any(idx < 0) or np.any(idx >= family.xs.size) or np.any(
        np.abs(family.xs[np.clip(idx, 0, family.xs.size - 1)] - grid.xs)
        > 1e-9 * step
    ):
        raise ValueError("grid columns do not sit on family sample points")
    ones = np.ones((1, grid.ny))
    return ShapeField(grid, family.k1s[idx][:, None] * ones,
                      np.zeros((grid.nx, grid.ny)),
                      family.k2s[idx][:, None] * ones)


def minimal_attempt_inconsistency(params: HcmuParams, c: float,
                                  xs: np.ndarray, k0: float):
    """Force the minimal diagonal ansatz k1 = -k2 and report what breaks.

    k2 follows its Codazzi equation dk2/dx = -mu mu' k2 from the umbilic
    Gauss value at the left end; in the variable K that is d(k2 P)/dK = 0,
    so k2 = k2(x0) P(K0)/P(K) is evaluated, not marched.  The returned
    defect is the leftover rate

        | 2 k2 k2' + mu^2/2 + 2 mu mu' k2^2 |

    (the amount by which the Gauss constraint k2^2 = c - K fails to be
    preserved), which reduces to mu^2/2 and so cannot vanish on any compact
    subinterval of (K2, K1).
    """
    xs = np.asarray(xs, dtype=float)
    Ks = curvature_at(params, k0, xs)
    if c <= Ks[0]:
        raise ValueError("need c > K on the range for a real minimal seed")
    P = params.mu_sq(Ks)
    k2s = math.sqrt(c - Ks[0]) * P[0] / P
    mumup = 0.5 * params.mu_sq_prime(Ks)
    dk2 = -mumup * k2s
    defect = np.abs(2.0 * k2s * dk2 + 0.5 * P + 2.0 * mumup * k2s * k2s)
    return k2s, Ks, defect


# -- frame integration ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FrameState:
    """Position and adapted orthonormal frame in the flat model."""

    X: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    xi: np.ndarray

    def as_matrix(self) -> np.ndarray:
        return np.stack([self.X, self.e1, self.e2, self.xi])


@dataclass(frozen=True, eq=False)
class FrameTables:
    """Frame coefficients on a grid's half-step lattice: index k is
    x0 + k hx/2, so the grid's columns are the even entries.  K itself is
    the grid's (GridDomain.K_half)."""

    mu: np.ndarray
    s: np.ndarray   # mu' mu / 2
    k1: np.ndarray
    k2: np.ndarray


@dataclass(eq=False)
class Mesh:
    """Immersed grid: vertex (i, j) |-> flat index i*ny + j, two triangles
    per grid cell, outward normal per vertex."""

    vertices: np.ndarray
    faces: np.ndarray
    normals: np.ndarray
    nx: int
    ny: int
    hx: float
    hy: float
    x0: float
    y0: float
    c: float

    def __post_init__(self):
        if self.vertices.shape[0] != self.nx * self.ny:
            raise ValueError("vertex count disagrees with nx * ny")
        if self.faces.size and (
            self.faces.min() < 0 or self.faces.max() >= self.nx * self.ny
        ):
            raise ValueError("face references an invalid vertex")


def ambient_signature(c: float, dim: int) -> np.ndarray:
    sig = np.ones(dim)
    if c < 0:
        sig[0] = -1.0
    return sig


def ambient_inner(u: np.ndarray, v: np.ndarray, sig: np.ndarray):
    return np.sum(sig * u * v, axis=-1)


def _initial_frame(c: float) -> FrameState:
    if c == 0:
        return FrameState(np.zeros(3), np.array([1.0, 0, 0]),
                          np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
    if c > 0:
        r = 1.0 / math.sqrt(c)
        return FrameState(np.array([0, 0, 0, r]), np.array([1.0, 0, 0, 0]),
                          np.array([0, 1.0, 0, 0]), np.array([0, 0, 1.0, 0]))
    r = 1.0 / math.sqrt(-c)
    return FrameState(np.array([r, 0, 0, 0]), np.array([0, 1.0, 0, 0]),
                      np.array([0, 0, 1.0, 0]), np.array([0, 0, 0, 1.0]))


def _frame_matrices(tables: FrameTables, c: float):
    """Coefficient matrices of S' = A S along x and along y, per table entry."""
    mu, s, k1, k2 = tables.mu, tables.s, tables.k1, tables.k2
    z = np.zeros_like(mu)
    Ax = np.array([[z, mu, z, z],
                   [-c * mu, z, z, mu * k1],
                   [z, z, z, z],
                   [z, -mu * k1, z, z]])
    Ay = np.array([[z, z, mu, z],
                   [z, z, s, z],
                   [-c * mu, -s, z, mu * k2],
                   [z, z, -mu * k2, z]])
    return np.moveaxis(Ax, -1, 0), np.moveaxis(Ay, -1, 0)


def _x_propagators(Ax: np.ndarray, i0: int, i1: int, hx: float) -> np.ndarray:
    """The RK4 maps of S' = Ax S from column i0 to i1, one per cell in path
    order, from one batched step; Ax is on the half-step lattice."""
    step = 1 if i1 > i0 else -1
    k = 2 * np.arange(i0, i1, step)
    return rk4_step(lambda stage, T: Ax[k + step * stage] @ T,
                    np.broadcast_to(np.eye(4), k.shape + (4, 4)), step * hx)


def _y_propagators(Ay: np.ndarray, hy: float) -> np.ndarray:
    """The RK4 map of one y step of S' = Ay S, per column of a stack Ay."""
    return rk4_step(lambda stage, T: Ay @ T,
                    np.broadcast_to(np.eye(4), Ay.shape), hy)


def _frame_defect(S: np.ndarray, c: float, sig: np.ndarray) -> np.ndarray:
    """Worst departure from an orthonormal frame (and, for c != 0, from the
    quadric <X, X> = 1/c with X normal to the frame), per state of a stack
    S of shape (..., 4, dim)."""
    gram = (S * sig) @ np.swapaxes(S, -1, -2)
    target = np.diag([1.0 / c if c != 0 else 0.0, 1.0, 1.0, 1.0])
    dev = np.abs(gram - target)
    if c == 0:
        dev = dev[..., 1:, 1:]
    return dev.max(axis=(-2, -1))


def family_tables(family: DiagonalFamily, grid: GridDomain) -> FrameTables:
    """Coefficients on the grid's half-step lattice x0 + k hx/2.

    K is the grid's K_half, so nothing is inverted here, and k2 comes from
    the family's first integral at those K, through k2_init at k0.  A grid
    on another curvature profile (K1, K2 or K0), or one whose columns leave
    the family's range, raises ValueError.
    """
    params, c = family.params, family.c
    if ((grid.params.k1, grid.params.k2, grid.k0)
            != (params.k1, params.k2, family.k0)):
        raise ValueError("grid and family lie on different curvature "
                         "profiles (K1, K2, K0)")
    if grid.xs[0] < family.x_min - 1e-12 or grid.xs[-1] > family.x_max + 1e-12:
        raise ValueError("grid leaves the family range")
    K = grid.K_half
    k2 = _k2_of_K(params, c, family.k0, family.k2_init, K)
    s = 0.25 * params.mu_sq_prime(K)  # mu' mu / 2
    return FrameTables(params.mu(K), s, (K - c) / k2, k2)


def _mesh_faces(nx: int, ny: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    a = (i * ny + j).ravel()
    b = ((i + 1) * ny + j).ravel()
    cidx = ((i + 1) * ny + j + 1).ravel()
    d = (i * ny + j + 1).ravel()
    return np.concatenate([np.stack([a, b, cidx], 1),
                           np.stack([a, cidx, d], 1)]).astype(np.int64)


def integrate_frame_tables(tables: FrameTables, nx: int, ny: int, hx: float,
                           hy: float, x0: float, y0: float, c: float) -> Mesh:
    """Integrate the frame system over the grid from the given coefficients.

    The spine runs along x at j = 0, one RK4 propagator per cell; then each
    column applies its own y propagator once per row.  Orthonormality and
    (for c != 0) the quadric constraint are checked at every node, and drift
    beyond FRAME_TOL raises FrameDrift for the first such node in (i, j)
    order; drift is a diagnostic, so it is never silently corrected.
    """
    sig = ambient_signature(c, 3 if c == 0 else 4)
    Ax, Ay = _frame_matrices(tables, c)
    spine = [_initial_frame(c).as_matrix()]
    # an overflow or NaN is left to the drift gate, which checks every node
    with np.errstate(over="ignore", invalid="ignore"):
        for P in _x_propagators(Ax, 0, nx - 1, hx):
            spine.append(P @ spine[-1])
        Py = _y_propagators(Ay[0:2 * nx - 1:2], hy)  # at the columns
        rows = [np.stack(spine)]
        for _ in range(1, ny):
            rows.append(Py @ rows[-1])
    S = np.stack(rows, axis=1)  # (nx, ny, 4, dim), node (i, j) at [i, j]
    drift = _frame_defect(S, c, sig)
    # i-major, like the node order; a NaN drift fails the gate too
    bad = np.argwhere(~(drift <= FRAME_TOL))
    if bad.size:
        i, j = bad[0]
        raise FrameDrift(
            f"frame drift {drift[i, j]:.3e} at node ({i}, {j}) exceeds "
            f"{FRAME_TOL:g}; reduce the step"
        )
    verts = S[:, :, 0].reshape(nx * ny, -1)
    norms = S[:, :, 3].reshape(nx * ny, -1)
    return Mesh(verts, _mesh_faces(nx, ny), norms, nx, ny, hx, hy, x0, y0, c)


def integrate_frame(family: DiagonalFamily, grid: GridDomain) -> Mesh:
    """Realize the family over a grid; requires the family to be integrable.

    The Codazzi rate of the sampled family is checked by finite differences
    against RESIDUAL_GATE before any integration happens, and the frame
    drift against FRAME_TOL at every node (`integrate_frame_tables`).
    """
    span = (grid.x0 - grid.hx, grid.x0 + grid.nx * grid.hx)
    gap = family_codazzi_gap(family, x_range=span)
    if not gap <= RESIDUAL_GATE:  # a NaN gap fails too
        raise ValueError(
            f"family Codazzi gap {gap:.3e} exceeds the integrability gate "
            f"{RESIDUAL_GATE:g}"
        )
    tables = family_tables(family, grid)
    return integrate_frame_tables(tables, grid.nx, grid.ny, grid.hx, grid.hy,
                                  grid.x0, grid.y0, family.c)


def family_codazzi_gap(family: DiagonalFamily, x_range=None) -> float:
    """max |dk2/dx - mu mu' (k1 - k2)/2| along the family, by central diff.

    x_range restricts the check (residuals near a zero-crossing truncation
    edge are meaningless for a mesh that never goes there).
    """
    if family.xs.size < 5:
        raise ValueError("family too short to difference")
    dk2 = _d4(family.k2s, family.xs[1] - family.xs[0], 0)
    mumup = 0.5 * family.params.mu_sq_prime(family.Ks[2:-2])
    rhs = 0.5 * mumup * (family.k1s[2:-2] - family.k2s[2:-2])
    gap = np.abs(dk2 - rhs)
    if x_range is not None:
        xs = family.xs[2:-2]
        sel = (xs >= x_range[0]) & (xs <= x_range[1])
        if not np.any(sel):
            raise ValueError("x_range contains no family sample")
        gap = gap[sel]
    return float(np.max(gap))


def transport_frame(family: DiagonalFamily, grid: GridDomain,
                    nodes) -> FrameState:
    """Integrate the frame from the grid origin along a lattice polyline."""
    tables = family_tables(family, grid)
    Ax, Ay = _frame_matrices(tables, family.c)
    S = _initial_frame(family.c).as_matrix()
    nodes = list(nodes)
    if nodes and tuple(nodes[0]) != (0, 0):
        raise PathLeavesDomain("frame transport must start at the grid origin")
    for i0, j0, i1, j1 in lattice_legs(grid, nodes):
        if j0 == j1:
            for P in _x_propagators(Ax, i0, i1, grid.hx):
                S = P @ S
        else:
            P = _y_propagators(Ay[2 * i0], math.copysign(grid.hy, j1 - j0))
            for _ in range(abs(j1 - j0)):
                S = P @ S
    return FrameState(S[0], S[1], S[2], S[3])


# -- mesh verification ----------------------------------------------------------


@dataclass(frozen=True)
class ImmersionReport:
    metric_rel_err: float
    offdiag_err: float
    k1_rel_err: float
    k2_rel_err: float
    weingarten_spread: float
    mean_curv_range: float
    cmc_flag: bool
    quadric_drift: float
    gauss_defect_rel_err: float

    def to_lines(self) -> list[str]:
        """key=value per field, in field order; cmc_flag as true or false."""
        return [f"{key}={str(v).lower() if isinstance(v, bool) else fmt17(v)}"
                for key, v in vars(self).items()]


def angle_defect_curvature(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Gauss curvature (angle defect over barycentric area).

    Returns (K_disc, valid_mask), both over all vertices; only interior
    vertices carry the full triangle ring and are marked valid.
    """
    dim = mesh.vertices.shape[1]
    sig = ambient_signature(mesh.c, dim)
    V = mesh.vertices
    angle_sum = np.zeros(V.shape[0])
    area_sum = np.zeros(V.shape[0])
    F = mesh.faces
    for corner in range(3):
        p = V[F[:, corner]]
        q = V[F[:, (corner + 1) % 3]]
        r = V[F[:, (corner + 2) % 3]]
        u = q - p
        w = r - p
        uu = ambient_inner(u, u, sig)
        ww = ambient_inner(w, w, sig)
        uw = ambient_inner(u, w, sig)
        cosang = np.clip(uw / np.sqrt(uu * ww), -1.0, 1.0)
        np.add.at(angle_sum, F[:, corner], np.arccos(cosang))
        gram = uu * ww - uw * uw
        np.add.at(area_sum, F[:, corner], 0.5 * np.sqrt(np.maximum(gram, 0.0)) / 3.0)
    K_disc = (2.0 * math.pi - angle_sum) / area_sum
    valid = np.zeros(V.shape[0], dtype=bool)
    idx = np.arange(V.shape[0]).reshape(mesh.nx, mesh.ny)
    valid[idx[1:-1, 1:-1].ravel()] = True
    return K_disc, valid


def _d4(A: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order central first derivative; output loses two nodes per side."""
    A = np.moveaxis(A, axis, 0)
    out = (-A[4:] + 8.0 * A[3:-1] - 8.0 * A[1:-3] + A[:-4]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True, eq=False)
class RecoveredForms:
    """First/second fundamental form data re-derived from mesh differences.

    g11, k1_est live on rows 2..nx-3 (full columns); g22, k2_est on columns
    2..ny-3 (full rows); g12 and H on the common interior.
    """

    g11: np.ndarray
    g22: np.ndarray
    g12: np.ndarray
    k1_est: np.ndarray
    k2_est: np.ndarray
    H: np.ndarray


def recover_fundamental_forms(mesh: Mesh) -> RecoveredForms:
    nx, ny = mesh.nx, mesh.ny
    if nx < 5 or ny < 5:
        raise ValueError("mesh too small for the 4th-order recovery stencils")
    dim = mesh.vertices.shape[1]
    sig = ambient_signature(mesh.c, dim)
    V = mesh.vertices.reshape(nx, ny, dim)
    Nrm = mesh.normals.reshape(nx, ny, dim)
    Xx = _d4(V, mesh.hx, 0)          # (nx-4, ny, dim)
    Xy = _d4(V, mesh.hy, 1)          # (nx, ny-4, dim)
    g11 = ambient_inner(Xx, Xx, sig)
    g22 = ambient_inner(Xy, Xy, sig)
    g12 = ambient_inner(Xx[:, 2:-2], Xy[2:-2, :], sig)
    Nx = _d4(Nrm, mesh.hx, 0)
    Ny = _d4(Nrm, mesh.hy, 1)
    k1_est = -ambient_inner(Nx, Xx, sig) / g11
    k2_est = -ambient_inner(Ny, Xy, sig) / g22
    H = 0.5 * (k1_est[:, 2:-2] + k2_est[2:-2, :])
    return RecoveredForms(g11, g22, g12, k1_est, k2_est, H)


def verify_immersion(mesh: Mesh, family: DiagonalFamily) -> ImmersionReport:
    """Re-derive the two fundamental forms from the mesh and compare.

    The induced metric comes from differences of the vertices, the shape
    operator from differences of the stored normals.  The sampled (K, H)
    pairs are grouped per grid column (K is a function of x alone), so
    single-valuedness of the mean curvature is the column spread.  The
    reference values come from the grid of the mesh header, which must keep
    the grid rules of GridDomain.create.  A mesh and a family in different
    ambient spaces (mesh.c != family.c) raise ValueError; a report field
    that is not finite raises NumericalFailure naming the first one.
    """
    if mesh.c != family.c:
        raise ValueError(f"the mesh lies in the space form c = {mesh.c}, "
                         f"the family in c = {family.c}")
    grid = GridDomain.create(family.params, family.k0, mesh.nx, mesh.ny,
                             mesh.hx, mesh.hy, (mesh.x0, mesh.y0))
    tables = family_tables(family, grid)
    # a mesh that does not resolve the family gives nan or inf here, which
    # the finiteness check below reports
    with np.errstate(all="ignore"):
        report = _compare_forms(mesh, grid, tables)
    for name, value in vars(report).items():
        if not math.isfinite(value):
            raise NumericalFailure(f"{name} is {value}: the mesh does not "
                                   "resolve the family")
    return report


def _compare_forms(mesh: Mesh, grid: GridDomain,
                   tables: FrameTables) -> ImmersionReport:
    """The report of verify_immersion, which may hold nan or inf."""
    forms = recover_fundamental_forms(mesh)
    mu = grid.mu
    k1_ref = tables.k1[::2]
    k2_ref = tables.k2[::2]

    mu_sq_i = (mu * mu)[2:-2, None]
    metric_rel = max(
        float(np.max(np.abs(forms.g11 - mu_sq_i) / mu_sq_i)),
        float(np.max(np.abs(forms.g22 - (mu * mu)[:, None]) / (mu * mu)[:, None])),
    )
    offdiag = float(np.max(np.abs(forms.g12) / mu_sq_i))

    k1_rel = float(np.max(np.abs(forms.k1_est - k1_ref[2:-2, None])
                          / np.abs(k1_ref[2:-2, None])))
    k2_rel = float(np.max(np.abs(forms.k2_est - k2_ref[:, None])
                          / np.abs(k2_ref[:, None])))

    H = forms.H
    spread = float(np.max(H.max(axis=1) - H.min(axis=1)))
    H_cols = H.mean(axis=1)
    h_range = float(H_cols.max() - H_cols.min())
    cmc = h_range < CMC_TOL * max(1.0, float(np.max(np.abs(H_cols))))

    drift = 0.0
    if mesh.c != 0:
        sig = ambient_signature(mesh.c, mesh.vertices.shape[1])
        drift = float(np.max(np.abs(
            ambient_inner(mesh.vertices, mesh.vertices, sig) - 1.0 / mesh.c
        )))

    K_disc, valid = angle_defect_curvature(mesh)
    K_ref = np.repeat(grid.K, grid.ny)
    gauss_rel = float(np.max(
        np.abs(K_disc[valid] - K_ref[valid]) / np.abs(K_ref[valid])
    ))

    return ImmersionReport(metric_rel, offdiag, k1_rel, k2_rel, spread,
                           h_range, cmc, drift, gauss_rel)


# -- mesh text format -----------------------------------------------------------


def export_mesh(mesh: Mesh, path):
    """Header comments, then v / vn / f records at 17 significant digits."""
    v_row = "v" + " %.17g" * mesh.vertices.shape[1] + "\n"
    vn_row = "vn" + " %.17g" * mesh.normals.shape[1] + "\n"

    def chunks():
        # one record block at a time: the whole text is never held at once
        yield ("# hcmu-mesh 1\n"
               + grid_header(mesh.nx, mesh.ny, mesh.hx, mesh.hy, mesh.x0,
                             mesh.y0)
               + f"# c = {fmt17(mesh.c)}\n")
        yield format_rows(v_row, mesh.vertices)
        yield format_rows(vn_row, mesh.normals)
        yield format_rows("f %d %d %d\n", mesh.faces + 1)

    atomic_write(path, chunks())


# the stage of the file each record kind begins, and the error of a record of
# that kind in a later stage
_MESH_STAGE = {"v": 0, "vn": 1, "f": 2}
_MESH_ORDER = {"v": "vertex after normals or faces",
               "vn": "normal after faces"}


def parse_mesh(path) -> Mesh:
    """The mesh of a file in any valid layout; FormatError names the first
    bad line.  A file in ``export_mesh``'s layout (every mesh ``realize``
    writes) is read in bulk, any other line by line, and only that raises.
    """
    lines = read_text(path).split("\n")
    return _mesh_bulk(lines) or _mesh_by_line(lines)


def _mesh_bulk(lines) -> Mesh | None:
    """The mesh of lines in export_mesh's layout, or None; never raises."""
    meta = header_block(lines[1:4], ("nx,ny,hx,hy", "origin", "c"), ("c",))
    if lines[0] != "# hcmu-mesh 1" or meta is None or lines[-1]:
        return None
    n = meta["nx"] * meta["ny"]
    verts = record_block(lines[4:4 + n], "v", float)
    norms = record_block(lines[4 + n:4 + 2 * n], "vn", float)
    faces = record_block(lines[4 + 2 * n:-1], "f", np.int64)
    if (verts is None or norms is None or faces is None
            or verts.shape[1] not in (3, 4) or norms.shape != verts.shape
            or faces.shape[1] != 3):
        return None
    try:
        return Mesh(verts, faces - 1, norms, **meta)
    except ValueError:
        return None


def _mesh_by_line(lines) -> Mesh:
    """The mesh of lines in any layout: the format's rules, line by line."""
    meta: dict = {}
    verts, norms, faces = [], [], []
    rows = {"v": verts, "vn": norms, "f": faces}  # per kind, in line order
    stage = 0  # 0: v, 1: vn, 2: f
    for ln, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind.startswith("#"):
            line = raw.strip()
            if not line[1:].strip().startswith("hcmu-mesh"):
                meta.update(parse_header_comment(line, ln, ("c",)))
            continue
        if kind not in _MESH_STAGE:
            raise FormatError(f"unknown record {kind!r}", ln)
        if stage > _MESH_STAGE[kind]:
            raise FormatError(_MESH_ORDER[kind], ln)
        stage = _MESH_STAGE[kind]
        if kind == "v" and len(parts) not in (4, 5):
            raise FormatError("vertex needs 3 or 4 coordinates", ln)
        if kind == "f" and len(parts) != 4:
            raise FormatError("face needs exactly 3 indices", ln)
        try:
            values = list(map(int if kind == "f" else float, parts[1:]))
        except ValueError:
            raise FormatError(f"bad number in {raw.strip()!r}", ln) from None
        if kind == "f" and not 1 <= min(values) <= max(values) <= len(verts):
            raise FormatError("face index out of range", ln)
        rows[kind].append(values)
    for key in ("nx", "ny", "hx", "hy", "x0", "y0", "c"):
        if key not in meta:
            raise FormatError(f"missing header entry for {key}")
    if norms and len(norms) != len(verts):
        raise FormatError("normal count disagrees with vertex count")
    dim = len(verts[0]) if verts else (3 if meta["c"] == 0 else 4)
    if any(len(row) != dim for row in verts + norms):
        raise FormatError("inconsistent coordinate dimension")
    shape = (len(verts), dim)
    try:
        return Mesh(np.array(verts, float).reshape(shape),
                    np.array(faces, np.int64).reshape(len(faces), 3) - 1,
                    np.array(norms, float) if norms else np.zeros(shape),
                    **meta)
    except ValueError as e:  # records that disagree with the grid header
        raise FormatError(str(e)) from None
