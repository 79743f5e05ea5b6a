"""Damped Gauss-Newton minimization of the Gauss/Codazzi defect.

The unknowns are the shape-field components at every node (two components
when a trace constraint eliminates h22, three otherwise).  The residual
vector stacks the Gauss defect at every node and both Codazzi defects at
interior nodes, all weighted by sqrt(hx hy) so that the reported l2 norms
are discrete L2(domain) norms and survive grid refinement unchanged.

The Codazzi block of the Jacobian is constant and assembled once; the Gauss
block is affine in the unknowns and rebuilt per iteration.  Steps solve
(J^T J + lam I) d = -J^T r.  That matrix is symmetric positive definite and,
with the unknowns in node-major order along the shorter grid axis, banded:
a Codazzi row couples the nodes on either side of its own, so the
half-bandwidth is 2 m min(nx, ny).  It is factored by LAPACK's band
Cholesky (``dpbtrf`` through ``scipy.linalg.cholesky_banded``) in one
Fortran-ordered band buffer per run, overwritten by every factorization.
J^T J = J_c^T J_c + J_g^T J_g is assembled there without forming it as a
sparse product: the constant Codazzi part is mapped to band positions once
per problem, and each factorization scatters it, adds one m x m outer
product of the Gauss row per node and adds lam on the diagonal (LAPACK
Users' Guide, ``xPBTRF``).  A factorization that finds the matrix not
positive definite counts as a rejected step.

The damping lam follows the gain-ratio rule of Nielsen (1999) and Madsen,
Nielsen & Tingleff (2004, *Methods for Non-Linear Least Squares Problems*,
section 3.2): an accepted step scales lam by max(1/3, 1 - (2 rho - 1)^3),
where rho is the actual over the predicted decrease, and a rejected step
multiplies lam by nu, which doubles with every rejection in a row.  Only
improving steps are taken, so the residual never increases.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import splu  # noqa: F401  unused; perfbench binds optimize.splu by name

from .errors import NonFiniteIterate
from .fields import GridDomain, ShapeField, TraceConstraint, codazzi_residual, gauss_residual
from .textio import fmt17

_LAM_MIN = 1e-14
_LAM_MAX = 1e12


@dataclass(frozen=True)
class ResidualReport:
    """Residual norms of the optimized field and how the optimizer got there.

    ``iterations``, ``converged`` and ``stop_reason`` describe the run on the
    requested grid; ``factorizations`` and ``rejected_steps`` count over
    every grid of the refinement study.
    """

    constraint: str
    seed: int
    iterations: int
    converged: bool
    gauss_max: float
    gauss_l2: float
    codazzi_max: float
    codazzi_l2: float
    total_l2: float
    refinement_history: tuple[tuple[int, int, float], ...]
    stop_reason: str
    factorizations: int
    rejected_steps: int

    @property
    def floor_l2(self) -> float:
        return self.total_l2

    def to_lines(self) -> list[str]:
        lines = [
            f"constraint={self.constraint}",
            f"seed={self.seed}",
            f"iterations={self.iterations}",
            f"converged={'true' if self.converged else 'false'}",
            f"gauss_max={fmt17(self.gauss_max)}",
            f"gauss_l2={fmt17(self.gauss_l2)}",
            f"codazzi_max={fmt17(self.codazzi_max)}",
            f"codazzi_l2={fmt17(self.codazzi_l2)}",
            f"floor_l2={fmt17(self.total_l2)}",
        ]
        for nx, ny, floor in self.refinement_history:
            lines.append(f"floor_{nx}x{ny}={fmt17(floor)}")
        lines += [
            f"stop_reason={self.stop_reason}",
            f"factorizations={self.factorizations}",
            f"rejected_steps={self.rejected_steps}",
        ]
        return lines


class _Problem:
    """Residual/Jacobian assembly for one grid and constraint."""

    def __init__(self, grid: GridDomain, c: float, constraint: TraceConstraint):
        self.grid = grid
        self.c = c
        self.constraint = constraint
        self.N = grid.nx * grid.ny
        self.m = 3 if constraint.kind == "none" else 2
        self.w = np.sqrt(grid.hx * grid.hy)
        self.trace = constraint.trace_target()
        self._jc = self._assemble_codazzi_jacobian()

    # -- packing -------------------------------------------------------------

    def pack(self, fld: ShapeField) -> np.ndarray:
        parts = [fld.h11.ravel(), fld.h12.ravel()]
        if self.m == 3:
            parts.append(fld.h22.ravel())
        return np.concatenate(parts)

    def unpack(self, u: np.ndarray) -> ShapeField:
        g = self.grid
        N = self.N
        h11 = u[:N].reshape(g.nx, g.ny).copy()
        h12 = u[N:2 * N].reshape(g.nx, g.ny).copy()
        if self.m == 3:
            h22 = u[2 * N:].reshape(g.nx, g.ny).copy()
        else:
            h22 = self.trace - h11
        return ShapeField(g, h11, h12, h22, self.constraint)

    def random_init(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, self.m * self.N)

    # -- residuals -------------------------------------------------------------

    def residual(self, u: np.ndarray) -> np.ndarray:
        fld = self.unpack(u)
        with np.errstate(invalid="ignore", over="ignore"):
            rg = gauss_residual(fld, self.c).ravel()
            c1, c2 = codazzi_residual(fld)
        return self.w * np.concatenate([rg, c1.ravel(), c2.ravel()])

    def _assemble_codazzi_jacobian(self) -> sparse.csr_matrix:
        g = self.grid
        nx, ny, N = g.nx, g.ny, self.N
        ii, jj = np.meshgrid(np.arange(1, nx - 1), np.arange(1, ny - 1),
                             indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        nint = ii.size
        node = lambda i, j: i * ny + j
        inv_mu = 1.0 / g.mu[ii]
        dmu = g.dmu[ii]
        rows, cols, vals = [], [], []

        def put(r, col_block, i, j, v):
            rows.append(r)
            cols.append(col_block * N + node(i, j))
            vals.append(v)

        r1 = np.arange(nint)
        r2 = nint + np.arange(nint)
        cy = 1.0 / (2.0 * g.hy) * inv_mu
        cx = 1.0 / (2.0 * g.hx) * inv_mu

        # C1 = inv_mu (dy h11 - dx h12) - dmu h12
        put(r1, 0, ii, jj + 1, cy)
        put(r1, 0, ii, jj - 1, -cy)
        put(r1, 1, ii + 1, jj, -cx)
        put(r1, 1, ii - 1, jj, cx)
        put(r1, 1, ii, jj, -dmu)

        # C2 = inv_mu (dx h22 - dy h12) + dmu/2 (h22 - h11)
        if self.m == 3:
            put(r2, 2, ii + 1, jj, cx)
            put(r2, 2, ii - 1, jj, -cx)
            put(r2, 2, ii, jj, 0.5 * dmu)
            put(r2, 0, ii, jj, -0.5 * dmu)
        else:
            # h22 = trace - h11 folds every h22 column into block 0, negated
            put(r2, 0, ii + 1, jj, -cx)
            put(r2, 0, ii - 1, jj, cx)
            put(r2, 0, ii, jj, -dmu)
        put(r2, 1, ii, jj + 1, -cy)
        put(r2, 1, ii, jj - 1, cy)

        rows = np.concatenate([np.asarray(r, dtype=np.int64).ravel() for r in rows])
        cols = np.concatenate([np.asarray(c, dtype=np.int64).ravel() for c in cols])
        vals = np.concatenate([np.broadcast_to(v, (nint,)).ravel() for v in vals])
        J = sparse.csr_matrix((self.w * vals, (rows, cols)),
                              shape=(2 * nint, self.m * N))
        return J

    def gauss_rows(self, u: np.ndarray) -> np.ndarray:
        """The Gauss block of J: entry (a, k) is the weighted derivative of
        node k's Gauss residual by its component a, the only ones it has."""
        N = self.N
        h11 = u[:N]
        h12 = u[N:2 * N]
        if self.m == 3:
            rows = [-u[2 * N:], 2.0 * h12, -h11]
        else:
            rows = [h11 - (self.trace - h11), 2.0 * h12]
        return self.w * np.stack(rows)

    def jacobian(self, u: np.ndarray) -> sparse.csr_matrix:
        N = self.N
        node = np.tile(np.arange(N), self.m)
        Jg = sparse.csr_matrix((self.gauss_rows(u).ravel(),
                                (node, np.arange(self.m * N))),
                               shape=(N, self.m * N))
        return sparse.vstack([Jg, self._jc], format="csr")

    def band_order(self) -> np.ndarray:
        """Band position of every unknown: node-major along the shorter axis."""
        nx, ny = self.grid.nx, self.grid.ny
        node = np.arange(self.N)
        if nx < ny:
            i, j = np.divmod(node, ny)
            node = j * nx + i
        return (self.m * node + np.arange(self.m)[:, None]).ravel()

    # -- norms for the report ----------------------------------------------------

    def report_norms(self, fld: ShapeField):
        w2 = self.grid.hx * self.grid.hy
        rg = gauss_residual(fld, self.c)
        c1, c2 = codazzi_residual(fld)
        gauss_max = float(np.max(np.abs(rg)))
        gauss_l2 = float(np.sqrt(w2 * np.sum(rg * rg)))
        cod = np.concatenate([c1.ravel(), c2.ravel()])
        codazzi_max = float(np.max(np.abs(cod))) if cod.size else 0.0
        codazzi_l2 = float(np.sqrt(w2 * np.sum(cod * cod)))
        total = float(np.sqrt(gauss_l2 ** 2 + codazzi_l2 ** 2))
        return gauss_max, gauss_l2, codazzi_max, codazzi_l2, total


class _BandedNormal:
    """J^T J = C + sum_k v_k v_k^T in LAPACK lower band storage.

    C is a constant sparse symmetric matrix (the Codazzi part J_c^T J_c)
    and v_k the Gauss row of node k, nonzero on its m unknowns, numbered
    a N + k (a < m).  ``order`` gives each unknown's band position, and a
    node's unknowns must be consecutive there.  The lower triangle of C and
    of every outer product is mapped to positions in one Fortran-ordered
    (kd + 1) x n buffer, ab[i - j, j] = A[i, j], once; ``assemble`` refills
    that buffer for every factorization.
    """

    def __init__(self, const, order: np.ndarray, m: int = 0):
        # int32 indices and early dels keep set-up temporaries small: they
        # stay resident next to the band buffer and count in peak memory
        order = order.astype(np.int32)
        n = len(order)
        C = sparse.csr_matrix(const)
        C.sum_duplicates()
        r = np.repeat(order, np.diff(C.indptr))
        c = order[C.indices]
        low = r >= c
        r, c = r[low], c[low]
        self._const_val = C.data[low]
        del low
        self.kd = int(max(np.max(r - c, initial=0), m - 1))
        self._const_pos = c.astype(np.int64) * (self.kd + 1) + (r - c)
        del r, c
        # entry (a, b), a >= b, of node k's outer product: ab[a - b, order[k] + b]
        self._pairs = [(a, b, (order[:n // m] + b).astype(np.int64)
                        * (self.kd + 1) + (a - b))
                       for a in range(m) for b in range(a + 1)]
        self._buf = np.zeros(n * (self.kd + 1))
        self.ab = self._buf.reshape(n, self.kd + 1).T
        self.order = order

    @classmethod
    def for_problem(cls, problem: "_Problem") -> "_BandedNormal":
        return cls(problem._jc.T @ problem._jc, problem.band_order(), problem.m)

    def assemble(self, lam: float, rows: np.ndarray | None = None) -> np.ndarray:
        """Fill the buffer with C + sum_k v_k v_k^T + lam I, rows[a, k] = v_k[a]."""
        buf = self._buf
        buf.fill(0.0)
        buf[self._const_pos] = self._const_val
        for a, b, pos in self._pairs:
            buf[pos] += rows[a] * rows[b]
        self.ab[0] += lam
        return self.ab


def _damped_step(JtJ, g: np.ndarray, lam: float,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """The step d solving (J^T J + lam I) d = -g, by banded Cholesky.

    ``JtJ`` is a problem's `_BandedNormal`, with ``rows`` its current Gauss
    rows, or a sparse symmetric J^T J, banded in the order it is given.  The
    band buffer is factored in place.  Raises LinAlgError when the matrix is
    not numerically positive definite.
    """
    if sparse.issparse(JtJ):
        JtJ = _BandedNormal(JtJ, np.arange(JtJ.shape[0]))
    cb = cholesky_banded(JtJ.assemble(lam, rows), overwrite_ab=True,
                         lower=True, check_finite=False)
    rhs = np.empty_like(g)
    rhs[JtJ.order] = -g
    x = cho_solve_banded((cb, True), rhs, overwrite_b=True, check_finite=False)
    return x[JtJ.order]


class _LMRun(NamedTuple):
    u: np.ndarray
    iterations: int         # accepted steps
    stop_reason: str        # converged | stalled | max_iter | lam_max
    factorizations: int     # band Cholesky calls, failed ones included
    rejected_steps: int


def _gauss_newton(problem: _Problem, u0: np.ndarray, tol: float,
                  max_iter: int) -> _LMRun:
    u = u0.astype(float)
    r = problem.residual(u)
    if not np.all(np.isfinite(r)):
        raise NonFiniteIterate("non-finite residual at the initial field")
    F = float(r @ r)
    lam, nu = 1e-3, 2.0
    iterations = factorizations = rejected = stall = 0
    normal = _BandedNormal.for_problem(problem)

    while True:
        if np.sqrt(F) < tol:
            stop = "converged"
            break
        if stall >= 4:
            stop = "stalled"
            break
        if iterations >= max_iter:
            stop = "max_iter"
            break
        g = problem.jacobian(u).T @ r
        rows = problem.gauss_rows(u)
        while lam <= _LAM_MAX:
            factorizations += 1
            try:
                delta = _damped_step(normal, g, lam, rows)
            except LinAlgError:
                rejected += 1
                lam, nu = lam * nu, 2.0 * nu
                continue
            if not np.all(np.isfinite(delta)):
                raise NonFiniteIterate("non-finite Gauss-Newton step")
            u_try = u + delta
            r_try = problem.residual(u_try)
            if not np.all(np.isfinite(r_try)):
                raise NonFiniteIterate("optimizer diverged to non-finite residual")
            F_try = float(r_try @ r_try)
            if F_try < F:
                # actual over predicted decrease of |r|^2; the linear model
                # predicts delta . (lam delta - g) > 0
                rho = (F - F_try) / float(delta @ (lam * delta - g))
                drop = (F - F_try) / max(F_try, 1e-300)
                u, r, F = u_try, r_try, F_try
                lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3),
                          _LAM_MIN)
                nu = 2.0
                iterations += 1
                stall = stall + 1 if drop < 1e-9 else 0
                break
            rejected += 1
            lam, nu = lam * nu, 2.0 * nu
        else:
            stop = "lam_max"
            break

    return _LMRun(u, iterations, stop, factorizations, rejected)


def _refine_grid(grid: GridDomain) -> GridDomain:
    return GridDomain.create(grid.params, grid.k0, 2 * grid.nx, 2 * grid.ny,
                             grid.hx / 2.0, grid.hy / 2.0,
                             origin=(grid.x0, grid.y0))


def _refine_axis(a: np.ndarray, axis: int) -> np.ndarray:
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    out = np.empty((2 * n,) + a.shape[1:])
    out[0::2] = a
    out[1:-1:2] = 0.5 * (a[:-1] + a[1:])
    out[-1] = a[-1]
    return np.moveaxis(out, 0, axis)


def _refine_field(fld: ShapeField, fine: GridDomain) -> ShapeField:
    comps = [
        _refine_axis(_refine_axis(getattr(fld, n), 0), 1)
        for n in ("h11", "h12", "h22")
    ]
    return ShapeField(fine, *comps, fld.constraint)


def optimize_shape_field(grid: GridDomain, c: float,
                         constraint: TraceConstraint, seed: int = 0,
                         tol: float = 1e-8, max_iter: int = 60,
                         init_field: ShapeField | None = None,
                         refine: bool = True) -> tuple[ShapeField, ResidualReport]:
    """Minimize the stacked Gauss/Codazzi residual over all node values.

    Returns the optimized field on the requested grid together with a
    report whose refinement history holds the residual floor on this grid
    and on its 2x refinement (the floor of an inconsistent constraint
    persists under refinement; a consistent one converges to zero).
    """
    problem = _Problem(grid, c, constraint)
    if init_field is not None:
        u0 = problem.pack(init_field)
    else:
        u0 = problem.random_init(seed)
    run = _gauss_newton(problem, u0, tol, max_iter)
    fld = problem.unpack(run.u)
    norms = problem.report_norms(fld)
    history = [(grid.nx, grid.ny, norms[-1])]
    factorizations, rejected = run.factorizations, run.rejected_steps

    if refine:
        fine = _refine_grid(grid)
        fine_problem = _Problem(fine, c, constraint)
        if init_field is not None:
            uf0 = fine_problem.pack(_refine_field(init_field, fine))
        else:
            uf0 = fine_problem.random_init(seed)
        fine_run = _gauss_newton(fine_problem, uf0, tol, max_iter)
        fine_norms = fine_problem.report_norms(fine_problem.unpack(fine_run.u))
        history.append((fine.nx, fine.ny, fine_norms[-1]))
        factorizations += fine_run.factorizations
        rejected += fine_run.rejected_steps

    report = ResidualReport(str(constraint), seed, run.iterations,
                            run.stop_reason == "converged", *norms,
                            tuple(history), run.stop_reason, factorizations,
                            rejected)
    return fld, report
