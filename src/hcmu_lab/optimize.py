"""Damped Newton/Gauss-Newton minimization of the Gauss/Codazzi defect.

The unknowns are the shape-field components at every node (m = 2
components when a trace constraint eliminates h22, m = 3 otherwise), packed
in one order only: node-major along the shorter grid axis, a node's m
components consecutive.  The residual vector stacks the Gauss defect at
every node, in the same node order, and both Codazzi defects at interior
nodes, all weighted by sqrt(hx hy) so that the reported l2 norms are
discrete L2(domain) norms and survive grid refinement unchanged.

The Codazzi block of the Jacobian is constant and read once off
``fields.codazzi_residual``, the one statement of the stencil, by probing it
with one field per component and colour class (i + 2 j) mod 5, the fewest
classes a 5-point stencil admits (Curtis, Powell & Reid 1974; Goldfarb &
Toint 1984, *Math. Comp.* 43); the Gauss block is affine in the unknowns
and rebuilt per iteration.  No J is stacked: g = J^T r is one
``np.bincount`` over the Gauss entries, node order, and then the Codazzi
entries in CSR order, the order in which the sparse product sums each
component, so g is that product bit for bit.  Steps solve
(J^T J + S + lam I) d = -J^T r.  With m = 3, S = 0: Gauss-Newton, since
the Gauss residual's Hessian in (h11, h12, h22) is indefinite.  With m = 2
the model is Newton's: node k's residual r_k = w (K - c - t h11 + h11^2 +
h12^2), t the trace, has the Hessian 2 w I in its two unknowns, so the
exact term S = sum_k r_k Hess r_k adds 2 w r_k to the node's two diagonal
entries.  It is clipped at r_k = 0, which keeps S positive semidefinite.
Where K - c - H^2 > 0 at every node, as on the contrast grid, the floor
is a large residual, and Gauss-Newton converges there only linearly
(Nocedal & Wright 2006, *Numerical Optimization*, ch. 10); NL2SOL adds S
for such problems (Dennis, Gay & Welsch 1981, *ACM TOMS* 7), and here S
is exact and block-diagonal, so no quasi-Newton update is needed.  The
matrix is symmetric positive definite and, in that order of the unknowns,
banded: a Codazzi row couples the nodes on either side of its own, so the
half-bandwidth is kd = 2 m min(nx, ny) (`_half_bandwidth`, which also sizes
the buffer and its cap) and the step needs no permutation.  It is factored
by LAPACK's band Cholesky (``dpbtrf`` through ``scipy.linalg.cholesky_banded``)
in one Fortran-ordered band buffer per run, overwritten by every
factorization.  J^T J = J_c^T J_c + J_g^T J_g is assembled there: the lower
triangle of the constant J_c^T J_c, one sparse product per problem, is
mapped from COO to band positions once, and each factorization scatters
it, adds the Gauss rows' m x m outer products through strided band views,
one per entry (a, b), and adds S and lam on the diagonal (LAPACK Users'
Guide, ``xPBTRF``).  A factorization that finds the matrix not
positive definite counts as a rejected step.

The damping lam follows the gain-ratio rule of Nielsen (1999) and Madsen,
Nielsen & Tingleff (2004, *Methods for Non-Linear Least Squares Problems*,
section 3.2): an accepted step scales lam by max(1/3, 1 - (2 rho - 1)^3),
where rho is the actual over the predicted decrease, and a rejected step
multiplies lam by nu, which doubles with every rejection in a row.  Only
improving steps are taken, so the residual never increases.  A rejected
step whose predicted decrease d . (lam d - g), g = J^T r, is at most
8 eps |r|^2 ends the run on its floor (ibid., section 3): the model has
no decrease left that |r|^2 can resolve, and more damping would only
shorten a step that already fails.  With B = J^T J + S + lam I, at least
lam I because S is clipped, and d = -B^-1 g that decrease is
g^T B^-1 g + lam |d|^2 <= 2 g^T B^-1 g (ibid., section 3.2), and for any
x, with z = g - B x computed explicitly, g^T B^-1 g <= g.x + x.z +
|z|^2 / lam; x = 0 gives the bound 2 |g|^2 / lam.  Before a trial is
factored, conjugate gradients on B x = g, one matrix-free product with B
per iteration (`_Problem.normal_operator`), look for an x whose bound is
at most eps |r|^2 / 2, one ulp of |r|^2 or less (Golub & Meurant 2010,
*Matrices, Moments and Quadrature*).  A trial so bounded is not factored:
it counts as a rejected step and ends the run on its floor.  The
threshold sits well under 8 eps |r|^2, because at 8 eps |r|^2 the proof
would end coarse runs a useful step early.  CG gives up once its lower
bound on g^T B^-1 g puts the proof out of reach (on a trial off the floor,
after one product, or none where a norm bound Lambda >= lambda_max(B)
shows it), once its upper bound, falling at its latest ratio per product,
would miss the target within the products left, or after `_CG_PRODUCTS`
products; it never makes a step.  The band buffer is allocated at a run's
first factorization, so a run whose first trial is proved on the floor,
like a 2x run that starts there, allocates none.

Every step is a solve with a band Cholesky factor, but not always a fresh
one.  An accepted factored step with rho > `_CHORD_RHO` that cut |r|^2
100x, below `_CHORD_CUT` |r|^2, keeps its factor, which stays in the band
buffer, and the next iteration first tries the chord step
d = -B_old^-1 g: the stale factor, back-substituted for the current
gradient, with no new factorization (Kelley 2003, *Solving Nonlinear
Equations with Newton's Method*; Shamanskii 1967, *Ukrain. Mat. Zh.* 19).
It is kept only if it too cuts |r|^2 100x; it then counts as an accepted
iteration, not a factorization, lam and nu stay as they are, and so does
the factor, for the next iteration.  Otherwise the iteration goes on to
the CG proof and the factored trial at the same lam, whose assembly drops
the factor; a failed chord trial is not a rejected step.  Near a zero
residual, as in a converging unconstrained run, the last steps are nearly
Newton's and their matrix hardly moves, so chord steps replace most of the
last factorizations.  On a large-residual floor a step seldom cuts |r|^2
100x, and no chord step does, so a trace-constrained run makes few chord
trials and takes no chord step.  The floor rules, the CG proof and 8 eps |r|^2,
apply to factored trials only; a chord trial has the finiteness gates
alone.

The 2x refinement run starts from the coarse solution interpolated
to the fine grid, which is nested iteration (Bornemann & Deuflhard 1996,
*Numer. Math.* 75).  It takes the damping on too: the fine run begins at
the coarse run's final lam, capped at the usual start 1e-3.  The
gain-ratio rule lowers lam at most 3x per accepted step (Madsen, Nielsen
& Tingleff, section 3.2), so a fine run begun again at 1e-3 would spend
its first factorizations walking lam back down to where the coarse run
left it.
Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError  # scipy.linalg raises this very class

from .errors import NonFiniteIterate
from .fields import (GridDomain, ShapeField, TraceConstraint, codazzi_residual,
                     gauss_residual, residual_norms)
from .textio import fmt17

# The scipy names this module calls through its globals, as (module,
# attribute or None for the module itself).  They are bound on first use
# (`_bind_scipy`), so that importing this module does not import scipy.
# splu is unused; perfbench binds optimize.splu by name.
_SCIPY = {"sparse": ("scipy.sparse", None),
          "cholesky_banded": ("scipy.linalg", "cholesky_banded"),
          "cho_solve_banded": ("scipy.linalg", "cho_solve_banded"),
          "splu": ("scipy.sparse.linalg", "splu")}


def _bind_scipy() -> None:
    """Bind every `_SCIPY` name into this module's globals.

    A name bound already (by an earlier call, or patched by a test) is kept.
    """
    for name, (module, attr) in _SCIPY.items():
        value = import_module(module)
        if attr is not None:
            value = getattr(value, attr)
        globals().setdefault(name, value)


def __getattr__(name):
    # serves the scipy names to readers from outside before their first use
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_scipy()
    return globals()[name]


_LAM_START = 1e-3
_LAM_MIN = 1e-14
_LAM_MAX = 1e12
_FLOOR_EPS = 8.0 * np.finfo(float).eps
# A trial whose decrease CG bounds by _CERTIFY_EPS F, at most one ulp of F,
# is rejected unfactored; CG gives up after _CG_PRODUCTS products with B.
_CERTIFY_EPS = 0.5 * np.finfo(float).eps
_CG_PRODUCTS = 16
_NORM_MARGIN = 1.0 + 1e-6     # covers the rounding of CG's first curvature
# An accepted factored step with rho above _CHORD_RHO that cut F below
# _CHORD_CUT F keeps its factor for a chord step, which is taken only if it
# cuts F as much.
_CHORD_RHO = 0.75
_CHORD_CUT = 0.01
# The cap on the doubles of one LM band buffer (512 MiB).  With the 2x
# refinement it admits square grids up to 101x101 at m = 2 and 77x77 at
# m = 3; the 32x32 grids in use need at most 4.7M doubles on their 2x grid.
MAX_BAND_DOUBLES = 2 ** 26


def _unknowns_per_node(constraint: TraceConstraint) -> int:
    """m: h11, h12 and h22, or h11 and h12 where a trace fixes h22."""
    return 3 if constraint.kind == "none" else 2


def _half_bandwidth(m: int, nx: int, ny: int) -> int:
    """kd of the LM band on an nx x ny grid: a Codazzi row couples the nodes
    two steps apart along the shorter axis, the node-major one."""
    return 2 * m * min(nx, ny)


def _band_doubles(m: int, nx: int, ny: int) -> int:
    """The doubles of the band buffer of an nx x ny grid, m N (kd + 1)."""
    return m * nx * ny * (_half_bandwidth(m, nx, ny) + 1)


@dataclass(frozen=True)
class ResidualReport:
    """Residual norms of the optimized field and how the optimizer got there.

    ``iterations`` and ``stop_reason`` (``converged`` reads it as a flag)
    describe the run on the requested grid and ``refinement_stop_reason``
    the 2x run's stop (None without one); ``factorizations`` and
    ``rejected_steps`` count over every grid of the refinement study.
    """

    constraint: str
    seed: int
    iterations: int
    gauss_max: float
    gauss_l2: float
    codazzi_max: float
    codazzi_l2: float
    total_l2: float
    refinement_history: tuple[tuple[int, int, float], ...]
    stop_reason: str
    factorizations: int
    rejected_steps: int
    refinement_stop_reason: str | None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

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
        if self.refinement_stop_reason is not None:
            nx, ny, _ = self.refinement_history[-1]
            lines.append(f"stop_reason_{nx}x{ny}={self.refinement_stop_reason}")
        return lines


class _Problem:
    """Residual, Jacobian blocks and gradient for one grid and constraint."""

    def __init__(self, grid: GridDomain, c: float, constraint: TraceConstraint):
        _bind_scipy()
        self.grid = grid
        self.c = c
        self.constraint = constraint
        self.N = grid.nx * grid.ny
        self.m = _unknowns_per_node(constraint)
        self.w = np.sqrt(grid.hx * grid.hy)
        self.trace = constraint.trace_target()
        self._jc = jc = self._assemble_codazzi_jacobian()
        self._jct = jc.T
        # g = J^T r sums into column j the Gauss entry first, then J_c's
        # entries in CSR order: the order of the sparse product J^T r
        self._grad_cols = np.concatenate([np.arange(self.m * self.N), jc.col])
        self._jc_rows = self.N + jc.row
        # ||J_c||_1 ||J_c||_inf for `norm_bound`: inf where it overflows
        with np.errstate(over="ignore", invalid="ignore"):
            self._jc_norm_sq = float(np.max(np.bincount(jc.col, abs(jc.data)))
                                     * np.max(np.bincount(jc.row, abs(jc.data))))

    # -- packing -------------------------------------------------------------

    def _grid(self, v: np.ndarray) -> np.ndarray:
        """The (k, nx, ny) view of v, which holds k values per node.

        This is the one place that fixes the order of the unknowns and of the
        Gauss rows: node-major along the shorter grid axis (j fastest unless
        nx < ny), a node's values consecutive.
        """
        nx, ny = self.grid.nx, self.grid.ny
        if nx < ny:
            return v.reshape(ny, nx, -1).transpose(2, 1, 0)
        return v.reshape(nx, ny, -1).transpose(2, 0, 1)

    def _packed(self, comps) -> np.ndarray:
        u = np.empty(self.m * self.N)
        self._grid(u)[:] = comps
        return u

    def pack(self, fld: ShapeField) -> np.ndarray:
        return self._packed([fld.h11, fld.h12, fld.h22][:self.m])

    def unpack(self, u: np.ndarray) -> ShapeField:
        h = self._grid(u)
        h11 = h[0].copy()
        h12 = h[1].copy()
        h22 = h[2].copy() if self.m == 3 else self.trace - h11
        return ShapeField(self.grid, h11, h12, h22, self.constraint)

    def random_init(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        g = self.grid
        return self._packed(rng.uniform(-1.0, 1.0, (self.m, g.nx, g.ny)))

    # -- residuals -------------------------------------------------------------

    def residual(self, u: np.ndarray) -> np.ndarray:
        fld = self.unpack(u)
        rg = np.empty(self.N)
        self._grid(rg)[0] = gauss_residual(fld, self.c)
        c1, c2 = codazzi_residual(fld)
        return self.w * np.concatenate([rg, c1.ravel(), c2.ravel()])

    def _assemble_codazzi_jacobian(self) -> sparse.coo_matrix:
        """The Codazzi block of J, read off `codazzi_residual` by probing,
        in COO form with its entries in CSR order.

        The rows are linear in h, and the row of interior node (i, j) reads
        only (i, j), (i +- 1, j) and (i, j +- 1): five nodes whose colours
        (i + 2 j) mod 5 differ by d = 0, 1, 2, 3 and 4, offsets (di, dj)[d].
        So the residual of the field that is 1 in component a on colour q
        and 0 elsewhere holds each row's coefficient on the one node of that
        colour it reads, at d = (q - i - 2 j) mod 5, and an exact zero,
        dropped, where it reads none.  With m = 2 the probe sets h22 = -h11,
        the linear part of h22 = trace - h11 (Curtis, Powell & Reid 1974,
        *J. Inst. Maths Applics* 13; Goldfarb & Toint 1984, *Math. Comp.*
        43: five colours are the fewest a 5-point stencil admits).
        """
        g = self.grid
        nx, ny = g.nx, g.ny
        nint = (nx - 2) * (ny - 2)
        column = self._grid(np.arange(self.m * self.N))
        colour = np.add.outer(np.arange(nx), 2 * np.arange(ny)) % 5
        di, dj = np.array([[0, 1, 0, 0, -1], [0, 0, 1, -1, 0]])
        i, j = np.ogrid[1:nx - 1, 1:ny - 1]
        probe = np.zeros((3, nx, ny))
        rows, cols, vals = [], [], []
        for a in range(self.m):
            for q in range(5):
                probe[a] = colour == q
                h22 = probe[2] if self.m == 3 else -probe[0]
                fld = ShapeField(g, probe[0], probe[1], h22)
                with np.errstate(invalid="ignore", over="ignore"):
                    r = np.concatenate(codazzi_residual(fld), axis=None)
                probe[a] = 0.0
                d = (q - colour[1:-1, 1:-1]) % 5
                col = column[a, i + di[d], j + dj[d]].ravel()
                hit = np.flatnonzero(r)
                rows.append(hit)
                cols.append(col[hit % nint])
                vals.append(r[hit])
        rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
        return sparse.csr_matrix((self.w * vals, (rows, cols)),
                                 shape=(2 * nint, self.m * self.N)).tocoo()

    def gauss_rows(self, u: np.ndarray) -> np.ndarray:
        """The Gauss block of J: entry (a, k) is the weighted derivative of
        node k's Gauss residual by its component a, the only ones it has."""
        h = u.reshape(self.N, self.m).T
        if self.m == 3:
            rows = [-h[2], 2.0 * h[1], -h[0]]
        else:
            rows = [h[0] - (self.trace - h[0]), 2.0 * h[1]]
        return self.w * np.stack(rows)

    def second_order(self, r: np.ndarray) -> np.ndarray | None:
        """The diagonal of S = sum_k r_k H_k, H_k the Hessian of node k's
        Gauss residual, per node and clipped at 0; None with m = 3.

        With m = 2 node k's residual w (K - c - t h11 + h11^2 + h12^2) has
        H_k = 2 w I on its two unknowns, so S adds 2 w r_k to both of their
        diagonal entries.  Clipping r_k at 0 keeps S positive semidefinite.
        With m = 3, H_k is indefinite, and the model stays Gauss-Newton's.
        """
        if self.m == 3:
            return None
        return 2.0 * self.w * np.maximum(r[:self.N], 0.0)

    def norm_bound(self, rows: np.ndarray, second: np.ndarray | None,
                   lam: float) -> float:
        """Lambda >= lambda_max(J^T J + S + lam I) by Weyl: ||J_c||_1
        ||J_c||_inf >= ||J_c||_2^2, the largest |v_k|^2 of a Gauss row, the
        largest S and lam; inf or nan where a term overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self._jc_norm_sq + np.max(np.sum(rows * rows, axis=0))
                         + (0.0 if second is None else np.max(second)) + lam)

    def normal_operator(self, rows: np.ndarray, second: np.ndarray | None,
                        lam: float):
        """v -> (J^T J + S + lam I) v, matrix-free: J_c^T (J_c v), each
        node's Gauss outer product v_k (v_k . v), and S and lam on the
        diagonal, for the Gauss rows ``rows`` and the S of ``second``."""
        jc, jct, m = self._jc, self._jct, self.m
        diag = lam if second is None else np.repeat(second, m) + lam

        def product(v: np.ndarray) -> np.ndarray:
            node = v.reshape(self.N, m).T
            gauss = rows * np.einsum("ak,ak->k", rows, node)
            return jct @ (jc @ v) + gauss.T.ravel() + diag * v

        return product

    def gradient(self, rows: np.ndarray, r: np.ndarray) -> np.ndarray:
        """g = J^T r from the Gauss rows of the iterate and its residual r,
        as one bincount over J's entries in the sparse product's order."""
        w = np.concatenate([(rows * r[:self.N]).T.ravel(),
                            self._jc.data * r[self._jc_rows]])
        return np.bincount(self._grad_cols, w, minlength=self.m * self.N)


class _BandedNormal:
    """A problem's J^T J = C + sum_k v_k v_k^T, plus S and lam on the
    diagonal, in LAPACK lower band storage.

    C = J_c^T J_c is the constant Codazzi part and v_k the Gauss row of node
    k, nonzero only on the node's m consecutive unknowns m k .. m k + m - 1.
    The buffer is Fortran-ordered, ab[i - j, j] = A[i, j] with ab of shape
    (kd + 1) x n; C's lower triangle is mapped to buffer positions once, and
    ``assemble`` refills the buffer for every factorization.  ``factor``
    is the band Cholesky factor of the last assembled matrix, which
    `_damped_step` computes in place in the same buffer, or None:
    ``assemble`` clears it, and so does a run whose step with it is not
    good enough for a chord step to follow.
    """

    def __init__(self, problem: _Problem):
        m, g = problem.m, problem.grid
        self.kd = _half_bandwidth(m, g.nx, g.ny)
        C = (problem._jct @ problem._jc).tocoo()
        lower = C.row >= C.col
        self._const_pos = (C.col * (self.kd + 1) + (C.row - C.col))[lower]
        self._const_val = C.data[lower]
        self.m = m
        n = m * problem.N
        self._buf = np.zeros(n * (self.kd + 1))
        self._zeroed = True     # np.zeros has cleared it for the first fill
        self.ab = self._buf.reshape(n, self.kd + 1).T
        self.factor = None

    def assemble(self, lam: float, rows: np.ndarray,
                 second: np.ndarray | None) -> np.ndarray:
        """Fill the buffer with C + sum_k v_k v_k^T + S + lam I, rows[a, k] =
        v_k[a] and S the diagonal that is ``second[k]`` on node k's m
        unknowns (no S when ``second`` is None)."""
        ab, m = self.ab, self.m
        self.factor = None
        if not self._zeroed:
            self._buf.fill(0.0)
        self._zeroed = False
        self._buf[self._const_pos] = self._const_val
        # entry (a, b), a >= b, of node k's outer product: ab[a - b, m k + b]
        for a in range(m):
            for b in range(a + 1):
                ab[a - b, b::m] += rows[a] * rows[b]
        if second is not None:
            ab[0] += np.repeat(second, m)
        ab[0] += lam
        return ab


def _damped_step(normal: _BandedNormal, g: np.ndarray, lam: float,
                 rows: np.ndarray, second: np.ndarray | None) -> np.ndarray:
    """The step d solving (J^T J + S + lam I) d = -g, by banded Cholesky.

    ``normal`` is the problem's `_BandedNormal`, ``rows`` its current Gauss
    rows and ``second`` its `_Problem.second_order` term S (None: S = 0);
    ``g`` and the step are in the problem's order of unknowns, which is the
    band order.  The band buffer is factored in place, and the factor is
    kept as ``normal.factor``.  Raises LinAlgError when the matrix is not
    numerically positive definite.
    """
    normal.factor = cholesky_banded(normal.assemble(lam, rows, second),
                                    overwrite_ab=True, lower=True,
                                    check_finite=False)
    return _band_solve(normal, g)


def _band_solve(normal: _BandedNormal, g: np.ndarray) -> np.ndarray:
    """The step d solving B d = -g, B the matrix ``normal.factor`` factors."""
    return cho_solve_banded((normal.factor, True), -g, overwrite_b=True,
                            check_finite=False)


def _trial(problem: _Problem, u: np.ndarray,
           delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """u + delta, its residual and its F, raising NonFiniteIterate on a
    non-finite step or residual."""
    if not np.all(np.isfinite(delta)):
        raise NonFiniteIterate("non-finite Gauss-Newton step")
    u_try = u + delta
    r_try = problem.residual(u_try)
    if not np.all(np.isfinite(r_try)):
        raise NonFiniteIterate("optimizer diverged to non-finite residual")
    return u_try, r_try, float(r_try @ r_try)


def _decrease_bound(problem: _Problem, rows: np.ndarray,
                    second: np.ndarray | None, g: np.ndarray, lam: float,
                    target: float) -> float:
    """An upper bound, at most ``target``, on the predicted decrease of the
    damped step, proved by conjugate gradients without factoring; inf when
    none is found.

    With B = J^T J + S + lam I, which is at least lam I, and d = -B^-1 g the
    decrease is g^T B^-1 g + lam |d|^2 <= 2 g^T B^-1 g.  For any x, with
    z = g - B x computed explicitly, g^T B^-1 g = g.x + x.z + z^T B^-1 z
    <= g.x + x.z + |z|^2 / lam, and CG on B x = g gives the lower bound
    sum_k alpha_k |z_k|^2 <= g^T B^-1 g (Golub & Meurant 2010, *Matrices,
    Moments and Quadrature*).  x = 0 needs no product, nor does a trial with
    2 |g|^2 / Lambda over ``target``, Lambda >= lambda_max(B)
    (`_Problem.norm_bound`): CG's first lower bound |g|^4 / g^T B g is at
    least |g|^2 / Lambda.  CG stops as soon as
    twice that lower bound exceeds ``target``, after _CG_PRODUCTS products
    with B, on a curvature p^T B p that is not finite and positive, or once
    the upper bound, falling on at its latest ratio per product, would still
    exceed ``target`` after the products left (from the second product on:
    the first CG iterate's bound may exceed the bound at x = 0).  It
    produces no step, only the bound.
    """
    def upper(x, z):
        return 2.0 * (float(g @ x) + float(x @ z) + float(z @ z) / lam)

    zz = float(g @ g)
    if 2.0 * zz / lam <= target:   # the bound at x = 0
        return 2.0 * zz / lam
    norm = problem.norm_bound(rows, second, lam) * _NORM_MARGIN
    if 2.0 * zz / norm > target:    # false where Lambda overflows
        return np.inf
    product = problem.normal_operator(rows, second, lam)
    x = np.zeros_like(g)
    z, p = g.copy(), g.copy()
    lower, products, last = 0.0, 0, np.inf
    while products < _CG_PRODUCTS:
        q = product(p)
        products += 1
        pq = float(p @ q)
        if not (np.isfinite(pq) and pq > 0.0):
            break
        alpha = zz / pq
        lower += alpha * zz
        if 2.0 * lower > target:
            break
        x += alpha * p
        z -= alpha * q
        # the recurrence's z only screens: rounding parts it from g - B x,
        # and the bound holds for the explicit residual alone
        screen = upper(x, z)
        if screen <= target:
            products += 1
            bound = upper(x, g - product(x))
            if bound <= target:
                return bound
        elif screen * (screen / last) ** (_CG_PRODUCTS - products) > target:
            break   # at its latest ratio it misses the target in time
        last = screen
        zz, zz_old = float(z @ z), zz
        p = z + (zz / zz_old) * p
    return np.inf


class _Trial(NamedTuple):
    """One LM trial at damping ``lam``, from |r|^2 = ``F`` to ``F_try`` (nan
    if none): chord, factored, indefinite (LinAlgError) or proved by CG."""
    kind: str
    lam: float
    F: float
    F_try: float
    accepted: bool


class _LMRun(NamedTuple):
    u: np.ndarray
    trials: tuple[_Trial, ...]
    # converged | max_iter | floor (a rejected factored trial's predicted
    # decrease was at most 8 eps |r|^2, or a proved trial) | lam_max
    stop_reason: str
    lam: float              # the damping the run ended with

    @property
    def iterations(self) -> int:    # accepted steps, chord steps included
        return sum(t.accepted for t in self.trials)

    @property
    def factorizations(self) -> int:    # band Cholesky calls, failed too
        return sum(t.kind in ("factored", "indefinite") for t in self.trials)

    @property
    def rejected_steps(self) -> int:    # failed chord trials are not counted
        return sum(not t.accepted and t.kind != "chord" for t in self.trials)


# an overflow or NaN anywhere in the run is left to its gates: the
# finiteness checks, CG's curvature test and the band factorization
@np.errstate(over="ignore", invalid="ignore")
def _gauss_newton(problem: _Problem, u0: np.ndarray, tol: float,
                  max_iter: int, lam: float) -> _LMRun:
    """Levenberg-Marquardt from u0 with starting damping lam."""
    u = u0.astype(float)
    r = problem.residual(u)
    if not np.all(np.isfinite(r)):
        raise NonFiniteIterate("non-finite residual at the initial field")
    F = float(r @ r)
    nu = 2.0
    trials = []
    normal = None   # the band, allocated at the run's first factorization

    stop = None
    while stop is None:
        if np.sqrt(F) < tol:
            stop = "converged"
        elif sum(t.accepted for t in trials) >= max_iter:
            stop = "max_iter"
        else:
            rows = problem.gauss_rows(u)
            g = problem.gradient(rows, r)
            second = problem.second_order(r)
            if normal is not None and normal.factor is not None:
                # a chord step: the kept factor, of a stale matrix, solves
                # for this gradient; lam and nu stay as they are.  A failed
                # one falls through to the CG proof and the factored trial,
                # whose assembly drops the factor
                u_try, r_try, F_try = _trial(problem, u, _band_solve(normal, g))
                trials.append(_Trial("chord", lam, F, F_try,
                                     F_try < _CHORD_CUT * F))
                if trials[-1].accepted:
                    u, r, F = u_try, r_try, F_try
                    continue
            while lam <= _LAM_MAX:
                # a trial whose decrease CG bounds under one ulp of F is
                # rejected unfactored
                if _decrease_bound(problem, rows, second, g, lam,
                                   _CERTIFY_EPS * F) < np.inf:
                    trials.append(_Trial("proved", lam, F, np.nan, False))
                    stop = "floor"
                    break
                if normal is None:
                    normal = _BandedNormal(problem)
                try:
                    delta = _damped_step(normal, g, lam, rows, second)
                except LinAlgError:
                    trials.append(_Trial("indefinite", lam, F, np.nan, False))
                    lam, nu = lam * nu, 2.0 * nu
                    continue
                u_try, r_try, F_try = _trial(problem, u, delta)
                # the model's predicted decrease of |r|^2
                pred = float(delta @ (lam * delta - g))
                trials.append(_Trial("factored", lam, F, F_try, F_try < F))
                if F_try < F:
                    rho = (F - F_try) / pred
                    if rho <= _CHORD_RHO or F_try >= _CHORD_CUT * F:
                        normal.factor = None
                    u, r, F = u_try, r_try, F_try
                    lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3),
                              _LAM_MIN)
                    nu = 2.0
                    break
                if pred <= _FLOOR_EPS * F:
                    stop = "floor"
                    break
                lam, nu = lam * nu, 2.0 * nu
            else:
                stop = "lam_max"

    return _LMRun(u, tuple(trials), stop, lam)


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
    persists under refinement; a consistent one converges to zero).  The
    run on this grid starts from ``init_field`` or, without one, from the
    random field of ``seed``; the 2x run starts from its result, refined
    by `_refine_field`, so the seed varies only the coarse start.  The 2x
    run also starts from the coarse run's final damping, capped at the
    coarse run's start 1e-3 (Madsen, Nielsen & Tingleff 2004, section 3.2:
    an accepted step lowers the damping at most 3x).  The counters are read
    off each run's trial records (`_Trial`): ``iterations`` counts accepted
    trials, chord steps (solves with the stale factor of an earlier step)
    included, ``factorizations`` band Cholesky calls, failed ones included,
    and ``rejected_steps`` the other trials, failed chord trials excepted.
    A run stops as converged, max_iter, floor (a rejected factored trial
    whose predicted decrease is at most 8 eps |r|^2, or a trial whose
    decrease conjugate gradients bound by eps |r|^2 / 2, not factored;
    neither rule applies to a chord trial) or lam_max (the damping passed
    its cap, as after repeated failed factorizations); the report gives the
    2x run's stop as ``refinement_stop_reason``.  A grid, or its 2x
    refinement, whose band buffer would hold more than MAX_BAND_DOUBLES
    doubles raises ValueError before anything is allocated, and a residual
    norm that is not finite raises NumericalFailure (`residual_norms`).
    """
    m = _unknowns_per_node(constraint)
    for k in ((1, 2) if refine else (1,)):
        nx, ny = k * grid.nx, k * grid.ny
        doubles = _band_doubles(m, nx, ny)
        if doubles > MAX_BAND_DOUBLES:
            raise ValueError(f"a {nx}x{ny} grid needs an LM band of {doubles} "
                             f"doubles, more than {MAX_BAND_DOUBLES}")
    results = []
    for g in [grid] + ([_refine_grid(grid)] if refine else []):
        problem = _Problem(g, c, constraint)
        if results:
            u0 = problem.pack(_refine_field(results[0][1], g))
        elif init_field is None:
            u0 = problem.random_init(seed)
        else:
            u0 = problem.pack(init_field)
        lam = min(_LAM_START, results[0][0].lam) if results else _LAM_START
        run = _gauss_newton(problem, u0, tol, max_iter, lam)
        fld = problem.unpack(run.u)
        results.append((run, fld, residual_norms(fld, c)))

    run, fld, norms = results[0]
    report = ResidualReport(
        str(constraint), seed, run.iterations, *norms,
        tuple((f.grid.nx, f.grid.ny, n[-1]) for _, f, n in results),
        run.stop_reason, sum(r.factorizations for r, _, _ in results),
        sum(r.rejected_steps for r, _, _ in results),
        results[-1][0].stop_reason if refine else None)
    return fld, report
