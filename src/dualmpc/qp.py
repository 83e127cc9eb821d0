"""Dense convex quadratic programming.

Solves problems of the one form the package poses,

    min  0.5 x'Hx + g'x
    s.t. A_in x <= b_in,

with a Mehrotra predictor-corrector interior-point iteration over dense
matrices; a problem without rows is rejected.  Every
optimization in this package (invariant-set synthesis, the tube controller,
the constrained estimator correction) is dispatched through :func:`solve`.

Termination is scale-relative, as in OSQP (Stellato et al. 2020): a point is
optimal when its KKT residual is at most ``tol``, where primal infeasibility
(violation of ``A_in x <= b_in``) is taken as it is, and stationarity and
complementarity are divided by

    max(1, |Hx|_inf, |g|_inf, |A_in' lam|_inf).

So an OPTIMAL point is feasible to ``tol`` in absolute terms, while a cost of
large norm is not asked for more significant digits than one of norm 1.  The
same rule decides the interior-point loop and the acceptance of a warm
start.

A warm start is read for its ``x`` and ``ineq_duals`` only: when they meet
the KKT test they are returned with 0 iterations, otherwise x alone seeds
the iteration.  Duals of a nearby problem are a poorly centred
start (Yildirim & Wright 2002), on which some solves stalled near the optimum.

The interior-point duals start at max(1, |Hx0 + g|_inf), the cost's gradient
at the start point x0, which A_in' lam must balance; a projection starts at
the point it projects, where that gradient is 0.  Scaling (H, g) by s then
scales every dual iterate by s and keeps the primal ones and the iteration
count (up to the floor of 1 and the step rule max(0.99, 1 - mu) near the
end).

Each iteration evaluates the KKT residuals once: one matvec with [H; A_in]
gives Hx and A_in x, and the predictor reuses the A_in' lam computed there.
Predictor and corrector share one Cholesky factorization of the positive
definite K = H + A_in' D A_in (Wright 1997, ch. 11; Rao, Wright & Rawlings
1998).  The iterate (x, w, lam) is one vector stepped in place; one ratio
test over (w, lam) bounds each step.

The solver is deterministic: identical inputs produce identical iterates.  It
never raises on a numerical failure: a non-finite iterate or Newton matrix,
or a Newton matrix that fails its Cholesky factorization, ends the iteration
with the best point seen and status ``MAX_ITER`` or ``INFEASIBLE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigurationError


class QpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"


# Ridge added to H, and relative to its scale to a singular projection
# covariance, so positive-semidefinite matrices factor reliably.
_RIDGE = 1e-10
# Iterations of primal-residual stagnation before declaring infeasibility.
_STALL_WINDOW = 50
# Interior-point iterations before giving up with the best point seen.
_MAX_ITER = 500


@dataclass
class QpProblem:
    """Dense QP data. A missing constraint block is an empty (0-row) array.

    :meth:`build` validates a problem and the solver does not.
    ``tmpc.solve_tmpc`` validates the H and fixed rows of each controller's
    ``rci.TubeQp`` once and constructs each step's problem directly.
    """

    H: np.ndarray
    g: np.ndarray
    A_in: np.ndarray
    b_in: np.ndarray

    @classmethod
    def build(cls, H, g, A_in=None, b_in=None, check_psd: bool = True) -> "QpProblem":
        """Validated problem; ``check_psd=False`` skips the eigenvalue check
        for a caller that has already proved H positive semidefinite."""
        H = np.atleast_2d(np.asarray(H, dtype=float))
        g = np.asarray(g, dtype=float).ravel()
        n = g.size
        if A_in is None:
            A_in, b_in = np.zeros((0, n)), np.zeros(0)
        prob = cls(
            H=H,
            g=g,
            A_in=np.atleast_2d(np.asarray(A_in, dtype=float)).reshape(-1, n),
            b_in=np.asarray(b_in, dtype=float).ravel(),
        )
        prob.validate(check_psd)
        return prob

    @property
    def n(self) -> int:
        return self.g.size

    def validate(self, check_psd: bool = True) -> None:
        n = self.n
        if self.H.shape != (n, n):
            raise ConfigurationError(f"H shape {self.H.shape} incompatible with g size {n}")
        if self.A_in.shape[0] != self.b_in.size or self.A_in.shape[1] != n:
            raise ConfigurationError("inequality block dimensions inconsistent")
        if not all(np.isfinite(a).all() for a in (self.H, self.g, self.A_in, self.b_in)):
            raise ConfigurationError("problem data must be finite")
        scale = max(1.0, float(np.abs(self.H).max()))
        if np.abs(self.H - self.H.T).max() > 1e-8 * scale:
            raise ConfigurationError("H must be symmetric")
        if not check_psd:
            return
        min_eig = float(np.linalg.eigvalsh(0.5 * (self.H + self.H.T)).min())
        if min_eig < -1e-9 * scale:
            raise ConfigurationError(f"H must be positive semidefinite (min eig {min_eig:.3e})")

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.H @ x + self.g @ x)


@dataclass
class QpSolution:
    x: np.ndarray
    ineq_duals: np.ndarray
    # Scaled KKT residual (see the module docstring): absolute primal
    # infeasibility, stationarity and complementarity relative to the data.
    kkt_residual: float
    status: QpStatus
    iterations: int
    # Best primal infeasibility seen; the certificate residual when infeasible.
    primal_infeasibility: float = 0.0
    value: float = field(default=float("nan"))


def _kkt_residual(prob: QpProblem, HA: np.ndarray, At: np.ndarray, x, lam, g_inf: float):
    """(scaled KKT residual, absolute primal infeasibility, r_d, r_in, A_in' lam)
    at a primal-dual point, where r_d = Hx + g + A_in' lam and r_in = A_in x - b_in
    feed the Newton step; ``HA`` = [H; A_in], ``At`` = A_in' and ``g_inf`` = |g|_inf."""
    Hx_Ax, n, m = HA @ x, x.size, lam.size
    Hx, r_in, Atl = Hx_Ax[:n], Hx_Ax[n:] - prob.b_in, At @ lam
    r_d = Hx + prob.g + Atl
    # One reduction gives |Hx|, |A_in' lam|, |r_d|, |lam o r_in|, max r_in and -min lam.
    parts = np.concatenate([Hx, Atl, r_d, lam * r_in, r_in, -lam])
    np.abs(parts[:3 * n + m], out=parts[:3 * n + m])
    Hx_inf, Atl_inf, stat, comp, p_inf, lam_neg = np.maximum.reduceat(
        parts, [0, n, 2 * n, 3 * n, 3 * n + m, 3 * n + 2 * m]).tolist()
    scale, p_inf = max(1.0, g_inf, Hx_inf, Atl_inf), max(p_inf, 0.0)
    return max(stat / scale, p_inf, max(comp, lam_neg, 0.0) / scale), p_inf, r_d, r_in, Atl


def _newton_direction(U, G, r_p, d, rc_w, dx, dwl) -> None:
    """Overwrite the right-hand side dx with K^-1 dx, where K = U'U is the
    factor ``lapack.dpotrf`` returns, and dwl = (dw, dlam) with
    dw = -r_p - G dx and dlam = -rc_w - d o dw."""
    dx[:] = lapack.dpotrs(U, dx, overwrite_b=1)[0]
    dw, dlam = dwl[:len(r_p)], dwl[len(r_p):]
    np.negative(np.add(G @ dx, r_p, out=dw), out=dw)
    np.negative(np.add(d * dw, rc_w, out=dlam), out=dlam)


def _step_divisor(dwl: np.ndarray, wl: np.ndarray) -> float:
    """Divisor that keeps wl + dwl / divisor in the closed positive orthant:
    max(1, -min(dwl / wl)).  An exact zero that does not move gives the
    ratio 0/0, which bounds nothing; np.fmin skips it where min would return
    NaN and let the full step leave the orthant.  Call it under
    ``np.errstate(divide="ignore", invalid="ignore")``."""
    return max(1.0, -float(np.fmin.reduce(dwl / wl)))


# Overflow and division by zero show up as non-finite values, which the
# iteration checks for, instead of as warnings.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def solve(prob: QpProblem, tol: float = 1e-8,
          warm_start: QpSolution | np.ndarray | None = None) -> QpSolution:
    """Solve min 0.5 x'Hx + g'x s.t. A_in x <= b_in to scaled KKT residual
    <= tol (see the module docstring); a problem without rows raises
    ``ConfigurationError``.

    A warm start carrying duals (a :class:`QpSolution`) is first checked
    against the KKT conditions and accepted outright when it already
    satisfies them; otherwise, and for a bare primal vector, its x only
    seeds the interior-point iteration.  A warm start of another size raises
    ``ConfigurationError``.  A numerical failure (a non-finite iterate or
    Newton matrix, or a Newton matrix that fails its Cholesky factorization)
    ends the iteration with the best point seen, status ``MAX_ITER`` when
    that point is feasible to ``tol`` and ``INFEASIBLE`` otherwise.  Without
    convergence the best point seen is returned, and ``iterations`` counts
    the iterations run, not the index of that point.
    """
    if not tol > 0:
        raise ConfigurationError("tol must be positive")
    n, m = prob.n, prob.A_in.shape[0]
    if m == 0:
        raise ConfigurationError("a QP without rows is not posed by this package")
    G, h = prob.A_in, prob.b_in
    HA = np.concatenate([prob.H + _RIDGE * np.eye(n), G])
    H, Gt = HA[:n], np.ascontiguousarray(G.T)
    g_inf = float(np.maximum.reduce(np.abs(prob.g), initial=0.0))

    x0 = warm_start
    if isinstance(warm_start, QpSolution):
        x0, lam = warm_start.x, warm_start.ineq_duals
        if (x0.size, lam.size) != (n, m):
            raise ConfigurationError("warm start has wrong dimension")
        kkt, p_inf, *_ = _kkt_residual(prob, HA, Gt, x0, lam, g_inf)
        if kkt <= tol:
            return QpSolution(x0.copy(), lam.copy(), kkt, QpStatus.OPTIMAL, 0,
                              p_inf, prob.objective(x0))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).ravel()
        if x0.size != n:
            raise ConfigurationError("warm start has wrong dimension")

    # Iterate v = (x, w, lam), slacks w and duals lam, step dv and predictor
    # (dw, dlam), read through views; the duals start at the cost's gradient norm.
    v, dv, dwl_a = np.empty(n + 2 * m), np.empty(n + 2 * m), np.empty(2 * m)
    x, w, lam = v[:n], v[n:n + m], v[n + m:]
    dx, dwl, wl = dv[:n], dv[n:], v[n:]
    Gd, K = np.empty((n, m)), np.empty((n, n))
    x[:] = 0.0 if x0 is None else x0
    lam0 = max(1.0, float(np.maximum.reduce(np.abs(H @ x + prob.g), initial=0.0)))
    w[:], lam[:] = np.maximum(h - G @ x, 1.0), lam0

    best, best_kkt = v.copy(), np.inf
    p_inf_hist: list[float] = []
    it = 0
    for it in range(1, _MAX_ITER + 1):
        kkt, p_inf, r_d, r_in, Gl = _kkt_residual(prob, HA, Gt, x, lam, g_inf)
        p_inf_hist.append(p_inf)
        if kkt <= tol:
            return QpSolution(x.copy(), lam.copy(), kkt, QpStatus.OPTIMAL,
                              it, p_inf, prob.objective(x))
        if kkt < best_kkt:
            best, best_kkt = v.copy(), kkt
        stalled = (len(p_inf_hist) > _STALL_WINDOW and min(p_inf_hist) > tol and
                   min(p_inf_hist[-_STALL_WINDOW:]) >= 0.999 * min(p_inf_hist[:-_STALL_WINDOW]))
        if stalled or (p_inf > tol and np.maximum.reduce(lam) > 1e13 * lam0):
            return QpSolution(x.copy(), lam.copy(), kkt, QpStatus.INFEASIBLE,
                              it, min(p_inf_hist), prob.objective(x))

        # Newton step for complementarity target r_c (w o lam -> r_c), with
        # d = lam / w: dw = -r_p - G dx, dlam = -r_c / w - d o dw, and
        # (H + G'DG) dx = G'(r_c / w) - q, q = G'(d o r_p) + r_d.
        r_p, d, wlam = r_in + w, lam / w, w * lam
        q = Gt @ (d * r_p) + r_d
        mu = float(np.add.reduce(wlam)) / m
        np.matmul(np.multiply(Gt, d, out=Gd), G, out=K)
        K += H
        if not np.logical_and.reduce(np.isfinite(K), axis=None):
            break
        U, info = lapack.dpotrf(K, clean=0)
        if info:
            break

        # Predictor (affine scaling) step, r_c = w o lam: G'(r_c / w) = G'lam.
        np.subtract(Gl, q, out=dx)
        _newton_direction(U, G, r_p, d, lam, dx, dwl_a)
        wl_a = dwl_a / _step_divisor(dwl_a, wl) + wl
        mu_aff = float(wl_a[:m] @ wl_a[m:]) / m
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3 if mu > 0 else 0.0

        # Corrector step with centering, on the same factorization.
        rc_w = (dwl_a[:m] * dwl_a[m:] + wlam - sigma * mu) / w
        np.subtract(Gt @ rc_w, q, out=dx)
        _newton_direction(U, G, r_p, d, rc_w, dx, dwl)
        dv *= max(0.99, 1.0 - mu) / _step_divisor(dwl, wl)
        v += dv
        if not np.logical_and.reduce(np.isfinite(v)):
            break

    x, lam = best[:n], best[n + m:]
    p_inf = min(p_inf_hist)
    status = QpStatus.INFEASIBLE if p_inf > tol else QpStatus.MAX_ITER
    return QpSolution(x, lam, best_kkt, status, it, p_inf, prob.objective(x))


def project_weighted(
    x0: np.ndarray,
    P: np.ndarray,
    A_in: np.ndarray,
    b_in: np.ndarray,
    tol: float = 1e-9,
) -> QpSolution:
    """Projection arg min ||x - x0||_M^2 onto {x : A_in x <= b_in} in the
    metric M = P^-1 of the covariance P (the estimate projection of Simon
    2010): the QP min x'Mx - 2 x0'Mx s.t. A_in x <= b_in.

    P is factored once, P = U'U (LAPACK dpotrf); a singular P takes a ridge
    of _RIDGE max(1, |P|_max) I, and a P that does not factor even then
    raises ``ConfigurationError``.  M = U^-1 U^-T is formed only when x0 is
    infeasible.  The interior-point iteration starts at x0, where the cost's
    gradient is zero, so the duals start at 1 (Wright 1997).  Returns the
    full solution so callers can inspect status; when x0 is already
    feasible, as it is for a polyhedron without rows, it is returned
    unchanged with zero distance.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    P = np.asarray(P, dtype=float)
    U, info = lapack.dpotrf(P)
    if info:
        U, info = lapack.dpotrf(P + _RIDGE * max(1.0, np.abs(P).max()) * np.eye(len(P)))
    if info:
        raise ConfigurationError("projection covariance must be positive semidefinite")
    if (b_in - A_in @ x0).min(initial=0.0) >= 0.0:
        return QpSolution(x0.copy(), np.zeros(len(b_in)), 0.0, QpStatus.OPTIMAL, 0, 0.0, 0.0)
    U_inv, _ = lapack.dtrtri(U)
    M = U_inv @ U_inv.T
    # M is positive definite by construction, so the problem skips that check.
    prob = QpProblem.build(2.0 * M, -2.0 * M @ x0, A_in, b_in, check_psd=False)
    sol = solve(prob, tol=tol, warm_start=x0)
    sol.value = float((sol.x - x0) @ M @ (sol.x - x0))
    return sol
