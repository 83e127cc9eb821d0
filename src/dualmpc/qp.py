"""Dense convex quadratic programming.

Solves problems of the form

    min  0.5 x'Hx + g'x
    s.t. A_in x <= b_in,  A_eq x = b_eq

with a Mehrotra predictor-corrector interior-point iteration over dense
matrices.  Every optimization in this package (invariant-set synthesis, the
tube controller, the constrained estimator correction) is dispatched through
:func:`solve`.

Termination is scale-relative, as in OSQP (Stellato et al. 2020): a point is
optimal when its KKT residual is at most ``tol``, where primal infeasibility
(violation of ``A_in x <= b_in`` and ``A_eq x = b_eq``) is taken as it is, and
stationarity and complementarity are divided by

    max(1, |Hx|_inf, |g|_inf, |A_in' lam|_inf, |A_eq' nu|_inf).

So an OPTIMAL point is feasible to ``tol`` in absolute terms, while a cost of
large norm is not asked for more significant digits than one of norm 1.  The
same rule decides the interior-point loop, the acceptance of a warm start and
the equality-constrained direct solve.

A warm start is read for its ``x``, ``ineq_duals`` and ``eq_duals`` only:
when they meet the KKT test they are returned with 0 iterations, otherwise x
alone seeds the iteration.  Duals of a nearby problem are a poorly centred
start (Yildirim & Wright 2002), on which some solves stalled near the optimum.

The interior-point duals start at max(1, |Hx0 + g|_inf), the cost's gradient
at the start point x0, which A_in' lam must balance.  Scaling (H, g) by s then
scales every dual iterate by s and keeps the primal ones and the iteration
count (up to the floor of 1 and the step rule max(0.99, 1 - mu) near the
end).  Each iteration evaluates the KKT residuals once, for the termination
test and the Newton step; predictor and corrector share one LU factorization,
and one ratio test over the stacked (slack, dual) vector bounds each step.

The solver is deterministic: identical inputs produce identical iterates.  It
never raises on a numerical failure: a non-finite iterate or Newton step ends
the iteration with the best point seen and status ``MAX_ITER`` or
``INFEASIBLE``.
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


# Ridge added to H so positive-semidefinite costs factor reliably.
_RIDGE = 1e-10
# Iterations of primal-residual stagnation before declaring infeasibility.
_STALL_WINDOW = 50


@dataclass
class QpProblem:
    """Dense QP data. Missing constraint blocks are empty (0-row) arrays.

    Build problems with :meth:`build`, which validates them once; the solver
    does not validate again.
    """

    H: np.ndarray
    g: np.ndarray
    A_in: np.ndarray
    b_in: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray

    @classmethod
    def build(cls, H, g, A_in=None, b_in=None, A_eq=None, b_eq=None,
              check_psd: bool = True) -> "QpProblem":
        """Validated problem; ``check_psd=False`` skips the eigenvalue check
        for a caller that has already proved H positive semidefinite."""
        H = np.atleast_2d(np.asarray(H, dtype=float))
        g = np.asarray(g, dtype=float).ravel()
        n = g.size
        if A_in is None:
            A_in, b_in = np.zeros((0, n)), np.zeros(0)
        if A_eq is None:
            A_eq, b_eq = np.zeros((0, n)), np.zeros(0)
        prob = cls(
            H=H,
            g=g,
            A_in=np.atleast_2d(np.asarray(A_in, dtype=float)).reshape(-1, n),
            b_in=np.asarray(b_in, dtype=float).ravel(),
            A_eq=np.atleast_2d(np.asarray(A_eq, dtype=float)).reshape(-1, n),
            b_eq=np.asarray(b_eq, dtype=float).ravel(),
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
        if self.A_eq.shape[0] != self.b_eq.size or self.A_eq.shape[1] != n:
            raise ConfigurationError("equality block dimensions inconsistent")
        if not all(np.isfinite(a).all() for a in (self.H, self.g, self.A_in, self.b_in,
                                                   self.A_eq, self.b_eq)):
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
    eq_duals: np.ndarray
    # Scaled KKT residual (see the module docstring): absolute primal
    # infeasibility, stationarity and complementarity relative to the data.
    kkt_residual: float
    status: QpStatus
    iterations: int
    # Best primal infeasibility seen; the certificate residual when infeasible.
    primal_infeasibility: float = 0.0
    value: float = field(default=float("nan"))


def _kkt_residual(prob: QpProblem, H: np.ndarray, x, lam, nu, g_inf: float):
    """(scaled KKT residual, absolute primal infeasibility, r_d, r_in, r_eq)
    at a primal-dual point, where r_d = Hx + g + A_in' lam + A_eq' nu,
    r_in = A_in x - b_in and r_eq = A_eq x - b_eq feed the Newton step.
    ``g_inf`` is |g|_inf; without equality rows r_eq is the empty b_eq."""
    Hx, Gl = H @ x, prob.A_in.T @ lam
    r_d = Hx + prob.g + Gl
    r_in = prob.A_in @ x - prob.b_in
    scale = max(1.0, g_inf, float(np.abs(Hx).max(initial=0.0)), float(np.abs(Gl).max(initial=0.0)))
    p_inf = float(r_in.max(initial=0.0))
    r_eq = prob.b_eq
    if r_eq.size:
        Anu = prob.A_eq.T @ nu
        r_d += Anu
        r_eq = prob.A_eq @ x - prob.b_eq
        scale = max(scale, float(np.abs(Anu).max()))
        p_inf = max(p_inf, float(np.abs(r_eq).max()))
    stat = float(np.abs(r_d).max(initial=0.0)) / scale
    comp = max(float(np.abs(lam * r_in).max(initial=0.0)), -float(lam.min(initial=0.0))) / scale
    return max(stat, p_inf, comp), p_inf, r_d, r_in, r_eq


def _linear_solve(M: np.ndarray, lu: tuple, rhs: np.ndarray) -> np.ndarray:
    """M^-1 rhs for a finite M, given ``lu = lapack.dgetrf(M)``, or by least
    squares when M is singular.  A failed least-squares solve gives NaNs,
    which the caller checks for."""
    if lu[2] == 0:
        return lapack.dgetrs(lu[0], lu[1], rhs)[0]
    try:
        return np.linalg.lstsq(M, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        return np.full(M.shape[0], np.nan)


def _solve_equality_qp(prob: QpProblem, H: np.ndarray, tol: float, g_inf: float) -> QpSolution:
    """Direct KKT solve when there are no inequality constraints."""
    n, p = prob.n, prob.A_eq.shape[0]
    K = np.block([[H, prob.A_eq.T], [prob.A_eq, np.zeros((p, p))]]) if p else H
    sol = _linear_solve(K, lapack.dgetrf(K), np.concatenate([-prob.g, prob.b_eq]))
    x, nu = sol[:n], sol[n:]
    if not np.isfinite(sol).all():
        return QpSolution(np.zeros(n), np.zeros(0), np.zeros(p), np.inf,
                          QpStatus.INFEASIBLE, 1, np.inf)
    kkt, p_inf, *_ = _kkt_residual(prob, H, x, np.zeros(0), nu, g_inf)
    status = QpStatus.OPTIMAL if kkt <= tol else QpStatus.INFEASIBLE
    return QpSolution(x, np.zeros(0), nu, kkt, status, 1, p_inf, prob.objective(x))


# Overflow and division by zero show up as non-finite values, which the
# iteration checks for, instead of as warnings.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def solve(
    prob: QpProblem,
    tol: float = 1e-8,
    max_iter: int = 500,
    warm_start: QpSolution | np.ndarray | None = None,
) -> QpSolution:
    """Solve a dense convex QP to scaled KKT residual <= tol.

    Primal infeasibility must be at most ``tol`` in absolute terms;
    stationarity and complementarity are divided by
    max(1, |Hx|, |g|, |A_in' lam|, |A_eq' nu|) (infinity norms) first.

    A warm start carrying duals (a :class:`QpSolution`) is first checked
    against the KKT conditions and accepted outright when it already
    satisfies them; otherwise, and for a bare primal vector, its x only
    seeds the interior-point iteration.  A warm start of another size raises
    ``ConfigurationError``.  A numerical failure (non-finite iterate or
    Newton step) ends the iteration with the best point seen, status
    ``MAX_ITER`` when that point is feasible to ``tol`` and ``INFEASIBLE``
    otherwise.  Without convergence the best point seen is returned, and
    ``iterations`` counts the iterations run, not the index of that point.
    """
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    n, m, p = prob.n, prob.A_in.shape[0], prob.A_eq.shape[0]
    H = prob.H + _RIDGE * np.eye(n)
    g_inf = float(np.abs(prob.g).max(initial=0.0))

    x0 = warm_start
    if isinstance(warm_start, QpSolution):
        x0, lam, nu = warm_start.x, warm_start.ineq_duals, warm_start.eq_duals
        if (x0.size, lam.size, nu.size) != (n, m, p):
            raise ConfigurationError("warm start has wrong dimension")
        kkt, p_inf, *_ = _kkt_residual(prob, H, x0, lam, nu, g_inf)
        if kkt <= tol:
            return QpSolution(x0.copy(), lam.copy(), nu.copy(), kkt, QpStatus.OPTIMAL, 0,
                              p_inf, prob.objective(x0))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).ravel()
        if x0.size != n:
            raise ConfigurationError("warm start has wrong dimension")

    if m == 0:
        return _solve_equality_qp(prob, H, tol, g_inf)

    G, h, A = prob.A_in, prob.b_in, prob.A_eq
    x = x0.copy() if x0 is not None else np.zeros(n)
    # Slacks w and duals lam, stacked so one ratio test covers both.  The
    # duals start at the cost's gradient norm (see the module docstring).
    lam0 = max(1.0, float(np.abs(H @ x + prob.g).max(initial=0.0)))
    wl = np.concatenate([np.maximum(h - G @ x, 1.0), np.full(m, lam0)])
    nu = np.zeros(p)
    # KKT matrix [[K, A_eq'], [A_eq, 0]]; only the K block changes.
    M = np.zeros((n + p, n + p))
    M[:n, n:], M[n:, :n] = A.T, A
    K = M[:n, :n]

    best = (x, wl[m:], nu, np.inf)
    p_inf_hist: list[float] = []

    it = 0
    for it in range(1, max_iter + 1):
        w, lam = wl[:m], wl[m:]
        kkt, p_inf, r_d, r_in, r_e = _kkt_residual(prob, H, x, lam, nu, g_inf)
        p_inf_hist.append(p_inf)
        if kkt < best[3]:
            best = (x, lam, nu, kkt)
        if kkt <= tol:
            return QpSolution(x, lam.copy(), nu, kkt, QpStatus.OPTIMAL,
                              it, p_inf, prob.objective(x))
        stalled = (
            len(p_inf_hist) > _STALL_WINDOW
            and min(p_inf_hist) > tol
            and min(p_inf_hist[-_STALL_WINDOW:]) >= 0.999 * min(p_inf_hist[:-_STALL_WINDOW])
        )
        if stalled or (lam.max() > 1e13 * lam0 and p_inf > tol):
            return QpSolution(x, lam.copy(), nu, kkt, QpStatus.INFEASIBLE,
                              it, min(p_inf_hist), prob.objective(x))

        # Newton step for complementarity target r_c (w o lam -> r_c), with
        # d = lam / w: dw = -r_p - G dx, dlam = -r_c / w - d o dw, and
        # (H + G'DG) dx + A_eq' dnu = G'(r_c / w - d o r_p) - r_d.
        r_p, d, wlam = r_in + w, lam / w, w * lam
        d_rp = d * r_p
        mu = float(wlam.sum()) / m
        np.matmul(G.T * d, G, out=K)
        K += H
        if not np.isfinite(K).all():
            break
        lu = lapack.dgetrf(M)

        # Predictor (affine scaling) step, r_c = w o lam.
        rhs = G.T @ (lam - d_rp) - r_d
        dx = _linear_solve(M, lu, np.concatenate([rhs, -r_e]) if p else rhs)[:n]
        dw = -r_p - G @ dx
        dwl_a = np.concatenate([dw, -lam - d * dw])
        wl_a = wl + dwl_a / max(1.0, -float((dwl_a / wl).min()))
        mu_aff = float(wl_a[:m] @ wl_a[m:]) / m
        sigma = min(1.0, mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector step with centering, on the same factorization.
        rc_w = (wlam + dwl_a[:m] * dwl_a[m:] - sigma * mu) / w
        rhs = G.T @ (rc_w - d_rp) - r_d
        sol = _linear_solve(M, lu, np.concatenate([rhs, -r_e]) if p else rhs)
        dx = sol[:n]
        dw = -r_p - G @ dx
        dwl = np.concatenate([dw, -rc_w - d * dw])
        alpha = max(0.99, 1.0 - mu) / max(1.0, -float((dwl / wl).min()))

        x = x + alpha * dx
        wl = wl + alpha * dwl
        nu = nu + alpha * sol[n:]
        if not np.isfinite(np.concatenate([x, wl, nu])).all():
            break

    x, lam, nu, kkt = best
    p_inf = min(p_inf_hist) if p_inf_hist else np.inf
    status = QpStatus.INFEASIBLE if p_inf > tol else QpStatus.MAX_ITER
    return QpSolution(x, lam.copy(), nu, kkt, status, it, p_inf, prob.objective(x))


def project_weighted(
    x0: np.ndarray,
    M: np.ndarray,
    A_in: np.ndarray,
    b_in: np.ndarray,
    A_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    tol: float = 1e-9,
) -> QpSolution:
    """Projection arg min ||x - x0||_M^2 onto a polyhedron, M symmetric PD.

    Returns the full solution so callers can inspect status; when x0 is
    already feasible it is returned unchanged with zero distance.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    M = np.asarray(M, dtype=float)
    try:
        # Proves the cost 2M positive definite, so the problem skips that check.
        np.linalg.cholesky(0.5 * (M + M.T))
    except np.linalg.LinAlgError:
        raise ConfigurationError("projection weight matrix must be positive definite")
    if (b_in - A_in @ x0).min(initial=0.0) >= 0.0 and (
        A_eq is None or not len(b_eq) or np.abs(A_eq @ x0 - b_eq).max() <= tol
    ):
        lam = np.zeros(len(b_in))
        nu = np.zeros(0 if A_eq is None else len(b_eq))
        return QpSolution(x0.copy(), lam, nu, 0.0, QpStatus.OPTIMAL, 0, 0.0, 0.0)
    prob = QpProblem.build(2.0 * M, -2.0 * M @ x0, A_in, b_in, A_eq, b_eq, check_psd=False)
    sol = solve(prob, tol=tol)
    sol.value = float((sol.x - x0) @ M @ (sol.x - x0))
    return sol
