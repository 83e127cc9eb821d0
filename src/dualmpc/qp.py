"""Dense convex quadratic programming.

Solves problems of the form

    min  0.5 x'Hx + g'x
    s.t. A_in x <= b_in,  A_eq x = b_eq

with a Mehrotra predictor-corrector interior-point iteration over dense
matrices.  Every optimization in this package (invariant-set synthesis, the
tube controller, barycentric-weight extraction, the constrained estimator
correction) is dispatched through :func:`solve`.

Termination is scale-relative, as in OSQP (Stellato et al. 2020): a point is
optimal when its KKT residual is at most ``tol``, where primal infeasibility
(violation of ``A_in x <= b_in`` and ``A_eq x = b_eq``) is taken as it is, and
stationarity and complementarity are divided by

    max(1, |Hx|_inf, |g|_inf, |A_in' lam|_inf, |A_eq' nu|_inf).

So an OPTIMAL point is feasible to ``tol`` in absolute terms, while a cost of
large norm is not asked for more significant digits than one of norm 1.  The
same rule decides the interior-point loop, the acceptance of a warm start and
the equality-constrained direct solve.

The solver is deterministic: identical inputs produce identical iterates.  It
never raises on a numerical failure: a non-finite iterate or Newton step ends
the iteration with the best point seen and status ``MAX_ITER`` or
``INFEASIBLE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

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


def _kkt_residual(prob: QpProblem, H: np.ndarray, x, lam, nu) -> tuple[float, float]:
    """(scaled KKT residual, absolute primal infeasibility) at a primal-dual point."""
    terms = [H @ x, prob.g]
    if prob.A_in.shape[0]:
        terms.append(prob.A_in.T @ lam)
    if prob.A_eq.shape[0]:
        terms.append(prob.A_eq.T @ nu)
    if x.size:
        scale = max(1.0, max(float(np.abs(t).max()) for t in terms))
        stat = float(np.abs(sum(terms)).max()) / scale
    else:
        scale, stat = 1.0, 0.0
    viol_in = 0.0
    comp = 0.0
    if prob.A_in.shape[0]:
        resid = prob.A_in @ x - prob.b_in
        viol_in = float(max(0.0, resid.max()))
        comp = max(float(np.abs(lam * resid).max()), float(max(0.0, -lam.min()))) / scale
    viol_eq = float(np.abs(prob.A_eq @ x - prob.b_eq).max()) if prob.A_eq.shape[0] else 0.0
    p_inf = max(viol_in, viol_eq)
    return max(stat, p_inf, comp), p_inf


def _linear_solver(M: np.ndarray):
    """``rhs -> M^-1 rhs`` for a finite M, through an LU factorization, or by
    least squares when M is singular.  A failed least-squares solve gives
    NaNs, which the caller checks for."""
    lu, piv, info = scipy.linalg.lapack.dgetrf(M)
    if info == 0:
        return lambda rhs: scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)

    def least_squares(rhs):
        try:
            return np.linalg.lstsq(M, rhs, rcond=None)[0]
        except np.linalg.LinAlgError:
            return np.full(M.shape[0], np.nan)
    return least_squares


def _solve_equality_qp(prob: QpProblem, H: np.ndarray, tol: float) -> QpSolution:
    """Direct KKT solve when there are no inequality constraints."""
    n, p = prob.n, prob.A_eq.shape[0]
    K = np.block([[H, prob.A_eq.T], [prob.A_eq, np.zeros((p, p))]]) if p else H
    sol = _linear_solver(K)(np.concatenate([-prob.g, prob.b_eq]))
    x, nu = sol[:n], sol[n:]
    if not np.isfinite(sol).all():
        return QpSolution(np.zeros(n), np.zeros(0), np.zeros(p), np.inf,
                          QpStatus.INFEASIBLE, 1, np.inf)
    kkt, p_inf = _kkt_residual(prob, H, x, np.zeros(0), nu)
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

    A warm start carrying duals (a previous :class:`QpSolution`) is first
    checked against the KKT conditions and accepted outright when it already
    satisfies them; a bare primal vector only seeds the interior-point
    iteration.  A numerical failure (non-finite iterate or Newton step) ends
    the iteration with the best point seen, status ``MAX_ITER`` when that
    point is feasible to ``tol`` and ``INFEASIBLE`` otherwise.  Without
    convergence the best point seen is returned, and ``iterations`` counts
    the iterations run, not the index of that point.
    """
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    n, m, p = prob.n, prob.A_in.shape[0], prob.A_eq.shape[0]
    H = prob.H + _RIDGE * np.eye(n)

    x0 = None
    if isinstance(warm_start, QpSolution):
        if warm_start.x.size == n and warm_start.ineq_duals.size == m and warm_start.eq_duals.size == p:
            kkt, p_inf = _kkt_residual(prob, H, warm_start.x, warm_start.ineq_duals, warm_start.eq_duals)
            if kkt <= tol:
                return QpSolution(
                    warm_start.x.copy(), warm_start.ineq_duals.copy(), warm_start.eq_duals.copy(),
                    kkt, QpStatus.OPTIMAL, 0, p_inf, prob.objective(warm_start.x),
                )
            x0 = warm_start.x
    elif warm_start is not None:
        x0 = np.asarray(warm_start, dtype=float).ravel()
        if x0.size != n:
            raise ConfigurationError("warm start has wrong dimension")

    if m == 0:
        return _solve_equality_qp(prob, H, tol)

    G, h, A, b = prob.A_in, prob.b_in, prob.A_eq, prob.b_eq
    x = x0.copy() if x0 is not None else np.zeros(n)
    w = np.maximum(h - G @ x, 1.0)
    lam = np.ones(m)
    nu = np.zeros(p)

    best = QpSolution(x.copy(), lam.copy(), nu.copy(), np.inf, QpStatus.MAX_ITER, 0, np.inf)
    p_inf_hist: list[float] = []

    it = 0
    for it in range(1, max_iter + 1):
        kkt, p_inf = _kkt_residual(prob, H, x, lam, nu)
        p_inf_hist.append(p_inf)
        if kkt < best.kkt_residual:
            best = QpSolution(x.copy(), lam.copy(), nu.copy(), kkt, QpStatus.MAX_ITER, it, p_inf)
        if kkt <= tol:
            return QpSolution(x.copy(), lam.copy(), nu.copy(), kkt, QpStatus.OPTIMAL,
                              it, p_inf, prob.objective(x))
        stalled = (
            len(p_inf_hist) > _STALL_WINDOW
            and min(p_inf_hist) > tol
            and min(p_inf_hist[-_STALL_WINDOW:]) >= 0.999 * min(p_inf_hist[:-_STALL_WINDOW])
        )
        if stalled or (np.abs(lam).max() > 1e13 and p_inf > tol):
            return QpSolution(x.copy(), lam.copy(), nu.copy(), kkt, QpStatus.INFEASIBLE,
                              it, min(p_inf_hist), prob.objective(x))

        r_d = H @ x + prob.g + G.T @ lam + (A.T @ nu if p else 0.0)
        r_p = G @ x + w - h
        r_e = A @ x - b if p else np.zeros(0)
        mu = float(w @ lam) / m

        D = lam / w
        K = H + (G.T * D) @ G
        M = np.block([[K, A.T], [A, np.zeros((p, p))]]) if p else K
        if not np.isfinite(M).all():
            break
        kkt_solve = _linear_solver(M)

        def newton(r_c):
            rhs1 = -r_d + G.T @ ((r_c - lam * r_p) / w)
            sol = kkt_solve(np.concatenate([rhs1, -r_e]) if p else rhs1)
            dx, dnu = sol[:n], sol[n:]
            dw = -r_p - G @ dx
            dlam = (-r_c - lam * dw) / w
            return dx, dw, dlam, dnu

        def max_step(v, dv):
            neg = dv < 0
            return float(min(1.0, (-v[neg] / dv[neg]).min())) if neg.any() else 1.0

        # Predictor (affine scaling) step.
        dx_a, dw_a, dlam_a, dnu_a = newton(w * lam)
        alpha_a = min(max_step(w, dw_a), max_step(lam, dlam_a))
        mu_aff = float((w + alpha_a * dw_a) @ (lam + alpha_a * dlam_a)) / m
        sigma = min(1.0, mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector step with centering.
        r_c = w * lam + dw_a * dlam_a - sigma * mu
        dx, dw, dlam, dnu = newton(r_c)
        alpha = 0.99 * min(max_step(w, dw), max_step(lam, dlam))

        x = x + alpha * dx
        w = w + alpha * dw
        lam = lam + alpha * dlam
        if p:
            nu = nu + alpha * dnu
        if not np.isfinite(np.concatenate([x, w, lam, nu])).all():
            break

    best.iterations = it
    best.primal_infeasibility = min(p_inf_hist) if p_inf_hist else np.inf
    best.value = prob.objective(best.x)
    if best.primal_infeasibility > tol:
        best.status = QpStatus.INFEASIBLE
    return best


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
    if (b_in - A_in @ x0).min() >= 0.0 and (
        A_eq is None or not len(b_eq) or np.abs(A_eq @ x0 - b_eq).max() <= tol
    ):
        lam = np.zeros(len(b_in))
        nu = np.zeros(0 if A_eq is None else len(b_eq))
        return QpSolution(x0.copy(), lam, nu, 0.0, QpStatus.OPTIMAL, 0, 0.0, 0.0)
    prob = QpProblem.build(2.0 * M, -2.0 * M @ x0, A_in, b_in, A_eq, b_eq, check_psd=False)
    sol = solve(prob, tol=tol)
    sol.value = float((sol.x - x0) @ M @ (sol.x - x0))
    return sol
