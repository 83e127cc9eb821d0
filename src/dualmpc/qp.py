"""Dense convex quadratic programming.

Solves problems of the one form the package poses,

    min  0.5 x'Hx + g'x
    s.t. A_in x <= b_in,

from the exact solution of its least-distance form, and else with a
Mehrotra predictor-corrector interior-point iteration over dense matrices; a
problem without rows is rejected.  Every
optimization in this package (invariant-set synthesis, the tube controller,
the constrained estimator correction) is dispatched through :func:`solve`.

Termination is scale-relative, as in OSQP (Stellato et al. 2020): a point is
optimal when its KKT residual is at most ``tol``, where primal infeasibility
(violation of ``A_in x <= b_in``) is taken as it is, and stationarity and
complementarity are divided by

    max(1, |Hx|_inf, |g|_inf, |A_in' lam|_inf).

So an OPTIMAL point is feasible to ``tol`` in absolute terms, while a cost of
large norm is not asked for more significant digits than one of norm 1.  The
same rule decides the interior-point loop and, in :func:`accept_warm_start`,
the acceptance of a start.  A start is a point, x with its duals, and the
test takes the two arrays: the exact start below and the tube controller's
kept plan are tested alike, and only a point that passes becomes a
:class:`QpSolution`.

Every QP :func:`solve` meets starts from its exact solution.  With H
positive definite, H^-1 = T T', the QP is the projection of its
unconstrained minimiser x_u = -H^-1 g in the metric H: in z = T^-1 (x - x_u)
it is the least-distance problem min |z| s.t. -W'z >= r, with W = T'A_in'
and r = A_in x_u - b_in, and one non-negative least-squares solve gives its
solution and multipliers (Lawson & Hanson 1974, ch. 23; the dual start of
Goldfarb & Idnani 1983).  As in OSQP's solution polishing (Stellato et al.
2020), the start's KKT test decides: a point exact to rounding, rather than
to the scaled ``tol``, is returned with 0 iterations.  An H that does not
factor and a least-distance solve that fails or finds the rows empty leave
the problem to the interior-point iteration, started from 0; so does a
start the test rejects, and the iteration then starts from its x.
:func:`project_weighted` poses its problem already in whitened coordinates,
H = 2I and g = 0, so its start factors H like every other.

The interior-point duals start at max(1, |Hx0 + g|_inf), the cost's gradient
at the start point x0, which A_in' lam must balance.  Scaling (H, g) by s
then scales every dual iterate by s and keeps the primal ones and the
iteration count (up to the floor of 1 and the step rule max(0.99, 1 - mu)
near the end).  A whitened projection started at z = 0, where its gradient
is zero, starts its duals at 1.

Each iteration evaluates the KKT residuals once, and the predictor reuses
the A_in' lam computed there.  Predictor and corrector share one Cholesky
factorization of the positive definite K = H + _RIDGE I + A_in' D A_in
(Wright 1997, ch. 11; Rao, Wright & Rawlings 1998); the ridge lets a
semidefinite H factor, and enters nothing else, the KKT test included.  One
ratio test over (w, lam) bounds each step.  The iteration runs only from a
start the KKT test rejects or from no start at all, so it is kept plain
rather than fast: each iterate (x, w, lam) and each direction is a new
array that nothing writes into, and the best iterate is kept by reference.

The solver is deterministic: identical inputs produce identical iterates.  It
never raises on a numerical failure: a non-finite iterate or Newton matrix,
or a Newton matrix that fails its Cholesky factorization, ends the iteration
with the best point seen and status ``MAX_ITER`` or ``INFEASIBLE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np
from scipy.linalg import lapack
from scipy.optimize import nnls

from .errors import ConfigurationError


class QpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"


# Ridge added to the Newton matrix, and relative to its scale to a singular
# projection covariance, so positive-semidefinite matrices factor reliably.
_RIDGE = 1e-10
# Iterations of primal-residual stagnation before declaring infeasibility.
_STALL_WINDOW = 50
# Interior-point iterations before giving up with the best point seen.
_MAX_ITER = 500
# The least-distance solve gives s = 1 / (1 + |z|^2), which an empty
# polytope makes 0; at or below this the start is dropped.
_LDP_EMPTY = 1e-12


@dataclass
class QpProblem:
    """Dense QP data.

    :meth:`build` validates a problem and the solver does not.
    ``rci.tube_qp`` validates the H and fixed rows of each ``rci.TubeQp``
    once, and its users construct each problem directly, as
    :func:`project_weighted` does after checking its own data.
    :func:`solve` factors H itself to form its exact start.
    """

    H: np.ndarray
    g: np.ndarray
    A_in: np.ndarray
    b_in: np.ndarray

    @classmethod
    def build(cls, H, g, A_in, b_in) -> "QpProblem":
        """Validated problem, H positive semidefinite included."""
        H = np.atleast_2d(np.asarray(H, dtype=float))
        g = np.asarray(g, dtype=float).ravel()
        n = g.size
        prob = cls(
            H=H,
            g=g,
            A_in=np.atleast_2d(np.asarray(A_in, dtype=float)).reshape(-1, n),
            b_in=np.asarray(b_in, dtype=float).ravel(),
        )
        prob.validate()
        scale = max(1.0, float(np.abs(H).max()))
        min_eig = float(np.linalg.eigvalsh(0.5 * (H + H.T)).min())
        if min_eig < -1e-9 * scale:
            raise ConfigurationError(f"H must be positive semidefinite (min eig {min_eig:.3e})")
        return prob

    @property
    def n(self) -> int:
        return self.g.size

    def validate(self) -> None:
        """Check the shapes, finiteness and symmetry; :meth:`build` also
        checks that H is positive semidefinite."""
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
    primal_infeasibility: float
    value: float


def _kkt_residual(prob: QpProblem, x, lam):
    """(scaled KKT residual, absolute primal infeasibility, r_d, r_in, A_in' lam)
    at a primal-dual point of the QP as posed, where r_d = Hx + g + A_in' lam
    and r_in = A_in x - b_in feed the Newton step."""
    n, m = x.size, lam.size
    Hx, r_in, Atl = prob.H @ x, prob.A_in @ x - prob.b_in, lam @ prob.A_in
    r_d = Hx + prob.g + Atl
    # One reduction gives |Hx|, |A_in' lam|, |r_d|, |g|, |lam o r_in|, max r_in and -min lam.
    parts = np.concatenate([Hx, Atl, r_d, prob.g, lam * r_in, r_in, -lam])
    np.abs(parts[:4 * n + m], out=parts[:4 * n + m])
    Hx_inf, Atl_inf, stat, g_inf, comp, p_inf, lam_neg = np.maximum.reduceat(
        parts, [0, n, 2 * n, 3 * n, 4 * n, 4 * n + m, 4 * n + 2 * m]).tolist()
    scale, p_inf = max(1.0, g_inf, Hx_inf, Atl_inf), max(p_inf, 0.0)
    return max(stat / scale, p_inf, max(comp, lam_neg, 0.0) / scale), p_inf, r_d, r_in, Atl


def _step_divisor(dwl: np.ndarray, wl: np.ndarray) -> float:
    """Divisor that keeps wl + dwl / divisor in the closed positive orthant:
    max(1, -min(dwl / wl)).  An exact zero that does not move gives the
    ratio 0/0, which bounds nothing; np.fmin skips it where min would return
    NaN and let the full step leave the orthant.  Call it under
    ``np.errstate(divide="ignore", invalid="ignore")``."""
    return max(1.0, -float(np.fmin.reduce(dwl / wl)))


# Overflow and division by zero show up as non-finite values, which the
# KKT test and the iteration check for, instead of as warnings.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def accept_warm_start(prob: QpProblem, x: np.ndarray, lam: np.ndarray,
                      tol: float = 1e-8) -> QpSolution | None:
    """The point x with duals lam, copied, as an ``OPTIMAL`` solution with 0
    iterations when it meets the KKT test at ``tol`` (see the module
    docstring), and None when it does not.  A start is a point: this is the
    test :func:`solve` applies to its exact start, and the tube controller
    to its shifted plan.  A non-finite x or lam, whose residual reads NaN,
    fails the test.  An x or lam of another size than prob's variables or
    rows raises ``ConfigurationError``."""
    if (x.size, lam.size) != (prob.n, prob.A_in.shape[0]):
        raise ConfigurationError("warm start has wrong dimension")
    kkt, p_inf, *_ = _kkt_residual(prob, x, lam)
    if not kkt <= tol:
        return None
    return QpSolution(x.copy(), lam.copy(), kkt, QpStatus.OPTIMAL, 0, p_inf, prob.objective(x))


def _least_distance_start(prob: QpProblem,
                          tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The exact solution x of prob and its duals nu (see the module
    docstring), as the point (x, nu), untested: :func:`solve` hands it to
    :func:`accept_warm_start` at tol.  NNLS of [-W; r'] u ~ e_n+1 gives
    s = 1 - r'u and the multipliers nu = u / s; nu is computed from the rows
    where u > 0, held as equalities: (W_a'W_a) nu_a = r_a, and
    x = x_u - T W_a nu_a.  x is the difference of terms of size |H^-1 A' nu|
    and can miss those rows by more than tol allows, alone or times the
    duals; then one refinement step, (W_a'W_a) d = A_a x - b_a, nu_a += d and
    x -= T W_a d, restores the digits.  None when H or W_a'W_a does not
    factor, when NNLS raises (its iteration limit; an overflow in W), when
    s <= _LDP_EMPTY (the rows are empty) or when x is not finite."""
    A, b = prob.A_in, prob.b_in
    R, info = lapack.dpotrf(prob.H)
    if info:
        return None
    T = lapack.dtrtri(R)[0]
    x_u = -(T @ (T.T @ prob.g))
    r = A @ x_u - b
    W = T.T @ A.T
    try:
        u = nnls(np.vstack([-W, r]), np.eye(1, len(W) + 1, len(W)).ravel())[0]
    except (RuntimeError, ValueError):
        return None
    active = np.flatnonzero(u)
    W_a = W[:, active]
    L, info = lapack.dpotrf(W_a.T @ W_a)
    if info or not 1.0 - r @ u > _LDP_EMPTY:    # s = 1 - r'u
        return None
    nu = np.zeros(len(b))
    if active.size:  # u = 0 leaves x_u: its violations are below NNLS's tolerance
        nu[active] = lapack.dpotrs(L, r[active])[0]
    x = x_u - T @ (W_a @ nu[active])
    res = A[active] @ x - b[active]
    if np.maximum.reduce(np.abs(res), initial=0.0) * max(1.0, nu.max()) > tol:
        step = lapack.dpotrs(L, res)[0]
        nu[active] += step
        x -= T @ (W_a @ step)
    if not np.logical_and.reduce(np.isfinite(x)):
        return None
    return x, nu


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def solve(prob: QpProblem, tol: float = 1e-8) -> QpSolution:
    """Solve min 0.5 x'Hx + g'x s.t. A_in x <= b_in to scaled KKT residual
    <= tol (see the module docstring); a problem without rows raises
    ``ConfigurationError``.

    The exact start is formed and tested (see the module docstring).  The
    interior-point iteration starts from the start's x when the test
    rejects it, and from 0 when no start is formed.
    A numerical failure (a non-finite iterate or Newton matrix, or a Newton
    matrix that fails its Cholesky factorization) ends the iteration with
    the best point seen, status ``MAX_ITER`` when that point is feasible to
    ``tol`` and ``INFEASIBLE`` otherwise.  Without convergence the best
    point seen is returned, and ``iterations`` counts the iterations run,
    not the index of that point.
    """
    if not tol > 0:
        raise ConfigurationError("tol must be positive")
    n, m = prob.n, prob.A_in.shape[0]
    if m == 0:
        raise ConfigurationError("a QP without rows is not posed by this package")
    start = _least_distance_start(prob, tol)
    if start is not None:
        accepted = accept_warm_start(prob, *start, tol)
        if accepted is not None:
            return accepted
    G, h, Gt, H = prob.A_in, prob.b_in, np.ascontiguousarray(prob.A_in.T), prob.H.copy()
    H.flat[::n + 1] += _RIDGE

    # Iterate (x, w, lam), slacks w and duals lam; the duals start at the
    # cost's gradient norm.
    x = np.zeros(n) if start is None else start[0]
    lam0 = max(1.0, float(np.maximum.reduce(np.abs(H @ x + prob.g), initial=0.0)))
    w, lam = np.maximum(h - G @ x, 1.0), np.full(m, lam0)

    best, best_kkt = (x, lam), np.inf
    p_inf_hist: list[float] = []
    it = 0
    for it in range(1, _MAX_ITER + 1):
        kkt, p_inf, r_d, r_in, Gl = _kkt_residual(prob, x, lam)
        p_inf_hist.append(p_inf)
        if kkt <= tol:
            return QpSolution(x, lam, kkt, QpStatus.OPTIMAL, it, p_inf, prob.objective(x))
        if kkt < best_kkt:
            best, best_kkt = (x, lam), kkt
        stalled = (len(p_inf_hist) > _STALL_WINDOW and min(p_inf_hist) > tol and
                   min(p_inf_hist[-_STALL_WINDOW:]) >= 0.999 * min(p_inf_hist[:-_STALL_WINDOW]))
        if stalled or (p_inf > tol and np.maximum.reduce(lam) > 1e13 * lam0):
            return QpSolution(x, lam, kkt, QpStatus.INFEASIBLE,
                              it, min(p_inf_hist), prob.objective(x))

        # Newton step for complementarity target r_c (w o lam -> r_c), with
        # d = lam / w: dw = -r_p - G dx, dlam = -r_c / w - d o dw, and
        # (H + G'DG) dx = G'(r_c / w) - q, q = G'(d o r_p) + r_d.
        r_p, d, wlam, wl = r_in + w, lam / w, w * lam, np.concatenate([w, lam])
        q = Gt @ (d * r_p) + r_d
        mu = float(np.add.reduce(wlam)) / m
        K = (Gt * d) @ G + H
        if not np.logical_and.reduce(np.isfinite(K), axis=None):
            break
        U, info = lapack.dpotrf(K, clean=0)
        if info:
            break

        # Predictor (affine scaling) step, r_c = w o lam: G'(r_c / w) = G'lam.
        dx = lapack.dpotrs(U, Gl - q)[0]
        dw_a = -(G @ dx + r_p)
        dlam_a = -(d * dw_a + lam)
        divisor = _step_divisor(np.concatenate([dw_a, dlam_a]), wl)
        mu_aff = float((dw_a / divisor + w) @ (dlam_a / divisor + lam)) / m
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3 if mu > 0 else 0.0

        # Corrector step with centering, on the same factorization.
        rc_w = (dw_a * dlam_a + wlam - sigma * mu) / w
        dx = lapack.dpotrs(U, Gt @ rc_w - q)[0]
        dw = -(G @ dx + r_p)
        dlam = -(d * dw + rc_w)
        step = max(0.99, 1.0 - mu) / _step_divisor(np.concatenate([dw, dlam]), wl)
        x, w, lam = x + dx * step, w + dw * step, lam + dlam * step
        if not np.logical_and.reduce(np.isfinite(np.concatenate([x, w, lam]))):
            break

    x, lam = best
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
    2010).

    P is factored once, P = U'U (LAPACK dpotrf); a singular P takes a ridge
    of _RIDGE max(1, |P|_max) I, and a P that does not factor even then
    raises ``ConfigurationError``.  When x0 is infeasible, the substitution
    x = x0 + U'z whitens the metric, ||x - x0||_M^2 = |z|^2, and
    :func:`solve` is handed the problem in z: H = 2I, g = 0 and the rows
    A_in U' z <= b_in - A_in x0.  M is never formed.  Its exact start sees
    W = U A_in' / sqrt(2), and its interior-point iteration starts at z = 0,
    which is x0.  The solution's x is mapped back to x0 + U'z; its duals
    are those of the rows A_in x <= b_in, and its ``value`` is the solver's
    objective |z|^2.

    Returns the full solution so callers can inspect status; when x0 is
    already feasible, as it is for a polyhedron without rows, it is
    returned unchanged with zero distance.  A P, A_in or b_in whose shape
    does not fit x0's size raises ``ConfigurationError``, whether x0 is
    feasible or not, and so do non-finite data when x0 is infeasible.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    P, n = np.asarray(P, dtype=float), x0.size
    A_in, b_in = np.asarray(A_in, dtype=float), np.asarray(b_in, dtype=float)
    if P.shape != (n, n) or np.ndim(b_in) != 1 or np.shape(A_in) != (len(b_in), n):
        raise ConfigurationError(f"P, A_in or b_in inconsistent with x0 of size {n}")
    U, info = lapack.dpotrf(P)
    if info:
        U, info = lapack.dpotrf(P + _RIDGE * max(1.0, np.abs(P).max()) * np.eye(len(P)))
    if info:
        raise ConfigurationError("projection covariance must be positive semidefinite")
    r = A_in @ x0 - b_in
    if np.logical_and.reduce(r <= 0.0):
        return QpSolution(x0.copy(), np.zeros(len(b_in)), 0.0, QpStatus.OPTIMAL, 0, 0.0, 0.0)
    # r and the whitened rows carry every datum (an infinite entry of U, x0,
    # A_in or b_in makes one of them non-finite), so their check is the only
    # one the problem needs.
    A_z = A_in @ U.T
    if not np.logical_and.reduce(np.isfinite(np.concatenate([r, A_z.ravel()]))):
        raise ConfigurationError("problem data must be finite")
    sol = solve(QpProblem(2.0 * np.eye(n), np.zeros(n), A_z, -r), tol=tol)
    sol.x = x0 + U.T @ sol.x
    return sol
