"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the code paths under test: the QP oracle
enumerates active sets instead of running an interior-point iteration, the
Kalman oracle is the textbook recursion, the filter's prior covariance is the
dense triple product over the augmented Jacobian, derivative checks use
central finite differences, the invariant-set check evaluates every
successor state directly, and template sets are read from the arrays F and
V alone.
"""

import itertools
from dataclasses import dataclass

import numpy as np


def qp_active_set_oracle(H, g, A_in, b_in, A_eq=None, b_eq=None):
    """Globally solve a strictly convex QP by enumerating active sets.

    Returns (x, value) or (None, None) when infeasible.  Exponential in the
    number of inequalities; only suitable for tiny test problems.
    """
    n = len(g)
    m = len(b_in)
    if A_eq is None:
        A_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    best_x, best_val = None, np.inf
    for r in range(m + 1):
        for active in itertools.combinations(range(m), r):
            Aact = np.vstack([A_eq, A_in[list(active)]])
            bact = np.concatenate([b_eq, b_in[list(active)]])
            k = Aact.shape[0]
            K = np.block([[H, Aact.T], [Aact, np.zeros((k, k))]])
            rhs = np.concatenate([-g, bact])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            # A singular K can still solve to a point off the constraints.
            if m and (A_in @ x - b_in).max() > 1e-9:
                continue
            if len(b_eq) and np.abs(A_eq @ x - b_eq).max() > 1e-9:
                continue
            val = 0.5 * x @ H @ x + g @ x
            if val < best_val - 1e-12:
                best_val, best_x = val, x
    return best_x, (None if best_x is None else best_val)


def kalman_filter_oracle(A, B, C, Q, R, x0, P0, u_seq, y_seq):
    """Textbook discrete Kalman filter; returns filtered means after each update."""
    x, P = x0.copy(), P0.copy()
    out = []
    for u, y in zip(u_seq, y_seq):
        x = A @ x + B @ u
        P = A @ P @ A.T + Q
        S = C @ P @ C.T + R
        K = P @ C.T @ np.linalg.inv(S)
        x = x + K @ (np.atleast_1d(y) - C @ x)
        P = (np.eye(len(x)) - K @ C) @ P
        out.append(x.copy())
    return out


def augmented_jacobian(fx, ftheta):
    """Jacobian of the augmented map (x, theta) -> (f(x, u, theta), theta),
    from f's Jacobians fx (n_x, n_x) and ftheta (n_x, n_theta)."""
    n_x, n_theta = ftheta.shape
    top = np.hstack([fx, ftheta])
    bottom = np.hstack([np.zeros((n_theta, n_x)), np.eye(n_theta)])
    return np.vstack([top, bottom])


def dense_predicted_covariance(fx, ftheta, P, Qe):
    """Extended-filter prior covariance J P J' + Qe with the dense augmented J."""
    J = augmented_jacobian(fx, ftheta)
    return J @ P @ J.T + Qe


def central_difference_jacobian(fun, x, h=1e-6):
    """Central finite-difference Jacobian of fun: R^n -> R^m."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(fun(x))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        J[:, i] = (np.atleast_1d(fun(x + e)) - np.atleast_1d(fun(x - e))) / (2 * h)
    return J


def hull_membership_lp(point, generators, tol=1e-9):
    """Check point in CH{generators} from the least-norm convex weights:
    min |lam|^2 s.t. lam >= 0, 1'lam = 1, G lam = point, solved by
    enumerating active sets."""
    G = np.asarray(generators, dtype=float).T  # n × k
    k = G.shape[1]
    A_eq = np.vstack([np.ones((1, k)), G])
    b_eq = np.concatenate([[1.0], np.asarray(point, dtype=float)])
    lam, _ = qp_active_set_oracle(2.0 * np.eye(k), np.zeros(k), -np.eye(k), np.zeros(k),
                                  A_eq, b_eq)
    if lam is None:
        return False
    resid = max(np.abs(A_eq @ lam - b_eq).max(), max(0.0, -lam.min()))
    return resid <= tol


def scaled_kkt_residual(prob, x, lam):
    """The qp module docstring's KKT residual of (x, lam) on a problem with
    H, g, A_in and b_in, written out: absolute primal infeasibility, and
    stationarity and complementarity over max(1, |Hx|, |g|, |A' lam|)."""
    Hx, Al, r_in = prob.H @ x, prob.A_in.T @ lam, prob.A_in @ x - prob.b_in
    scale = max(1.0, *(np.abs(v).max() for v in (Hx, prob.g, Al)))
    comp = max(np.abs(lam * r_in).max(), -min(lam.min(), 0.0))
    return max(max(r_in.max(), 0.0), np.abs(Hx + prob.g + Al).max() / scale, comp / scale)


def set_contains(F, z, s, x, tol=1e-9):
    """Membership of x in the template set z + {w : F w <= s}, slack tol per row."""
    return bool((F @ (np.asarray(x) - z) <= s + tol).all())


def set_vertices(V, z, s):
    """The vertices z + V_j s of a template set, one row each."""
    return np.array([z + Vj @ s for Vj in V])


def vertex_input(c, n_u, j):
    """Input block j of the stacked vertex inputs c, n_u entries per vertex."""
    return np.reshape(c, (-1, n_u))[j]


POST_CHECK_TOL = 1e-7


@dataclass
class RciReport:
    worst_violation: float
    worst_case: tuple            # (template vertex, mode, disturbance vertex)
    n_checks: int

    @property
    def ok(self):
        return self.worst_violation <= POST_CHECK_TOL


def perturbation_vertices(B, beta, eps_u):
    """Candidate extreme points of the disturbance set CH{beta B_i U}, where
    U is the box |u_k| <= eps_u_k."""
    eps_u = np.atleast_1d(eps_u)
    n_u = eps_u.size
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * n_u)).T.reshape(-1, n_u)
    return np.array([beta * Bi @ (sg * eps_u) for Bi in B for sg in signs])


def verify_rci(A, B, F, V, z_s, s, v_s, c, beta, eps_u):
    """Certify that the set z_s + {x : F(x - z_s) <= s} with vertex inputs
    v_s + c_j is robustly invariant by direct evaluation.

    Vertex j of the set is z_s + V_j s and its input is block j of c.  Every
    (vertex, mode A_i/B_i, disturbance vertex) triple is checked, which is
    sufficient by convexity.  Violations are halfspace excesses of the
    successor state, so <= 0 means inside.
    """
    w_vertices = perturbation_vertices(B, beta, eps_u)
    c = np.reshape(c, (len(V), -1))
    worst, worst_case, n_checks = -np.inf, (), 0
    for j, Vj in enumerate(V):
        xj, uj = z_s + Vj @ s, v_s + c[j]
        for i, (Ai, Bi) in enumerate(zip(A, B)):
            base = Ai @ xj + Bi @ uj
            for k, w in enumerate(w_vertices):
                viol = float((F @ (base + w - z_s) - s).max())
                n_checks += 1
                if viol > worst:
                    worst, worst_case = viol, (j, i, k)
    return RciReport(worst_violation=worst, worst_case=worst_case, n_checks=n_checks)
