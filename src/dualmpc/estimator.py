"""Joint state-parameter filter with a feasibility-preserving correction.

The augmented state zeta = (x, theta) follows the scheduled model for x and a
random walk with zero drift for theta.  Prediction and gain are the standard
extended-filter recursion, and the prediction moves only the x rows of zeta
and of P.  The correction is projected, in the metric P^-1 of its
covariance P, onto a polytope built from the current tube solution so that
the controller's QP stays feasible at the next step no matter what the
measurement says (the estimate-projection method of Simon 2010).  Its
(x, theta) rows are the tube QP's own rows at the shifted candidate with x
and theta free, less those whose theta normal is roundoff; only one family,
the scaled input images below the disturbance allowance, is the estimator's
own.  The rows constrain the state block and the vertex-matrix entries of
theta; scheduling-network weights are left free.

The state keeps the model it started from, ``prior``: its shapes give
theta's layout and its C the output map, and the model at the estimate is
the prior with theta_hat in place of its parameters.

A frozen theta is one with zero covariance.  With its rows and columns of P
and of the process noise exactly 0, the prediction and the gain leave them
0 and theta unchanged, and the projection moves x alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np
from scipy.linalg import lapack

from . import qlpv, qp
from .errors import ConfigurationError
from .polytope import PolytopeTemplate
from .tmpc import TubeSolution


@dataclass
class EstimatorState:
    zeta: np.ndarray
    P: np.ndarray
    Qe: np.ndarray
    Re: np.ndarray
    prior: qlpv.ModelParams

    def __post_init__(self):
        n = self.zeta.size
        if self.P.shape != (n, n) or self.Qe.shape != (n, n):
            raise ConfigurationError("covariance dimensions inconsistent")
        self.assert_valid_covariance()

    @classmethod
    def from_model(cls, params: qlpv.ModelParams, x0=None,
                   freeze_theta: bool = False) -> "EstimatorState":
        """Filter at (x0, params.pack()) with prior params: tiny state process
        noise, a driftless theta and a confident theta prior that keeps
        per-step theta motion small.  ``freeze_theta`` gives theta zero prior
        covariance instead, which freezes it (see the module docstring)."""
        n_x, n_theta = params.n_x, params.n_theta
        Qe = np.diag(np.r_[np.full(n_x, 1e-6), np.zeros(n_theta)])
        P0 = np.diag(np.r_[np.ones(n_x), np.full(n_theta, 0.0 if freeze_theta else 1e-4)])
        zeta = np.concatenate([np.zeros(n_x) if x0 is None else np.asarray(x0, float),
                               params.pack()])
        return cls(zeta=zeta, P=P0, Qe=Qe, Re=0.1 * np.eye(params.n_y), prior=params)

    @property
    def n_x(self) -> int:
        return self.prior.n_x

    @property
    def C(self) -> np.ndarray:
        return self.prior.C

    @property
    def x_hat(self) -> np.ndarray:
        return self.zeta[:self.n_x]

    @property
    def theta_hat(self) -> np.ndarray:
        return self.zeta[self.n_x:]

    def model(self) -> qlpv.ModelParams:
        """The prior's model at the estimate theta_hat."""
        return self.prior.replace_theta(self.theta_hat)

    def output_map(self) -> np.ndarray:
        """C_tilde = [C 0] over the augmented state."""
        return np.hstack([self.C, np.zeros((self.C.shape[0], self.prior.n_theta))])

    def assert_valid_covariance(self, tol: float = 1e-8) -> None:
        scale = max(1.0, float(np.abs(self.P).max()))
        if np.abs(self.P - self.P.T).max() > 1e-10 * scale:
            raise ConfigurationError("covariance lost symmetry")
        if float(np.linalg.eigvalsh(self.P).min()) < -tol * scale:
            raise ConfigurationError("covariance lost positive semidefiniteness")


def predict(state: EstimatorState, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-step prior (zeta_pred, P_pred = J P J' + Qe); parameters propagate
    unchanged.  One ``qlpv.jacobians`` call gives the predicted x and the x
    rows J_x = [f_x f_theta] of the augmented Jacobian J, which differs from
    I only there, so J P and then (J P) J' differ from P only there."""
    n_x = state.n_x
    x_next, fx, ftheta = qlpv.jacobians(state.model(), state.x_hat, u)
    zeta_pred = np.concatenate([x_next, state.theta_hat])
    J_x = np.hstack([fx, ftheta])
    JP = state.P.copy()
    JP[:n_x] = J_x @ state.P
    JP[:, :n_x] = JP @ J_x.T
    P_pred = JP + state.Qe
    P_pred = 0.5 * (P_pred + P_pred.T)
    return zeta_pred, P_pred


def gain(P_pred: np.ndarray, C_tilde: np.ndarray, Re: np.ndarray) -> np.ndarray:
    """K = P C' S^-1 by a Cholesky solve (LAPACK dposv) with S = C P C' + Re."""
    PCt = P_pred @ C_tilde.T
    _, K_t, info = lapack.dposv(C_tilde @ PCt + Re, PCt.T)
    if info:
        raise np.linalg.LinAlgError("innovation covariance is not positive definite")
    return K_t.T


@dataclass
class FeasibilityPolytope:
    """Rows A (x, theta) <= b guaranteeing next-step controller feasibility.

    ``families`` maps each row family to its blocks of f rows, as slices of A.
    """

    A: np.ndarray
    b: np.ndarray
    families: dict = field(default_factory=dict)

    def violation(self, zeta: np.ndarray) -> float:
        return float((self.A @ zeta - self.b).max())


def build_theta_polytope(
    tube: TubeSolution,
    template: PolytopeTemplate,
    params: qlpv.ModelParams,
    beta: float,
    eps_u: np.ndarray,
    gamma: float,
) -> FeasibilityPolytope:
    """Constraint polytope over (x, theta) from the current tube solution.

    The estimate must keep the shifted plan y = ``tube.shifted``, the x of
    ``tmpc.warm_start_vector(tube, gamma)``, feasible for the next tube QP.
    Those rows are the tube QP's own, evaluated at y with x and theta free:
    the initial row puts x in the full first shifted set (state_s), and one
    ``over_theta`` call on the tube QP's model rows gives, mode by mode, the
    candidate tube, the last shifted tube row into (z+, v+) and the terminal
    contraction (tube, tube_plus, terminal), then the vertex dynamics
    tightened by d + q (rci).  Points that are roundoff are left out
    (``qlpv.ModeRows.over_theta``).  Only one family is the estimator's own:
    each mode's scaled input image below the frozen disturbance allowance
    d = ``tube.d`` (dist), at the points ``rci.TubeQp.dist_points``.  The rows are
    written into one array, in the order state_s, dist, model rows.  beta,
    eps_u and gamma must be the tube's controller's, whose d and points these
    are; others raise ``ConfigurationError``.
    """
    tq = tube.tube_qp
    lay = tq.layout
    n_x, f, N = lay.n_x, template.n_rows, lay.stages - 1
    n_theta = params.n_theta
    if (tube.x.shape != (lay.dim,) or (gamma, beta) != (tq.gamma, tq.beta)
            or not np.array_equal(eps_u, tq.eps_u)):
        raise ConfigurationError("tube solution malformed or from a controller with "
                                 "other gamma, beta or eps_u")
    d, y = tube.d, tube.shifted
    model_A, model_b, kept = tq.model_rows(d).over_theta(params, y)
    shape = (params.n_p, n_theta)    # theta's layout, given the tube's n_x and n_u
    if shape not in tq.dist_rows:
        tq.dist_rows[shape] = qlpv.theta_rows(params, tq.mode.F, tq.dist_points).reshape(-1, n_theta)
    dist_A = tq.dist_rows[shape]
    n_dist = params.n_p * len(tq.dist_points)
    point_names = ["tube"] * (N - 1) + ["tube_plus", "terminal"] + ["rci"] * template.n_vertices
    names = ["state_s"] + ["dist"] * n_dist + list(compress(point_names, kept)) * params.n_p

    A = np.zeros((f * len(names), n_x + n_theta))
    A[:f, :n_x] = template.F
    A[f:f + len(dist_A), n_x:] = dist_A
    A[f + len(dist_A):, n_x:] = model_A
    b = np.concatenate([-tq.initial @ y, np.tile(d, n_dist), model_b])
    families: dict = {}
    for k, name in enumerate(names):
        families.setdefault(name, []).append(slice(k * f, (k + 1) * f))
    return FeasibilityPolytope(A=A, b=b, families=families)


@dataclass
class CorrectionResult:
    zeta: np.ndarray
    P: np.ndarray
    projection_loss: float
    fallback: bool = False


def constrained_correct(
    state: EstimatorState,
    zeta_pred: np.ndarray,
    P_pred: np.ndarray,
    y: np.ndarray,
    theta_poly: FeasibilityPolytope | None,
) -> CorrectionResult:
    """Measurement update followed by projection onto the feasibility polytope.

    Standard update, then project the mean in the metric P^-1 of the
    posterior covariance P (``qp.project_weighted`` takes P itself); the
    covariance is left at the unconstrained posterior.  The projection moves
    the prefix zeta[:k] of variables with posterior variance, all of zeta
    or, for a frozen theta, x alone, over the rows that involve it with the
    rest substituted.  When it fails (a numerically empty polytope) theta
    reverts to its pre-update value, which the construction guarantees
    feasible, x alone is projected, and ``fallback`` is set.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    C_tilde = state.output_map()
    n_x = state.n_x
    K = gain(P_pred, C_tilde, state.Re)
    zeta = zeta_pred + K @ (y - C_tilde @ zeta_pred)
    P_new = P_pred - K @ (C_tilde @ P_pred)
    P_new = 0.5 * (P_new + P_new.T)

    if theta_poly is None:
        return CorrectionResult(zeta, P_new, 0.0)

    A, b = theta_poly.A, theta_poly.b
    k = zeta.size if P_new[n_x:].any() else n_x
    for fallback in (False, True):
        rows = A[:, :k].any(axis=1)
        proj = qp.project_weighted(zeta[:k], P_new[:k, :k],
                                   A_in=A[:, :k].compress(rows, axis=0),
                                   b_in=(b - A[:, k:] @ zeta[k:])[rows], tol=1e-10)
        if proj.status == qp.QpStatus.OPTIMAL or fallback:
            break
        zeta, k = np.concatenate([zeta[:n_x], state.theta_hat]), n_x
    zeta = np.concatenate([proj.x, zeta[k:]])
    return CorrectionResult(zeta, P_new, proj.value, fallback)
