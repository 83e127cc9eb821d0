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
own, and ``rci.TubeQp.at`` forms its rows, ``StepRows.dist``, with the
model's other rows.  The rows constrain the state block and the
vertex-matrix entries of theta; scheduling-network weights are left free.

Recursive feasibility.  The controller solves at a model theta_c that it
keeps while its shifted plan stays optimal there (``tmpc``), and the
polytope is built from the rows of the last tube, ``tube.rows``, at theta_c,
untightened: without the margin delta (``rci.MARGIN``) of the QP the
controller solves.  Let y be that tube's shifted plan and (x, theta) the
projected estimate, which meets every row of the polytope.  At theta_c, y
is feasible for the next untightened rows by the time-shift argument of
tube MPC: its model rows and d are unchanged, and the state_s row puts x in
the first shifted set, which is the next QP's initial row at y.  At the
estimate's theta, y is feasible for them too: the model rows of the
polytope are the tube QP's own rows at y with theta free, and the dist rows
keep theta's scaled input image below the kept d, so theta's disturbance
allowance is at most the one the rows at y were written with.  The
controller first solves at delta, whose exact optimum leaves the estimate
delta of room in each row; when that solve is not ``OPTIMAL``, it solves
once more at theta_c's rows with delta = 0, where y is feasible.  Either
way the next tube QP has a feasible point, whatever the measurement said.

The state keeps the model it started from, ``prior``: its shapes give
theta's layout and its C the output map, and the model at the estimate is
the prior with theta_hat in place of its parameters.  ``model()`` memoises
that model on theta_hat's bytes, so it returns the same object while
theta_hat is unchanged: ``predict`` reuses it, and the controller, finding
its kept rows to be of that object, solves at them without a rebuild.  The
model owns a read-only copy of theta_hat: editing zeta in place changes no
model already returned, and the next ``model()`` sees the edit.

A measurement that is not finite is refused before the update, so it never
reaches zeta; a model's parameters are checked for finiteness when it is
constructed (``qlpv.ModelParams``).

A frozen theta is one with zero covariance.  With its rows and columns of P
and of the process noise exactly 0, the prediction and the gain leave them
0 and theta unchanged, and the projection moves x alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np
from scipy.linalg import lapack

from . import qlpv, qp, rci
from .errors import ConfigurationError
from .polytope import PolytopeTemplate

# Most negative eigenvalue of P, relative to max(1, |P|_max), that a valid
# covariance may show by rounding.
_PSD_TOL = 1e-8


@dataclass
class EstimatorState:
    zeta: np.ndarray
    P: np.ndarray
    Qe: np.ndarray
    Re: np.ndarray
    prior: qlpv.ModelParams
    _model: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        self.check_dimensions()
        self.assert_valid_covariance()

    def check_dimensions(self, *predicted: np.ndarray) -> None:
        """Raise ``ConfigurationError`` unless zeta, P, Qe and Re, and a
        predicted (zeta, P) when given, have the prior's dimensions.  The
        fields may be reassigned, so :func:`predict` and
        :func:`constrained_correct` check them on every call."""
        n, n_y = self.prior.n_x + self.prior.n_theta, self.prior.n_y
        want = ((n,), (n, n), (n, n), (n_y, n_y), (n,), (n, n))
        got = tuple(a.shape for a in (self.zeta, self.P, self.Qe, self.Re, *predicted))
        if got != want[:len(got)]:
            raise ConfigurationError("state or covariance dimensions inconsistent with the prior")

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
        """The prior's model at the estimate theta_hat, the same object while
        theta_hat's bytes are unchanged; it shares no memory with zeta."""
        key = self.theta_hat.tobytes()
        if self._model[0] != key:
            theta = self.theta_hat.copy()
            theta.flags.writeable = False
            self._model = (key, self.prior.replace_theta(theta))
        return self._model[1]

    def output_map(self) -> np.ndarray:
        """C_tilde = [C 0] over the augmented state."""
        return np.hstack([self.C, np.zeros((self.C.shape[0], self.prior.n_theta))])

    def assert_valid_covariance(self) -> None:
        scale = max(1.0, float(np.abs(self.P).max()))
        if np.abs(self.P - self.P.T).max() > 1e-10 * scale:
            raise ConfigurationError("covariance lost symmetry")
        if float(np.linalg.eigvalsh(self.P).min()) < -_PSD_TOL * scale:
            raise ConfigurationError("covariance lost positive semidefiniteness")


def predict(state: EstimatorState, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-step prior (zeta_pred, P_pred = J P J' + Qe); parameters propagate
    unchanged.  One ``qlpv.jacobians`` call gives the predicted x and the x
    rows J_x = [f_x f_theta] of the augmented Jacobian J, which differs from
    I only there, so J P and then (J P) J' differ from P only there."""
    state.check_dimensions()
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
    tube: rci.TubeSolution,
    template: PolytopeTemplate,
    params: qlpv.ModelParams,
    beta: float,
    eps_u: np.ndarray,
    gamma: float,
) -> FeasibilityPolytope:
    """Constraint polytope over (x, theta) from the current tube solution.

    The estimate must keep the shifted plan y = ``tube.shifted`` feasible for
    the next tube QP: the tube is the controller's next warm start, and y
    the point it tests.
    Those rows are the tube QP's own, evaluated at y with x and theta free:
    the initial row puts x in the full first shifted set (state_s), and one
    ``over_theta`` call on the model rows the tube was solved with,
    ``tube.rows.mode``, gives, mode by mode, the candidate tube, the last
    shifted tube row into (z+, v+) and the terminal contraction (tube,
    tube_plus, terminal), then the vertex dynamics tightened by d + q (rci).
    Points that are roundoff are left out (``qlpv.ModeRows.over_theta``).
    Only one family is the estimator's own: each mode's scaled input image
    below the frozen disturbance allowance d = ``tube.rows.d`` (dist), whose
    rows are ``tube.rows.dist``.  The rows are written into one array, in
    the order state_s, dist, model rows.  beta, eps_u and gamma must be the
    tube's controller's, whose d and points these are, and params' theta
    layout that of the tube's model; others raise ``ConfigurationError``.
    """
    tq = tube.tube_qp
    lay = tq.layout
    n_x, f, N = lay.n_x, template.n_rows, lay.stages - 1
    d, y, dist_A = tube.rows.d, tube.shifted, tube.rows.dist
    n_dist = params.n_p * len(tq.dist_points)
    if (tube.x.shape != (lay.dim,) or (gamma, beta) != (tq.gamma, tq.beta)
            or not np.array_equal(eps_u, tq.eps_u)
            or dist_A.shape != (f * n_dist, params.n_theta)):
        raise ConfigurationError("tube solution malformed or from a controller with "
                                 "other gamma, beta, eps_u or theta layout")
    model_A, model_b, kept = tube.rows.mode.over_theta(params, y)
    point_names = ["tube"] * (N - 1) + ["tube_plus", "terminal"] + ["rci"] * template.n_vertices
    names = ["state_s"] + ["dist"] * n_dist + list(compress(point_names, kept)) * params.n_p

    A = np.zeros((f * len(names), n_x + params.n_theta))
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
    feasible, x alone is projected, and ``fallback`` is set.  A state,
    prediction or y of other dimensions than the prior's, or a y that is not
    finite, raises ``ConfigurationError`` before the update.
    """
    state.check_dimensions(zeta_pred, P_pred)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (state.prior.n_y,):
        raise ConfigurationError("measurement dimensions inconsistent with the prior")
    if not np.isfinite(y).all():
        raise ConfigurationError("measurement must be finite")
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
