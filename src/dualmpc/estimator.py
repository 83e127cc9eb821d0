"""Joint state-parameter filter with a feasibility-preserving correction.

The augmented state zeta = (x, theta) follows the scheduled model for x and a
random walk with zero drift for theta.  Prediction and gain are the standard
extended-filter recursion; the correction is projected onto a polytope built
from the current tube solution so that the controller's QP stays feasible at
the next step no matter what the measurement says.  Its (x, theta) rows are
the tube QP's own rows at the shifted candidate with x and theta free; only
two families, the state in the q-tightened first set and the scaled input
images below the disturbance allowance, are the estimator's own.  The rows
constrain the state block and the vertex-matrix entries of theta;
scheduling-network weights are left free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import qlpv, qp, rci, tmpc
from .errors import ConfigurationError
from .polytope import PolytopeTemplate
from .tmpc import TubeSolution


def default_noise(n_x: int, n_theta: int, n_y: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Qe, Re, P0) defaults: tiny state process noise, parameters driftless,
    confident parameter prior to keep per-step parameter motion small."""
    Qe = np.zeros((n_x + n_theta, n_x + n_theta))
    Qe[:n_x, :n_x] = 1e-6 * np.eye(n_x)
    Re = 0.1 * np.eye(n_y)
    P0 = np.eye(n_x + n_theta)
    P0[n_x:, n_x:] = 1e-4 * np.eye(n_theta)
    return Qe, Re, P0


@dataclass
class EstimatorState:
    zeta: np.ndarray
    P: np.ndarray
    Qe: np.ndarray
    Re: np.ndarray
    n_x: int
    n_u: int
    n_p: int
    n_h: int
    C: np.ndarray
    freeze_theta: bool = False

    def __post_init__(self):
        n = self.zeta.size
        if self.P.shape != (n, n) or self.Qe.shape != (n, n):
            raise ConfigurationError("covariance dimensions inconsistent")
        self.assert_valid_covariance()

    @classmethod
    def from_model(cls, params: qlpv.ModelParams, Qe=None, Re=None, P0=None,
                   x0=None, freeze_theta: bool = False) -> "EstimatorState":
        n_x, n_theta = params.n_x, params.n_theta
        dQe, dRe, dP0 = default_noise(n_x, n_theta, params.n_y)
        Qe = dQe if Qe is None else Qe
        Re = dRe if Re is None else Re
        P0 = (dP0 if P0 is None else P0).copy()
        if freeze_theta:
            P0[n_x:, :] = 0.0
            P0[:, n_x:] = 0.0
        zeta = np.concatenate([np.zeros(n_x) if x0 is None else np.asarray(x0, float),
                               params.pack()])
        return cls(zeta=zeta, P=P0, Qe=Qe, Re=Re, n_x=n_x, n_u=params.n_u,
                   n_p=params.n_p, n_h=params.n_h, C=params.C.copy(),
                   freeze_theta=freeze_theta)

    @property
    def x_hat(self) -> np.ndarray:
        return self.zeta[:self.n_x]

    @property
    def theta_hat(self) -> np.ndarray:
        return self.zeta[self.n_x:]

    @property
    def n_theta(self) -> int:
        return self.zeta.size - self.n_x

    def model(self) -> qlpv.ModelParams:
        return qlpv.unpack(self.theta_hat, self.n_x, self.n_u, self.n_p, self.n_h, self.C)

    def output_map(self) -> np.ndarray:
        """C_tilde = [C 0] over the augmented state."""
        return np.hstack([self.C, np.zeros((self.C.shape[0], self.n_theta))])

    def assert_valid_covariance(self, tol: float = 1e-8) -> None:
        scale = max(1.0, float(np.abs(self.P).max()))
        if np.abs(self.P - self.P.T).max() > 1e-10 * scale:
            raise ConfigurationError("covariance lost symmetry")
        if float(np.linalg.eigvalsh(self.P).min()) < -tol * scale:
            raise ConfigurationError("covariance lost positive semidefiniteness")


def predict(state: EstimatorState, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-step prior (zeta_pred, P_pred); parameters propagate unchanged."""
    params = state.model()
    x_next = qlpv.step(params, state.x_hat, u)
    zeta_pred = np.concatenate([x_next, state.theta_hat])
    J = qlpv.augmented_jacobian(params, state.x_hat, u)
    if state.freeze_theta:
        J[:state.n_x, state.n_x:] = 0.0
    P_pred = J @ state.P @ J.T + state.Qe
    P_pred = 0.5 * (P_pred + P_pred.T)
    return zeta_pred, P_pred


def gain(P_pred: np.ndarray, C_tilde: np.ndarray, Re: np.ndarray) -> np.ndarray:
    S = C_tilde @ P_pred @ C_tilde.T + Re
    return P_pred @ C_tilde.T @ np.linalg.inv(S)


@dataclass
class FeasibilityPolytope:
    """Rows A (x, theta) <= b guaranteeing next-step controller feasibility.

    Apart from the state_q and dist families, the rows are the tube QP's own
    rows at the shifted candidate, with the estimate x and the model theta
    free; the stored (z_plus, v_plus) and witness document which variables
    generated them.
    """

    A: np.ndarray
    b: np.ndarray
    z_plus: np.ndarray
    v_plus: np.ndarray
    witness: np.ndarray            # center point satisfying every row
    families: dict = field(default_factory=dict)
    x_rows: np.ndarray | None = None   # boolean mask of rows touching x

    def violation(self, zeta: np.ndarray) -> float:
        return float((self.A @ zeta - self.b).max())


def build_theta_polytope(
    tube: TubeSolution,
    template: PolytopeTemplate,
    params: qlpv.ModelParams,
    beta: float,
    eps_u: np.ndarray,
    gamma: float,
    d: np.ndarray | None = None,
) -> FeasibilityPolytope:
    """Constraint polytope over (x, theta) from the current tube solution.

    The estimate must keep the shifted candidate y =
    ``tmpc.warm_start_vector(tube, gamma)`` feasible for the next tube QP.
    Those rows are the tube QP's own, evaluated at y with x and theta free:
    the initial row puts x in the full first shifted set (state_s), the mode
    rows give the candidate tube, the last shifted tube row into (z+, v+) and
    the terminal contraction (tube, tube_plus, terminal), and the vertex
    dynamics give the invariant-set rows tightened by d + q (rci).  Only two
    families are the estimator's own: x in the q-tightened first set
    (state_q), and each mode's scaled input image below the frozen
    disturbance allowance d (dist).
    """
    lay = tube.layout
    n_x, n_u, f = lay.n_x, lay.n_u, template.n_rows
    n_p, n_theta = params.n_p, params.n_theta
    N = tube.N
    if tube.z.shape != (N + 1, n_x) or tube.v.shape != (N + 1, n_u):
        raise ConfigurationError("malformed tube solution")
    if d is None:
        d = tube.rci.d
    F = template.F
    y = tmpc.warm_start_vector(tube, gamma)
    signs = np.array(list(product((-1.0, 1.0), repeat=n_u)))
    r = beta * signs * np.atleast_1d(np.asarray(eps_u, dtype=float))
    dist_A = qlpv.theta_rows(params, F, np.hstack([np.zeros((len(r), n_x)), r]))
    mode_A, mode_b = tmpc.mode_rows(gamma, template, lay).over_theta(params, y)
    rci_A, rci_b = rci.vertex_rows(template, d).over_theta(params, y[lay.xr_cols])
    state = np.hstack([F, np.zeros((f, n_theta))])

    def theta_only(A):
        A = A.reshape(-1, n_theta)
        return np.hstack([np.zeros((len(A), n_x)), A])

    # (family of each block of f rows, rows, right-hand sides)
    blocks = [
        (["state_q"], state, tube.rci.q + F @ tube.z[1]),
        (["state_s"], state, -tmpc.initial_row(template, lay) @ y),
        (["dist"] * n_p * len(r), theta_only(dist_A), np.tile(d, n_p * len(r))),
        ((["tube"] * (N - 1) + ["tube_plus", "terminal"]) * n_p, theta_only(mode_A), mode_b),
        (["rci"] * n_p * template.n_vertices, theta_only(rci_A), rci_b),
    ]
    A = np.vstack([blk[1] for blk in blocks])
    b = np.concatenate([blk[2] for blk in blocks])
    families: dict = {}
    for k, name in enumerate(n for names, _, _ in blocks for n in names):
        families.setdefault(name, []).append(slice(k * f, (k + 1) * f))
    x_rows = np.abs(A[:, :n_x]).sum(axis=1) > 0
    # The shifted first center with the generating parameters satisfies every
    # row; it certifies nonemptiness and backs the empty-polytope fallback.
    witness = np.concatenate([tube.z[1], params.pack()])
    return FeasibilityPolytope(A=A, b=b, z_plus=y[lay.z(N)], v_plus=y[lay.v(N)],
                               witness=witness, families=families, x_rows=x_rows)


def theta_polytope_row_count(template: PolytopeTemplate, n_p: int, n_u: int, N: int) -> int:
    f, v = template.n_rows, template.n_vertices
    return (2 * f                      # state membership, q-tightened + full
            + n_p * (2 ** n_u) * f     # disturbance-allowance rows
            + n_p * (N - 1) * f        # candidate tube rows
            + n_p * f                  # shifted tube row
            + n_p * f                  # shifted terminal row
            + n_p * v * f)             # invariant-set rows


def _inverse_psd(M: np.ndarray, ridge: float = 1e-10) -> np.ndarray:
    """Inverse through Cholesky, ridged on failure."""
    M = 0.5 * (M + M.T)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        L = np.linalg.cholesky(M + ridge * max(1.0, np.abs(M).max()) * np.eye(M.shape[0]))
    Linv = np.linalg.inv(L)
    return Linv.T @ Linv


@dataclass
class CorrectionResult:
    zeta: np.ndarray
    P: np.ndarray
    projection_loss: float
    theta_poly_violation: float
    fallback: bool = False


def constrained_correct(
    state: EstimatorState,
    zeta_pred: np.ndarray,
    P_pred: np.ndarray,
    y: np.ndarray,
    theta_poly: FeasibilityPolytope | None,
) -> CorrectionResult:
    """Measurement update followed by projection onto the feasibility polytope.

    Standard update, then project the mean under the posterior-information
    metric; the covariance is left at the unconstrained posterior.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    C_tilde = state.output_map()
    n_x = state.n_x
    K = gain(P_pred, C_tilde, state.Re)
    if state.freeze_theta:
        K[n_x:, :] = 0.0
    zeta_u = zeta_pred + K @ (y - C_tilde @ zeta_pred)
    P_new = (np.eye(zeta_pred.size) - K @ C_tilde) @ P_pred
    P_new = 0.5 * (P_new + P_new.T)

    if theta_poly is None:
        return CorrectionResult(zeta_u, P_new, 0.0, 0.0)

    if state.freeze_theta:
        return _project_state_block(state, zeta_u, P_new, theta_poly)

    M = _inverse_psd(P_new)
    proj = qp.project_weighted(zeta_u, M, A_in=theta_poly.A, b_in=theta_poly.b, tol=1e-10)
    if proj.status == qp.QpStatus.OPTIMAL:
        return CorrectionResult(proj.x, P_new, proj.value, theta_poly.violation(proj.x))
    return _keep_theta_fallback(state, zeta_u, P_new, theta_poly)


def _state_rows(state: EstimatorState, theta_poly: FeasibilityPolytope,
                theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows restricted to the x block with theta substituted."""
    n_x = state.n_x
    mask = theta_poly.x_rows
    A_x = theta_poly.A[mask, :n_x]
    b_x = theta_poly.b[mask] - theta_poly.A[mask, n_x:] @ theta
    return A_x, b_x


def _project_state_block(state, zeta_u, P_new, theta_poly) -> CorrectionResult:
    """Project only x, keeping theta at its current (feasible) value."""
    n_x = state.n_x
    theta = zeta_u[n_x:]
    A_x, b_x = _state_rows(state, theta_poly, theta)
    Mx = _inverse_psd(P_new[:n_x, :n_x])
    proj = qp.project_weighted(zeta_u[:n_x], Mx, A_in=A_x, b_in=b_x, tol=1e-10)
    zeta = zeta_u.copy()
    zeta[:n_x] = proj.x
    return CorrectionResult(zeta, P_new, proj.value, theta_poly.violation(zeta),
                            fallback=not state.freeze_theta)


def _keep_theta_fallback(state, zeta_u, P_new, theta_poly) -> CorrectionResult:
    """Numerically empty polytope: revert theta to the pre-update value, which
    the construction guarantees feasible, and project the state block only."""
    zeta = zeta_u.copy()
    zeta[state.n_x:] = state.theta_hat
    return _project_state_block(state, zeta, P_new, theta_poly)
