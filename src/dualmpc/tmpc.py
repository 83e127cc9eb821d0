"""Tube-based MPC with a jointly optimized invariant terminal set.

One convex QP decides the tube centers z_0..z_N with inputs v_0..v_N and,
at the same time, the invariant-set block (z_s, v_s, s, c, q) that serves as
the artificial steady state: tube rows force each mode image of one center
into the next center's slack-enlarged set, terminal rows contract toward the
set center at rate gamma, and the initial row anchors the current state
estimate in the q-tightened first set.  Because the invariant-set rows are
part of the QP, feasibility for any reference is preserved and the optimal
value minus the standalone set-tracking optimum acts as a Lyapunov function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from . import polytope, qlpv, qp, rci
from .errors import ConfigurationError
from .polytope import Hpoly, ParamSet, PolytopeTemplate

POST_CHECK_TOL = 1e-7


@dataclass(frozen=True)
class ControllerConfig:
    N: int = 2
    gamma: float = 0.95
    beta: float = 0.3
    Q: np.ndarray | None = None          # stage weight over (z_k - z_s, v_k - v_s)
    P: np.ndarray | None = None          # terminal weight; default Q / (1 - gamma^2)
    Q1: np.ndarray | None = None         # set-tracking output weight
    Q2: np.ndarray | None = None         # set-size weight over x_r

    def __post_init__(self):
        if self.N < 1:
            raise ConfigurationError("horizon N must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError("gamma must lie in (0, 1)")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigurationError("beta must lie in [0, 1)")

    def weights(self, n_x: int, n_u: int) -> tuple[np.ndarray, np.ndarray]:
        Q = np.eye(n_x + n_u) if self.Q is None else self.Q
        P = Q / (1.0 - self.gamma ** 2) if self.P is None else self.P
        # Terminal decrement requires P >= Q / (1 - gamma^2).
        gap = np.linalg.eigvalsh(P - Q / (1.0 - self.gamma ** 2)).min()
        if gap < -1e-9:
            raise ConfigurationError(f"P too small for contraction rate (gap {gap:.2e})")
        return Q, P


@dataclass(frozen=True)
class TmpcLayout:
    N: int
    xr: rci.XrLayout

    @property
    def n_x(self) -> int:
        return self.xr.n_x

    @property
    def n_u(self) -> int:
        return self.xr.n_u

    @property
    def stage(self) -> int:
        return self.n_x + self.n_u

    @property
    def dim(self) -> int:
        return (self.N + 1) * self.stage + self.xr.dim

    def z(self, k: int) -> slice:
        off = k * self.stage
        return slice(off, off + self.n_x)

    def v(self, k: int) -> slice:
        off = k * self.stage + self.n_x
        return slice(off, off + self.n_u)

    @property
    def xr_cols(self) -> slice:
        off = (self.N + 1) * self.stage
        return slice(off, off + self.xr.dim)

    def _in_xr(self, part: slice) -> slice:
        off = self.xr_cols.start
        return slice(off + part.start, off + part.stop)

    @property
    def s(self) -> slice:
        return self._in_xr(self.xr.s)

    @property
    def q(self) -> slice:
        return self._in_xr(self.xr.q)

    @property
    def deviations(self) -> np.ndarray:
        """Maps D_k with D_k y = (z_k - z_s, v_k - v_s), k = 0..N."""
        center = np.eye(self.stage, self.dim, self.xr_cols.start)  # (z_s, v_s) lead x_r
        return np.array([np.eye(self.stage, self.dim, k * self.stage) - center
                         for k in range(self.N + 1)])


@dataclass
class TubeSolution:
    z: np.ndarray                 # (N+1, n_x) tube centers
    v: np.ndarray                 # (N+1, n_u) tube inputs
    rci: rci.RciSolution          # embedded invariant-set block
    cost: float
    status: qp.QpStatus
    qp_solution: qp.QpSolution
    layout: TmpcLayout

    @property
    def N(self) -> int:
        return self.z.shape[0] - 1

    def first_set(self) -> ParamSet:
        return ParamSet(self.z[0], self.rci.s)


def mode_rows(gamma: float, template: PolytopeTemplate, lay: TmpcLayout) -> qlpv.ModeRows:
    """Tube propagation and terminal rows over the full vector.

    Point k is the deviation (z_k - z_s, v_k - v_s) of stage k from the set
    center.  For k < N its mode images land in the next tube set with slack q,
    F(A_i w + B_i r) <= F(z_{k+1} - z_s) + q; for k = N they contract toward
    the set center at rate gamma.
    """
    F, f, N = template.F, template.n_rows, lay.N
    D = lay.deviations
    G = np.zeros((N + 1, f, lay.dim))
    for k in range(N + 1):
        nxt, rate = (k + 1, 1.0) if k < N else (N, gamma)
        G[k] = -rate * F @ D[nxt, :lay.n_x]
    G[:, :, lay.q] = -np.eye(f)
    return qlpv.ModeRows(F, D, G, np.zeros((N + 1, f)))


def initial_row(template: PolytopeTemplate, lay: TmpcLayout) -> np.ndarray:
    """G with G y <= -F x_hat: the estimate lies in the first tube set X(z_0, s).

    Using the full offset s here (not the slack q) is what the time-shift
    feasibility argument needs: the propagated state is only guaranteed to
    land in X(z_1, s), and it keeps the barycentric-weight problem feasible.
    """
    G = np.zeros((template.n_rows, lay.dim))
    G[:, lay.z(0)] = -template.F
    G[:, lay.s] = -np.eye(template.n_rows)
    return G


def _assemble_constraints(
    params: qlpv.ModelParams,
    x_hat: np.ndarray,
    cfg: ControllerConfig,
    template: PolytopeTemplate,
    Y: Hpoly,
    eps_u: np.ndarray,
    d: np.ndarray,
    lay: TmpcLayout,
) -> tuple[np.ndarray, np.ndarray]:
    mode = mode_rows(cfg.gamma, template, lay)
    A_mode, b_mode = mode.over_y(params)
    # Vertex outputs in Y and vertex inputs in the tracking input share along
    # the whole tube: vertex j of set k with its input is the deviation point
    # k plus vertex j of the invariant set.
    U_track = Hpoly.box(eps_u).scale(1.0 - cfg.beta)
    box = block_diag(Y.H @ params.C, U_track.H)
    vertices = np.zeros((template.n_vertices, lay.stage, lay.dim))
    vertices[..., lay.xr_cols] = rci.vertex_points(template)
    A_box = (box @ (mode.S[:, None] + vertices)).reshape(-1, lay.dim)
    b_box = np.tile(np.concatenate([Y.h, U_track.h]), (lay.N + 1) * template.n_vertices)
    # Invariant-set block over the x_r columns, which close the vector.
    A_rci, b_rci = rci.rci_constraint_block(params, template, cfg.beta, eps_u, Y, d)
    A_rci = np.hstack([np.zeros((len(b_rci), lay.xr_cols.start)), A_rci])
    return (np.vstack([A_mode, A_box, initial_row(template, lay), A_rci]),
            np.concatenate([b_mode, b_box, -template.F @ x_hat, b_rci]))


def _assemble_cost(
    params: qlpv.ModelParams,
    y_ref: np.ndarray,
    cfg: ControllerConfig,
    template: PolytopeTemplate,
    lay: TmpcLayout,
) -> tuple[np.ndarray, np.ndarray, float]:
    Q, P = cfg.weights(lay.n_x, lay.n_u)
    Q1, Q2 = cfg.Q1, cfg.Q2
    if Q1 is None or Q2 is None:
        dQ1, dQ2 = rci.default_weights(template, params.n_y)
        Q1 = dQ1 if Q1 is None else Q1
        Q2 = dQ2 if Q2 is None else Q2

    H = np.zeros((lay.dim, lay.dim))
    g = np.zeros(lay.dim)
    for k, D in enumerate(lay.deviations):
        W = P if k == lay.N else Q
        H += 2.0 * D.T @ W @ D

    H_xr, g_xr, const = rci.cost_matrices(template, y_ref, params.C, Q1, Q2)
    H[lay.xr_cols, lay.xr_cols] += H_xr
    g[lay.xr_cols] += g_xr
    return H, g, const


def solve_tmpc(
    x_hat: np.ndarray,
    params: qlpv.ModelParams,
    y_ref: np.ndarray,
    cfg: ControllerConfig,
    template: PolytopeTemplate,
    Y: Hpoly,
    eps_u: np.ndarray,
    warm_start: np.ndarray | None = None,
    tol: float = 1e-8,
) -> TubeSolution:
    """Solve the tube QP at the current estimate; d comes from these params."""
    x_hat = np.asarray(x_hat, dtype=float).ravel()
    lay = TmpcLayout(cfg.N, rci.XrLayout.of(template))
    d = qlpv.disturbance_vector(params, template, cfg.beta, eps_u)
    A, b = _assemble_constraints(params, x_hat, cfg, template, Y, eps_u, d, lay)
    H, g, const = _assemble_cost(params, y_ref, cfg, template, lay)
    sol = qp.solve(qp.QpProblem.build(H, g, A, b), tol=tol, warm_start=warm_start)

    z = np.array([sol.x[lay.z(k)] for k in range(cfg.N + 1)])
    v = np.array([sol.x[lay.v(k)] for k in range(cfg.N + 1)])
    rci_sol = rci.RciSolution.unstack(sol.x[lay.xr_cols], lay.xr, float("nan"), d)
    cost = sol.value + const
    if sol.status == qp.QpStatus.OPTIMAL:
        resid = float((A @ sol.x - b).max())
        if resid > POST_CHECK_TOL:
            raise ConfigurationError(f"tube rows violated post-solve by {resid:.2e}")
    return TubeSolution(z=z, v=v, rci=rci_sol, cost=cost, status=sol.status,
                        qp_solution=sol, layout=lay)


def candidate_shift(sol: TubeSolution, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Time-shifted feasible candidate; the new terminal pair interpolates
    toward the set center at rate gamma and doubles as (z+, v+)."""
    z_s, v_s = sol.rci.z_s, sol.rci.v_s
    z = np.vstack([sol.z[1:], z_s + gamma * (sol.z[-1] - z_s)])
    v = np.vstack([sol.v[1:], v_s + gamma * (sol.v[-1] - v_s)])
    return z, v


def warm_start_vector(sol: TubeSolution, gamma: float) -> np.ndarray:
    """Primal warm start for the next solve, built from the shifted candidate."""
    lay = sol.layout
    z, v = candidate_shift(sol, gamma)
    x = np.empty(lay.dim)
    for k in range(lay.N + 1):
        x[lay.z(k)] = z[k]
        x[lay.v(k)] = v[k]
    x[lay.xr_cols] = sol.rci.stack(lay.xr)
    return x


def nominal_input(
    sol: TubeSolution,
    x_hat: np.ndarray,
    template: PolytopeTemplate,
) -> tuple[np.ndarray, polytope.LambdaResult]:
    """Tracking input v_0 + sum_j lambda_j c_j with barycentric weights at x_hat."""
    lam = polytope.barycentric_lambda(template, sol.first_set(), x_hat)
    u = sol.v[0].copy()
    for j, w in enumerate(lam.weights):
        u += w * template.vertex_input(sol.rci.c, j)
    return u, lam


def lyapunov_value(sol: TubeSolution, r_value: float) -> float:
    """Distance-to-optimal-set value; nonnegative up to solver tolerance."""
    return sol.cost - r_value
