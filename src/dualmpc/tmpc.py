"""Tube-based MPC with a jointly optimized invariant terminal set.

One convex QP decides the tube centers z_0..z_N with inputs v_0..v_N and,
at the same time, the invariant-set block x_r = (z_s, v_s, s, c, q) that
serves as the artificial steady state: tube rows force each mode image of
one center into the next center's slack-enlarged set, terminal rows contract
toward the set center at rate gamma, and the initial row anchors the current
state estimate in the first set.  Because the invariant-set rows are part of
the QP, feasibility for any reference is preserved and the optimal value
minus the standalone set-tracking optimum acts as a Lyapunov function.

The QP's vector is ``rci.Layout.of(template, N + 1)``: the stages (z_k, v_k),
then x_r.  :class:`TubeQp` holds what is built once per controller (cfg,
template, Y, eps_u, C): H and the fixed rows, validated once, the set cost
with its y_ref -> g map, one ``qlpv.ModeRows`` over the full vector, and the
estimator's dist points with their rows per model shape, which the estimator
fills in; the invariant-set rows and cost are built on the x_r columns.  A
step's rows are the model rows, mode-major over the tube points and then the
invariant-set vertex points, from one ``ModeRows.over_y`` call; the fixed
rows; the initial row.  Each step computes d, the model rows, -F x_hat and g,
and checks only those for finiteness.  solve_tmpc caches TubeQps by the
identity of cfg, template and Y and the values of eps_u and C; change
neither those objects nor a TubeQp's arrays in place.

A :class:`TubeSolution` is the solver's x, read-only, with its parts as
views, and its time-shifted plan: :func:`warm_start_vector` gives the plan to
the next solve with this solve's duals, which qp.solve accepts without
iterating while it is still optimal, and the estimator's polytope is formed
at the same array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from . import polytope, qlpv, qp, rci
from .errors import ConfigurationError
from .polytope import Hpoly, ParamSet, PolytopeTemplate


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    N: int = 2
    gamma: float = 0.95
    beta: float = 0.3

    def __post_init__(self):
        if self.N < 1:
            raise ConfigurationError("horizon N must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError("gamma must lie in (0, 1)")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigurationError("beta must lie in [0, 1)")

    def weights(self, n_x: int, n_u: int) -> tuple[np.ndarray, np.ndarray]:
        """(Q, P): Q = I, and P = Q / (1 - gamma^2) gives the terminal decrement."""
        Q = np.eye(n_x + n_u)
        return Q, Q / (1.0 - self.gamma ** 2)


@dataclass(frozen=True, eq=False)
class TubeSolution(rci.RciSolution):
    """The tube QP's solution: z and v hold one row per stage k = 0..N.
    ``shifted`` is its time-shifted plan at the controller's gamma, read-only
    like x; ``dataclasses.replace(sol, x=...)`` makes both anew."""

    status: qp.QpStatus
    qp_solution: qp.QpSolution
    tube_qp: TubeQp               # the controller's prebuilt QP
    shifted: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        shifted = candidate_shift(self.x, self.layout, self.tube_qp.gamma)
        shifted.flags.writeable = False
        object.__setattr__(self, "shifted", shifted)


def mode_rows(gamma: float, template: PolytopeTemplate, lay: rci.Layout) -> qlpv.ModeRows:
    """Tube propagation and terminal rows over the full vector.

    Point k is the deviation (z_k - z_s, v_k - v_s) of stage k from the set
    center.  For k < N its mode images land in the next tube set with slack q,
    F(A_i w + B_i r) <= F(z_{k+1} - z_s) + q; for k = N they contract toward
    the set center at rate gamma.
    """
    F, f, N = template.F, template.n_rows, lay.stages - 1
    D = lay.deviations
    G = np.zeros((N + 1, f, lay.dim))
    for k in range(N + 1):
        nxt, rate = (k + 1, 1.0) if k < N else (N, gamma)
        G[k] = -rate * F @ D[nxt, :lay.n_x]
    G[:, :, lay.q] = -np.eye(f)
    return qlpv.ModeRows(F, D, G, np.zeros((N + 1, f)))


@dataclass(frozen=True, eq=False)
class TubeQp:
    """The tube QP of one controller; :meth:`rows` and ``set_cost.at`` fill in
    a step.  Its rows: ``mode`` at the tube points, then at the vertex points
    z_s + V_j s with inputs v_s + c_j; the fixed rows; the initial row."""

    gamma: float
    beta: float
    eps_u: np.ndarray
    layout: rci.Layout
    H: np.ndarray
    set_cost: rci.SetCost         # the x_r part of the cost; its ``at`` gives g
    mode: qlpv.ModeRows           # model rows; h is 0, model_rows sets -d
    A_fixed: np.ndarray           # vertex box rows along the tube, then of x_r,
    b_fixed: np.ndarray           # then the sign rows of x_r
    initial: np.ndarray           # G with G y <= -F x_hat
    dist_points: np.ndarray       # the estimator's dist points (0, r)
    dist_rows: dict = field(default_factory=dict, init=False)  # their rows per model shape

    @classmethod
    def build(cls, cfg: ControllerConfig, template: PolytopeTemplate, Y: Hpoly,
              eps_u: np.ndarray, C: np.ndarray) -> "TubeQp":
        lay = rci.Layout.of(template, cfg.N + 1)
        Q, P = cfg.weights(lay.n_x, lay.n_u)
        H = np.zeros((lay.dim, lay.dim))
        for k, D in enumerate(lay.deviations):
            W = P if k == cfg.N else Q
            H += 2.0 * D.T @ W @ D
        set_cost = rci.SetCost.build(template, C, lay)
        H += set_cost.H

        tube = mode_rows(cfg.gamma, template, lay)
        rci_rows = rci.RciRows.build(template, cfg.beta, eps_u, Y, C, lay)
        mode = qlpv.ModeRows(template.F, np.concatenate([tube.S, rci_rows.vertex.S]),
                             np.concatenate([tube.G, rci_rows.vertex.G]),
                             np.zeros((lay.stages + lay.v, lay.f)))
        # Vertex outputs in Y and vertex inputs in the tracking input share along
        # the tube: vertex j of set k with its input is point k plus vertex j of x_r.
        A_box = (rci_rows.box @ (tube.S[:, None] + rci_rows.vertex.S)).reshape(-1, lay.dim)
        A_fixed = np.vstack([A_box, rci_rows.A_fixed])
        b_fixed = np.concatenate([np.tile(rci_rows.box_h, lay.stages * lay.v), rci_rows.b_fixed])
        # H, a sum of 2 D'WD, W > 0, and the set cost, is PSD by construction:
        # validate it with the fixed rows once, without eigvalsh.
        qp.QpProblem.build(H, np.zeros(lay.dim), A_fixed, b_fixed, check_psd=False)
        # The estimate lies in the first tube set X(z_0, s).  The full offset s
        # (not the slack q) is what the time-shift feasibility argument needs:
        # the propagated state is only guaranteed to land in X(z_1, s), and it
        # keeps x_hat inside X(z_0, s), so the barycentric weights reproduce it.
        initial = np.zeros((lay.f, lay.dim))    # z_0 leads the vector
        initial[:, :lay.n_x], initial[:, lay.s] = -template.F, -np.eye(lay.f)
        # r = beta eps_u o sign with sign_0 = +1: F = [I; -I] gives the rows of
        # -r as those of r reordered.
        signs = np.array(list(product((-1.0, 1.0), repeat=lay.n_u)))[2 ** (lay.n_u - 1):]
        dist = np.hstack([np.zeros((len(signs), lay.n_x)), cfg.beta * signs * eps_u])
        return cls(cfg.gamma, cfg.beta, eps_u, lay, H, set_cost, mode, A_fixed, b_fixed,
                   initial, dist)

    def model_rows(self, d: np.ndarray) -> qlpv.ModeRows:
        """The model rows with room for the disturbance allowance d at the vertex points."""
        h = self.mode.h.copy()
        h[self.layout.stages:] = -d
        return replace(self.mode, h=h)

    def rows(self, params: qlpv.ModelParams, x_hat: np.ndarray,
             d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) of the step: model rows at (params, d), fixed rows, initial row at x_hat."""
        A_model, b_model = self.model_rows(d).over_y(params)
        return (np.concatenate([A_model, self.A_fixed, self.initial]),
                np.concatenate([b_model, self.b_fixed, -self.mode.F @ x_hat]))


@functools.lru_cache(maxsize=8)
def _tube_qp(cfg, template, Y, eps_u: bytes, C: bytes, n_y: int) -> TubeQp:
    return TubeQp.build(cfg, template, Y, np.frombuffer(eps_u), np.frombuffer(C).reshape(n_y, -1))


def solve_tmpc(
    x_hat: np.ndarray,
    params: qlpv.ModelParams,
    y_ref: np.ndarray,
    cfg: ControllerConfig,
    template: PolytopeTemplate,
    Y: Hpoly,
    eps_u: np.ndarray,
    warm_start: qp.QpSolution | np.ndarray | None = None,
) -> TubeSolution:
    """Solve the tube QP at the current estimate; d comes from these params."""
    x_hat = np.asarray(x_hat, dtype=float).ravel()
    C = np.asarray(params.C, dtype=float)
    tq = _tube_qp(cfg, template, Y, np.asarray(eps_u, dtype=float).tobytes(), C.tobytes(), len(C))
    d = qlpv.disturbance_vector(params, template, cfg.beta, eps_u)
    A, b = tq.rows(params, x_hat, d)
    g, const = tq.set_cost.at(y_ref)
    # H and the fixed rows were validated with tq, and the shapes of the rest are tq's.
    if not (np.isfinite(g).all() and np.isfinite(A[:params.n_p * tq.mode.h.size]).all()
            and np.isfinite(b).all()):
        raise ConfigurationError("problem data must be finite")
    sol = qp.solve(qp.QpProblem(tq.H, g, A, b), warm_start=warm_start)
    return TubeSolution(x=sol.x, layout=tq.layout, cost=sol.value + const, d=d,
                        status=sol.status, qp_solution=sol, tube_qp=tq)


def candidate_shift(x: np.ndarray, lay: rci.Layout, gamma: float) -> np.ndarray:
    """Time-shifted feasible candidate of the vector x: stage k takes stage
    k + 1, and the last stage, (z_N, v_N), interpolates toward the set center
    at rate gamma and doubles as (z+, v+).  x_r is kept."""
    end = lay.center.start
    last, center = slice(end - lay.stage, end), x[lay.center]
    shifted = x.copy()
    shifted[:last.start] = x[lay.stage:end]
    shifted[last] = center + gamma * (x[last] - center)
    return shifted


def warm_start_vector(sol: TubeSolution, gamma: float) -> qp.QpSolution:
    """Warm start for the next solve: the shifted plan ``sol.shifted`` with
    this solve's duals.  qp.solve returns it unchanged when it still meets
    the KKT test; otherwise only its x seeds the interior-point iteration.
    Its ``kkt_residual`` is nan until that test evaluates it.  gamma must be
    the controller's; another raises ``ConfigurationError``."""
    if gamma != sol.tube_qp.gamma:
        raise ConfigurationError("gamma differs from the tube's controller's")
    duals = sol.qp_solution
    return qp.QpSolution(sol.shifted, duals.ineq_duals, float("nan"), duals.status, 0)


def nominal_input(
    sol: TubeSolution,
    x_hat: np.ndarray,
    template: PolytopeTemplate,
) -> tuple[np.ndarray, polytope.LambdaResult]:
    """Tracking input v_0 + sum_j lambda_j c_j with barycentric weights at x_hat."""
    lam = polytope.barycentric_lambda(template, ParamSet(sol.z[0], sol.s), x_hat)
    c = sol.c.reshape(template.n_vertices, template.n_u)
    return sol.v[0] + c.T @ lam.weights, lam


def lyapunov_value(sol: TubeSolution, r_value: float) -> float:
    """Distance-to-optimal-set value; nonnegative up to solver tolerance."""
    return sol.cost - r_value
