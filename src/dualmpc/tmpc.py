"""Tube-based MPC with a jointly optimized invariant terminal set.

Each step solves one convex QP, ``rci.TubeQp`` with N + 1 stages: the tube
centers z_0..z_N with inputs v_0..v_N and, at the same time, the
invariant-set block x_r = (z_s, v_s, s, c, q) that serves as the artificial
steady state.  Because the invariant-set rows are part of the QP,
feasibility for any reference is preserved, and the optimal value minus the
stand-alone set-tracking optimum acts as a Lyapunov function.

solve_tmpc builds one TubeQp per controller (cfg, template, Y, eps_u, C) and
validates its H and fixed rows once.  It caches TubeQps by the identity of
cfg, template and Y and the values of eps_u and C; change neither those
objects nor a TubeQp's arrays in place.  Each step computes d, the model
rows, -F x_hat and g, and checks only those for finiteness.

A :class:`TubeSolution` is the solver's x, read-only, with its parts as
views, and its time-shifted plan: :func:`warm_start_vector` gives the plan to
the next solve with this solve's duals, which qp.solve accepts without
iterating while it is still optimal, and the estimator's polytope is formed
at the same array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import polytope, qlpv, qp, rci
from .errors import ConfigurationError
from .polytope import Hpoly, PolytopeTemplate


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


@dataclass(frozen=True, eq=False)
class TubeSolution(rci.RciSolution):
    """The tube QP's solution: z and v hold one row per stage k = 0..N.
    ``shifted`` is its time-shifted plan at the controller's gamma, read-only
    like x; ``dataclasses.replace(sol, x=...)`` makes both anew."""

    status: qp.QpStatus
    qp_solution: qp.QpSolution
    tube_qp: rci.TubeQp           # the controller's prebuilt QP
    shifted: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        shifted = candidate_shift(self.x, self.layout, self.tube_qp.gamma)
        shifted.flags.writeable = False
        object.__setattr__(self, "shifted", shifted)


@functools.lru_cache(maxsize=8)
def _tube_qp(cfg, template, Y, eps_u: bytes, C: bytes, n_y: int) -> rci.TubeQp:
    tq = rci.TubeQp.build(template, cfg.beta, np.frombuffer(eps_u), Y,
                          np.frombuffer(C).reshape(n_y, -1), cfg.gamma, cfg.N + 1)
    # H is positive semidefinite by construction: validate it with the fixed
    # rows once, without eigvalsh.
    qp.QpProblem.build(tq.H, np.zeros(tq.layout.dim), tq.A_fixed, tq.b_fixed, check_psd=False)
    return tq


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
    lam = polytope.barycentric_lambda(template, sol.z[0], sol.s, x_hat)
    c = sol.c.reshape(template.n_vertices, template.n_u)
    return sol.v[0] + c.T @ lam.weights, lam


def lyapunov_value(sol: TubeSolution, r_value: float) -> float:
    """Distance-to-optimal-set value; nonnegative up to solver tolerance."""
    return sol.cost - r_value
