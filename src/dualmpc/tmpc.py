"""Tube-based MPC with a jointly optimized invariant terminal set.

Each step solves one convex QP, ``rci.TubeQp`` with N + 1 stages: the tube
centers z_0..z_N with inputs v_0..v_N and, at the same time, the
invariant-set block x_r = (z_s, v_s, s, c, q) that serves as the artificial
steady state.  Because the invariant-set rows are part of the QP,
feasibility for any reference is preserved, and the optimal value minus the
stand-alone set-tracking optimum acts as a Lyapunov function.

solve_tmpc takes each controller's TubeQp from ``rci.tube_qp``, which
builds it once, validates its H and fixed rows then, and caches it by the
identity of template and Y and the values of beta, gamma, N, eps_u and C.
A model's rows, ``rci.TubeQp.at``, are built when the controller takes that
model, and then travel with the solution: d, the model rows, the assembled
row block and the estimator's dist rows, all read-only, built once per
model and checked then.  A step's QP at those rows comes
from ``rci.TubeQp.problem``, which writes b's initial row, -F x_hat, into a
copy of b, tightens every row by the margin delta = ``rci.MARGIN``, forms g
from y_ref, and checks both for finiteness.  So the
cache keys do not see an edit made in place: change no ModelParams, cfg,
template or Y, nor a TubeQp's arrays, in place.

Each solve gives one ``rci.TubeSolution``, and that solution is the next
step's warm start (:func:`warm_start_vector` returns it): its time-shifted
plan ``shifted``, with the duals of its ``qp_solution``, is the point tested
at its own rows, and the estimator's polytope is formed from the same rows
at the same array.

The controller keeps the model of its last solution, theta_c, for as long as
that plan stays optimal there, and so re-solves only when the plan stops
being optimal, not whenever the estimate moves (compare the recursive model
update of Lorenzen, Cannon & Allgower 2019, and the self-triggered tube MPC
of Brunner, Heemels & Allgower 2016).  Each step, :func:`solve_tmpc` first
tests the warm start at its own rows, with this step's initial row and g,
by ``qp.accept_warm_start``, the test qp.solve applies to its exact start,
at the same tol:

- kept: the plan passes at the margin delta, and is the solution, at
  theta_c, with 0 iterations;
- replaced: it fails, and the QP at delta is solved at the estimate's
  model, or at theta_c's rows when the estimate's model is theta_c's object
  (a frozen theta), so that nothing is rebuilt; the solve starts from its
  exact solution;
- retried: that solve is not ``OPTIMAL``, at a new model or at theta_c, so
  the QP is solved once more at theta_c's rows with delta = 0, and that
  result is taken only if it is ``OPTIMAL``.

The exact solution at delta keeps delta of room in every untightened row,
and the estimator's polytope, formed from the untightened rows, lets the
estimate use it.  What the polytope certifies is the plan at the
untightened rows of the next QP, at both models (see ``estimator``): the
retry is where that certificate is used, so keeping theta_c costs no
feasibility.  The test runs for every warm start of the same TubeQp; the
estimator predicts and corrects at its own estimate either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

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
        if not isinstance(self.N, Integral) or self.N < 1:
            raise ConfigurationError(f"horizon N must be an integer >= 1, got {self.N!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError("gamma must lie in (0, 1)")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigurationError("beta must lie in [0, 1)")


def solve_tmpc(
    x_hat: np.ndarray,
    params: qlpv.ModelParams,
    y_ref: np.ndarray,
    cfg: ControllerConfig,
    template: PolytopeTemplate,
    Y: Hpoly,
    eps_u: np.ndarray,
    warm_start: rci.TubeSolution | None = None,
) -> rci.TubeSolution:
    """Solve the tube QP at x_hat and y_ref, keeping the warm start's model
    while its shifted plan is still optimal there.

    The warm start is a solution of this controller: its point, the plan
    ``warm_start.shifted`` with the duals of ``warm_start.qp_solution``, is
    first tested, by ``qp.accept_warm_start``, against its own rows,
    ``warm_start.rows``, with this step's initial row and g.  When it
    passes, it is the solution, at its rows, with 0 iterations (kept).
    Otherwise the QP is solved at params (replaced), at the warm start's
    own rows when they are of params itself.  When that solve is not
    ``OPTIMAL``, the QP is solved once more at the warm start's rows with
    the margin ``rci.MARGIN`` taken off, where its plan is feasible, and
    that result is taken only if it is ``OPTIMAL`` (retried).  The warm
    start's rows at the margin make one problem, which the test and the
    solve at them share.  A warm start of another TubeQp
    is not tested, and the QP is solved as without one; one whose x has
    another size than this controller's vector raises
    ``ConfigurationError``.  ``rows`` and d are those of the model solved
    for.  An x_hat or y_ref of another size than the controller's raises
    ``ConfigurationError``."""
    tq = rci.tube_qp(template, cfg.beta, eps_u, Y, params.C, cfg.gamma, cfg.N + 1)
    kept = sol = None
    if warm_start is not None and warm_start.x.size != tq.layout.dim:
        raise ConfigurationError("warm start has wrong dimension")
    if warm_start is not None and warm_start.rows.tube_qp is tq:
        kept = warm_start.rows
        kept_qp, const = tq.problem(kept, y_ref, x_hat)
        sol = qp.accept_warm_start(kept_qp, warm_start.shifted,
                                   warm_start.qp_solution.ineq_duals)
    rows = kept
    if sol is None:
        rows = kept if kept is not None and kept.params is params else tq.at(params)
        prob, const = (kept_qp, const) if rows is kept else tq.problem(rows, y_ref, x_hat)
        sol = qp.solve(prob)
        if sol.status != qp.QpStatus.OPTIMAL and kept is not None:
            # The kept rows untightened, where the plan is certified feasible.
            retry = qp.solve(replace(kept_qp, b_in=kept_qp.b_in + rci.MARGIN))
            if retry.status == qp.QpStatus.OPTIMAL:
                sol, rows = retry, kept
    return rci.TubeSolution(sol.x, rows, sol.value + const, sol)


def warm_start_vector(sol: rci.TubeSolution, gamma: float) -> rci.TubeSolution:
    """Warm start for the next solve: ``sol`` itself, whose plan
    ``sol.shifted`` :func:`solve_tmpc` tests with its duals at its rows
    ``sol.rows``, and keeps those rows' model while the plan still meets
    the KKT test at them.  gamma must be the controller's; another raises
    ``ConfigurationError``."""
    if gamma != sol.tube_qp.gamma:
        raise ConfigurationError("gamma differs from the tube's controller's")
    return sol


def nominal_input(
    sol: rci.TubeSolution,
    x_hat: np.ndarray,
    template: PolytopeTemplate,
) -> tuple[np.ndarray, polytope.LambdaResult]:
    """Tracking input v_0 + sum_j lambda_j c_j with barycentric weights at
    x_hat; an x_hat of another size than the template's n_x raises
    ``ConfigurationError``."""
    if np.size(x_hat) != template.n_x:
        raise ConfigurationError(f"x_hat has {np.size(x_hat)} entries, not n_x={template.n_x}")
    lam = polytope.barycentric_lambda(template, sol.z[0], sol.s, x_hat)
    c = sol.c.reshape(template.n_vertices, template.n_u)
    return sol.v[0] + c.T @ lam.weights, lam


def lyapunov_value(sol: rci.TubeSolution, r_value: float) -> float:
    """Distance-to-optimal-set value; nonnegative up to solver tolerance."""
    return sol.cost - r_value
