"""The tube QP and the invariant-set QP over the box template: one builder.

:class:`TubeQp` builds the QP of any number of tube stages.  Its vector holds
the stages (z_k, v_k), then the invariant-set block x_r = (z_s, v_s, s, c, q):
:class:`Layout` gives the offsets, and a solution's parts are views.  The
stand-alone invariant-set QP is the build with no stages, which has no
initial row; :func:`rci_constraint_block` gives its rows and
:func:`solve_optimal_rci` solves it.  Both builds come from one cache,
:func:`tube_qp`.

:meth:`TubeQp.at` is the one place where a model's rows are made: it forms
the disturbance allowance d and the model rows with room for it, assembles
the row block, forms the estimator's dist rows when the QP has stages, and
returns them as a :class:`StepRows`.  :meth:`TubeQp.problem` is the one
place where a step's QP is formed from those rows: g from the reference,
with stages the initial row of the state estimate, and every row tightened
by the margin MARGIN.  The solver returns the exact optimum of that QP,
which lies on its rows; at the untightened rows it keeps MARGIN of room, in
which the estimator's polytope, formed from the untightened rows, lets the
estimate move.  A TubeQp keeps nothing per model: the rows, which name
their TubeQp, travel with the solution solved at them.

Every solve of a TubeQp, with stages or without, gives one
:class:`TubeSolution`: the solver's x, read-only, with its parts as views,
the rows it was solved at, its cost and the solver's result, whose status
it reports.  A solution with stages is its own warm start: its time-shifted
plan, ``shifted`` (:func:`candidate_shift`), with the solver's duals, is
what the controller tests at its rows at the next step, and the same plan
and rows give the estimator's polytope.  It copies no fact of its rows.

The rows are linear in the vector.  For every scheduling mode i, the images
of each tube center land in the next center's slack-enlarged set, those of
the last contract toward the set center at rate gamma, and the image of each
template vertex j under its vertex input lands inside the set shrunk by the
disturbance allowance d and the slack q.  These model rows are one
``qlpv.ModeRows``, mode-major over the tube points and then the vertex
points.  The fixed rows keep the vertex outputs of every set in the output
set and its vertex inputs in the tracking share of the input box, and s and
q nonnegative.  The initial row puts the state estimate in the first set.

The cost is the set-tracking cost of MPC for tracking (Limon, Alvarado,
Alamo & Camacho 2008): the stages' deviations from the set center, weighed
by Q = I and, on the last stage, by P = Q / (1 - gamma^2), which gives the
terminal decrement; plus the set cost, which trades the output-tracking
error of the center, summed over the template's v vertices, against set
size.  Only g and a constant depend on the reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import qlpv, qp
from .errors import ConfigurationError
from .polytope import Hpoly, PolytopeTemplate

# The margin delta by which TubeQp.problem tightens every row: the exact
# solution of the tightened QP keeps delta of room in each row, which the
# untightened rows of the estimator's polytope leave the estimate.
MARGIN = 1e-5

@dataclass(frozen=True)
class Layout:
    """Offsets of ``stages`` tube stages (z_k, v_k), then of x_r, in the vector."""

    n_x: int
    n_u: int
    f: int
    v: int
    stages: int

    @classmethod
    def of(cls, template: PolytopeTemplate, stages: int) -> "Layout":
        return cls(template.n_x, template.n_u, template.n_rows, template.n_vertices, stages)

    @property
    def stage(self) -> int:
        return self.n_x + self.n_u

    def _xr(self, off: int, size: int) -> slice:
        off += self.stages * self.stage
        return slice(off, off + size)

    @property
    def center(self) -> slice:
        """(z_s, v_s), which lead x_r."""
        return self._xr(0, self.stage)

    @property
    def z_s(self) -> slice:
        return self._xr(0, self.n_x)

    @property
    def v_s(self) -> slice:
        return self._xr(self.n_x, self.n_u)

    @property
    def s(self) -> slice:
        return self._xr(self.stage, self.f)

    @property
    def c(self) -> slice:
        return self._xr(self.stage + self.f, self.v * self.n_u)

    @property
    def q(self) -> slice:
        return self._xr(self.stage + self.f + self.v * self.n_u, self.f)

    @property
    def dim(self) -> int:
        return self.q.stop

    @property
    def deviations(self) -> np.ndarray:
        """Maps D_k with D_k x = (z_k - z_s, v_k - v_s), one per stage."""
        stacked = np.eye(self.stages * self.stage, self.dim)
        return (stacked.reshape(self.stages, self.stage, self.dim)
                - np.eye(self.stage, self.dim, self.center.start))


def candidate_shift(x: np.ndarray, lay: Layout, gamma: float) -> np.ndarray:
    """Time-shifted feasible candidate of the vector x, which has stages:
    stage k takes stage k + 1, and the last stage, (z_N, v_N), interpolates
    toward the set center at rate gamma and doubles as (z+, v+).  x_r is
    kept."""
    end = lay.center.start
    last, center = slice(end - lay.stage, end), x[lay.center]
    shifted = x.copy()
    shifted[:last.start] = x[lay.stage:end]
    shifted[last] = center + gamma * (x[last] - center)
    return shifted


@dataclass(frozen=True, eq=False)
class TubeSolution:
    """A solve at ``rows``, over their QP's layout, with the solver's result
    ``qp_solution``, whatever its status.  x is made read-only, and z and v
    (one row per stage), z_s, v_s, s, c and q are views of it.  With stages
    it is its own warm start: ``shifted``, its time-shifted plan at the
    QP's gamma, read-only like x, is formed once, when first read;
    ``dataclasses.replace(sol, x=...)`` makes a solution with its own."""

    x: np.ndarray
    rows: StepRows                # the rows solved at, which name their QP
    cost: float
    qp_solution: qp.QpSolution

    @property
    def status(self) -> qp.QpStatus:
        return self.qp_solution.status

    @property
    def tube_qp(self) -> TubeQp:
        return self.rows.tube_qp

    @property
    def layout(self) -> Layout:
        return self.tube_qp.layout

    @property
    def d(self) -> np.ndarray:
        """The disturbance allowance of the rows."""
        return self.rows.d

    def __post_init__(self):
        self.x.flags.writeable = False

    @functools.cached_property
    def shifted(self) -> np.ndarray:
        shifted = candidate_shift(self.x, self.layout, self.tube_qp.gamma)
        shifted.flags.writeable = False
        return shifted

    @property
    def z(self) -> np.ndarray:
        lay = self.layout
        return self.x[:lay.center.start].reshape(lay.stages, lay.stage)[:, :lay.n_x]

    @property
    def v(self) -> np.ndarray:
        lay = self.layout
        return self.x[:lay.center.start].reshape(lay.stages, lay.stage)[:, lay.n_x:]

    @property
    def z_s(self) -> np.ndarray:
        return self.x[self.layout.z_s]

    @property
    def v_s(self) -> np.ndarray:
        return self.x[self.layout.v_s]

    @property
    def s(self) -> np.ndarray:
        return self.x[self.layout.s]

    @property
    def c(self) -> np.ndarray:
        return self.x[self.layout.c]

    @property
    def q(self) -> np.ndarray:
        return self.x[self.layout.q]


def mode_rows(gamma: float, template: PolytopeTemplate, lay: Layout) -> qlpv.ModeRows:
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
class StepRows:
    """The rows A y <= b of a step at the model ``params``: ``mode``, the
    model rows with -d at the vertex points, then the fixed rows and the
    initial row, all untightened.  b's initial row is 0:
    :meth:`TubeQp.problem` writes -F x_hat there in a copy of b.  ``dist``
    holds the rows over theta of F B_i r at the QP's dist points (0, r),
    mode-major, in params' theta layout, which only the estimator's polytope
    reads; without stages it has no rows.  d, A, b and dist are
    read-only."""

    params: qlpv.ModelParams
    d: np.ndarray                 # the disturbance allowance
    mode: qlpv.ModeRows
    A: np.ndarray
    b: np.ndarray
    dist: np.ndarray
    tube_qp: TubeQp               # the QP whose rows these are


@dataclass(frozen=True, eq=False)
class TubeQp:
    """The QP over ``layout``; :meth:`at` and :meth:`problem` fill in a step.
    Its rows: ``mode`` at the tube points, then at the vertex points
    z_s + V_j s with inputs v_s + c_j; the fixed rows; the initial row, which
    the zero-stage build has not.  It holds no model's rows; change none of
    its arrays in place."""

    template: PolytopeTemplate
    gamma: float
    beta: float
    eps_u: np.ndarray
    layout: Layout
    H: np.ndarray
    G: np.ndarray                 # g[z_s] = G y_ref
    Q1: np.ndarray                # the output weight
    mode: qlpv.ModeRows           # model rows with h = 0; ``at`` sets -d
    A_fixed: np.ndarray           # vertex box rows along the tube, then of x_r,
    b_fixed: np.ndarray           # then the sign rows of x_r
    initial: np.ndarray           # rows with initial y <= -F x_hat; none without stages
    dist_points: np.ndarray       # the estimator's dist points (0, r); none without stages

    @classmethod
    def build(cls, template: PolytopeTemplate, beta: float, eps_u: np.ndarray, Y: Hpoly,
              C: np.ndarray, gamma: float, stages: int) -> "TubeQp":
        """The QP of ``stages`` tube stages.  H, a sum of 2 D'WD, W > 0, and the
        set cost, is positive semidefinite by construction."""
        if (C.shape[1], np.size(eps_u), Y.H.shape[1]) != (template.n_x, template.n_u, len(C)):
            raise ConfigurationError(
                f"template has n_x={template.n_x}, n_u={template.n_u}; C has shape {C.shape}, "
                f"eps_u {np.size(eps_u)} entries and Y {Y.H.shape[1]} columns")
        lay = Layout.of(template, stages)
        # Stage deviations weigh Q = I, the last one P = Q / (1 - gamma^2).
        Q, H = np.eye(lay.stage), np.zeros((lay.dim, lay.dim))
        for k, D in enumerate(lay.deviations):
            W = Q / (1.0 - gamma ** 2) if k == stages - 1 else Q
            H += 2.0 * D.T @ W @ D
        # The set cost: strong output tracking of the center, mild center and
        # input preference, and the set size through s, c and q.  It is summed
        # apart and then added to the stage terms, an order H's rounding keeps.
        Q1 = 10.0 * np.eye(len(C))
        w = np.zeros(lay.dim)
        w[lay.center], w[lay.s], w[lay.c], w[lay.q] = 1e-6, 10.0, 1.0, 1.0
        H_set = np.diag(2.0 * w)
        H_set[lay.z_s, lay.z_s] += 2.0 * lay.v * C.T @ Q1 @ C
        H += H_set

        # Vertex points S_j x = (z_s + V_j s, v_s + c_j), each vertex with its input,
        # whose mode images stay inside the set with room for the disturbance d and slack q.
        tube = mode_rows(gamma, template, lay)
        S = np.zeros((lay.v, lay.stage, lay.dim))
        S[:, :, lay.center] = np.eye(lay.stage)
        S[:, :lay.n_x, lay.s] = template.V
        S[:, lay.n_x:, lay.c] = np.eye(lay.v * lay.n_u).reshape(lay.v, lay.n_u, -1)
        G = np.zeros((lay.v, lay.f, lay.dim))
        G[:, :, lay.z_s], G[:, :, lay.s] = -template.F, -np.eye(lay.f)
        G[:, :, lay.q] = np.eye(lay.f)
        mode = qlpv.ModeRows(template.F, np.concatenate([tube.S, S]), np.concatenate([tube.G, G]),
                             np.zeros((stages + lay.v, lay.f)))
        # Vertex outputs in Y and vertex inputs in the tracking input share: vertex j
        # of tube set k with its input is point k plus vertex point j, and then the
        # vertex points themselves.  Then the sign rows q >= 0 and s >= 0.
        U_box = Hpoly.box((1.0 - beta) * eps_u)
        box = np.block([[Y.H @ C, np.zeros((len(Y.h), lay.n_u))],
                        [np.zeros((len(U_box.h), lay.n_x)), U_box.H]])
        points = np.concatenate([(tube.S[:, None] + S).reshape(-1, lay.stage, lay.dim), S])
        A_sign = np.zeros((2 * lay.f, lay.dim))
        A_sign[:lay.f, lay.q] = A_sign[lay.f:, lay.s] = -np.eye(lay.f)
        A_fixed = np.vstack([(box @ points).reshape(-1, lay.dim), A_sign])
        b_fixed = np.concatenate([np.tile(np.concatenate([Y.h, U_box.h]), len(points)),
                                  np.zeros(2 * lay.f)])
        # The estimate lies in the first tube set X(z_0, s).  The full offset s
        # (not the slack q) is what the time-shift feasibility argument needs:
        # the propagated state is only guaranteed to land in X(z_1, s), and it
        # keeps x_hat inside X(z_0, s), so the barycentric weights reproduce it.
        initial = np.zeros((lay.f, lay.dim))    # z_0 leads the vector
        initial[:, :lay.n_x], initial[:, lay.s] = -template.F, -np.eye(lay.f)
        # r = beta eps_u o sign with sign_0 = +1: F = [I; -I] gives the rows of
        # -r as those of r reordered.  Only the rows of a QP with stages have
        # dist rows: the estimator reads no other.
        signs = np.array(list(product((-1.0, 1.0), repeat=lay.n_u)))[2 ** (lay.n_u - 1):]
        dist = np.hstack([np.zeros((len(signs), lay.n_x)), beta * signs * eps_u])
        return cls(template, gamma, beta, eps_u, lay, H, -2.0 * lay.v * C.T @ Q1, Q1, mode,
                   A_fixed, b_fixed, initial if stages else initial[:0],
                   dist if stages else dist[:0])

    def at(self, params: qlpv.ModelParams) -> StepRows:
        """The rows, d and dist rows at params, built anew on every call.
        The build checks the template's n_x and n_u against the model's and
        the model rows for finiteness."""
        lay = self.layout
        if (params.n_x, params.n_u) != (lay.n_x, lay.n_u):
            raise ConfigurationError(
                f"template has n_x={lay.n_x}, n_u={lay.n_u}; the model has "
                f"n_x={params.n_x}, n_u={params.n_u}")
        d = qlpv.disturbance_vector(params, self.template, self.beta, self.eps_u)
        h = self.mode.h.copy()
        h[lay.stages:] = -d
        mode = replace(self.mode, h=h)
        A_model, b_model = mode.over_y(params)
        if not np.isfinite(A_model).all():
            raise ConfigurationError("problem data must be finite")
        A = np.concatenate([A_model, self.A_fixed, self.initial])
        b = np.concatenate([b_model, self.b_fixed, np.zeros(len(self.initial))])
        dist = qlpv.theta_rows(params, self.mode.F, self.dist_points).reshape(-1, params.n_theta)
        for a in (d, A, b, dist):
            a.flags.writeable = False
        return StepRows(params, d, mode, A, b, dist, self)

    def problem(self, rows: StepRows, y_ref: np.ndarray,
                x_hat: np.ndarray | None = None) -> tuple[qp.QpProblem, float]:
        """The step's QP at ``rows`` and its cost's constant: g from y_ref
        and b, a copy of ``rows.b`` with, when the QP has stages, -F x_hat in
        its initial row, and then every row tightened by MARGIN; without
        stages x_hat is not read.  A y_ref of another size than C's outputs,
        an x_hat of another size than n_x or not finite, or g or b not finite
        raises ``ConfigurationError``."""
        lay = self.layout
        y_ref = np.atleast_1d(np.asarray(y_ref, dtype=float))
        if y_ref.shape != (len(self.Q1),):
            raise ConfigurationError(f"y_ref has shape {y_ref.shape}, not ({len(self.Q1)},)")
        g = np.zeros(lay.dim)
        g[lay.z_s] = self.G @ y_ref
        b = rows.b.copy()
        if len(self.initial):
            x_hat = np.asarray(x_hat, dtype=float).ravel()
            if x_hat.size != lay.n_x or not np.isfinite(x_hat).all():
                raise ConfigurationError(f"x_hat must be n_x={lay.n_x} finite entries")
            b[-len(self.initial):] = -self.mode.F @ x_hat
        b -= MARGIN
        if not (np.isfinite(g).all() and np.isfinite(b).all()):
            raise ConfigurationError("problem data must be finite")
        return qp.QpProblem(self.H, g, rows.A, b), float(lay.v * y_ref @ self.Q1 @ y_ref)


def tube_qp(template: PolytopeTemplate, beta: float, eps_u: np.ndarray, Y: Hpoly,
            C: np.ndarray, gamma: float, stages: int) -> TubeQp:
    """:meth:`TubeQp.build`, through an 8-entry cache keyed by the identity of
    template and Y and the values of the rest; change none of them in place.
    A QP's H and fixed rows are validated once, when it is built."""
    eps_u, C = np.asarray(eps_u, dtype=float), np.asarray(C, dtype=float)
    return _tube_qp(template, Y, beta, eps_u.tobytes(), C.tobytes(), len(C), gamma, stages)


@functools.lru_cache(maxsize=8)
def _tube_qp(template, Y, beta, eps_u: bytes, C: bytes, n_y: int, gamma, stages) -> TubeQp:
    tq = TubeQp.build(template, beta, np.frombuffer(eps_u), Y,
                      np.frombuffer(C).reshape(n_y, -1), gamma, stages)
    # H is positive semidefinite by construction: validate it with the fixed
    # rows, without eigvalsh.
    qp.QpProblem(tq.H, np.zeros(tq.layout.dim), tq.A_fixed, tq.b_fixed).validate()
    return tq


def rci_constraint_block(
    params: qlpv.ModelParams,
    template: PolytopeTemplate,
    beta: float,
    eps_u: np.ndarray,
    Y: Hpoly,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear inequalities A x_r <= b encoding the invariant-set conditions:
    the rows of the invariant-set QP, the tube QP with no stages, so gamma (0
    here) enters no row.  Both arrays are read-only."""
    rows = tube_qp(template, beta, eps_u, Y, params.C, 0.0, 0).at(params)
    return rows.A, rows.b


def solve_optimal_rci(
    params: qlpv.ModelParams,
    y_ref: np.ndarray,
    template: PolytopeTemplate,
    beta: float,
    eps_u: np.ndarray,
    Y: Hpoly,
) -> tuple[TubeSolution, qp.QpSolution]:
    """Smallest admissible invariant set whose center output tracks y_ref:
    the zero-stage QP's :class:`TubeSolution`, and its ``qp_solution``
    beside it.  A solve that is not optimal is wrapped like any other, and
    its status tells."""
    tq = tube_qp(template, beta, eps_u, Y, params.C, 0.0, 0)
    rows = tq.at(params)
    prob, const = tq.problem(rows, y_ref)
    sol = qp.solve(prob)
    return TubeSolution(sol.x, rows, sol.value + const, sol), sol
