"""Robust control-invariant set synthesis over the box template.

The invariant-set conditions are linear in the stacked decision vector
x_r = (z_s, v_s, s, c, q): for every scheduling mode i and template vertex j
the one-step image of the vertex under the vertex input must land inside the
set shrunk by the disturbance allowance d and the slack q, while vertex
outputs stay in the output set and vertex inputs in the tracking share of
the input box.  The optimal set trades output-tracking error of its center
against the size weights, as a strictly convex QP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from . import qlpv, qp
from .errors import ConfigurationError
from .polytope import Hpoly, PolytopeTemplate

POST_CHECK_TOL = 1e-7


@dataclass(frozen=True)
class XrLayout:
    """Column offsets of (z_s, v_s, s, c, q) inside the stacked vector."""

    n_x: int
    n_u: int
    f: int
    v: int

    @property
    def dim(self) -> int:
        return self.n_x + self.n_u + 2 * self.f + self.v * self.n_u

    @property
    def z_s(self) -> slice:
        return slice(0, self.n_x)

    @property
    def v_s(self) -> slice:
        return slice(self.n_x, self.n_x + self.n_u)

    @property
    def s(self) -> slice:
        off = self.n_x + self.n_u
        return slice(off, off + self.f)

    @property
    def c(self) -> slice:
        off = self.n_x + self.n_u + self.f
        return slice(off, off + self.v * self.n_u)

    @property
    def q(self) -> slice:
        off = self.n_x + self.n_u + self.f + self.v * self.n_u
        return slice(off, off + self.f)

    @classmethod
    def of(cls, template: PolytopeTemplate) -> "XrLayout":
        return cls(template.n_x, template.n_u, template.n_rows, template.n_vertices)


@dataclass
class RciSolution:
    z_s: np.ndarray
    v_s: np.ndarray
    s: np.ndarray
    c: np.ndarray
    q: np.ndarray
    cost: float
    d: np.ndarray

    def stack(self, layout: XrLayout) -> np.ndarray:
        x = np.empty(layout.dim)
        x[layout.z_s], x[layout.v_s] = self.z_s, self.v_s
        x[layout.s], x[layout.c], x[layout.q] = self.s, self.c, self.q
        return x

    @classmethod
    def unstack(cls, x: np.ndarray, layout: XrLayout, cost: float, d: np.ndarray) -> "RciSolution":
        return cls(z_s=x[layout.z_s].copy(), v_s=x[layout.v_s].copy(),
                   s=x[layout.s].copy(), c=x[layout.c].copy(), q=x[layout.q].copy(),
                   cost=cost, d=d.copy())


def default_weights(template: PolytopeTemplate, n_y: int) -> tuple[np.ndarray, np.ndarray]:
    """(Q1, Q2) tuning: strong output tracking, mild center/input preference."""
    lay = XrLayout.of(template)
    Q1 = 10.0 * np.eye(n_y)
    Q2 = np.zeros((lay.dim, lay.dim))
    Q2[lay.z_s, lay.z_s] = 1e-6 * np.eye(lay.n_x)
    Q2[lay.v_s, lay.v_s] = 1e-6 * np.eye(lay.n_u)
    Q2[lay.s, lay.s] = 10.0 * np.eye(lay.f)
    Q2[lay.c, lay.c] = np.eye(lay.v * lay.n_u)
    Q2[lay.q, lay.q] = np.eye(lay.f)
    return Q1, Q2


def vertex_points(template: PolytopeTemplate) -> np.ndarray:
    """Maps S_j with S_j x_r = (z_s + V_j s, v_s + c_j): each vertex of the
    invariant set with its vertex input, shape (v, n_x + n_u, dim)."""
    lay = XrLayout.of(template)
    S = np.zeros((lay.v, lay.n_x + lay.n_u, lay.dim))
    S[:, :, :lay.n_x + lay.n_u] = np.eye(lay.n_x + lay.n_u)   # (z_s, v_s) lead x_r
    S[:, :lay.n_x, lay.s] = template.V
    S[:, lay.n_x:, lay.c] = np.eye(lay.v * lay.n_u).reshape(lay.v, lay.n_u, -1)
    return S


def vertex_rows(template: PolytopeTemplate, d: np.ndarray) -> qlpv.ModeRows:
    """Vertex dynamics over x_r: the mode image of each vertex under its input
    stays inside the set, with room for the disturbance d and the slack q."""
    lay = XrLayout.of(template)
    G = np.zeros((lay.v, lay.f, lay.dim))
    G[:, :, lay.z_s] = -template.F
    G[:, :, lay.s] = -np.eye(lay.f)
    G[:, :, lay.q] = np.eye(lay.f)
    return qlpv.ModeRows(template.F, vertex_points(template), G, np.tile(-d, (lay.v, 1)))


def rci_constraint_block(
    params: qlpv.ModelParams,
    template: PolytopeTemplate,
    beta: float,
    eps_u: np.ndarray,
    Y: Hpoly,
    d: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear inequalities A x_r <= b encoding the invariant-set conditions."""
    lay = XrLayout.of(template)
    if d is None:
        d = qlpv.disturbance_vector(params, template, beta, eps_u)
    U_box = Hpoly.box(eps_u).scale(1.0 - beta)
    A_dyn, b_dyn = vertex_rows(template, d).over_y(params)
    # Vertex outputs inside Y; vertex inputs inside the tracking input share.
    box = block_diag(Y.H @ params.C, U_box.H)
    A_box = (box @ vertex_points(template)).reshape(-1, lay.dim)
    b_box = np.tile(np.concatenate([Y.h, U_box.h]), lay.v)
    # Sign constraints q >= 0 and s >= 0.
    A_sign = np.zeros((2 * lay.f, lay.dim))
    A_sign[:lay.f, lay.q] = A_sign[lay.f:, lay.s] = -np.eye(lay.f)
    return (np.vstack([A_dyn, A_box, A_sign]),
            np.concatenate([b_dyn, b_box, np.zeros(2 * lay.f)]))


def constraint_row_count(template: PolytopeTemplate, n_p: int, n_y_rows: int) -> int:
    lay = XrLayout.of(template)
    return (n_p * lay.v * lay.f                    # vertex dynamics
            + lay.v * (n_y_rows + 2 * lay.n_u)     # vertex outputs + inputs
            + 2 * lay.f)                           # q >= 0 and s >= 0


def cost_matrices(
    template: PolytopeTemplate,
    y_ref: np.ndarray,
    C: np.ndarray,
    Q1: np.ndarray,
    Q2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(H, g, constant) of the set-tracking objective over x_r.

    The output term is summed over all vertices of the template, so it
    enters with multiplicity v.
    """
    lay = XrLayout.of(template)
    y_ref = np.atleast_1d(np.asarray(y_ref, dtype=float))
    v = lay.v
    H = 2.0 * Q2.copy()
    H[lay.z_s, lay.z_s] += 2.0 * v * C.T @ Q1 @ C
    g = np.zeros(lay.dim)
    g[lay.z_s] = -2.0 * v * C.T @ Q1 @ y_ref
    const = float(v * y_ref @ Q1 @ y_ref)
    return H, g, const


def solve_optimal_rci(
    params: qlpv.ModelParams,
    y_ref: np.ndarray,
    template: PolytopeTemplate,
    beta: float,
    eps_u: np.ndarray,
    Y: Hpoly,
    Q1: np.ndarray | None = None,
    Q2: np.ndarray | None = None,
    tol: float = 1e-8,
    warm_start: qp.QpSolution | None = None,
) -> tuple[RciSolution, qp.QpSolution]:
    """Smallest admissible invariant set whose center output tracks y_ref."""
    lay = XrLayout.of(template)
    if Q1 is None or Q2 is None:
        dQ1, dQ2 = default_weights(template, params.n_y)
        Q1 = dQ1 if Q1 is None else Q1
        Q2 = dQ2 if Q2 is None else Q2
    d = qlpv.disturbance_vector(params, template, beta, eps_u)
    A, b = rci_constraint_block(params, template, beta, eps_u, Y, d)
    H, g, const = cost_matrices(template, y_ref, params.C, Q1, Q2)
    sol = qp.solve(qp.QpProblem.build(H, g, A, b), tol=tol, warm_start=warm_start)
    if sol.status != qp.QpStatus.OPTIMAL:
        return RciSolution(np.zeros(lay.n_x), np.zeros(lay.n_u), np.zeros(lay.f),
                           np.zeros(lay.v * lay.n_u), np.zeros(lay.f),
                           cost=float("inf"), d=d), sol
    resid = float((A @ sol.x - b).max())
    if resid > POST_CHECK_TOL:
        raise ConfigurationError(f"invariant-set rows violated post-solve by {resid:.2e}")
    return RciSolution.unstack(sol.x, lay, sol.value + const, d), sol


@dataclass
class RciReport:
    worst_violation: float
    worst_case: tuple
    n_checks: int
    vertex_violation: float = field(default=0.0)
    sample_violation: float = field(default=0.0)

    @property
    def ok(self) -> bool:
        return self.worst_violation <= POST_CHECK_TOL


def perturbation_vertices(params: qlpv.ModelParams, beta: float, eps_u: np.ndarray) -> np.ndarray:
    """Candidate extreme points of the disturbance set CH{beta B_i U}."""
    eps_u = np.atleast_1d(eps_u)
    n_u = eps_u.size
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * n_u)).T.reshape(-1, n_u)
    points = [beta * Bi @ (sg * eps_u) for Bi in params.B for sg in signs]
    return np.array(points)


def verify_rci(
    sol: RciSolution,
    params: qlpv.ModelParams,
    template: PolytopeTemplate,
    beta: float,
    eps_u: np.ndarray,
    n_samples: int = 1000,
    seed: int = 0,
) -> RciReport:
    """Certify invariance by direct evaluation.

    Checks every (template vertex, mode, disturbance vertex) triple, which is
    sufficient by convexity, then samples disturbance hull points as a
    belt-and-braces diagnostic.  Violations are halfspace excesses of the
    successor state, so <= 0 means inside.
    """
    F = template.F
    w_vertices = perturbation_vertices(params, beta, eps_u)
    verts = template.vertices(sol.z_s, sol.s)
    inputs = [sol.v_s + template.vertex_input(sol.c, j) for j in range(template.n_vertices)]

    worst = -np.inf
    worst_case: tuple = ()
    n_checks = 0
    for j, (xj, uj) in enumerate(zip(verts, inputs)):
        for i, (Ai, Bi) in enumerate(zip(params.A, params.B)):
            base = Ai @ xj + Bi @ uj
            for k, w in enumerate(w_vertices):
                viol = float((F @ (base + w - sol.z_s) - sol.s).max())
                n_checks += 1
                if viol > worst:
                    worst, worst_case = viol, ("vertex", j, i, k)
    vertex_violation = worst

    rng = np.random.default_rng(seed)
    sample_violation = -np.inf
    if len(w_vertices) and n_samples > 0:
        weights = rng.dirichlet(np.ones(len(w_vertices)), size=n_samples)
        samples = weights @ w_vertices
        for j, (xj, uj) in enumerate(zip(verts, inputs)):
            for i, (Ai, Bi) in enumerate(zip(params.A, params.B)):
                base = Ai @ xj + Bi @ uj
                viols = (samples + (base - sol.z_s)) @ F.T - sol.s
                m = float(viols.max())
                n_checks += n_samples
                if m > sample_violation:
                    sample_violation = m
                if m > worst:
                    worst, worst_case = m, ("sample", j, i)

    return RciReport(worst_violation=worst, worst_case=worst_case, n_checks=n_checks,
                     vertex_violation=vertex_violation, sample_violation=sample_violation)
