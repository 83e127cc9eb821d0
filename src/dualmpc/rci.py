"""Robust control-invariant set synthesis over the box template.

Its QP and the tube QP share one decision vector (z_0, v_0, ..., z_N, v_N,
z_s, v_s, s, c, q), tube stages (none here) and then the invariant-set block
x_r: :class:`Layout` gives its offsets, and a solution's parts are views.

The invariant-set conditions are linear in x_r: for every scheduling mode i
and template vertex j the one-step image of the vertex under the vertex input
must land inside the set shrunk by the disturbance allowance d and the slack
q, while vertex outputs stay in the output set and vertex inputs in the
tracking share of the input box.  The optimal set trades output-tracking error
of its center against the size weights, as a strictly convex QP.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import block_diag

from . import qlpv, qp
from .polytope import Hpoly, PolytopeTemplate


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
        center = np.eye(self.stage, self.dim, self.center.start)
        return np.array([np.eye(self.stage, self.dim, k * self.stage) - center
                         for k in range(self.stages)])


@dataclass(frozen=True, eq=False)
class RciSolution:
    """A solution over ``layout``.  x is made read-only, and z and v (one row
    per stage), z_s, v_s, s, c and q are views of it."""

    x: np.ndarray
    layout: Layout
    cost: float
    d: np.ndarray                 # the disturbance allowance of the rows

    def __post_init__(self):
        self.x.flags.writeable = False

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


def default_weights(n_y: int, lay: Layout) -> tuple[np.ndarray, np.ndarray]:
    """(Q1, Q2) tuning on ``lay``'s x_r: strong output tracking, mild center/input preference."""
    Q1 = 10.0 * np.eye(n_y)
    Q2 = np.zeros((lay.dim, lay.dim))
    Q2[lay.z_s, lay.z_s] = 1e-6 * np.eye(lay.n_x)
    Q2[lay.v_s, lay.v_s] = 1e-6 * np.eye(lay.n_u)
    Q2[lay.s, lay.s] = 10.0 * np.eye(lay.f)
    Q2[lay.c, lay.c] = np.eye(lay.v * lay.n_u)
    Q2[lay.q, lay.q] = np.eye(lay.f)
    return Q1, Q2


@dataclass(frozen=True, eq=False)
class RciRows:
    """Invariant-set rows on a layout's x_r columns.  Only the vertex dynamics
    depend on the model and the disturbance allowance d; the vertex box rows
    and the sign rows are fixed by (template, beta, eps_u, Y, C)."""

    vertex: qlpv.ModeRows    # vertex dynamics; h is set from d per call
    box: np.ndarray          # block_diag(Y.H C, U.H) over (x, u)
    box_h: np.ndarray
    A_fixed: np.ndarray      # box rows at every vertex, then the sign rows
    b_fixed: np.ndarray

    @classmethod
    def build(cls, template: PolytopeTemplate, beta: float, eps_u: np.ndarray,
              Y: Hpoly, C: np.ndarray, lay: Layout) -> "RciRows":
        # Points S_j x = (z_s + V_j s, v_s + c_j), each vertex with its input, whose
        # mode images stay inside the set with room for the disturbance d and slack q.
        S = np.zeros((lay.v, lay.stage, lay.dim))
        S[:, :, lay.center] = np.eye(lay.stage)
        S[:, :lay.n_x, lay.s] = template.V
        S[:, lay.n_x:, lay.c] = np.eye(lay.v * lay.n_u).reshape(lay.v, lay.n_u, -1)
        G = np.zeros((lay.v, lay.f, lay.dim))
        G[:, :, lay.z_s], G[:, :, lay.s] = -template.F, -np.eye(lay.f)
        G[:, :, lay.q] = np.eye(lay.f)
        vertex = qlpv.ModeRows(template.F, S, G, np.zeros((lay.v, lay.f)))
        # Vertex outputs inside Y; vertex inputs inside the tracking input share.
        U_box = Hpoly.box(eps_u).scale(1.0 - beta)
        box = block_diag(Y.H @ C, U_box.H)
        box_h = np.concatenate([Y.h, U_box.h])
        # Sign constraints q >= 0 and s >= 0.
        A_sign = np.zeros((2 * lay.f, lay.dim))
        A_sign[:lay.f, lay.q] = A_sign[lay.f:, lay.s] = -np.eye(lay.f)
        return cls(vertex, box, box_h,
                   np.vstack([(box @ vertex.S).reshape(-1, lay.dim), A_sign]),
                   np.concatenate([np.tile(box_h, lay.v), np.zeros(2 * lay.f)]))


def rci_constraint_block(
    params: qlpv.ModelParams,
    template: PolytopeTemplate,
    beta: float,
    eps_u: np.ndarray,
    Y: Hpoly,
    d: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear inequalities A x_r <= b encoding the invariant-set conditions."""
    if d is None:
        d = qlpv.disturbance_vector(params, template, beta, eps_u)
    rows = RciRows.build(template, beta, eps_u, Y, params.C, Layout.of(template, 0))
    A_dyn, b_dyn = replace(rows.vertex, h=np.tile(-d, (template.n_vertices, 1))).over_y(params)
    return np.vstack([A_dyn, rows.A_fixed]), np.concatenate([b_dyn, rows.b_fixed])


@dataclass(frozen=True, eq=False)
class SetCost:
    """Set-tracking objective 0.5 x' H x + g' x + constant on ``lay``'s x_r, where
    only g (G y_ref on z_s) and the constant depend on the reference.  The output
    term is summed over all vertices of the template, so it enters with multiplicity v."""

    H: np.ndarray
    G: np.ndarray
    Q1: np.ndarray
    lay: Layout

    @classmethod
    def build(cls, template: PolytopeTemplate, C: np.ndarray, lay: Layout) -> "SetCost":
        """The cost with the weights of :func:`default_weights`."""
        Q1, Q2 = default_weights(C.shape[0], lay)
        H = 2.0 * Q2
        H[lay.z_s, lay.z_s] += 2.0 * lay.v * C.T @ Q1 @ C
        return cls(H, -2.0 * lay.v * C.T @ Q1, Q1, lay)

    def at(self, y_ref: np.ndarray) -> tuple[np.ndarray, float]:
        """(g, constant) at the reference."""
        y_ref = np.atleast_1d(np.asarray(y_ref, dtype=float))
        g = np.zeros(self.lay.dim)
        g[self.lay.z_s] = self.G @ y_ref
        return g, float(self.lay.v * y_ref @ self.Q1 @ y_ref)


def solve_optimal_rci(
    params: qlpv.ModelParams,
    y_ref: np.ndarray,
    template: PolytopeTemplate,
    beta: float,
    eps_u: np.ndarray,
    Y: Hpoly,
) -> tuple[RciSolution, qp.QpSolution]:
    """Smallest admissible invariant set whose center output tracks y_ref.
    A solve that is not optimal gives x_r = 0 and cost inf."""
    lay = Layout.of(template, 0)
    d = qlpv.disturbance_vector(params, template, beta, eps_u)
    A, b = rci_constraint_block(params, template, beta, eps_u, Y, d)
    cost = SetCost.build(template, params.C, lay)
    g, const = cost.at(y_ref)
    sol = qp.solve(qp.QpProblem.build(cost.H, g, A, b))
    if sol.status != qp.QpStatus.OPTIMAL:
        return RciSolution(np.zeros(lay.dim), lay, float("inf"), d), sol
    return RciSolution(sol.x, lay, sol.value + const, d), sol
