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

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import block_diag

from . import qlpv, qp
from .polytope import Hpoly, PolytopeTemplate


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


@dataclass(frozen=True, eq=False)
class RciRows:
    """Invariant-set rows A x_r <= b.  Only the vertex dynamics depend on the
    model and the disturbance allowance d; the vertex output/input box rows and
    the sign rows are fixed by (template, beta, eps_u, Y, C)."""

    vertex: qlpv.ModeRows    # vertex dynamics; h is set from d per call
    box: np.ndarray          # block_diag(Y.H C, U.H) over (x, u)
    box_h: np.ndarray
    A_fixed: np.ndarray      # box rows at every vertex, then the sign rows
    b_fixed: np.ndarray

    @classmethod
    def build(cls, template: PolytopeTemplate, beta: float, eps_u: np.ndarray,
              Y: Hpoly, C: np.ndarray) -> "RciRows":
        lay = XrLayout.of(template)
        # Points S_j x_r = (z_s + V_j s, v_s + c_j), each vertex with its input, whose
        # mode images stay inside the set with room for the disturbance d and slack q.
        S = np.zeros((lay.v, lay.n_x + lay.n_u, lay.dim))
        S[:, :, :lay.n_x + lay.n_u] = np.eye(lay.n_x + lay.n_u)   # (z_s, v_s) lead x_r
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

    def over_y(self, params: qlpv.ModelParams, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with A x_r <= b for the model params and allowance d."""
        vertex = replace(self.vertex, h=np.tile(-d, (len(self.vertex.h), 1)))
        A_dyn, b_dyn = vertex.over_y(params)
        return np.vstack([A_dyn, self.A_fixed]), np.concatenate([b_dyn, self.b_fixed])


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
    return RciRows.build(template, beta, eps_u, Y, params.C).over_y(params, d)


@dataclass(frozen=True, eq=False)
class SetCost:
    """Set-tracking objective 0.5 x_r' H x_r + g' x_r + constant, where only g
    (G y_ref on z_s) and the constant depend on the reference.  The output term
    is summed over all vertices of the template, so it enters with multiplicity v."""

    H: np.ndarray
    G: np.ndarray
    Q1: np.ndarray
    lay: XrLayout

    @classmethod
    def build(cls, template: PolytopeTemplate, C: np.ndarray) -> "SetCost":
        """The cost with the weights of :func:`default_weights`."""
        lay = XrLayout.of(template)
        Q1, Q2 = default_weights(template, C.shape[0])
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
    """Smallest admissible invariant set whose center output tracks y_ref."""
    lay = XrLayout.of(template)
    d = qlpv.disturbance_vector(params, template, beta, eps_u)
    A, b = rci_constraint_block(params, template, beta, eps_u, Y, d)
    cost = SetCost.build(template, params.C)
    g, const = cost.at(y_ref)
    sol = qp.solve(qp.QpProblem.build(cost.H, g, A, b))
    if sol.status != qp.QpStatus.OPTIMAL:
        return RciSolution(np.zeros(lay.n_x), np.zeros(lay.n_u), np.zeros(lay.f),
                           np.zeros(lay.v * lay.n_u), np.zeros(lay.f),
                           cost=float("inf"), d=d), sol
    return RciSolution.unstack(sol.x, lay, sol.value + const, d), sol
