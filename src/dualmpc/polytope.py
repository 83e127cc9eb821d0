"""Configuration-constrained polytopes over a fixed box template.

Sets are parameterized as X(z, s) = z + {x : F(x - z) <= s} with the
template F = [I; -I] stacked, so offsets s >= 0 keep the origin inside the
shifted set and the vertex structure is constant: every admissible offset
yields the same combinatorial box, which makes the vertex maps V_j linear
in s.  That linearity is what lets the invariant-set and tube constraints
downstream stay linear in the decision variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import qp
from .errors import ConfigurationError

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Hpoly:
    """Constraint set {y : H y <= h}; boxes are the common special case."""

    H: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        if self.H.shape[0] != self.h.shape[0]:
            raise ConfigurationError("H row count must match h length")

    @classmethod
    def box(cls, half_width) -> "Hpoly":
        """Symmetric box {|y_k| <= half_width_k}."""
        hw = np.atleast_1d(np.asarray(half_width, dtype=float))
        n = hw.size
        return cls(H=np.vstack([np.eye(n), -np.eye(n)]), h=np.concatenate([hw, hw]))

    def scale(self, factor: float) -> "Hpoly":
        """Scaled copy factor * {Hy <= h}; requires the set to contain the origin."""
        return Hpoly(self.H, factor * self.h)

    def contains(self, y, tol: float = DEFAULT_TOL) -> bool:
        return bool((self.H @ np.atleast_1d(y) <= self.h + tol).all())

    def violation(self, y) -> float:
        return float((self.H @ np.atleast_1d(y) - self.h).max())


@dataclass(frozen=True)
class PolytopeTemplate:
    """Fixed template F with vertex maps V; vertex j has input block j of c."""

    F: np.ndarray
    V: tuple[np.ndarray, ...]
    n_x: int
    n_u: int

    @property
    def n_rows(self) -> int:
        return self.F.shape[0]

    @property
    def n_vertices(self) -> int:
        return len(self.V)

    def vertices(self, z: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Stack of the polytope vertices z + V_j s, shape (v, n_x)."""
        return np.array([z + Vj @ s for Vj in self.V])

    def vertex_input(self, c: np.ndarray, j: int) -> np.ndarray:
        """The j-th vertex control input, block j of the stacked vector c."""
        return c.reshape(self.n_vertices, self.n_u)[j]


@dataclass(frozen=True)
class ParamSet:
    """One instance X(z, s) of the template family."""

    z: np.ndarray
    s: np.ndarray


def box_template(n_x: int, n_u: int) -> PolytopeTemplate:
    """Axis-aligned box template: F = [I; -I], 2^n_x vertices.

    Vertex ordering is lexicographic over sign patterns with (+,...,+)
    first, so the stacked vertex-input vector c has a fixed block layout.
    For this template s >= 0 alone guarantees a nonempty set with constant
    normal fan.
    """
    if n_x < 1:
        raise ConfigurationError("n_x must be >= 1")
    F = np.vstack([np.eye(n_x), -np.eye(n_x)])
    f = 2 * n_x
    V = []
    for signs in product((0, 1), repeat=n_x):
        Vj = np.zeros((n_x, f))
        for k, neg in enumerate(signs):
            if neg:
                Vj[k, n_x + k] = -1.0
            else:
                Vj[k, k] = 1.0
        V.append(Vj)
    return PolytopeTemplate(F=F, V=tuple(V), n_x=n_x, n_u=n_u)


def contains(template: PolytopeTemplate, pset: ParamSet, x: np.ndarray,
             tol: float = DEFAULT_TOL) -> bool:
    """Membership x in X(z, s), elementwise slack tol."""
    return bool((template.F @ (np.asarray(x) - pset.z) <= pset.s + tol).all())


@dataclass
class LambdaResult:
    weights: np.ndarray
    residual: float
    # True when the exact interpolation constraint had to be relaxed to a
    # penalty because the equality-constrained QP was (numerically) infeasible.
    relaxed: bool = False


def barycentric_lambda(template: PolytopeTemplate, pset: ParamSet,
                       x: np.ndarray, tol: float = 1e-8) -> LambdaResult:
    """Minimum-norm simplex weights reproducing x from the vertices.

    Solves min ||lambda||^2 over the simplex subject to
    z + sum_j lambda_j V_j s = x.  Falls back to a quadratic penalty
    (weight 1e6) on the interpolation residual when the equality version
    is reported infeasible, flagging the step for diagnostics.
    """
    x = np.asarray(x, dtype=float).ravel()
    v = template.n_vertices
    W = np.column_stack([Vj @ pset.s for Vj in template.V])  # n_x × v
    rhs = x - pset.z

    A_eq = np.vstack([np.ones((1, v)), W])
    b_eq = np.concatenate([[1.0], rhs])
    # Both costs, 2I here and 2(I + penalty W'W) below, are positive definite
    # by construction, so the eigenvalue check is skipped.
    prob = qp.QpProblem.build(2.0 * np.eye(v), np.zeros(v),
                              A_in=-np.eye(v), b_in=np.zeros(v),
                              A_eq=A_eq, b_eq=b_eq, check_psd=False)
    sol = qp.solve(prob, tol=tol)
    if sol.status == qp.QpStatus.OPTIMAL:
        lam = sol.x
        return LambdaResult(lam, float(np.linalg.norm(W @ lam - rhs)), relaxed=False)

    # Penalized retry: keep the simplex exact, soften the interpolation rows.
    penalty = 1e6
    H = 2.0 * (np.eye(v) + penalty * (W.T @ W))
    g = -2.0 * penalty * (W.T @ rhs)
    prob = qp.QpProblem.build(H, g, A_in=-np.eye(v), b_in=np.zeros(v),
                              A_eq=np.ones((1, v)), b_eq=np.array([1.0]), check_psd=False)
    sol = qp.solve(prob, tol=tol)
    lam = sol.x
    return LambdaResult(lam, float(np.linalg.norm(W @ lam - rhs)), relaxed=True)
