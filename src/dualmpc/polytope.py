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
from functools import cached_property
from itertools import product

import numpy as np

from .errors import ConfigurationError

DEFAULT_TOL = 1e-9
# Distance from x to X(z, s) above which barycentric_lambda flags relaxed.
LAMBDA_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Hpoly:
    """Constraint set {y : H y <= h}; boxes are the common special case."""

    H: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        if self.H.shape[0] != self.h.shape[0]:
            raise ConfigurationError("H row count must match h length")

    @classmethod
    def box(cls, half_width) -> "Hpoly":
        """Symmetric box {|y_k| <= half_width_k}; the half-widths must be >= 0."""
        hw = np.atleast_1d(np.asarray(half_width, dtype=float))
        if not (hw >= 0.0).all():
            raise ConfigurationError(f"box half-widths must be >= 0, got {hw}")
        n = hw.size
        return cls(H=np.vstack([np.eye(n), -np.eye(n)]), h=np.concatenate([hw, hw]))

    def contains(self, y, tol: float = DEFAULT_TOL) -> bool:
        return bool((self.H @ np.atleast_1d(y) <= self.h + tol).all())

    def violation(self, y) -> float:
        return float((self.H @ np.atleast_1d(y) - self.h).max())


@dataclass(frozen=True, eq=False)
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

    @cached_property
    def upper(self) -> np.ndarray:
        """Mask (v, n_x): V_j maps s+_k to x_k, so vertex j is on axis k's upper face."""
        return np.array([Vj.diagonal() for Vj in self.V]) > 0


def box_template(n_x: int, n_u: int) -> PolytopeTemplate:
    """Axis-aligned box template: F = [I; -I], 2^n_x vertices.

    Vertex ordering is lexicographic over sign patterns with (+,...,+)
    first, so the stacked vertex-input vector c has a fixed block layout.
    For this template s >= 0 alone guarantees a nonempty set with constant
    normal fan.
    """
    if n_x < 1 or n_u < 1:
        raise ConfigurationError(f"n_x and n_u must be >= 1, got {n_x} and {n_u}")
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


@dataclass
class LambdaResult:
    weights: np.ndarray
    residual: float
    # True when x lay farther than LAMBDA_TOL outside X(z, s); the weights then
    # interpolate the nearest point of the set instead of x.
    relaxed: bool


def barycentric_lambda(template: PolytopeTemplate, z: np.ndarray, s: np.ndarray,
                       x: np.ndarray) -> LambdaResult:
    """Multilinear vertex weights reproducing x from the vertices of the box
    X(z, s), one instance of the template family.

    On axis k, t_k = (x_k - z_k + s-_k) / (s+_k + s-_k) with s+ = s[:n_x] and
    s- = s[n_x:] is the position of x between the lower and the upper face,
    clipped to [0, 1]; a degenerate axis (s+_k + s-_k = 0) takes t_k = 1/2,
    the minimum-norm choice.  Vertex j gets the product over k of t_k or
    1 - t_k as V_j picks the upper or the lower face of axis k (Gutman &
    Cwikel 1986), so the weights lie on the simplex and z + sum_j lambda_j
    V_j s is the clipped point.  ``residual`` is the Euclidean distance from
    x to X(z, s), and ``relaxed`` flags a residual above LAMBDA_TOL.
    """
    n = template.n_x
    x = np.asarray(x, dtype=float).ravel()
    s_up, s_lo = s[:n], s[n:]
    width = s_up + s_lo
    near = np.clip(x - z, -s_lo, s_up)      # nearest point of the box, minus z
    # near + s_lo lies in [0, width], so t needs no clip of its own.
    t = np.divide(near + s_lo, width, out=np.full(n, 0.5), where=width > 0)
    weights = np.where(template.upper, t, 1.0 - t).prod(axis=1)
    residual = float(np.linalg.norm(x - z - near))
    return LambdaResult(weights, residual, relaxed=residual > LAMBDA_TOL)
