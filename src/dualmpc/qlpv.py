"""Quasi-LPV model with a softmax-scheduled convex combination of vertex systems.

The one-step map is x+ = sum_i p_i(x, u) (A_i x + B_i u) where the scheduling
vector p is the softmax of a one-hidden-layer network with swish activations,
so p always lies on the simplex and the state update stays inside the convex
hull of the vertex-model updates.  The flattened parameter vector theta stacks,
in order: all A_i row-major, all B_i row-major, then W1, b1, W2, b2.  That
order is load-bearing: estimator covariance indices address theta by
position.  Besides packing and :func:`unpack`, only :func:`theta_rows` knows
where the A_i and B_i blocks sit; it builds both the feasibility-polytope rows
and the A/B columns of the Jacobian in :func:`jacobians`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .polytope import PolytopeTemplate


def sigmoid(a: np.ndarray) -> np.ndarray:
    # Branch on sign so exp never overflows.
    out = np.empty_like(a, dtype=float)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def swish(a: np.ndarray) -> np.ndarray:
    return a * sigmoid(a)


def softmax(o: np.ndarray) -> np.ndarray:
    e = np.exp(o - o.max())
    return e / e.sum()


def theta_dim(n_x: int, n_u: int, n_p: int, n_h: int) -> int:
    return n_p * n_x * n_x + n_p * n_x * n_u + n_h * (n_x + n_u) + n_h + n_p * n_h + n_p


@dataclass
class ModelParams:
    """Vertex matrices, scheduling-network weights, and the fixed output map C."""

    A: list[np.ndarray]
    B: list[np.ndarray]
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        n_x, n_u, n_p, n_h = self.n_x, self.n_u, self.n_p, self.n_h
        if len(self.B) != n_p:
            raise ConfigurationError("A and B must list one matrix per scheduling mode")
        for M in self.A:
            if M.shape != (n_x, n_x):
                raise ConfigurationError("inconsistent A_i shape")
        for M in self.B:
            if M.shape != (n_x, n_u):
                raise ConfigurationError("inconsistent B_i shape")
        if self.W1.shape != (n_h, n_x + n_u) or self.b1.shape != (n_h,):
            raise ConfigurationError("hidden-layer shape mismatch")
        if self.W2.shape != (n_p, n_h) or self.b2.shape != (n_p,):
            raise ConfigurationError("output-layer shape mismatch")
        if self.C.shape[1] != n_x:
            raise ConfigurationError("C column count must equal n_x")
        if np.linalg.matrix_rank(self.C) != self.C.shape[0]:
            raise ConfigurationError("C must have full row rank")

    @property
    def n_x(self) -> int:
        return self.A[0].shape[0]

    @property
    def n_u(self) -> int:
        return self.B[0].shape[1]

    @property
    def n_p(self) -> int:
        return len(self.A)

    @property
    def n_h(self) -> int:
        return self.b1.shape[0]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    @property
    def n_theta(self) -> int:
        return theta_dim(self.n_x, self.n_u, self.n_p, self.n_h)

    def pack(self) -> np.ndarray:
        parts = [M.ravel() for M in self.A] + [M.ravel() for M in self.B]
        parts += [self.W1.ravel(), self.b1, self.W2.ravel(), self.b2]
        return np.concatenate(parts)

    def replace_theta(self, theta: np.ndarray) -> "ModelParams":
        return unpack(theta, self.n_x, self.n_u, self.n_p, self.n_h, self.C)

    def to_json(self) -> str:
        return json.dumps({
            "n_x": self.n_x, "n_u": self.n_u, "n_p": self.n_p, "n_h": self.n_h,
            "theta": self.pack().tolist(),
            "C": self.C.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        d = json.loads(text)
        return unpack(np.asarray(d["theta"], dtype=float), d["n_x"], d["n_u"],
                      d["n_p"], d["n_h"], np.asarray(d["C"], dtype=float))


def unpack(theta: np.ndarray, n_x: int, n_u: int, n_p: int, n_h: int,
           C: np.ndarray) -> ModelParams:
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != theta_dim(n_x, n_u, n_p, n_h):
        raise ConfigurationError(
            f"theta has {theta.size} entries, expected {theta_dim(n_x, n_u, n_p, n_h)}")
    pos = 0

    def take(shape):
        nonlocal pos
        size = int(np.prod(shape))
        block = theta[pos:pos + size].reshape(shape)
        pos += size
        return block

    A = [take((n_x, n_x)) for _ in range(n_p)]
    B = [take((n_x, n_u)) for _ in range(n_p)]
    W1 = take((n_h, n_x + n_u))
    b1 = take((n_h,))
    W2 = take((n_p, n_h))
    b2 = take((n_p,))
    return ModelParams(A=A, B=B, W1=W1, b1=b1, W2=W2, b2=b2, C=C.copy())


def scheduling(params: ModelParams, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Simplex-valued scheduling vector p(x, u)."""
    xi = np.concatenate([np.atleast_1d(x), np.atleast_1d(u)])
    hidden = swish(params.W1 @ xi + params.b1)
    return softmax(params.W2 @ hidden + params.b2)


def step(params: ModelParams, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One-step state update of the scheduled model."""
    p = scheduling(params, x, u)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros(params.n_x)
    for pi, Ai, Bi in zip(p, params.A, params.B):
        out += pi * (Ai @ x + Bi @ u)
    return out


def output(params: ModelParams, x: np.ndarray) -> np.ndarray:
    return params.C @ np.atleast_1d(x)


def _scheduling_grads(params: ModelParams, x, u):
    """p, dp/d(x,u) and dp/dtheta_net, all analytic.

    Returns (p, dp_dxi, dp_dnet) with dp_dxi of shape (n_p, n_x+n_u) and
    dp_dnet of shape (n_p, n_net) where n_net counts W1, b1, W2, b2 entries
    in packing order.
    """
    n_p, n_h = params.n_p, params.n_h
    xi = np.concatenate([np.atleast_1d(x), np.atleast_1d(u)]).astype(float)
    a = params.W1 @ xi + params.b1
    sig = sigmoid(a)
    hidden = a * sig                           # swish(a)
    hderiv = sig + hidden * (1.0 - sig)        # swish'(a)
    p = softmax(params.W2 @ hidden + params.b2)

    S = np.diag(p) - np.outer(p, p)            # softmax Jacobian
    SW2 = S @ params.W2                        # n_p × n_h
    SW2d = SW2 * hderiv                        # chain through swish
    dp_dxi = SW2d @ params.W1                  # n_p × (n_x+n_u)

    n_xi = xi.size
    dp_dnet = np.zeros((n_p, n_h * n_xi + n_h + n_p * n_h + n_p))
    # W1 entries (row-major): d a_k / d W1[k, l] = xi_l
    dp_dnet[:, :n_h * n_xi] = np.einsum("pk,l->pkl", SW2d, xi).reshape(n_p, -1)
    off = n_h * n_xi
    dp_dnet[:, off:off + n_h] = SW2d           # b1
    off += n_h
    # W2 entries (row-major): d o_k / d W2[k, l] = hidden_l
    dp_dnet[:, off:off + n_p * n_h] = np.einsum("pk,l->pkl", S, hidden).reshape(n_p, -1)
    off += n_p * n_h
    dp_dnet[:, off:] = S                       # b2
    return p, dp_dxi, dp_dnet


def jacobians(params: ModelParams, x: np.ndarray, u: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """(df/dx, df/dtheta) of the one-step map at (x, u)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n_x = params.n_x
    p, dp_dxi, dp_dnet = _scheduling_grads(params, x, u)

    modes = np.column_stack([Ai @ x + Bi @ u for Ai, Bi in zip(params.A, params.B)])

    fx = sum(pi * Ai for pi, Ai in zip(p, params.A)) + modes @ dp_dxi[:, :n_x]

    # df/dA_i and df/dB_i are p_i times the rows of A_i x + B_i u over theta.
    rows = theta_rows(params, np.eye(n_x), np.concatenate([x, u])[None])
    ftheta = np.tensordot(p, rows[:, 0], axes=1)
    ftheta[:, -dp_dnet.shape[1]:] = modes @ dp_dnet
    return fx, ftheta


def augmented_jacobian(params: ModelParams, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Jacobian of the augmented map (x, theta) -> (f(x, u, theta), theta)."""
    fx, ftheta = jacobians(params, x, u)
    n_theta = params.n_theta
    top = np.hstack([fx, ftheta])
    bottom = np.hstack([np.zeros((n_theta, params.n_x)), np.eye(n_theta)])
    return np.vstack([top, bottom])


def theta_rows(params: ModelParams, F: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Coefficients over theta of F (A_i w + B_i r) at fixed points (w, r).

    ``points`` stacks one (w, r) per row; the result has shape
    (n_p, len(points), f, n_theta), and row (i, p) touches only the A_i and
    B_i blocks of theta: d/dA_i[k, l] = F[:, k] w_l, d/dB_i[k, l] = F[:, k] r_l.
    """
    n_x, n_u, n_p = params.n_x, params.n_u, params.n_p
    shape = (n_p, len(points), F.shape[0], -1)
    modes = np.eye(n_p)
    A = np.einsum("ij,ak,pl->ipajkl", modes, F, points[:, :n_x]).reshape(shape)
    B = np.einsum("ij,ak,pl->ipajkl", modes, F, points[:, n_x:]).reshape(shape)
    net = np.zeros(shape[:3] + (params.n_theta - n_p * n_x * (n_x + n_u),))
    return np.concatenate([A, B, net], axis=3)


@dataclass(frozen=True)
class ModeRows:
    """Rows F (A_i w_p + B_i r_p) + G_p y <= h_p for every mode i and point p.

    The points (w_p, r_p) = S_p y are linear in a decision vector y, so the
    rows are linear in y for a numeric model and linear in theta for a fixed
    y: the tube propagation, terminal and invariant-set vertex rows of the
    controller, and the same rows over theta in the feasibility polytope.
    Rows are ordered mode-major, (i, p, row of F).
    """

    F: np.ndarray    # (f, n_x) template
    S: np.ndarray    # (P, n_x + n_u, dim) point maps
    G: np.ndarray    # (P, f, dim) model-free part
    h: np.ndarray    # (P, f) right-hand sides

    def over_y(self, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with A y <= b for the model params."""
        AB = np.concatenate([np.array(params.A), np.array(params.B)], axis=2)
        A = (self.F @ AB)[:, None] @ self.S + self.G
        return A.reshape(-1, self.S.shape[2]), np.tile(self.h.ravel(), params.n_p)

    def over_theta(self, params: ModelParams, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with A theta <= b at the fixed y; params gives theta's layout."""
        A = theta_rows(params, self.F, self.S @ y)
        b = self.h - self.G @ y
        return A.reshape(-1, params.n_theta), np.tile(b.ravel(), params.n_p)


def disturbance_vector(params: ModelParams, template: PolytopeTemplate,
                       beta: float, eps_u: np.ndarray) -> np.ndarray:
    """Rowwise worst-case image of the perturbation budget, d = max_i beta |F B_i| eps_u."""
    if not 0.0 <= beta < 1.0:
        raise ConfigurationError("beta must lie in [0, 1)")
    eps_u = np.atleast_1d(np.asarray(eps_u, dtype=float))
    if (eps_u < 0).any():
        raise ConfigurationError("input bounds must be nonnegative")
    cols = [beta * np.abs(template.F @ Bi) @ eps_u for Bi in params.B]
    return np.max(np.column_stack(cols), axis=1)
