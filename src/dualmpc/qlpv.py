"""Quasi-LPV model with a softmax-scheduled convex combination of vertex systems.

The one-step map is x+ = sum_i p_i(x, u) (A_i x + B_i u) where the scheduling
vector p is the softmax of a one-hidden-layer network with swish activations,
so p always lies on the simplex and the state update stays inside the convex
hull of the vertex-model updates.  The flattened parameter vector theta stacks,
in order: all A_i row-major, all B_i row-major, then W1, b1, W2, b2.  That
order is load-bearing: estimator covariance indices address theta by
position.  Besides packing and :meth:`ModelParams.replace_theta`, the one way
to rebuild a model from theta, only :func:`theta_rows` knows where the A_i and
B_i blocks sit; it builds both the feasibility-polytope rows and the A/B
columns of the Jacobian in :func:`jacobians`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np
from scipy.special import expit

from .errors import ConfigurationError
from .polytope import PolytopeTemplate


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
        if not self.A or len(self.B) != len(self.A):
            raise ConfigurationError("A and B must list one matrix per scheduling mode, "
                                     "at least one")
        n_x, n_u, n_p, n_h = self.n_x, self.n_u, self.n_p, self.n_h
        if any(M.shape != (n_x, n_x) for M in self.A):
            raise ConfigurationError("inconsistent A_i shape")
        if any(M.shape != (n_x, n_u) for M in self.B):
            raise ConfigurationError("inconsistent B_i shape")
        if self.W1.shape != (n_h, n_x + n_u) or self.b1.shape != (n_h,):
            raise ConfigurationError("hidden-layer shape mismatch")
        if self.W2.shape != (n_p, n_h) or self.b2.shape != (n_p,):
            raise ConfigurationError("output-layer shape mismatch")
        if self.C.shape[1] != n_x:
            raise ConfigurationError("C column count must equal n_x")
        if not (np.isfinite(self.pack()).all() and np.isfinite(self.C).all()):
            raise ConfigurationError("model parameters must be finite")
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

    @cached_property
    def n_theta(self) -> int:
        """Length of theta, computed once: a model's shapes do not change."""
        n_x, n_u, n_p, n_h = self.n_x, self.n_u, self.n_p, self.n_h
        return n_p * n_x * (n_x + n_u) + n_h * (n_x + n_u) + n_h + n_p * n_h + n_p

    def pack(self) -> np.ndarray:
        parts = [M.ravel() for M in self.A] + [M.ravel() for M in self.B]
        parts += [self.W1.ravel(), self.b1, self.W2.ravel(), self.b2]
        return np.concatenate(parts)

    def replace_theta(self, theta: np.ndarray) -> "ModelParams":
        """The model of these shapes and a copy of this C with the parameters
        theta; the shapes and C are validated, so the checks are skipped."""
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.n_theta:
            raise ConfigurationError(
                f"theta has {theta.size} entries, expected {self.n_theta}")
        n_x, n_u, n_p, n_h = self.n_x, self.n_u, self.n_p, self.n_h
        sizes = [n_p * n_x * n_x, n_p * n_x * n_u, n_h * (n_x + n_u), n_h, n_p * n_h, n_p]
        A, B, W1, b1, W2, b2 = (theta[e - s:e] for s, e in zip(sizes, accumulate(sizes)))
        model = object.__new__(ModelParams)
        vars(model).update(A=list(A.reshape(n_p, n_x, n_x)), B=list(B.reshape(n_p, n_x, n_u)),
                           W1=W1.reshape(n_h, n_x + n_u), b1=b1, W2=W2.reshape(n_p, n_h),
                           b2=b2, C=self.C.copy())
        return model


def _stacked(params: ModelParams) -> np.ndarray:
    """The vertex systems [A_i B_i] as one (n_p, n_x, n_x + n_u) array."""
    return np.concatenate([params.A, params.B], axis=2)


def _network(params: ModelParams, xi: np.ndarray):
    """Forward pass of the scheduling network at the rows of xi = (x, u).

    Returns the hidden layer's sigmoid and swish values and the softmax
    weights before their normalisation, exp(o - max o), over xi's last axis.
    """
    a = xi @ params.W1.T + params.b1
    sig = expit(a)
    hidden = a * sig
    o = hidden @ params.W2.T + params.b2
    return sig, hidden, np.exp(o - o.max(axis=-1, keepdims=True))


def scheduling(params: ModelParams, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Simplex-valued scheduling vector p(x, u)."""
    _, _, e = _network(params, np.concatenate([np.atleast_1d(x), np.atleast_1d(u)]))
    return e / e.sum()


def _step_at(params: ModelParams, AB: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The map of :func:`step` at xi = (x, u), given AB = _stacked(params)."""
    _, _, e = _network(params, xi)
    return e @ (AB @ xi) / e.sum()


def step(params: ModelParams, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One-step state update of the scheduled model."""
    return _step_at(params, _stacked(params),
                    np.concatenate([np.atleast_1d(x), np.atleast_1d(u)]))


def output(params: ModelParams, x: np.ndarray) -> np.ndarray:
    return params.C @ np.atleast_1d(x)


def _scheduling_grads(params: ModelParams, xi: np.ndarray):
    """p, dp/dxi and dp/dtheta_net at the T rows of xi = (x, u), all analytic.

    Returns (p, dp_dxi, dp_dnet) of shapes (T, n_p), (T, n_p, n_x + n_u) and
    (T, n_p, n_net), where n_net counts the W1, b1, W2, b2 entries in
    packing order.
    """
    T, n_p, n_h = len(xi), params.n_p, params.n_h
    sig, hidden, e = _network(params, xi)
    p = e / e.sum(axis=1, keepdims=True)
    hderiv = sig + hidden * (1.0 - sig)                    # swish'(a)

    S = p[:, :, None] * (np.eye(n_p) - p[:, None, :])      # softmax Jacobian
    SW2d = (S @ params.W2) * hderiv[:, None, :]            # chain through swish
    dp_dxi = SW2d @ params.W1
    # d a_k / d W1[k, l] = xi_l and d o_k / d W2[k, l] = hidden_l, row-major.
    dp_dnet = np.concatenate([
        np.einsum("tpk,tl->tpkl", SW2d, xi).reshape(T, n_p, n_h * xi.shape[1]), SW2d,
        np.einsum("tpk,tl->tpkl", S, hidden).reshape(T, n_p, n_p * n_h), S], axis=2)
    return p, dp_dxi, dp_dnet


def jacobians(params: ModelParams, x: np.ndarray, u: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, df/dx, df/dtheta) of the one-step map f at (x, u).

    The value f = sum_i p_i (A_i x + B_i u) is formed from the mode images and
    p that the derivatives need, so one call linearises the map and steps it;
    it equals :func:`step` up to rounding.  x (T, n_x) and u (T, n_u) give a
    batch of T points, with f of shape (T, n_x), df/dx (T, n_x, n_x) and
    df/dtheta (T, n_x, n_theta); T may be 0.  A single point, x (n_x,) and
    u (n_u,), is a batch of one and gives the three without the batch axis.
    """
    n_x, n_u = params.n_x, params.n_u
    x = np.asarray(x, dtype=float)
    xs = x.reshape(-1, n_x)
    xi = np.concatenate([xs, np.reshape(u, (len(xs), n_u))], axis=1)
    p, dp_dxi, dp_dnet = _scheduling_grads(params, xi)

    AB = _stacked(params)
    modes = np.einsum("ijk,tk->tji", AB, xi)               # (T, n_x, n_p)
    f = np.einsum("tji,ti->tj", modes, p)
    fx = np.einsum("ti,ijk->tjk", p, AB[:, :, :n_x]) + modes @ dp_dxi[:, :, :n_x]

    # df/dA_i and df/dB_i are p_i times the rows of A_i x + B_i u over theta.
    ftheta = np.einsum("ti,itjk->tjk", p, theta_rows(params, np.eye(n_x), xi))
    ftheta[:, :, -dp_dnet.shape[2]:] = modes @ dp_dnet
    if x.ndim < 2:
        return f[0], fx[0], ftheta[0]
    return f, fx, ftheta


def theta_rows(params: ModelParams, F: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Coefficients over theta of F (A_i w + B_i r) at fixed points (w, r).

    ``points`` stacks one (w, r) per row; the result has shape
    (n_p, len(points), f, n_theta), and row (i, p) touches only the A_i and
    B_i blocks of theta: d/dA_i[k, l] = F[:, k] w_l, d/dB_i[k, l] = F[:, k] r_l.
    """
    n_x, n_u, n_p = params.n_x, params.n_u, params.n_p
    n_a, n_b = n_x * n_x, n_x * n_u
    out = np.zeros((n_p, len(points), F.shape[0], params.n_theta))
    if not len(points):
        return out
    dA = np.einsum("ak,pl->pakl", F, points[:, :n_x]).reshape(out.shape[1:3] + (n_a,))
    dB = np.einsum("ak,pl->pakl", F, points[:, n_x:]).reshape(out.shape[1:3] + (n_b,))
    for i in range(n_p):
        out[i, :, :, i * n_a:(i + 1) * n_a] = dA
        out[i, :, :, n_p * n_a + i * n_b:n_p * n_a + (i + 1) * n_b] = dB
    return out


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
        A = (self.F @ _stacked(params))[:, None] @ self.S + self.G
        return A.reshape(-1, self.S.shape[2]), np.tile(self.h.ravel(), params.n_p)

    def over_theta(self, params: ModelParams, y: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, b, kept) with A theta <= b at the fixed y; params gives theta's layout.

        A point S_p y whose every entry is within n eps (|S_p| |y|), n = len(y),
        is roundoff of terms that cancel (the dot-product error bound), so its
        rows have no true theta normal; all n_p f of them are dropped.  The
        bound is relative to the magnitudes summed into each entry.  kept marks
        the points whose rows remain, in order.
        """
        points = self.S @ y
        bound = len(y) * np.finfo(float).eps * (np.abs(self.S) @ np.abs(y))
        kept = (np.abs(points) > bound).any(axis=1)
        A = theta_rows(params, self.F, points[kept])
        b = (self.h - self.G @ y)[kept]
        return A.reshape(-1, params.n_theta), np.tile(b.ravel(), params.n_p), kept


def disturbance_vector(params: ModelParams, template: PolytopeTemplate,
                       beta: float, eps_u: np.ndarray) -> np.ndarray:
    """Rowwise worst-case image of the perturbation budget, d = max_i beta |F B_i| eps_u."""
    if not 0.0 <= beta < 1.0:
        raise ConfigurationError("beta must lie in [0, 1)")
    eps_u = np.atleast_1d(np.asarray(eps_u, dtype=float))
    if (eps_u < 0).any():
        raise ConfigurationError("input bounds must be nonnegative")
    return (beta * np.abs(template.F @ np.array(params.B)) @ eps_u).max(axis=0)
