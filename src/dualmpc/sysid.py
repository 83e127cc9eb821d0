"""Offline identification of the initial scheduled model.

Fits the flattened parameter vector by minimizing open-loop simulation MSE
over an input-output record.  :func:`mse_and_gradient` is the fit's one
objective.  One batched call of :func:`qlpv.jacobians` gives f_x and f_theta
at every simulated step of the record; the adjoint recursion
lambda_t = c_t + f_x,t^T lambda_{t+1} runs backwards through them, and the
gradient is sum_t f_theta,t^T lambda_{t+1} plus the weight decay's.
Full-batch gradient descent with a backtracking Armijo line search keeps
training deterministic; the trial step is seeded by a safeguarded
Barzilai-Borwein estimate so the line search starts near the right scale.
Each distinct theta is rolled out once, by one call of the objective, which
also differentiates an accepted probe.  The early rejection lives there too:
a probe stops after the first chunk of rows whose squared output error
already rules out the Armijo decrease, with a margin that keeps every
decision, and so every iterate, that of the full roll-out.
A feasibility gate then checks that the tube controller is actually
solvable at the identified model before it is let anywhere near the closed
loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from . import plant as plant_mod
from . import qlpv, qp, tmpc
from .errors import ConfigurationError
from .polytope import Hpoly, PolytopeTemplate

_CHUNK = 50                  # rows rolled out between two checks of the states
_REJECT_MARGIN = 1e-9        # relative margin of the early-rejection test
_ARMIJO_C = 1e-4             # sufficient-decrease constant of the line search
_MAX_RETRIES = 3             # refits with stronger weight decay after a failed gate
_TARGET_MSE = 0.01           # a fit stops once its simulation MSE is this low
_MAX_HALVINGS = 50           # step halvings before the line search gives up
_N_X, _N_P, _N_H, _N_U, _N_Y = 2, 3, 3, 1, 1   # fitted model's n_x, n_p, n_h, n_u, n_y


@dataclass
class IoDataset:
    u_seq: np.ndarray            # (T, n_u)
    y_seq: np.ndarray            # (T, n_y)

    def __post_init__(self):
        # A 1-D record is a scalar signal, one sample per entry.
        self.u_seq, self.y_seq = (a[:, None] if a.ndim == 1 else a for a in (
            np.asarray(self.u_seq, dtype=float), np.asarray(self.y_seq, dtype=float)))
        if self.u_seq.ndim != 2 or self.y_seq.ndim != 2:
            raise ConfigurationError("records must be (T,) or (T, n) arrays")
        if len(self.u_seq) != len(self.y_seq):
            raise ConfigurationError("input and output records must be equally long")
        if not (np.isfinite(self.u_seq).all() and np.isfinite(self.y_seq).all()):
            raise ConfigurationError("dataset contains non-finite entries")

    def __len__(self) -> int:
        return len(self.u_seq)


def collect_dataset(cfg: plant_mod.PlantConfig, n_steps: int, seed: int) -> IoDataset:
    """Excite the benchmark plant with uniform inputs, each held constant for
    5 steps, and record the scaled output, starting from rest."""
    rng = np.random.default_rng(seed)
    state = np.zeros(4)
    u_seq = np.zeros((n_steps, 1))
    y_seq = np.zeros((n_steps, 1))
    u = 0.0
    for t in range(n_steps):
        if t % 5 == 0:
            u = float(rng.uniform(-1.0, 1.0))
        y_seq[t, 0] = plant_mod.measure(cfg, state)
        u_seq[t, 0] = u
        state = plant_mod.rk4_step(cfg, state, u)
    return IoDataset(u_seq=u_seq, y_seq=y_seq)


def simulate(params: qlpv.ModelParams, u_seq: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Open-loop model states, one row per recorded step.

    The states equal a loop over :func:`qlpv.step` up to the first
    non-finite state; the rows after it are NaN.
    """
    return _rollout(params, u_seq, x0)[0]


def _rollout(params: qlpv.ModelParams, u_seq: np.ndarray, x0: np.ndarray,
             y_seq: np.ndarray | None = None,
             sse_bound: float = np.inf) -> tuple[np.ndarray, int]:
    """The states of :func:`simulate` and the number of model steps taken.

    [A_i B_i] and the (x, u) rows are built once; each step applies the
    kernel of :func:`qlpv.step` to the row before it.  Each chunk of _CHUNK
    rows is checked once, after it is rolled out.  The roll-out stops at the
    chunk's first non-finite state, or, given the outputs y_seq, once the
    squared output errors of the chunks so far sum past sse_bound; the rows
    after the stop are NaN.
    """
    T, n_x = len(u_seq), params.n_x
    xi = np.full((T, n_x + params.n_u), np.nan)
    xi[:, n_x:] = np.reshape(u_seq, (T, params.n_u))
    xi[:1, :n_x] = x0
    AB = qlpv._stacked(params)
    sse, end = 0.0, 1
    # A chunk steps on past a non-finite state until the chunk's check finds it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, T, _CHUNK):
            end = min(start + _CHUNK, T)
            for t in range(max(start, 1), end):
                xi[t, :n_x] = qlpv._step_at(params, AB, xi[t - 1])
            xs = xi[start:end, :n_x]
            finite = np.isfinite(xs).all(axis=1)
            if not finite.all():
                xi[start + int(np.argmin(finite)) + 1:, :n_x] = np.nan
                break
            if y_seq is not None:
                sse += float(np.sum((y_seq[start:end] - xs @ params.C.T) ** 2))
                if sse > sse_bound:
                    break
    return np.ascontiguousarray(xi[:, :n_x]), end - 1


def _output_error(params: qlpv.ModelParams, data: IoDataset,
                  xs: np.ndarray) -> tuple[np.ndarray, float]:
    """Residuals y - C x and their MSE, inf for a diverged or abandoned roll-out."""
    if len(data) == 0:
        raise ConfigurationError("dataset is empty")
    with np.errstate(over="ignore", invalid="ignore"):
        err = data.y_seq - xs @ params.C.T
        mse = float(np.sum(err ** 2) / len(data))
    return err, mse if np.isfinite(mse) else float("inf")


def simulate_mse(params: qlpv.ModelParams, data: IoDataset, x0: np.ndarray) -> float:
    """Simulation MSE of a full roll-out of the record; inf if it diverges."""
    return _output_error(params, data, _rollout(params, data.u_seq, x0)[0])[1]


def mse_and_gradient(params: qlpv.ModelParams, data: IoDataset, x0: np.ndarray,
                     weight_decay: float = 0.0,
                     accept_below: float = np.inf) -> tuple[float, float, np.ndarray, int]:
    """(total loss, bare MSE, d loss / d theta, model steps) of one roll-out.

    The roll-out is abandoned, and both losses read inf, once its finished
    chunks put the total loss above accept_below by _REJECT_MARGIN relative to
    the bound's terms, far above the rounding of the sums: the loss of the
    full roll-out would exceed accept_below too.  The gradient, by the adjoint
    recursion, is taken only of a finite roll-out whose loss is at most
    accept_below; otherwise it reads 0.
    """
    theta = params.pack()
    decay = weight_decay * float(theta @ theta)
    sse_bound = len(data) * (accept_below - decay
                             + _REJECT_MARGIN * (abs(accept_below) + decay))
    xs, steps = _rollout(params, data.u_seq, x0, data.y_seq, sse_bound)
    err, mse = _output_error(params, data, xs)
    loss = mse + decay
    if mse == float("inf") or not loss <= accept_below:
        return loss, mse, np.zeros(params.n_theta), steps
    # lam_t = d loss / d x_t = c_t + f_x,t^T lam_{t+1} with c_t = -(2/T) C^T err_t;
    # x_0 is fixed, so the recursion stops at lam_1.
    _, fx, ftheta = qlpv.jacobians(params, xs[:-1], data.u_seq[:-1])
    lam = -(2.0 / len(data)) * err @ params.C
    for t in range(len(data) - 2, 0, -1):
        lam[t] += fx[t].T @ lam[t + 1]
    grad = 2.0 * weight_decay * theta + np.einsum("tjk,tj->k", ftheta, lam[1:])
    return loss, mse, grad, steps


@dataclass
class TrainConfig:
    max_epochs: int = 4000
    weight_decay: float = 1e-4

    def __post_init__(self):
        if not isinstance(self.max_epochs, Integral) or self.max_epochs < 0:
            raise ConfigurationError(f"max_epochs must be an integer >= 0, got {self.max_epochs!r}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigurationError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class FitReport:
    train_mse: float
    epochs: int                  # accepted descent steps, len(history) - 1
    weight_decay: float
    history: list = field(default_factory=list)
    rollout_steps: int = 0       # model steps simulated, abandoned probes included


def initial_guess(seed: int) -> qlpv.ModelParams:
    """Contractive start: near 0.5*I vertex matrices, small everything else."""
    rng = np.random.default_rng(seed)
    A = [0.5 * np.eye(_N_X) + rng.uniform(-0.01, 0.01, size=(_N_X, _N_X))
         for _ in range(_N_P)]
    B = [rng.uniform(-0.1, 0.1, size=(_N_X, _N_U)) for _ in range(_N_P)]
    C = np.eye(_N_X)[:_N_Y]
    return qlpv.ModelParams(
        A=A, B=B,
        W1=rng.uniform(-0.1, 0.1, size=(_N_H, _N_X + _N_U)),
        b1=rng.uniform(-0.1, 0.1, size=_N_H),
        W2=rng.uniform(-0.1, 0.1, size=(_N_P, _N_H)),
        b2=rng.uniform(-0.1, 0.1, size=_N_P),
        C=C,
    )


def fit_initial_model(data: IoDataset, cfg: TrainConfig,
                      seed: int) -> tuple[qlpv.ModelParams, FitReport]:
    """Deterministic full-batch descent to the simulation-MSE target, with the
    record rolled out from rest, as :func:`collect_dataset` records it.

    :func:`mse_and_gradient` is the fit's one objective: one call evaluates
    the start and one each line-search probe.  Its early rejection rolls a
    probe out only until it fails the Armijo test; the iterates are those of
    full roll-outs.
    """
    if len(data) < 2:
        raise ConfigurationError("need at least two samples to fit")
    params = initial_guess(seed)
    x0 = np.zeros(_N_X)
    theta = params.pack()
    loss, mse, grad, steps = mse_and_gradient(params, data, x0, cfg.weight_decay)
    best_theta, best_mse = theta.copy(), mse
    step = 1.0 / max(1.0, float(np.linalg.norm(grad)))
    history = [mse]
    prev_theta, prev_grad = None, None

    for _ in range(cfg.max_epochs):
        if best_mse <= _TARGET_MSE:
            break
        gnorm2 = float(grad @ grad)
        if gnorm2 <= 1e-30:
            break
        # Barzilai-Borwein trial step, safeguarded, then Armijo halving.
        if prev_theta is not None:
            dtheta = theta - prev_theta
            dgrad = grad - prev_grad
            curv = float(dtheta @ dgrad)
            if curv > 1e-18:
                step = float(dtheta @ dtheta) / curv
            else:
                step *= 2.0
        else:
            step *= 2.0
        step = float(np.clip(step, 1e-14, 1e6))

        # Each probe rolls the record out at most once, and stops as soon as
        # it fails the Armijo test; the accepted probe's call also returns
        # its gradient.  No accepted probe ends the fit.
        alpha = step
        for _ in range(_MAX_HALVINGS):
            cand = theta - alpha * grad
            cand_params = params.replace_theta(cand)
            threshold = loss - _ARMIJO_C * alpha * gnorm2
            cand_loss, cand_mse, cand_grad, cand_steps = mse_and_gradient(
                cand_params, data, x0, cfg.weight_decay, threshold)
            steps += cand_steps
            if cand_loss <= threshold:
                prev_theta, prev_grad = theta, grad
                theta, loss, mse, grad = cand, cand_loss, cand_mse, cand_grad
                params = cand_params
                step = alpha
                break
            alpha *= 0.5
        else:
            break
        history.append(mse)
        if mse < best_mse:
            best_mse, best_theta = mse, theta.copy()

    best = params.replace_theta(best_theta)
    return best, FitReport(train_mse=best_mse, epochs=len(history) - 1,
                           weight_decay=cfg.weight_decay, history=history,
                           rollout_steps=steps)


def feasibility_gate(
    params: qlpv.ModelParams,
    controller: tmpc.ControllerConfig,
    x0: np.ndarray,
    template: PolytopeTemplate,
    Y: Hpoly,
    eps_u: np.ndarray,
) -> tuple[bool, dict]:
    """True iff the tube controller's QP is solvable at (x0, params), y_ref = 0."""
    sol = tmpc.solve_tmpc(np.asarray(x0, dtype=float), params, np.zeros(params.n_y),
                          controller, template, Y, eps_u)
    ok = sol.status == qp.QpStatus.OPTIMAL
    diag = {
        "status": sol.status.value,
        "kkt_residual": sol.qp_solution.kkt_residual,
        "max_violation": sol.qp_solution.primal_infeasibility,
    }
    return ok, diag


def fit_feasible_model(
    data: IoDataset,
    cfg: TrainConfig,
    seed: int,
    controller: tmpc.ControllerConfig,
    template: PolytopeTemplate,
    Y: Hpoly,
    eps_u: np.ndarray,
) -> tuple[qlpv.ModelParams, FitReport]:
    """Fit, then gate at rest; on gate failure retrain with 10x stronger weight decay.

    Aborts with the gate diagnostics once the retry ladder is exhausted.  A
    zero weight decay has no ladder: the deterministic fit would repeat.
    """
    if cfg.weight_decay == 0.0:
        raise ConfigurationError("the retry ladder needs weight_decay > 0")
    wd = cfg.weight_decay
    last_diag: dict = {}
    for _ in range(_MAX_RETRIES + 1):
        attempt_cfg = replace(cfg, weight_decay=wd)
        params, report = fit_initial_model(data, attempt_cfg, seed)
        ok, diag = feasibility_gate(params, controller, np.zeros(_N_X), template, Y, eps_u)
        if ok:
            return params, report
        last_diag = diag
        wd *= 10.0
    raise ConfigurationError(
        f"no identified model passed the controller feasibility gate "
        f"after {_MAX_RETRIES + 1} attempts; last diagnostics: {last_diag}")
