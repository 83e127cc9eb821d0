"""Offline identification of the initial scheduled model.

Fits the flattened parameter vector by minimizing open-loop simulation MSE
over an input-output record.  One batched call of :func:`qlpv.jacobians`
gives f_x and f_theta at every simulated step of the record; the adjoint
recursion lambda_t = c_t + f_x,t^T lambda_{t+1} runs backwards through them,
and the gradient is sum_t f_theta,t^T lambda_{t+1} plus the weight decay's.
Full-batch gradient descent with a backtracking Armijo line search keeps
training deterministic; the trial step is seeded by a safeguarded
Barzilai-Borwein estimate so the line search starts near the right scale.
The fit rolls each distinct theta out at most once, and the gradient at an
accepted probe reuses that probe's states and residuals.  A probe stops after
the first chunk of rows whose squared output error already rules out the
Armijo decrease, with a margin that keeps every decision, and so every
iterate, that of the full roll-out.
A feasibility gate then checks that the tube controller is actually
solvable at the identified model before it is let anywhere near the closed
loop.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from . import plant as plant_mod
from . import qlpv, qp, tmpc
from .errors import ConfigurationError
from .polytope import Hpoly, PolytopeTemplate

_CHUNK = 50                  # rows rolled out between two checks of the states
_REJECT_MARGIN = 1e-9        # relative margin of the early-rejection test


@dataclass
class IoDataset:
    u_seq: np.ndarray            # (T, n_u)
    y_seq: np.ndarray            # (T, n_y)
    scale: float = 1.0           # output scaling already applied to y_seq

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

    def to_csv(self) -> str:
        if self.u_seq.shape[1] != 1 or self.y_seq.shape[1] != 1:
            raise ConfigurationError("CSV schema covers scalar input/output records")
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["t", "u", "y"])
        for t, (u, y) in enumerate(zip(self.u_seq[:, 0], self.y_seq[:, 0])):
            w.writerow([t, repr(float(u)), repr(float(y))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, scale: float = 1.0) -> "IoDataset":
        rows = list(csv.DictReader(io.StringIO(text)))
        u = np.array([[float(r["u"])] for r in rows])
        y = np.array([[float(r["y"])] for r in rows])
        return cls(u_seq=u, y_seq=y, scale=scale)


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
    return IoDataset(u_seq=u_seq, y_seq=y_seq, scale=cfg.output_scale)


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
    """Residuals y - C x and their MSE, which is inf for a diverged or
    abandoned roll-out."""
    with np.errstate(over="ignore", invalid="ignore"):
        err = data.y_seq - xs @ params.C.T
        mse = float(np.sum(err ** 2) / len(data))
    return err, mse if np.isfinite(mse) else float("inf")


def simulate_mse(params: qlpv.ModelParams, data: IoDataset, x0: np.ndarray) -> float:
    return _rollout_loss(params, data, x0, 0.0)[1]


def _rollout_loss(params: qlpv.ModelParams, data: IoDataset, x0: np.ndarray,
                  weight_decay: float,
                  reject_above: float = np.inf) -> tuple[float, float, tuple, int]:
    """(total loss, bare MSE, (states, residuals), model steps) of one roll-out.

    The roll-out is abandoned, and both losses read inf, once its finished
    chunks put the total loss above reject_above by _REJECT_MARGIN relative to
    the bound's terms, far above the rounding of the sums: the loss of the
    full roll-out would exceed reject_above too.
    """
    if len(data) == 0:
        raise ConfigurationError("dataset is empty")
    theta = params.pack()
    decay = weight_decay * float(theta @ theta)
    sse_bound = len(data) * (reject_above - decay
                             + _REJECT_MARGIN * (abs(reject_above) + decay))
    xs, steps = _rollout(params, data.u_seq, x0, data.y_seq, sse_bound)
    err, mse = _output_error(params, data, xs)
    return mse + decay, mse, (xs, err), steps


def _rollout_gradient(params: qlpv.ModelParams, data: IoDataset, rollout: tuple,
                      weight_decay: float) -> np.ndarray:
    """d loss / d theta by the adjoint recursion through a finite roll-out."""
    xs, err = rollout
    T = len(data)
    # lam_t = d loss / d x_t = c_t + f_x,t^T lam_{t+1} with c_t = -(2/T) C^T err_t;
    # x_0 is fixed, so the recursion stops at lam_1.
    fx, ftheta = qlpv.jacobians(params, xs[:-1], data.u_seq[:-1])
    lam = -(2.0 / T) * err @ params.C
    for t in range(T - 2, 0, -1):
        lam[t] += fx[t].T @ lam[t + 1]
    return 2.0 * weight_decay * params.pack() + np.einsum("tjk,tj->k", ftheta, lam[1:])


def mse_and_gradient(params: qlpv.ModelParams, data: IoDataset, x0: np.ndarray,
                     weight_decay: float = 0.0) -> tuple[float, float, np.ndarray]:
    """(total loss, bare MSE, d loss / d theta); (inf, inf, 0) if the roll-out diverges."""
    loss, mse, rollout, _ = _rollout_loss(params, data, x0, weight_decay)
    if mse == float("inf"):
        return loss, mse, np.zeros(params.n_theta)
    return loss, mse, _rollout_gradient(params, data, rollout, weight_decay)


@dataclass
class TrainConfig:
    target: float = 0.01
    max_epochs: int = 4000
    weight_decay: float = 1e-4
    armijo_c: float = 1e-4
    max_halvings: int = 50
    n_x: int = 2
    n_p: int = 3
    n_h: int = 3
    n_u: int = 1
    n_y: int = 1


@dataclass
class FitReport:
    train_mse: float
    epochs: int                  # accepted descent steps, len(history) - 1
    reached_target: bool
    weight_decay: float
    history: list = field(default_factory=list)
    rollout_steps: int = 0       # model steps simulated, abandoned probes included


def initial_guess(cfg: TrainConfig, seed: int) -> qlpv.ModelParams:
    """Contractive start: near 0.5*I vertex matrices, small everything else."""
    rng = np.random.default_rng(seed)
    A = [0.5 * np.eye(cfg.n_x) + rng.uniform(-0.01, 0.01, size=(cfg.n_x, cfg.n_x))
         for _ in range(cfg.n_p)]
    B = [rng.uniform(-0.1, 0.1, size=(cfg.n_x, cfg.n_u)) for _ in range(cfg.n_p)]
    C = np.eye(cfg.n_x)[:cfg.n_y]
    return qlpv.ModelParams(
        A=A, B=B,
        W1=rng.uniform(-0.1, 0.1, size=(cfg.n_h, cfg.n_x + cfg.n_u)),
        b1=rng.uniform(-0.1, 0.1, size=cfg.n_h),
        W2=rng.uniform(-0.1, 0.1, size=(cfg.n_p, cfg.n_h)),
        b2=rng.uniform(-0.1, 0.1, size=cfg.n_p),
        C=C,
    )


def fit_initial_model(data: IoDataset, cfg: TrainConfig, seed: int,
                      x0: np.ndarray | None = None) -> tuple[qlpv.ModelParams, FitReport]:
    """Deterministic full-batch descent to the simulation-MSE target.

    A line-search probe is rolled out only until it fails the Armijo test;
    the iterates are those of full roll-outs.
    """
    if len(data) < 2:
        raise ConfigurationError("need at least two samples to fit")
    params = initial_guess(cfg, seed)
    x0 = np.zeros(cfg.n_x) if x0 is None else np.asarray(x0, dtype=float)
    theta = params.pack()
    loss, mse, rollout, steps = _rollout_loss(params, data, x0, cfg.weight_decay)
    grad = (np.zeros(params.n_theta) if mse == float("inf")
            else _rollout_gradient(params, data, rollout, cfg.weight_decay))
    best_theta, best_mse = theta.copy(), mse
    step = 1.0 / max(1.0, float(np.linalg.norm(grad)))
    history = [mse]
    prev_theta, prev_grad = None, None

    for _ in range(cfg.max_epochs):
        if best_mse <= cfg.target:
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
        # it fails the Armijo test; the gradient at the accepted probe
        # differentiates that same roll-out.  No accepted probe ends the fit.
        alpha = step
        for _ in range(cfg.max_halvings):
            cand = theta - alpha * grad
            cand_params = params.replace_theta(cand)
            threshold = loss - cfg.armijo_c * alpha * gnorm2
            cand_loss, cand_mse, rollout, cand_steps = _rollout_loss(
                cand_params, data, x0, cfg.weight_decay, threshold)
            steps += cand_steps
            if cand_loss <= threshold:
                prev_theta, prev_grad = theta, grad
                theta, loss, mse = cand, cand_loss, cand_mse
                params = cand_params
                grad = _rollout_gradient(params, data, rollout, cfg.weight_decay)
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
                           reached_target=best_mse <= cfg.target,
                           weight_decay=cfg.weight_decay, history=history,
                           rollout_steps=steps)


def feasibility_gate(
    params: qlpv.ModelParams,
    controller: tmpc.ControllerConfig,
    x0: np.ndarray,
    template: PolytopeTemplate,
    Y: Hpoly,
    eps_u: np.ndarray,
    y_ref: np.ndarray | None = None,
) -> tuple[bool, dict]:
    """True iff the tube controller's QP is solvable at (x0, params)."""
    y_ref = np.zeros(params.n_y) if y_ref is None else y_ref
    sol = tmpc.solve_tmpc(np.asarray(x0, dtype=float), params, y_ref,
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
    x0: np.ndarray | None = None,
    max_retries: int = 3,
) -> tuple[qlpv.ModelParams, FitReport]:
    """Fit, then gate; on gate failure retrain with 10x stronger weight decay.

    Aborts with the gate diagnostics once the retry ladder is exhausted.
    """
    x0 = np.zeros(cfg.n_x) if x0 is None else x0
    wd = cfg.weight_decay
    last_diag: dict = {}
    for attempt in range(max_retries + 1):
        attempt_cfg = replace(cfg, weight_decay=wd)
        params, report = fit_initial_model(data, attempt_cfg, seed, x0)
        ok, diag = feasibility_gate(params, controller, x0, template, Y, eps_u)
        if ok:
            return params, report
        last_diag = diag
        wd *= 10.0
    raise ConfigurationError(
        f"no identified model passed the controller feasibility gate "
        f"after {max_retries + 1} attempts; last diagnostics: {last_diag}")
