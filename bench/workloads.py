"""Closed-loop dual tube MPC workloads, driven through the package's public API.

Every workload is a closed loop with one controller: a control step starts
only after the previous one has finished.  One step is

    tmpc.solve_tmpc -> tmpc.nominal_input -> plant step
        -> estimator.predict -> estimator.build_theta_polytope
        -> estimator.constrained_correct

Package functions are always called through their module attribute
(``tmpc.solve_tmpc``, never an imported name) so that the traced run can wrap
them from outside the package.

Workloads (why each one exists is in BENCHMARK.json):

- ``dual_track``: the full dual loop on the surrogate plant.
- ``tube_track``: the same plant and reference with ``freeze_theta=True``,
  which bypasses the large (x, theta) projection.
- ``twomass_track``: a model identified offline from the RK4 two-mass plant,
  then the dual loop on that plant.

The workload seed draws the closed-loop inputs: the surrogate plant's
parameter perturbation and the measurement noise.  The two-mass
identification record and fit are seeded with a constant, so every seed
pays the same set-up work and controls the same identified model.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import calibration
from dualmpc import estimator, plant, polytope, qlpv, qp, rci, sysid, tmpc
from dualmpc.polytope import Hpoly

TEMPLATE = polytope.box_template(2, 1)
Y = Hpoly.box(0.8)
EPS_U = np.array([1.0])
CONTROLLER = tmpc.ControllerConfig()

REF_HIGH, REF_LOW, REF_HALF_PERIOD = 0.4, -0.3, 25
MEAS_NOISE = 0.01
THETA_NOISE = 0.002
SURROGATE_MODEL_SEED = 42
SURROGATE_X0 = np.array([0.1, -0.05])
TWOMASS_RECORD = 300
TWOMASS_EPOCHS = 40
IDENT_SEED = 0
# Tolerance estimator.constrained_correct hands to qp.project_weighted; an
# OPTIMAL projection is feasible to within it.
PROJECTION_TOL = 1e-10
U_BOX_TOL = 1e-7
# Reference kernels timed before every control step; a step's time is scaled
# by those of the CAL_WINDOW steps around it.
CAL_KERNELS = 2
CAL_WINDOW = 21

# Long enough for the known crashes to show: the dual_track projection fails
# between steps 13 and 74, the twomass_track one just after a reference
# switch (steps 77, 128, 176, 226, ...), in all but one of 48 episodes of
# seeds 1 to 12 within 300 steps.
STEPS = {"dual_track": 100, "tube_track": 200, "twomass_track": 300}
# Episodes per measured pass; each draws its own inputs from (seed, episode).
EPISODES = {"dual_track": 6, "tube_track": 2, "twomass_track": 8}
WORKLOADS = tuple(STEPS)


def reference(k: int) -> np.ndarray:
    """Square wave: REF_HIGH, then REF_LOW, switching every REF_HALF_PERIOD steps."""
    return np.array([REF_HIGH if (k // REF_HALF_PERIOD) % 2 == 0 else REF_LOW])


def surrogate_model(rng: np.random.Generator) -> qlpv.ModelParams:
    """Random scheduled model (2 states, 1 input, 3 scheduling weights, 3
    hidden units) whose A_i have max absolute row sum 0.6, so a common
    box-shaped invariant set exists, and whose B_i entries lie in
    [-0.25, 0.25].  Draws in the same order as the test suite's
    ``random_model(rng, infnorm=0.6, gain=0.25)``, so a given rng gives the
    same model."""
    n_x, n_u, n_p, n_h = 2, 1, 3, 3
    infnorm, gain = 0.6, 0.25
    A = []
    for _ in range(n_p):
        M = rng.uniform(-1, 1, size=(n_x, n_x))
        M *= infnorm / max(np.abs(M).sum(axis=1).max(), 1e-9)
        A.append(M)
    B = [rng.uniform(-gain, gain, size=(n_x, n_u)) for _ in range(n_p)]
    return qlpv.ModelParams(
        A=A, B=B,
        W1=rng.uniform(-1, 1, size=(n_h, n_x + n_u)),
        b1=rng.uniform(-0.5, 0.5, size=n_h),
        W2=rng.uniform(-1, 1, size=(n_p, n_h)),
        b2=rng.uniform(-0.5, 0.5, size=n_p),
        C=np.eye(n_x)[:1],
    )


@dataclass
class Setup:
    """What a workload's set-up produces: the controller's starting model."""

    model: qlpv.ModelParams
    fit_mse: float | None = None


@dataclass
class Episode:
    """The true plant and inputs of one closed-loop episode."""

    steps: int
    x0: np.ndarray                                        # true plant state
    plant_step: Callable[[np.ndarray, float], np.ndarray]
    plant_output: Callable[[np.ndarray], float]           # noise-free output
    noise: np.ndarray                                     # (steps,) measurement noise
    theta_true: np.ndarray | None = None
    freeze_theta: bool = False


def set_up(workload: str) -> Setup:
    """Build the controller's model and check it admits the controller.

    Raises when the gate fails: a workload that cannot start is a benchmark
    error, not a measured failure.
    """
    if workload == "twomass_track":
        data = sysid.collect_dataset(plant.PlantConfig(), TWOMASS_RECORD, seed=IDENT_SEED)
        model, report = sysid.fit_feasible_model(
            data, sysid.TrainConfig(max_epochs=TWOMASS_EPOCHS), IDENT_SEED,
            CONTROLLER, TEMPLATE, Y, EPS_U)
        setup = Setup(model, fit_mse=report.train_mse)
    else:
        model = surrogate_model(np.random.default_rng(SURROGATE_MODEL_SEED))
        ok, diag = sysid.feasibility_gate(model, CONTROLLER, np.zeros(2), TEMPLATE, Y, EPS_U)
        if not ok:
            raise RuntimeError(f"surrogate model fails the feasibility gate: {diag}")
        setup = Setup(model)
    # The set-tracking optimum at the first reference: the model must admit an
    # invariant set the tube can steer to.
    _, sol = rci.solve_optimal_rci(setup.model, reference(0), TEMPLATE,
                                         CONTROLLER.beta, EPS_U, Y)
    if sol.status != qp.QpStatus.OPTIMAL:
        raise RuntimeError(f"no optimal invariant set at the set-up model: {sol.status}")
    return setup


def episode(workload: str, setup: Setup, seed: int, index: int) -> Episode:
    """Inputs of episode ``index`` of a run with workload seed ``seed``."""
    rng = np.random.default_rng([seed, index])
    steps = STEPS[workload]
    if workload == "twomass_track":
        cfg = plant.PlantConfig()
        return Episode(
            steps=steps, x0=np.zeros(4),
            plant_step=lambda x, u: plant.rk4_step(cfg, x, u),
            plant_output=lambda x: plant.measure(cfg, x),
            noise=MEAS_NOISE * rng.normal(size=steps))
    theta_true = setup.model.pack() + THETA_NOISE * rng.normal(size=setup.model.n_theta)
    true_params = setup.model.replace_theta(theta_true)
    return Episode(
        steps=steps, x0=SURROGATE_X0.copy(),
        plant_step=lambda x, u: qlpv.step(true_params, x, np.atleast_1d(u)),
        plant_output=lambda x: float(qlpv.output(true_params, x)[0]),
        noise=MEAS_NOISE * rng.normal(size=steps),
        theta_true=theta_true, freeze_theta=workload == "tube_track")


@dataclass
class EpisodeResult:
    """Timings, counts and errors of one episode, per completed step where a list."""

    scheduled: int
    step_ms: list = field(default_factory=list)     # one per completed step
    loop_s: float = 0.0                             # time of the whole episode
    ref_s: list = field(default_factory=list)       # reference kernels before each step
    tube_status: list = field(default_factory=list)
    tube_iters: int = 0
    relaxed: int = 0
    fallback: int = 0
    u_out_of_box: int = 0
    infeasible_estimate: int = 0
    degraded: int = 0
    y_err: list = field(default_factory=list)       # true output - y_ref
    y_viol: int = 0
    est_err: list = field(default_factory=list)     # C x_hat - true output
    theta_err: list = field(default_factory=list)   # ||theta_hat - theta_true||
    crash: dict | None = None

    @property
    def completed(self) -> int:
        return len(self.step_ms)

    @property
    def scale(self) -> float:
        """Factor that puts the episode's loop time on the reference machine."""
        return calibration.REF_S * CAL_KERNELS * len(self.ref_s) / sum(self.ref_s)

    def step_scales(self) -> list:
        """Factor that puts each completed step's time on the reference machine."""
        half = CAL_WINDOW // 2
        out = []
        for k in range(self.completed):
            window = self.ref_s[max(0, k - half):k + half + 1]
            out.append(calibration.REF_S * CAL_KERNELS * len(window) / sum(window))
        return out

    def counts(self) -> tuple:
        """What must repeat exactly between two runs of the same inputs."""
        crash = None if self.crash is None else (self.crash["step"], self.crash["type"])
        return (self.completed, tuple(self.tube_status), self.tube_iters, self.relaxed,
                self.fallback, self.u_out_of_box, self.infeasible_estimate, crash)


def _call_chain(exc: BaseException) -> str:
    """Names of the package functions in a traceback, outermost first."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if "dualmpc" in f.filename]
    return " > ".join(f.name for f in frames)


def direct(name: str, fn: Callable, *args):
    """The untraced stand-in for :meth:`spans.Tracer.span`."""
    return fn(*args)


def run_episode(setup: Setup, ep: Episode, clock: Callable[[], float],
                span: Callable = direct) -> EpisodeResult:
    """Run one closed-loop episode; a package error ends it and is recorded.

    ``span(name, fn, *args)`` calls ``fn(*args)``; the traced run passes one
    that records the whole step (``bench.step``) and the plant step
    (``bench.plant_step``) as spans.  Reference kernels run before every
    step, outside the step's span, and their time is left out of ``loop_s``.
    """
    state = estimator.EstimatorState.from_model(setup.model, freeze_theta=ep.freeze_theta)
    res = EpisodeResult(scheduled=ep.steps)
    x = ep.x0.copy()
    warm = None

    def control_step(k):
        """Tube solve to the end of the correction; returns None if the tube failed."""
        nonlocal x
        t0 = clock()
        y_ref = reference(k)
        model = state.model()
        tube = tmpc.solve_tmpc(state.x_hat, model, y_ref, CONTROLLER,
                               TEMPLATE, Y, EPS_U, warm_start=warm)
        res.tube_status.append(tube.status.value)
        res.tube_iters += tube.qp_solution.iterations
        if tube.status != qp.QpStatus.OPTIMAL:
            return None
        u_raw, lam = tmpc.nominal_input(tube, state.x_hat, TEMPLATE)
        u = float(np.clip(u_raw[0], -EPS_U[0], EPS_U[0]))
        x = span("bench.plant_step", ep.plant_step, x, u)
        y_true = ep.plant_output(x)
        zeta_pred, P_pred = estimator.predict(state, np.array([u]))
        poly = estimator.build_theta_polytope(tube, TEMPLATE, model, CONTROLLER.beta,
                                              EPS_U, CONTROLLER.gamma)
        corr = estimator.constrained_correct(state, zeta_pred, P_pred,
                                             np.array([y_true + ep.noise[k]]), poly)
        state.zeta, state.P = corr.zeta, corr.P
        res.step_ms.append(1e3 * (clock() - t0))
        return tube, u_raw, lam, poly, corr, y_true, y_ref

    k = 0
    start = clock()
    try:
        for k in range(ep.steps):
            res.ref_s.append(calibration.timed(clock, CAL_KERNELS))
            out = span("bench.step", control_step, k)
            if out is None:
                res.crash = {"step": k, "type": f"tube {res.tube_status[-1]}",
                             "chain": "solve_tmpc"}
                break
            tube, u_raw, lam, poly, corr, y_true, y_ref = out
            warm = tmpc.warm_start_vector(tube, CONTROLLER.gamma)

            # Output checks: a failed check degrades the step, never stops the run.
            out_of_box = bool(np.abs(u_raw).max() > EPS_U.max() + U_BOX_TOL)
            infeasible = not corr.fallback and poly.violation(corr.zeta) > PROJECTION_TOL
            res.relaxed += lam.relaxed
            res.fallback += corr.fallback
            res.u_out_of_box += out_of_box
            res.infeasible_estimate += infeasible
            res.degraded += bool(lam.relaxed or corr.fallback or out_of_box or infeasible)
            res.y_err.append(y_true - y_ref[0])
            res.y_viol += not Y.contains(np.array([y_true]))
            res.est_err.append(float((state.C @ state.x_hat)[0]) - y_true)
            if ep.theta_true is not None:
                res.theta_err.append(float(np.linalg.norm(state.theta_hat - ep.theta_true)))
    except Exception as exc:  # a package error ends the episode; the benchmark goes on
        if not _call_chain(exc):
            raise
        res.crash = {"step": k, "type": type(exc).__name__, "chain": _call_chain(exc),
                     "message": str(exc)[:200]}
    res.loop_s = clock() - start - sum(res.ref_s)
    return res
