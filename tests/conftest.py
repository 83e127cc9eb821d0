import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dualmpc import qlpv, qp
from dualmpc.polytope import box_template
from oracles import scaled_kkt_residual


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_model(rng, n_x=2, n_u=1, n_p=3, n_h=3, spectral=0.7, gain=0.3,
                 infnorm=None):
    """A random stable scheduled model for property tests.

    With infnorm set, each A_i is scaled to that maximum absolute row sum,
    which guarantees a common box-shaped invariant set exists (the template
    used throughout); spectral-radius scaling alone does not.
    """
    A = []
    for _ in range(n_p):
        M = rng.uniform(-1, 1, size=(n_x, n_x))
        if infnorm is not None:
            M *= infnorm / max(np.abs(M).sum(axis=1).max(), 1e-9)
        else:
            M *= spectral / max(np.abs(np.linalg.eigvals(M)).max(), 1e-9)
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


def without_exact_start(monkeypatch):
    """Make every later qp.solve run its interior-point iteration, as when
    it forms no exact start; H is then not factored either."""
    monkeypatch.setattr(qp, "_least_distance_start", lambda prob, tol: None)


def interior_point_from(monkeypatch, x):
    """Make every later qp.solve start its interior-point iteration from x,
    the way it starts from an exact start that its KKT test rejects: the
    start is the point (x, lam) with zero duals lam, which must fail that
    test.  x is in the coordinates of the problem passed to the solver; for
    qp.project_weighted that is the whitened z, not the estimate."""
    x = np.array(x, dtype=float)

    def start(prob, tol):
        lam = np.zeros(prob.A_in.shape[0])
        assert scaled_kkt_residual(prob, x, lam) > tol
        return x.copy(), lam

    monkeypatch.setattr(qp, "_least_distance_start", start)


@pytest.fixture
def interior_point(monkeypatch):
    """qp.solve without its exact start, for tests of the iteration itself."""
    without_exact_start(monkeypatch)


@pytest.fixture
def paper_template():
    return box_template(2, 1)


@pytest.fixture
def small_model(rng):
    return random_model(rng)
