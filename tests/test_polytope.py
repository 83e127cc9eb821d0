import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmpc import polytope
from dualmpc.errors import ConfigurationError
from oracles import hull_membership_lp, set_contains, set_vertices, vertex_input


def box2():
    return polytope.box_template(2, 1)


def test_box_template_dimensions_match_paper_setup():
    t = box2()
    assert t.n_rows == 4 and t.n_vertices == 4
    assert t.F.shape == (4, 2)


def test_vertices_from_halfspace_intersections():
    t = box2()
    s = np.array([1.0, 2.0, 3.0, 4.0])
    verts = set_vertices(t.V, np.zeros(2), s)
    expected = {(1.0, 2.0), (1.0, -4.0), (-3.0, 2.0), (-3.0, -4.0)}
    assert {tuple(v) for v in map(tuple, verts)} == expected
    # Lexicographic sign ordering: (+,+) first.
    assert tuple(verts[0]) == (1.0, 2.0)


def test_one_dimensional_symmetric_interval():
    t = polytope.box_template(1, 1)
    a = 0.7
    verts = set_vertices(t.V, np.zeros(1), np.array([a, a]))
    assert sorted(v[0] for v in verts) == pytest.approx([-a, a])


def test_origin_always_inside_for_nonnegative_offsets(rng):
    t = box2()
    for _ in range(20):
        s = rng.uniform(0, 2, size=4)
        assert set_contains(t.F, np.zeros(2), s, np.zeros(2))


def test_contains_rejects_outside_point():
    t = box2()
    z, s = np.zeros(2), np.ones(4)
    assert not set_contains(t.F, z, s, np.array([1.5, 0.0]))
    assert set_contains(t.F, z, s, np.array([1.0, 1.0]), tol=1e-12)


def test_vertex_membership_exact():
    t = box2()
    s = np.array([0.5, 1.5, 0.25, 2.0])
    z = np.array([0.3, -0.2])
    for j in range(4):
        x = z + t.V[j] @ s
        assert set_contains(t.F, z, s, x, tol=1e-12)


def test_vertex_halfspace_duality_random_offsets(rng):
    """V-rep and H-rep agree: vertices feasible, supports match offsets."""
    t = box2()
    for _ in range(100):
        s = rng.uniform(0, 3, size=4)
        for Vj in t.V:
            assert (t.F @ (Vj @ s) <= s + 1e-9).all()
        # Support of the vertex hull in each template direction equals s.
        support = np.max(t.F @ np.array([Vj @ s for Vj in t.V]).T, axis=1)
        assert np.abs(support - s).max() <= 1e-8
        # Random hull points stay inside the halfspace description.
        lam = rng.dirichlet(np.ones(4))
        point = sum(l * (Vj @ s) for l, Vj in zip(lam, t.V))
        assert (t.F @ point <= s + 1e-9).all()


def test_halfspace_points_inside_vertex_hull(rng):
    t = box2()
    for k in range(25):
        s = rng.uniform(0.1, 2, size=4)
        x = np.array([rng.uniform(-s[2], s[0]), rng.uniform(-s[3], s[1])])
        vertices = [Vj @ s for Vj in t.V]
        assert hull_membership_lp(x, vertices, tol=1e-8)
        # A vertex pushed outward by 1% lies just outside the box.
        outside = 1.01 * vertices[k % len(vertices)]
        assert not hull_membership_lp(outside, vertices, tol=1e-8)


def test_selection_maps_extract_blocks():
    t = box2()
    c = np.array([10.0, 20.0, 30.0, 40.0])
    for j in range(4):
        assert vertex_input(c, t.n_u, j) == pytest.approx([c[j]])


class TestBarycentricLambda:
    def test_center_of_symmetric_box_gives_uniform_weights(self):
        t = box2()
        s = np.array([1.0, 2.0, 1.0, 2.0])
        res = polytope.barycentric_lambda(t, np.zeros(2), s, np.zeros(2))
        assert res.weights == pytest.approx([0.25] * 4, abs=1e-7)
        assert not res.relaxed

    def test_vertex_recovers_unit_weight(self):
        t = box2()
        s = np.array([1.0, 2.0, 3.0, 4.0])
        z = np.array([0.1, 0.2])
        x = z + t.V[1] @ s
        res = polytope.barycentric_lambda(t, z, s, x)
        assert res.weights == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-6)

    def test_edge_midpoint_splits_between_adjacent_vertices(self):
        t = box2()
        s = np.array([1.0, 2.0, 3.0, 4.0])
        x = 0.5 * (t.V[0] @ s) + 0.5 * (t.V[1] @ s)
        res = polytope.barycentric_lambda(t, np.zeros(2), s, x)
        assert res.weights == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-6)

    def test_reconstruction_properties_random(self, rng):
        t = box2()
        for _ in range(30):
            s = rng.uniform(0.2, 2, size=4)
            z = rng.normal(size=2)
            lam_true = rng.dirichlet(np.ones(4))
            x = z + sum(l * (Vj @ s) for l, Vj in zip(lam_true, t.V))
            res = polytope.barycentric_lambda(t, z, s, x)
            assert res.weights.sum() == pytest.approx(1.0, abs=1e-8)
            assert res.weights.min() >= -1e-9
            recon = z + sum(l * (Vj @ s) for l, Vj in zip(res.weights, t.V))
            assert np.linalg.norm(recon - x) <= 1e-6


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(1, 3), n_flat=st.integers(0, 3))
def test_closed_form_weights_on_box_templates(seed, n_x, n_flat):
    """Simplex weights, exact inside, nearest point outside, unit vertex weight.

    Offsets are drawn with some one-sided faces (s+_k or s-_k zero) and at
    least n_flat degenerate axes (s+_k = s-_k = 0); the vertices that
    coincide there share their weight.
    """
    rng = np.random.default_rng(seed)
    t = polytope.box_template(n_x, 1)
    z = rng.uniform(-10, 10, size=n_x)
    s = rng.uniform(0.05, 5.0, size=2 * n_x) * (rng.uniform(size=2 * n_x) > 0.2)
    flat = rng.permutation(n_x)[:n_flat]
    s[flat] = s[n_x + flat] = 0.0
    W = np.column_stack([Vj @ s for Vj in t.V])
    lo, hi = z - s[n_x:], z + s[:n_x]
    tol = 1e-12 * max(1.0, np.abs(s).max())

    def weights_at(x):
        res = polytope.barycentric_lambda(t, z, s, x)
        assert res.weights.min() >= 0.0
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
        return res

    inside = lo + rng.uniform(size=n_x) * (hi - lo)
    res = weights_at(inside)
    assert np.abs(z + W @ res.weights - inside).max() <= tol
    assert not res.relaxed

    outside = rng.uniform(lo - 3.0, hi + 3.0)
    k = rng.integers(n_x)
    outside[k] = hi[k] + rng.uniform(0.01, 3.0) if rng.uniform() < 0.5 \
        else lo[k] - rng.uniform(0.01, 3.0)
    nearest = np.clip(outside, lo, hi)
    res = weights_at(outside)
    assert res.relaxed
    assert res.residual == pytest.approx(np.linalg.norm(outside - nearest), rel=1e-12, abs=tol)
    assert np.abs(z + W @ res.weights - nearest).max() <= tol

    j = rng.integers(t.n_vertices)
    res = weights_at(z + W[:, j])
    at_vertex = (W == W[:, [j]]).all(axis=0)
    assert res.weights[at_vertex].sum() == pytest.approx(1.0, abs=1e-12)


def test_box_rejects_negative_or_nan_half_width():
    assert polytope.Hpoly.box([0.0, 1.0]).contains(np.zeros(2))
    # Hpoly.box(-1.0) would be {y <= -1, y >= 1}, an empty set.
    for half_width in (-1.0, [1.0, float("nan")]):
        with pytest.raises(ConfigurationError, match="half-widths"):
            polytope.Hpoly.box(half_width)


def test_hpoly_of_mismatched_row_count_rejected():
    with pytest.raises(ConfigurationError, match="row count"):
        polytope.Hpoly(np.eye(2), np.ones(3))


def test_invalid_dimension_rejected():
    for n_x, n_u in ((0, 1), (2, 0)):
        with pytest.raises(ConfigurationError):
            polytope.box_template(n_x, n_u)
