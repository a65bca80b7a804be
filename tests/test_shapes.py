import numpy as np
import pytest

from morphwing.errors import BadDimension, DimensionMismatch, RankLoss
from morphwing.shapes import build_basis, chebyshev_eval

LOCS12 = np.linspace(0.15, 1.8, 12)


def to_servo_space(basis, u_v):
    """Map a virtual command (length q) to servo commands (length m): Phi u_v,
    as the controller and the run log apply the basis."""
    u_v = np.asarray(u_v, dtype=float)
    if u_v.shape != (basis.q,):
        raise DimensionMismatch(f"expected length-{basis.q} virtual command, got shape {u_v.shape}")
    return basis.Phi @ u_v


class TestChebyshevEval:
    def test_frozen_half(self):
        np.testing.assert_allclose(
            chebyshev_eval(0.5, 5), [1.0, 0.5, -0.5, -1.0, -0.5], atol=1e-14
        )

    def test_zero_alternates(self):
        np.testing.assert_allclose(
            chebyshev_eval(0.0, 6), [1.0, 0.0, -1.0, 0.0, 1.0, 0.0], atol=1e-14
        )

    def test_one_all_ones(self):
        np.testing.assert_allclose(chebyshev_eval(1.0, 4), np.ones(4), atol=1e-14)

    def test_bad_q(self):
        with pytest.raises(BadDimension):
            chebyshev_eval(0.5, 0)


class TestBuildBasis:
    def test_default_rank(self):
        basis = build_basis(LOCS12, 1.8, 5)
        assert basis.Phi.shape == (12, 5)
        assert np.linalg.matrix_rank(basis.Phi) == 5

    def test_q1_all_ones(self):
        basis = build_basis(LOCS12, 1.8, 1)
        np.testing.assert_allclose(basis.Phi, np.ones((12, 1)))

    def test_columns_bounded(self):
        basis = build_basis(LOCS12, 1.8, 5)
        assert np.max(np.abs(basis.Phi)) <= 1.0 + 1e-12
        np.testing.assert_allclose(basis.Phi[:, 0], 1.0)

    def test_not_increasing_raises(self):
        with pytest.raises(BadDimension):
            build_basis([0.5, 0.5, 1.0], 1.8, 2)

    def test_q_exceeds_m(self):
        with pytest.raises(BadDimension):
            build_basis([0.5, 1.0], 1.8, 3)

    def test_rank_loss_near_duplicate(self):
        # numerically coincident stations collapse the columns
        with pytest.raises(RankLoss):
            build_basis([0.9, 0.9 + 1e-13], 1.8, 2)


class TestToServoSpace:
    def test_first_basis_vector(self):
        basis = build_basis(LOCS12, 1.8, 5)
        np.testing.assert_allclose(to_servo_space(basis, np.array([1.0, 0, 0, 0, 0])), np.ones(12))

    def test_zero(self):
        basis = build_basis(LOCS12, 1.8, 5)
        np.testing.assert_allclose(to_servo_space(basis, np.zeros(5)), np.zeros(12))

    def test_linear(self):
        basis = build_basis(LOCS12, 1.8, 5)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        np.testing.assert_allclose(
            to_servo_space(basis, 2.0 * x + 3.0 * y),
            2.0 * to_servo_space(basis, x) + 3.0 * to_servo_space(basis, y),
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        basis = build_basis(LOCS12, 1.8, 5)
        with pytest.raises(DimensionMismatch):
            to_servo_space(basis, np.zeros(4))


def test_polynomial_smoothness():
    """Every virtual command produces samples on one degree-(q-1) polynomial."""
    basis = build_basis(LOCS12, 1.8, 5)
    x = 2.0 * basis.xs_norm - 1.0
    rng = np.random.default_rng(99)
    for _ in range(100):
        u_v = rng.standard_normal(5)
        u = to_servo_space(basis, u_v)
        coeffs = np.polyfit(x, u, 4)
        residual = np.max(np.abs(np.polyval(coeffs, x) - u))
        assert residual < 1e-10


def test_incremental_consistency():
    basis = build_basis(LOCS12, 1.8, 5)
    rng = np.random.default_rng(1)
    u_v, du_v = rng.standard_normal(5), rng.standard_normal(5)
    lhs = to_servo_space(basis, u_v + du_v) - to_servo_space(basis, u_v)
    np.testing.assert_allclose(lhs, to_servo_space(basis, du_v), atol=1e-12)
