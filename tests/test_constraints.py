import numpy as np
import pytest

from morphwing.constraints import InputLimits, adjacency_matrix, assemble, rate_box
from morphwing.errors import BadDimension, InfeasibleCurrentState


def make_limits(m, u_lim=30.0, rate=80.0, u_adj=None, dt=0.015):
    if u_adj is None:
        u_adj = np.full(m - 1, 10.0)
    return InputLimits(
        u_min=-u_lim * np.ones(m), u_max=u_lim * np.ones(m),
        rate_min=-rate * np.ones(m), rate_max=rate * np.ones(m),
        u_adj=np.asarray(u_adj, dtype=float), dt=dt,
    )


class TestAdjacency:
    def test_m3(self):
        np.testing.assert_array_equal(
            adjacency_matrix(3), np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        )

    def test_m2(self):
        np.testing.assert_array_equal(adjacency_matrix(2), np.array([[1.0, -1.0]]))

    def test_m12_banded_row_sums(self):
        C = adjacency_matrix(12)
        assert C.shape == (11, 12)
        np.testing.assert_allclose(C.sum(axis=1), 0.0)

    def test_too_small(self):
        with pytest.raises(BadDimension):
            adjacency_matrix(1)


class TestAssemble:
    def test_frozen_m2(self):
        lim = make_limits(2)
        ineq = assemble(lim, np.array([5.0, -5.0]))
        expected = np.array([25.0, 35.0, 35.0, 25.0, 0.0, 20.0, 1.2, 1.2, 1.2, 1.2])
        np.testing.assert_allclose(ineq.b, expected, atol=1e-12)
        assert ineq.A.shape == (10, 2)

    def test_origin_feasible_at_zero(self):
        lim = make_limits(4)
        ineq = assemble(lim, np.zeros(4))
        assert np.all(ineq.b > 0.0)
        assert np.all(ineq.A @ np.zeros(4) <= ineq.b)

    def test_default_sizing(self):
        u_adj = np.array([55.0 if i % 2 == 0 else 10.0 for i in range(11)])
        lim = make_limits(12, u_adj=u_adj)
        ineq = assemble(lim, np.zeros(12))
        assert ineq.A.shape == (70, 12)
        assert ineq.b.size == 70

    def test_relative_violation_raises(self):
        lim = make_limits(2, u_adj=[10.0])
        with pytest.raises(InfeasibleCurrentState):
            assemble(lim, np.array([15.0, -15.0]))

    def test_position_clamp(self):
        lim = make_limits(2)
        ineq = assemble(lim, np.array([30.0 + 5e-7, 25.0]))
        # clamped: the positive position row for servo 1 has zero slack
        assert abs(ineq.b[0]) < 1e-12

    def test_dt_scales_only_rate_rows(self):
        lim1 = make_limits(3, dt=0.015)
        lim2 = make_limits(3, dt=0.030)
        u0 = np.array([1.0, -2.0, 3.0])
        b1, b2 = assemble(lim1, u0).b, assemble(lim2, u0).b
        np.testing.assert_allclose(b1[:10], b2[:10])
        np.testing.assert_allclose(2.0 * b1[10:], b2[10:])


def test_membership_equivalence():
    """A du <= b must agree with the three physical constraint families."""
    rng = np.random.default_rng(2024)
    checks = 0
    while checks < 10_000:
        m = int(rng.integers(2, 7))
        lim = make_limits(
            m,
            u_lim=float(rng.uniform(5.0, 40.0)),
            rate=float(rng.uniform(20.0, 120.0)),
            u_adj=rng.uniform(1.0, 30.0, size=m - 1),
            dt=float(rng.uniform(0.005, 0.05)),
        )
        u0 = rng.uniform(lim.u_min, lim.u_max)
        C = adjacency_matrix(m)
        if np.any(np.abs(C @ u0) > lim.u_adj):
            continue
        ineq = assemble(lim, u0)
        du = rng.uniform(-3.0, 3.0, size=m)
        via_ineq = bool(np.all(ineq.A @ du <= ineq.b))
        u1 = u0 + du
        direct = (
            bool(np.all(u1 <= lim.u_max) and np.all(u1 >= lim.u_min))
            and bool(np.all(np.abs(C @ u1) <= lim.u_adj))
            and bool(np.all(du <= lim.rate_max * lim.dt) and np.all(du >= lim.rate_min * lim.dt))
        )
        assert via_ineq == direct
        checks += 1


def test_constant_rows_built_once():
    lim = make_limits(4)
    m = lim.m
    assert assemble(lim, np.zeros(m)).A is lim.A
    assert assemble(lim, np.array([1.0, -2.0, 3.0, 0.5])).A is lim.A
    assert lim.A.flags.writeable is False
    np.testing.assert_array_equal(rate_box(lim).A, lim.A[-2 * m:])


def test_rate_box_always_feasible():
    lim = make_limits(5)
    ineq = rate_box(lim)
    assert ineq.A.shape == (10, 5)
    assert np.all(ineq.b > 0.0)


def row_by_row_b(limits, u0):
    """assemble's b as the concatenation of its five pieces: the oracle for b = b0 + E u0."""
    u0 = np.clip(np.asarray(u0, dtype=float), limits.u_min, limits.u_max)
    Cu = limits.C @ u0
    return np.concatenate([limits.u_max - u0, -limits.u_min + u0, limits.u_adj - Cu,
                           limits.u_adj + Cu, limits.b_rate])


def test_assemble_bound_is_bitwise_the_row_by_row_formula():
    rng = np.random.default_rng(8)
    lim = make_limits(12, u_adj=[55.0 if i % 2 == 0 else 10.0 for i in range(11)])
    assert lim.E.flags.writeable is False and lim.b0.flags.writeable is False
    edges = [np.zeros(12), -np.zeros(12), np.full(12, 30.0), np.tile([30.0, 20.0], 6)]
    for k in range(3000):
        s = 1.0 if k % 2 else -1.0
        if k < len(edges):
            u0 = edges[k]
        elif k % 3 == 0:
            u0 = rng.uniform(-25.0, 25.0) + rng.uniform(-4.0, 4.0, 12)
        elif k % 3 == 1:
            # a few servos marginally outside the position bounds: the clip path
            u0 = s * (30.0 - rng.uniform(0.0, 4.0, 12))
            u0[rng.integers(12, size=3)] = s * (30.0 + rng.uniform(0.0, 1e-6, 3))
        else:
            # an odd pair (bound 10) set 10.5 apart: the relative rows exclude du = 0
            u0 = rng.uniform(-15.0, 15.0) + rng.uniform(-4.0, 4.0, 12)
            i = 2 * rng.integers(5) + 1
            u0[i + 1] = u0[i] + s * 10.5
            assert row_by_row_b(lim, u0)[24:46].min() < -1e-6
            with pytest.raises(InfeasibleCurrentState):
                assemble(lim, u0)
            continue
        assert np.array_equal(assemble(lim, u0).b, row_by_row_b(lim, u0)), k
