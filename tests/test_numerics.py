import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from morphwing.errors import BadSampling, NoStabilizingSolution, NotHurwitz, RankDeficient
from morphwing.numerics import (
    BlockMap,
    SecondOrderFilter,
    care_residual,
    hurwitz_margin,
    integrate_step,
    pseudo_inverse,
    solve_care,
    solve_lyapunov,
)


class TestPseudoInverse:
    def test_frozen_2x3(self):
        B = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        expected = np.array([[2.0, -1.0], [-1.0, 2.0], [1.0, 1.0]]) / 3.0
        np.testing.assert_allclose(pseudo_inverse(B), expected, atol=1e-12)
        np.testing.assert_allclose(B @ pseudo_inverse(B), np.eye(2), atol=1e-10)

    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(2)), np.eye(2), atol=1e-14)

    def test_zero_row_raises(self):
        with pytest.raises(RankDeficient):
            pseudo_inverse(np.array([[2.0, 0.0], [0.0, 0.0]]))

    def test_right_inverse_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.integers(1, 4)
            m = rng.integers(p, 13)
            B = rng.standard_normal((p, m))
            np.testing.assert_allclose(B @ pseudo_inverse(B), np.eye(p), atol=1e-9)

    def test_transpose_consistency_square(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            B = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
            np.testing.assert_allclose(
                pseudo_inverse(B).T, pseudo_inverse(B.T), atol=1e-8
            )


class TestLyapunov:
    def test_frozen_diag(self):
        A = np.diag([-0.1, -0.1])
        np.testing.assert_allclose(solve_lyapunov(A, np.eye(2)), 5.0 * np.eye(2), atol=1e-12)

    def test_scalar_symmetric(self):
        np.testing.assert_allclose(solve_lyapunov(-np.eye(2), np.eye(2)), 0.5 * np.eye(2), atol=1e-12)

    def test_residual_generic(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        P = solve_lyapunov(A, np.eye(2))
        assert np.max(np.abs(P @ A + A.T @ P + np.eye(2))) < 1e-9

    def test_not_hurwitz_raises(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))

    def test_symmetric_pd_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 7)
            A = rng.standard_normal((n, n)) - (n + 2.0) * np.eye(n)
            if hurwitz_margin(A) >= -1e-6:
                continue
            P = solve_lyapunov(A, np.eye(n))
            assert np.max(np.abs(P - P.T)) < 1e-12
            np.linalg.cholesky(P)  # PD check

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 5)) - 6.0 * np.eye(5)
        P = solve_lyapunov(A, np.eye(5))
        P_ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(5))
        np.testing.assert_allclose(P, P_ref, atol=1e-9)


class TestCare:
    def test_scalar_frozen(self):
        S = solve_care(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert abs(S[0, 0] - (-1.0 + np.sqrt(2.0))) < 1e-10

    def test_zero_cost(self):
        S = solve_care(-np.eye(3), np.eye(3), np.zeros((3, 3)), np.eye(3))
        assert np.max(np.abs(S)) < 1e-9

    def test_double_integrator(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        S = solve_care(A, B, np.eye(2), np.array([[1.0]]))
        assert care_residual(A, B, np.eye(2), np.array([[1.0]]), S) < 1e-8
        assert hurwitz_margin(A - B @ np.linalg.solve(np.array([[1.0]]), B.T @ S)) < 0.0

    def test_residual_random_stabilizable(self):
        rng = np.random.default_rng(42)
        count = 0
        while count < 100:
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
            M = rng.standard_normal((n, n))
            Q = M.T @ M + 1e-3 * np.eye(n)
            R = np.eye(m) * float(rng.uniform(0.5, 3.0))
            # controllability check keeps the draw stabilizable
            ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
            if np.linalg.matrix_rank(ctrb) < n:
                continue
            S = solve_care(A, B, Q, R)
            assert care_residual(A, B, Q, R, S) < 1e-8 * max(1.0, np.max(np.abs(S)) ** 2)
            assert hurwitz_margin(A - B @ np.linalg.solve(R, B.T @ S)) < 0.0
            S_ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
            np.testing.assert_allclose(S, S_ref, rtol=1e-6, atol=1e-8)
            count += 1

    def test_unstabilizable_raises(self):
        # unstable mode with no input authority
        A = np.diag([1.0, -1.0])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(NoStabilizingSolution):
            solve_care(A, B, np.eye(2), np.array([[1.0]]))
        # undamped oscillator with no input: the Hamiltonian's eigenvalues
        # sit on the imaginary axis, which rounding splits across both halves
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NoStabilizingSolution):
            solve_care(A, np.zeros((2, 1)), np.eye(2), np.array([[1.0]]))


class TestFilter:
    def test_step_response_dc(self):
        f = SecondOrderFilter(0.71, 16.52, 0.001)
        y = 0.0
        for _ in range(20000):
            y = f.step(1.0)
        assert abs(y - 1.0) < 1e-6

    def test_zero_in_zero_out(self):
        f = SecondOrderFilter(0.8, 10.0, 0.001)
        assert f.step(0.0) == 0.0

    def test_sine_gain_at_corner(self):
        zeta, omega, dt = 0.71, 16.52, 0.001
        f = SecondOrderFilter(zeta, omega, dt)
        t = np.arange(0, 20.0, dt)
        u = np.sin(omega * t)
        y = np.array([f.step(ui) for ui in u])
        tail = y[len(y) // 2:]
        gain = (np.max(tail) - np.min(tail)) / 2.0
        assert abs(gain - 1.0 / (2.0 * zeta)) < 0.02 * (1.0 / (2.0 * zeta))

    def test_discrete_matches_continuous_magnitude(self):
        zeta, omega, dt = 0.8, 10.0, 0.001
        for w in [1.0, 5.0, 10.0, 50.0, np.pi / (2 * dt)]:
            # |H(jw)| of the continuous-time filter w0^2 / (s^2 + 2 zeta w0 s + w0^2)
            want = omega ** 2 / abs(complex(omega ** 2 - w ** 2, 2.0 * zeta * omega * w))
            t = np.arange(0, 30.0, dt)
            g = SecondOrderFilter(zeta, omega, dt)
            y = np.array([g.step(np.sin(w * ti)) for ti in t])
            tail = y[int(0.7 * len(y)):]
            gain = (np.max(tail) - np.min(tail)) / 2.0
            assert abs(gain - want) < 0.02 * max(want, 1e-3)

    def test_vector_channels(self):
        f = SecondOrderFilter(0.71, 16.52, 0.001, channels=3)
        g = SecondOrderFilter(0.71, 16.52, 0.001)
        x = np.array([1.0, -2.0, 0.5])
        for _ in range(100):
            yv = f.step(x)
        for _ in range(100):
            ys = g.step(1.0)
        np.testing.assert_allclose(yv[0], ys, atol=1e-12)
        np.testing.assert_allclose(yv[1], -2.0 * ys, atol=1e-12)

    def test_bad_sampling(self):
        with pytest.raises(BadSampling):
            SecondOrderFilter(0.7, 2000.0, 0.001)


def repeated_ticks(bm, x0, U, k):
    """Block starts, block outputs and final state of U's steps, one tick(k) product per
    block and a tick(r) product for a last block of r < k steps."""
    ns, nu = bm.Bd.shape
    x, starts, outs = x0, [], []
    for j in range(0, len(U), k):
        r = min(k, len(U) - j)
        starts.append(x)
        res = bm.tick(r) @ np.concatenate([x, U[j:j + r].reshape((r * nu,) + x0.shape[1:])])
        x = res[:ns]
        outs.append(res[ns:])
    return np.array(starts), outs, x


class TestBlockMapLifted:
    @pytest.mark.parametrize("k, n, channels", [
        (1, 9, ()), (4, 40, ()), (15, 137, ()), (15, 9, ()), (3, 31, (3,)), (15, 100, (2,)),
        (6, 6, (4,)), (7, 50, (1,)),
    ])
    def test_lifted_matches_repeated_ticks(self, k, n, channels):
        # random stable systems, several block lengths and channel counts, inputs
        # ending in a remainder block (n % k != 0) or not
        rng = np.random.default_rng(100 * k + n)
        ns, nu, p = 6, 3, 2
        A = rng.standard_normal((ns, ns))
        A *= 0.97 / np.abs(np.linalg.eigvals(A)).max()
        bm = BlockMap(A, rng.standard_normal((ns, nu)), rng.standard_normal((p, ns)),
                      rng.standard_normal((p, nu)))
        x0 = rng.standard_normal((ns,) + channels)
        U = rng.standard_normal((n, nu) + channels)
        S, Y, x_n = bm.lifted(x0, U, k)
        starts, outs, x = repeated_ticks(bm, x0, U, k)
        assert S.shape == starts.shape and Y.shape == (len(outs), k * p) + channels
        assert np.abs(S - starts).max() <= 1e-12 * np.abs(starts).max()
        assert np.abs(x_n - x).max() <= 1e-12 * np.abs(x).max()
        peak = max(np.abs(o).max() for o in outs)
        for got, want in zip(Y, outs):
            # a remainder block's outputs are its first r steps
            assert np.abs(got[:len(want)] - want).max() <= 1e-12 * peak
        # rows picks output rows of the block, in the order given
        rows = rng.permutation(k * p)[:max(1, k)]
        assert np.abs(bm.lifted(x0, U, k, rows)[1] - Y[:, rows]).max() <= 1e-12 * peak

    @pytest.mark.parametrize("channels", [(), (3,)], ids=["1-channel", "3-channels"])
    def test_block_starts_are_the_recursion_bit_for_bit(self, channels):
        # with tick(k) = [[Ā, B̄], [C̄, D̄]], the block starts are s_{j+1} =
        # s_j Āᵀ + F_j, F_j the forcing rows of every block taken as one
        # product: formed here one block at a time, the same bits
        rng = np.random.default_rng(5)
        ns, nu, p, k, n = 6, 3, 2, 15, 135
        A = rng.standard_normal((ns, ns))
        A *= 0.97 / np.abs(np.linalg.eigvals(A)).max()
        bm = BlockMap(A, rng.standard_normal((ns, nu)), rng.standard_normal((p, ns)),
                      rng.standard_normal((p, nu)))
        x0 = rng.standard_normal((ns,) + channels)
        U = rng.standard_normal((n, nu) + channels)
        S, _, x_n = bm.lifted(x0, U, k)
        M, c, N = bm.tick(k), int(np.prod(channels)), n // k
        W = U.reshape(N, k * nu, c).transpose(0, 2, 1).reshape(N * c, k * nu)
        F = (W @ M[:ns, ns:].T).reshape(N, c, ns)
        At, s = M[:ns, :ns].T, x0.reshape(ns, c).T
        for j in range(N):
            assert S[j].tobytes() == s.T.reshape((ns,) + channels).tobytes(), j
            s = s @ At + F[j]
        assert x_n.tobytes() == s.T.reshape((ns,) + channels).tobytes()


class TestIntegrateStep:
    def test_exponential(self):
        x = np.array([1.0])
        for _ in range(10):
            x = integrate_step(lambda s, u: -s, x, None, 0.1)
        assert abs(x[0] - np.exp(-1.0)) < 1e-6

    def test_zero_field(self):
        x = np.array([3.0, -1.0])
        np.testing.assert_array_equal(integrate_step(lambda s, u: np.zeros_like(s), x, None, 0.5), x)

    def test_ramp(self):
        x = np.array([1.0])
        x = integrate_step(lambda s, u: np.array([u]), x, 2.0, 0.5)
        assert abs(x[0] - 2.0) < 1e-14

    def test_order_four(self):
        def run(dt, steps):
            x = np.array([1.0])
            for _ in range(steps):
                x = integrate_step(lambda s, u: -s, x, None, dt)
            return abs(x[0] - np.exp(-1.0))

        e1 = run(0.1, 10)
        e2 = run(0.05, 20)
        assert 10.0 < e1 / e2 < 22.0


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=9), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_pseudo_inverse_property(p, extra, seed):
    m = p + extra + 1
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((p, m))
    if np.linalg.matrix_rank(B) < p or np.linalg.cond(B @ B.T) > 1e8:
        return
    np.testing.assert_allclose(B @ pseudo_inverse(B), np.eye(p), atol=1e-9)
