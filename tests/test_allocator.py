import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular
from scipy.optimize import nnls

from morphwing import allocator, harness, indi
from morphwing.allocator import (
    ActiveSetQP,
    AllocationProblem,
    AllocationResult,
    CompiledQP,
    allocate_qp,
    allocate_qp_virtual,
)
from morphwing.constraints import InputLimits, assemble, rate_box
from morphwing.errors import DimensionMismatch
from morphwing.numerics import pseudo_inverse
from morphwing.shapes import build_basis

LOCS12 = np.linspace(0.15, 1.8, 12)


def make_problem(m=4, seed=0, sigma=1e-3, target=None, u0=None,
                 u_lim=30.0, rate=80.0, adj=10.0, dt=0.015, B=None):
    rng = np.random.default_rng(seed)
    if B is None:
        B = rng.uniform(0.5, 2.0, size=(2, m))
    if target is None:
        target = rng.uniform(-3.0, 3.0, size=2)
    if u0 is None:
        u0 = np.zeros(m)
    lim = InputLimits(
        u_min=-u_lim * np.ones(m), u_max=u_lim * np.ones(m),
        rate_min=-rate * np.ones(m), rate_max=rate * np.ones(m),
        u_adj=adj * np.ones(m - 1), dt=dt,
    )
    return AllocationProblem(B_eff=B, target=np.asarray(target, dtype=float), sigma=sigma, u0=u0,
                             ineq=assemble(lim, u0))


def nnls_objective(problem, B=None, A=None):
    """Exact reference optimum of the same QP, as (objective value, x).

    The QP min 0.5 x'Hx + g'x s.t. A x <= b is posed as a least-distance
    program: with H = L L' and z = L'x + L^-1 g it is min |z| s.t.
    G z >= h, G = -A L'^-1, h = -b - A H^-1 g.  Non-negative least squares
    on [G'; h'] w ~ e_last solves that exactly in finitely many steps
    (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23), by
    an algorithm that shares nothing with the active-set solver under test.
    """
    B = problem.B_eff if B is None else B
    A = problem.ineq.A if A is None else A
    H = B.T @ B + problem.sigma * np.eye(B.shape[1])
    x = least_distance_solve(H, -B.T @ problem.target, A, problem.ineq.b)
    resid = B @ x - problem.target
    return 0.5 * resid @ resid + 0.5 * problem.sigma * x @ x, x


def least_distance_solve(H, g, A, b):
    """The minimizer of 0.5 x'Hx + g'x s.t. A x <= b, by NNLS (see nnls_objective).

    NNLS's own point is good to about 1.5e-9 on ill-conditioned virtual
    problems, so it is refined by one equality-constrained solve on the
    rows that NNLS holds active (a positive weight): the KKT point of
    that working set."""
    L = np.linalg.cholesky(H)
    G = -solve_triangular(L, A.T, lower=True).T
    h = -b - A @ cho_solve((L, True), g)
    E = np.vstack([G.T, h[None, :]])
    f = np.zeros(H.shape[0] + 1)
    f[-1] = 1.0
    w, _ = nnls(E, f, maxiter=50 * E.shape[1])
    r = E @ w - f
    assert abs(r[-1]) > 1e-14, "least-distance program infeasible"
    active = np.flatnonzero(w > 0.0)
    k = active.size
    KKT = np.block([[H, A[active].T], [A[active], np.zeros((k, k))]])
    return np.linalg.solve(KKT, np.concatenate([-g, b[active]]))[:g.size]


def qp_objective(problem, x):
    resid = problem.B_eff @ x - problem.target
    return 0.5 * resid @ resid + 0.5 * problem.sigma * x @ x


class TestPseudoInverseRoute:
    """The "pi" route's unconstrained increment B+ target."""

    def test_frozen(self):
        B = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        np.testing.assert_allclose(
            pseudo_inverse(B) @ np.array([1.0, 0.0]),
            np.array([2.0, -1.0, 1.0]) / 3.0, atol=1e-12,
        )

    def test_zero_target(self):
        B = np.random.default_rng(0).standard_normal((2, 5))
        np.testing.assert_allclose(pseudo_inverse(B) @ np.zeros(2), np.zeros(5))

    def test_square(self):
        B = np.array([[2.0, 1.0], [0.0, 1.0]])
        t = np.array([1.0, 3.0])
        np.testing.assert_allclose(pseudo_inverse(B) @ t, np.linalg.solve(B, t), atol=1e-12)

    def test_exactness(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((2, 12))
        t = rng.standard_normal(2)
        du = pseudo_inverse(B) @ t
        assert np.linalg.norm(B @ du - t) < 1e-10


class TestQP:
    def test_unconstrained_matches_pinv_small_sigma(self):
        problem = make_problem(m=4, seed=1, sigma=1e-8, target=[0.5, -0.3])
        res = allocate_qp(problem)
        assert res.status == "Optimal"
        np.testing.assert_allclose(
            res.delta_u, pseudo_inverse(problem.B_eff) @ problem.target, atol=1e-5
        )

    def test_origin_optimal(self):
        problem = make_problem(m=4, seed=2, target=[0.0, 0.0])
        res = allocate_qp(problem)
        assert res.status == "Optimal"
        np.testing.assert_allclose(res.delta_u, 0.0, atol=1e-12)
        assert res.iterations == 1

    def test_eps_ca_recomputed(self):
        problem = make_problem(m=5, seed=3)
        res = allocate_qp(problem)
        np.testing.assert_allclose(
            res.eps_ca, problem.B_eff @ res.delta_u - problem.target, atol=0.0
        )

    def test_feasible_even_when_saturated(self):
        # big target forces constraint activity
        problem = make_problem(m=4, seed=5, target=[500.0, -400.0])
        res = allocate_qp(problem)
        assert np.all(problem.ineq.A @ res.delta_u <= problem.ineq.b + 1e-9)
        assert len(res.active_set) > 0

    def test_oracle_500_random(self):
        rng = np.random.default_rng(77)
        for k in range(500):
            m = int(rng.integers(2, 7))
            problem = make_problem(
                m=m, seed=int(rng.integers(0, 2**31)),
                sigma=float(rng.uniform(1e-4, 1e-2)),
                target=rng.uniform(-60.0, 60.0, size=2),
                u0=rng.uniform(-5.0, 5.0, size=m),
                dt=float(rng.uniform(0.005, 0.03)),
            )
            res = allocate_qp(problem)
            assert np.all(problem.ineq.A @ res.delta_u <= problem.ineq.b + 1e-9), k
            obj = qp_objective(problem, res.delta_u)
            ref, _ = nnls_objective(problem)
            assert obj <= ref + 1e-6, (k, obj, ref)

    def test_sigma_monotonicity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = int(rng.integers(3, 7))
            seed = int(rng.integers(0, 2**31))
            target = rng.uniform(-40.0, 40.0, size=2)
            norms = []
            for sigma in (1e-2, 1e-3, 1e-4):
                res = allocate_qp(make_problem(m=m, seed=seed, sigma=sigma, target=target))
                norms.append(np.linalg.norm(res.eps_ca))
            assert norms[0] >= norms[1] - 1e-9 >= norms[2] - 2e-9

    def test_warm_start_consistency(self):
        problem = make_problem(m=5, seed=9, target=[300.0, -250.0])
        cold = allocate_qp(problem)
        warm = allocate_qp(problem, warm_start=cold.active_set)
        assert abs(qp_objective(problem, cold.delta_u) - qp_objective(problem, warm.delta_u)) < 1e-9
        assert warm.iterations <= cold.iterations

    def test_kkt_conditions(self):
        problem = make_problem(m=4, seed=12, target=[200.0, 100.0])
        res = allocate_qp(problem)
        # stationarity with multipliers recovered from the active rows
        H = problem.B_eff.T @ problem.B_eff + problem.sigma * np.eye(4)
        g = -problem.B_eff.T @ problem.target
        grad = H @ res.delta_u + g
        if res.active_set:
            Aw = problem.ineq.A[list(res.active_set)]
            lam, *_ = np.linalg.lstsq(Aw.T, -grad, rcond=None)
            assert np.all(lam >= -1e-8)
            np.testing.assert_allclose(Aw.T @ lam, -grad, atol=1e-8)
        else:
            np.testing.assert_allclose(grad, 0.0, atol=1e-8)


class TestVirtual:
    def test_identity_phi_matches_qp(self):
        problem = make_problem(m=4, seed=21, target=[5.0, -2.0])
        res_qp = allocate_qp(problem)
        res_v = allocate_qp_virtual(problem, np.eye(4))
        np.testing.assert_allclose(res_v.delta_u, res_qp.delta_u, atol=1e-9)

    def test_dimension_reduction(self):
        basis = build_basis(LOCS12, 1.8, 5)
        problem = make_problem(m=12, seed=22, target=[10.0, -8.0])
        res = allocate_qp_virtual(problem, basis.Phi)
        assert res.delta_u_virtual.size == 5
        assert res.delta_u.size == 12

    def test_original_inequality_satisfied(self):
        basis = build_basis(LOCS12, 1.8, 5)
        rng = np.random.default_rng(55)
        for _ in range(50):
            problem = make_problem(
                m=12, seed=int(rng.integers(0, 2**31)),
                target=rng.uniform(-200.0, 200.0, size=2),
                u0=rng.uniform(-3.0, 3.0, size=12),
            )
            res = allocate_qp_virtual(problem, basis.Phi)
            assert np.all(problem.ineq.A @ res.delta_u <= problem.ineq.b + 1e-9)

    def test_matches_oracle_in_virtual_space(self):
        basis = build_basis(LOCS12, 1.8, 5)
        rng = np.random.default_rng(60)
        for _ in range(50):
            problem = make_problem(
                m=12, seed=int(rng.integers(0, 2**31)),
                target=rng.uniform(-100.0, 100.0, size=2),
            )
            res = allocate_qp_virtual(problem, basis.Phi)
            B_v = problem.B_eff @ basis.Phi
            A_v = problem.ineq.A @ basis.Phi
            ref, _ = nnls_objective(problem, B=B_v, A=A_v)
            x = res.delta_u_virtual
            resid = B_v @ x - problem.target
            obj = 0.5 * resid @ resid + 0.5 * problem.sigma * x @ x
            assert obj <= ref + 1e-6

    def test_smoothness_of_increment(self):
        basis = build_basis(LOCS12, 1.8, 5)
        problem = make_problem(m=12, seed=70, target=[50.0, -30.0])
        res = allocate_qp_virtual(problem, basis.Phi)
        xc = 2.0 * basis.xs_norm - 1.0
        coeffs = np.polyfit(xc, res.delta_u, 4)
        assert np.max(np.abs(np.polyval(coeffs, xc) - res.delta_u)) < 1e-10


def dual_qp(H, g, A, b):
    """The dual solver's inputs for min 0.5 x'Hx + g'x s.t. A x <= b, formed
    directly: A, b, R = H^-1 A', P = A R, the unconstrained minimizer x0 and
    its violations A x0 - b."""
    R = np.linalg.solve(H, A.T)
    x0 = -np.linalg.solve(H, g)
    return A, b, R, A @ R, x0, A @ x0 - b


def test_most_violated_tie_adds_lowest_row():
    # the unconstrained minimizer is x = (1, 0); rows 2 and 3 are the same
    # most violated limit x0 <= 0.5, row 0 a looser one, row 1 never
    # approached.  Row 2 joins; its twin is then tight and stays out
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    b = np.array([0.8, 5.0, 0.5, 0.5])
    x, iterations, active, status = ActiveSetQP().solve(*dual_qp(np.eye(2), np.array([-1.0, 0.0]),
                                                                 A, b))
    assert status == "Optimal"
    assert active == (2,)
    assert iterations == 2
    np.testing.assert_array_equal(x, [0.5, 0.0])


def test_iteration_cap_returns_feasible(monkeypatch):
    problem = make_problem(m=6, seed=90, target=[400.0, -350.0])
    assert allocate_qp(problem).iterations > 2
    H, g, A, b = direct_qp(problem, np.eye(6))
    monkeypatch.setattr(allocator, "_ITER_CAP", 2)
    x, _, _, status = ActiveSetQP().solve(*dual_qp(H, g, A, b))
    assert status == "IterationCap"
    assert np.all(A @ x <= b + 1e-9)


def test_iteration_cap_steps_back_to_the_longest_feasible_point(monkeypatch):
    # x0 = (4, 4) violates x0 <= 1 by 3 and x1 <= 2 by 2.  The first step
    # adds row 0 and reaches (1, 4); capped there, the solver returns the
    # longest feasible point of the segment from 0 to (1, 4): (0.5, 2)
    A, b = np.eye(2), np.array([1.0, 2.0])
    args = dual_qp(np.eye(2), np.array([-4.0, -4.0]), A, b)
    monkeypatch.setattr(allocator, "_ITER_CAP", 2)
    x, iterations, active, status = ActiveSetQP().solve(*args)
    assert status == "IterationCap" and iterations == 2 and active == (0,)
    np.testing.assert_allclose(x, [0.5, 2.0], rtol=1e-15, atol=0.0)
    assert np.all(A @ x <= b)
    monkeypatch.setattr(allocator, "_ITER_CAP", 3)
    x, iterations, active, status = ActiveSetQP().solve(*args)
    assert status == "Optimal" and iterations == 3 and active == (0, 1)
    np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-15, atol=0.0)


def test_warm_start_with_a_negative_multiplier_starts_cold():
    # three limits x_i <= 1; x0 = (3, 2, -4) violates rows 0 and 1
    A, b = np.eye(3), np.ones(3)
    args = dual_qp(np.eye(3), np.array([-3.0, -2.0, 4.0]), A, b)
    cold = ActiveSetQP().solve(*args)
    assert cold[1:] == (3, (0, 1), "Optimal")
    np.testing.assert_allclose(cold[0], [1.0, 1.0, -4.0], rtol=0.0, atol=1e-15)
    # the right warm set is taken at once: x0, the warm point, done
    warm = ActiveSetQP().solve(*args, warm_start=(0, 1))
    assert warm[1:] == (2, (0, 1), "Optimal")
    np.testing.assert_allclose(warm[0], cold[0], rtol=0.0, atol=1e-15)
    # row 2's multiplier would be x0_2 - 1 = -5 < 0: the start is cold and
    # reaches the same optimum in as many iterations as a cold solve
    for warm_start in ((2,), (0, 2), (1, 2)):
        x, iterations, active, status = ActiveSetQP().solve(*args, warm_start=warm_start)
        assert (iterations, active, status) == cold[1:], warm_start
        np.testing.assert_allclose(x, cold[0], rtol=0.0, atol=1e-15)


def test_identical_position_and_rate_rows_do_not_cycle():
    # every servo sits exactly one rate step above its lower limit, so each
    # lower position row (12 + i) and lower rate row (58 + i) are the same
    # row with the same bound.  Once one of a pair is on its limit the other
    # is tight to rounding: it must not join (a singular working set) nor
    # trade places with its twin.  Servo space and virtual (q = 5)
    basis = build_basis(LOCS12, 1.8, 5)
    for seed in range(6):
        for target in ([-150.0, -430.0], [380.0, -620.0], [-300.0, 200.0]):
            problem = make_problem(m=12, seed=seed, target=target, u0=np.full(12, -29.0),
                                   u_lim=30.0, rate=64.0, dt=0.015625)
            A, b = problem.ineq.A, problem.ineq.b
            assert np.array_equal(A[12:24], A[58:70]) and np.all(b[12:24] == 1.0)
            assert np.array_equal(b[12:24], b[58:70])
            for Phi in (np.eye(12), basis.Phi):
                res = allocate_qp_virtual(problem, Phi)
                assert res.status == "Optimal", (seed, target)
                assert 1 < res.iterations < allocator._ITER_CAP, (seed, target)
                assert not any(i in res.active_set and i + 46 in res.active_set
                               for i in range(12, 24)), (seed, target, res.active_set)
                assert np.all(A @ res.delta_u <= b + 1e-9)
                H, g, A_x, _ = direct_qp(problem, Phi)
                x, x_nnls = res.delta_u_virtual, least_distance_solve(H, g, A_x, b)
                f_ref = 0.5 * x_nnls @ H @ x_nnls + g @ x_nnls
                assert 0.5 * x @ H @ x + g @ x - f_ref <= 1e-7 * (1.0 + abs(f_ref)), (seed, target)


def test_binding_tick_reads_two_or_more_iterations():
    # a tick with a violated row reads at least 2 iterations, cold or from
    # a warm working set that is optimal at once; a free tick reads 1
    problem = make_problem(m=5, seed=9, target=[300.0, -250.0])
    cold = allocate_qp(problem)
    warm = allocate_qp(problem, warm_start=cold.active_set)
    assert cold.active_set and cold.iterations >= 2
    assert warm.active_set == cold.active_set and warm.iterations == 2
    assert allocate_qp(make_problem(m=5, seed=9, target=[0.1, -0.1])).iterations == 1


def direct_qp(problem, Phi):
    """H, g, A Phi and b of the problem's QP formed per call: the uncompiled
    reference that CompiledQP is checked against."""
    B = problem.B_eff @ Phi
    H = B.T @ B + problem.sigma * np.eye(Phi.shape[1])
    return H, -B.T @ problem.target, problem.ineq.A @ Phi, problem.ineq.b


def pulled(g, problem, Phi, pull):
    """g with a pull toward the servo-space increment pull, projected through
    Phi by least squares: a general gradient, which the compiled QP does
    not take but the dual solver must."""
    return g - problem.sigma * np.linalg.lstsq(Phi, pull, rcond=None)[0]


def test_compiled_feasibility_check_is_exact():
    # the unconstrained minimizer overshoots a rate row by about 1e-10: no
    # tolerance may accept it, so the tick goes to the active-set solver
    problem = make_problem(m=2, B=np.eye(2), sigma=1e-3, target=[0.0, 0.0])
    compiled = CompiledQP(problem.B_eff, 1e-3, problem.ineq.A)
    problem.target = np.array([(1.2 + 1e-10) * (1.0 + 1e-3), 0.0])
    over = np.max(problem.ineq.A @ (compiled.M @ problem.target) - problem.ineq.b)
    assert 0.0 < over < 1e-9
    res = allocate_qp(problem, compiled=compiled)
    assert res.active_set and res.iterations > 1
    assert np.all(problem.ineq.A @ res.delta_u <= problem.ineq.b)

def test_problem_converts_what_is_not_a_float_array_and_checks_lengths():
    # float arrays are taken as they are; lists, int and float32 arrays and a
    # one-row B are converted to float arrays, and solve alike.  A target
    # whose length is not B's row count is refused, converted or not
    ineq, u0 = make_problem().ineq, np.zeros(4)
    B, t = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 0.5, 0.5]]), np.array([1.0, -1.0])
    kept = AllocationProblem(B_eff=B, target=t, sigma=1e-3, u0=u0, ineq=ineq)
    assert kept.B_eff is B and kept.target is t and kept.u0 is u0
    for B_in, t_in, u0_in in ((B.tolist(), [1, -1], [0, 0, 0, 0]),
                              (B.astype(np.float32), t.astype(int), u0.astype(np.float32))):
        made = AllocationProblem(B_eff=B_in, target=t_in, sigma=1e-3, u0=u0_in, ineq=ineq)
        for got, want in ((made.B_eff, B), (made.target, t), (made.u0, u0)):
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert np.array_equal(got, want)
        assert allocate_qp(made).delta_u.tobytes() == allocate_qp(kept).delta_u.tobytes()
    row = AllocationProblem(B_eff=[1, 2, 3, 4], target=[2.0], sigma=1e-3, u0=u0, ineq=ineq)
    assert row.B_eff.shape == (1, 4) and row.B_eff.dtype == np.float64
    for B_in, t_in in ((B, np.ones(3)), (B.tolist(), [1.0, 2.0, 3.0]), ([1.0] * 4, t)):
        with pytest.raises(DimensionMismatch):
            AllocationProblem(B_eff=B_in, target=t_in, sigma=1e-3, u0=u0, ineq=ineq)


def test_weighted_form_read_off_the_problem_is_the_compiled_qp():
    # H and g formed from the problem's W1, W2, u_star and u0 as the
    # benchmark's oracle forms them (benchmark/reference.py check_allocation),
    # servo space and virtual (q = 2..12): H is the compiled H, and g is
    # -H M target, the gradient whose minimizer the compiled QP takes
    rng = np.random.default_rng(13)
    for k in range(60):
        virtual = k % 2
        m = 12 if virtual else int(rng.integers(2, 8))
        Phi = build_basis(LOCS12, 1.8, int(rng.integers(2, 13))).Phi if virtual else None
        problem = make_problem(
            m=m, seed=int(rng.integers(0, 2**31)), sigma=float(rng.uniform(1e-4, 1e-2)),
            target=rng.uniform(-1.0, 1.0, size=2) * 10.0 ** rng.uniform(-2.0, 2.5),
            u0=rng.uniform(-5.0, 5.0, size=m))
        B, du_pref, W2 = problem.B_eff, problem.u_star - problem.u0, problem.W2
        if virtual:
            B = B @ Phi
            du_pref = np.linalg.lstsq(Phi, du_pref, rcond=None)[0]
            W2 = W2 if W2.shape[0] == Phi.shape[1] else np.eye(Phi.shape[1])
        H = B.T @ problem.W1 @ B + problem.sigma * W2
        g = -B.T @ problem.W1 @ problem.target - problem.sigma * W2 @ du_pref
        compiled = CompiledQP(problem.B_eff, problem.sigma, problem.ineq.A, Phi)
        np.testing.assert_array_equal(compiled.H, H)
        np.testing.assert_allclose(compiled.H @ compiled.M @ problem.target, -g, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(g)))


def random_case(rng, k):
    """Case k of a stream of random problems: servo-space (even k) or
    virtual, on the full inequality or the rate box, every third without
    a pull.  Returns (problem, its CompiledQP built from the problem's own
    rows, Phi, virtual, box, pull: a servo-space increment or None)."""
    virtual, box = k % 2, (k // 2) % 2
    m = 12 if virtual else int(rng.integers(2, 8))
    Phi = build_basis(LOCS12, 1.8, int(rng.integers(2, 7))).Phi if virtual else np.eye(m)
    u0 = rng.uniform(-5.0, 5.0, size=m)
    pull = rng.uniform(-20.0, 20.0, size=m) if k % 3 else None
    problem = make_problem(
        m=m, seed=int(rng.integers(0, 2**31)), sigma=float(rng.uniform(1e-4, 1e-2)),
        target=rng.uniform(-1.0, 1.0, size=2) * 10.0 ** rng.uniform(-2.0, 2.5),
        u0=u0, dt=float(rng.uniform(0.005, 0.03)),
    )
    if box:
        problem.ineq = rate_box(InputLimits(
            u_min=-30.0 * np.ones(m), u_max=30.0 * np.ones(m), rate_min=-80.0 * np.ones(m),
            rate_max=80.0 * np.ones(m), u_adj=10.0 * np.ones(m - 1), dt=0.015))
    compiled = CompiledQP(problem.B_eff, problem.sigma, problem.ineq.A, Phi if virtual else None)
    return problem, compiled, Phi, virtual, box, pull


def test_compiled_solve_matches_cold_active_set_and_nnls():
    # random servo-space and virtual problems, on the full inequality and on
    # the rate box, each compiled from the rows it is solved on.  The compiled
    # QP equals the one formed directly; its solve (one product on a
    # non-binding tick) equals the refined NNLS optimum of that QP within
    # 1e-9: the KKT point of the rows NNLS holds active, solved cold.  NNLS's
    # own point would not do: on case 233 it is 1.5e-9 off a limit and
    # 1.6e-9 from the optimum.  A case with a pull has a general gradient:
    # the dual solver takes that QP directly, from its unconstrained minimizer
    rng = np.random.default_rng(2024)
    kinds = dict.fromkeys([(v, box, bind) for v in (0, 1) for box in (0, 1) for bind in (0, 1)], 0)
    for k in range(400):
        problem, compiled, Phi, virtual, box, pull = random_case(rng, k)
        H, g, A, b = direct_qp(problem, Phi)
        np.testing.assert_allclose(compiled.H, H, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(compiled.A, A, rtol=0.0, atol=1e-14)

        if pull is not None:
            g = pulled(g, problem, Phi, pull)
            A, b, R, P, x0, v = dual_qp(H, g, A, b)
            x, iterations, active, status = ((x0, 1, (), "Optimal") if (v <= 0.0).all()
                                             else ActiveSetQP().solve(A, b, R, P, x0, v))
        else:
            np.testing.assert_allclose(compiled.H @ compiled.M @ problem.target, -g, rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(g)))
            res = (allocate_qp_virtual(problem, Phi, compiled=compiled) if virtual
                   else allocate_qp(problem, compiled=compiled))
            x = res.delta_u_virtual if virtual else res.delta_u
            iterations, active, status = res.iterations, res.active_set, res.status
        x_ref = least_distance_solve(H, g, A, b)
        assert status == "Optimal", k
        assert np.max(np.abs(x - x_ref)) <= 1e-9, (k, np.max(np.abs(x - x_ref)))
        # a problem binds when its unconstrained minimizer is infeasible
        assert bool(active) == bool(np.any(A @ np.linalg.solve(H, -g) > b)), k
        assert iterations == 1 if not active else iterations > 1, k
        assert np.all(A @ x <= b + 1e-9), k
        f_ref = 0.5 * x_ref @ H @ x_ref + g @ x_ref
        assert 0.5 * x @ H @ x + g @ x - f_ref <= 1e-7 * (1.0 + abs(f_ref)), k
        kinds[virtual, box, bool(active)] += 1
    # every combination of route, inequality and binding is exercised
    assert min(kinds.values()) >= 10, kinds


def test_badly_scaled_vertex_reaches_the_optimum():
    # case 5 of the stream above (virtual, q = 5, a pull of up to 20 deg):
    # a vertex with five working rows, on which the primal method once
    # cycled to its cap
    rng = np.random.default_rng(2024)
    for k in range(6):
        problem, _, Phi, _, _, pull = random_case(rng, k)
    H, g, A, b = direct_qp(problem, Phi)
    g = pulled(g, problem, Phi, pull)
    x, iterations, active, status = ActiveSetQP().solve(*dual_qp(H, g, A, b))
    assert status == "Optimal"
    assert 1 < iterations < allocator._ITER_CAP
    assert len(active) == 5
    assert np.all(A @ x <= b + 1e-9)
    x_nnls = least_distance_solve(H, g, A, b)
    gap = (0.5 * x @ H @ x + g @ x) - (0.5 * x_nnls @ H @ x_nnls + g @ x_nnls)
    assert abs(gap) <= 1e-6


@pytest.mark.parametrize("controller, binding_ticks", [("indi-qp-v", 108), ("indi-qp", 116)])
def test_controller_commands_match_cold_uncompiled_resolve(monkeypatch, controller,
                                                           binding_ticks):
    # the fy+35% harsh run (noise, fault, backlash): on every tick the
    # compiled, warm-started allocation is within 1e-9 deg of the NNLS
    # optimum of the same problem's QP formed directly; a tick binds when
    # that QP's unconstrained minimizer is infeasible, and as many bind
    cfg = harness.mla_config("fy+35%")
    cfg.controller = controller
    cfg.noise.enabled = cfg.fault.enabled = cfg.actuators.backlash = True
    captured = []
    for name in ("allocate_qp", "allocate_qp_virtual"):
        def keep(problem, *args, _alloc=getattr(indi, name), **kwargs):
            res = _alloc(problem, *args, **kwargs)
            captured.append((problem, res))
            return res
        monkeypatch.setattr(indi, name, keep)
    log, _ = harness.run_scenario(cfg, pair_open_loop=False)
    assert len(captured) == log.t.size
    Phi = harness.build_basis(harness.build_model(cfg).locations, cfg.plant.half_span,
                              cfg.q).Phi if controller == "indi-qp-v" else np.eye(cfg.plant.m)
    worst = 0.0
    for problem, res in captured:
        H, g, A, b = direct_qp(problem, Phi)
        x = least_distance_solve(H, g, A, b)
        assert res.status == "Optimal"
        assert bool(res.active_set) == bool(np.any(A @ np.linalg.solve(H, -g) > b))
        assert res.iterations >= 2 if res.active_set else res.iterations == 1
        worst = max(worst, np.max(np.abs(Phi @ x - res.delta_u)))
    assert worst <= 1e-9, worst
    assert sum(bool(res.active_set) for _, res in captured) == binding_ticks
    assert int(log.sat_flags.sum()) == binding_ticks


@pytest.mark.parametrize("controller, binding_ticks", [("indi-qp", 26), ("indi-qp-v", 125)])
def test_tight_limits_hold_on_every_tick(controller, binding_ticks):
    # the fy+35% harsh run (noise, fault, backlash) against a rate limit of
    # 20 deg/s and odd adjacency limits of 4 deg: every tick meets its
    # position, rate and adjacent-module limits, and no solve reaches the cap
    cfg = harness.ScenarioConfig.from_dict({
        "controller": controller, "duration": 4.0,
        "command": {"profile": "fy+35%", "t_start": 1.0, "rate": 2.0},
        "gust": {"enabled": False}, "noise": {"enabled": True}, "fault": {"enabled": True},
        "actuators": {"backlash": True}, "limits": {"rate": 20, "adj_odd": 4}})
    log, _ = harness.run_scenario(cfg, pair_open_loop=False)
    lim, u, tol = harness.build_limits(cfg), log.u, 1e-9
    du = np.diff(u, axis=0, prepend=np.zeros((1, u.shape[1])))
    assert np.all(u <= lim.u_max + tol) and np.all(u >= lim.u_min - tol)
    assert np.all(du <= lim.rate_max * lim.dt + tol)
    assert np.all(du >= lim.rate_min * lim.dt - tol)
    assert np.all(np.abs(np.diff(u, axis=1)) <= lim.u_adj + tol)
    assert int(log.sat_flags.sum()) == binding_ticks
    assert int(log.iterations.max()) < allocator._ITER_CAP


def test_deep_saturation_keeps_the_working_set_within_the_unknowns(monkeypatch):
    # a load reference far out of reach (1e5, no gust) pins qp-v's 5 shape
    # coefficients against more limit rows than 5: a 6th working row would
    # make the working set's matrix singular.  The run completes, no working
    # set holds more rows than x has entries, and every tick meets its limits
    cfg = harness.ScenarioConfig.from_dict({
        "duration": 1.0, "command": {"level": 1e5}, "gust": {"a_g": 0}})
    active = []

    def keep(problem, *args, _alloc=indi.allocate_qp_virtual, **kwargs):
        res = _alloc(problem, *args, **kwargs)
        active.append(len(res.active_set))
        return res
    monkeypatch.setattr(indi, "allocate_qp_virtual", keep)
    log, _ = harness.run_scenario(cfg, pair_open_loop=False)
    assert len(active) == log.t.size and max(active) == cfg.q
    lim, u, tol = harness.build_limits(cfg), log.u, 1e-9
    du = np.diff(u, axis=0, prepend=np.zeros((1, u.shape[1])))
    assert np.all(u <= lim.u_max + tol) and np.all(u >= lim.u_min - tol)
    assert np.all(np.abs(du) <= lim.rate_max * lim.dt + tol)
    assert np.all(np.abs(np.diff(u, axis=1)) <= lim.u_adj + tol)
    assert int(log.sat_flags.sum()) > 0


HARSH = {"duration": 20.0, "command": {"profile": "fy+35%", "t_start": 10.0, "rate": 2.0},
         "gust": {"enabled": False}, "noise": {"enabled": True}, "fault": {"enabled": True},
         "actuators": {"backlash": True}}
DEEP = {"duration": 2.0, "command": {"level": 1e5}, "gust": {"a_g": 0}}


def uncached_solve(qp, problem, warm_start):
    """CompiledQP.solve with a solver that forms every factor afresh."""
    b, x0 = problem.ineq.b, qp.M @ problem.target
    v = qp.A @ x0 - b
    if (v <= 0.0).all():
        return x0, 1, (), "Optimal"
    return ActiveSetQP().solve(qp.A, b, qp.R, qp.P, x0, v, warm_start)


@pytest.mark.parametrize("scenario, controller, cap, binding_ticks", [
    (HARSH, "indi-qp-v", None, 108), (HARSH, "indi-qp", None, 116),
    (DEEP, "indi-qp-v", None, 134), (DEEP, "indi-qp-v", 8, 134)],
    ids=["harsh-qp-v", "harsh-qp", "deep-qp-v", "deep-qp-v-cap-8"])
def test_cached_working_set_factors_change_no_solve(monkeypatch, scenario, controller, cap,
                                                    binding_ticks):
    # every solve of a run, on the factors its compiled QP kept, is bit for
    # bit the solve that forms them afresh: x, iterations, active set and
    # status.  The harsh runs meet a few working sets; the deep one (a load
    # reference out of reach) meets hundreds, some in more than one order.
    # At a cap of 8 the kept factors are dropped again and again; they never
    # outgrow the cap
    if cap is not None:
        monkeypatch.setattr(allocator, "_FACTOR_CAP", cap)
    solve, captured, sizes = CompiledQP.solve, [], []

    def keep(qp, problem, warm_start):
        res = solve(qp, problem, warm_start)
        captured.append((qp, problem, warm_start, res))
        sizes.append(len(qp.factors))
        return res
    monkeypatch.setattr(CompiledQP, "solve", keep)
    cfg = harness.ScenarioConfig.from_dict({"controller": controller, **scenario})
    log, _ = harness.run_scenario(cfg, pair_open_loop=False)
    assert len(captured) == log.t.size and int(log.sat_flags.sum()) == binding_ticks
    for k, (qp, problem, warm_start, res) in enumerate(captured):
        ref = uncached_solve(qp, problem, warm_start)
        assert res[0].tobytes() == ref[0].tobytes() and res[1:] == ref[1:], k
    assert max(sizes) <= allocator._FACTOR_CAP
    orders = list(captured[0][0].factors)   # each kept working set, in its order
    if cap is not None:
        assert any(b < a for a, b in zip(sizes, sizes[1:]))
    elif scenario is HARSH:   # the empty set and at most 5 others
        assert 1 < len(orders) <= 6, orders
    else:
        assert len({tuple(sorted(W)) for W in orders}) < len(orders)


def reference_seam(problem, Phi=None, warm_start=(), compiled=None):
    """allocate_qp_virtual one product at a time: M t, then A x0 for the exact
    test and the solver's v = A x0 - b, then du = Phi x and B du - t."""
    qp = compiled or CompiledQP(problem.B_eff, problem.sigma, problem.ineq.A, Phi)
    b, x0 = problem.ineq.b, qp.M @ problem.target
    v = qp.A @ x0 - b
    if (v <= 0.0).all():
        x, iterations, active, status = x0, 1, (), "Optimal"
    else:
        x, iterations, active, status = ActiveSetQP().solve(qp.A, b, qp.R, qp.P, x0, v,
                                                            warm_start)
    du = x if Phi is None else Phi @ x
    return AllocationResult(du, problem.B_eff @ du - problem.target, iterations, active, status,
                            None if Phi is None else x)


@pytest.mark.parametrize("controller, binding_ticks", [("indi-qp-v", 108), ("indi-qp", 116)])
def test_compiled_seam_is_the_one_product_at_a_time_seam(monkeypatch, controller,
                                                         binding_ticks):
    # the harsh run through the allocate_qp(_virtual) hook as compiled, and
    # again through the reference seam: every command, allocation error,
    # iteration count and binding flag is the same bit for bit.  The compiled
    # solve reads x0 and its test rows off one stacked product; fed to the
    # solver, those rows would move the binding ticks' commands
    cfg = harness.ScenarioConfig.from_dict({"controller": controller, **HARSH})
    runs = [harness.run_scenario(cfg, pair_open_loop=False)[0]]
    monkeypatch.setattr(indi, "allocate_qp", lambda problem, warm_start=(), compiled=None:
                        reference_seam(problem, None, warm_start, compiled))
    monkeypatch.setattr(indi, "allocate_qp_virtual", reference_seam)
    runs.append(harness.run_scenario(cfg, pair_open_loop=False)[0])
    for name in ("u", "eps_ca", "iterations", "sat_flags"):
        got, want = (np.ascontiguousarray(getattr(log, name)) for log in runs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert int(runs[0].sat_flags.sum()) == binding_ticks


@pytest.mark.parametrize("mode", ["qp-v", "qp"])
def test_rate_box_fallback_compiles_its_own_qp(monkeypatch, mode):
    # a huge reference binds the controller's compiled QP; then a relative
    # bound broken by 20 deg puts it on the rate box for several ticks.  Each
    # fallback tick starts cold, binds and reaches the NNLS optimum of the
    # rate-box QP within 1e-9, and leaves the compiled QP's kept factors as
    # they were.  The tick after the last fallback starts cold
    row = 2.8 * (1.0 - 0.1 * (LOCS12 / 1.8 - 0.5))
    B = np.vstack([row, row * LOCS12])
    lim = InputLimits(u_min=-30.0 * np.ones(12), u_max=30.0 * np.ones(12),
                      rate_min=-80.0 * np.ones(12), rate_max=80.0 * np.ones(12),
                      u_adj=np.array([55.0 if i % 2 == 0 else 10.0 for i in range(11)]),
                      dt=0.015)
    basis = build_basis(LOCS12, 1.8, 5)
    Phi = basis.Phi if mode == "qp-v" else np.eye(12)
    ctrl = indi.IndiController(B, np.diag([0.1, 0.1]), lim, 0.015, mode=mode, basis=basis,
                               lag_model=None)
    calls = []
    for name in ("allocate_qp", "allocate_qp_virtual"):
        def keep(problem, *args, _alloc=getattr(indi, name), **kwargs):
            res = _alloc(problem, *args, **kwargs)
            calls.append((problem, kwargs["warm_start"], res))
            return res
        monkeypatch.setattr(indi, name, keep)
    y_ref, box = np.array([5000.0, 0.0]), rate_box(lim)
    ctrl.step(np.zeros(2), y_ref)
    assert calls[-1][2].active_set
    kept = dict(ctrl._qp.factors)
    ctrl.u_prev = ctrl.u_prev.copy()
    ctrl.u_prev[1] += 20.0   # pair (1, 2) now breaks its 10-deg relative bound
    for _ in range(4):
        ctrl.step(np.zeros(2), y_ref)
        problem, warm_start, res = calls[-1]
        assert np.array_equal(problem.ineq.A, box.A) and np.array_equal(problem.ineq.b, box.b)
        assert warm_start == () and res.active_set and res.status == "Optimal"
        x = least_distance_solve(*direct_qp(problem, Phi))
        assert np.max(np.abs(Phi @ x - res.delta_u)) <= 1e-9
    assert ctrl._qp.factors.keys() == kept.keys()
    assert all(ctrl._qp.factors[W] is f for W, f in kept.items())
    ctrl.u_prev = np.zeros(12)
    ctrl.step(np.zeros(2), y_ref)
    problem, warm_start, res = calls[-1]
    assert problem.ineq.b.size == lim.A.shape[0] and warm_start == () and res.active_set
