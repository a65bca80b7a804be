import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular
from scipy.optimize import nnls

from morphwing import harness, indi
from morphwing.allocator import (
    ActiveSetQP,
    AllocationProblem,
    CompiledQP,
    allocate_pseudo_inverse,
    allocate_qp,
    allocate_qp_virtual,
)
from morphwing.constraints import InputLimits, assemble, rate_box
from morphwing.shapes import build_basis

LOCS12 = np.linspace(0.15, 1.8, 12)


def make_problem(m=4, seed=0, sigma=1e-3, target=None, u0=None, u_star=None,
                 u_lim=30.0, rate=80.0, adj=10.0, dt=0.015, B=None):
    rng = np.random.default_rng(seed)
    if B is None:
        B = rng.uniform(0.5, 2.0, size=(2, m))
    if target is None:
        target = rng.uniform(-3.0, 3.0, size=2)
    if u0 is None:
        u0 = np.zeros(m)
    if u_star is None:
        u_star = u0.copy()
    lim = InputLimits(
        u_min=-u_lim * np.ones(m), u_max=u_lim * np.ones(m),
        rate_min=-rate * np.ones(m), rate_max=rate * np.ones(m),
        u_adj=adj * np.ones(m - 1), dt=dt,
    )
    return AllocationProblem(
        B_eff=B, target=np.asarray(target, dtype=float), W1=np.eye(2), W2=np.eye(m),
        sigma=sigma, u0=u0, u_star=u_star, ineq=assemble(lim, u0),
    )


def nnls_objective(problem, B=None, A=None, n=None):
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
    n = B.shape[1] if n is None else n
    du_pref = problem.u_star - problem.u0
    if du_pref.size != n:
        du_pref = np.zeros(n)
    W2 = np.eye(n) if problem.W2.shape[0] != n else problem.W2
    H = B.T @ problem.W1 @ B + problem.sigma * W2
    g = -B.T @ problem.W1 @ problem.target - problem.sigma * W2 @ du_pref
    x = least_distance_solve(H, g, A, problem.ineq.b)
    resid = B @ x - problem.target
    pull = x - du_pref
    return 0.5 * resid @ problem.W1 @ resid + 0.5 * problem.sigma * pull @ W2 @ pull, x


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


def qp_objective(problem, x, n=None):
    n = problem.B_eff.shape[1] if n is None else n
    resid = problem.B_eff @ x - problem.target
    W2 = problem.W2 if problem.W2.shape[0] == x.size else np.eye(x.size)
    pull = x - (problem.u_star - problem.u0)
    return 0.5 * resid @ problem.W1 @ resid + 0.5 * problem.sigma * pull @ W2 @ pull


class TestPseudoInverseRoute:
    def test_frozen(self):
        B = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        np.testing.assert_allclose(
            allocate_pseudo_inverse(B, np.array([1.0, 0.0])),
            np.array([2.0, -1.0, 1.0]) / 3.0, atol=1e-12,
        )

    def test_zero_target(self):
        B = np.random.default_rng(0).standard_normal((2, 5))
        np.testing.assert_allclose(allocate_pseudo_inverse(B, np.zeros(2)), np.zeros(5))

    def test_square(self):
        B = np.array([[2.0, 1.0], [0.0, 1.0]])
        t = np.array([1.0, 3.0])
        np.testing.assert_allclose(allocate_pseudo_inverse(B, t), np.linalg.solve(B, t), atol=1e-12)

    def test_exactness(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((2, 12))
        t = rng.standard_normal(2)
        du = allocate_pseudo_inverse(B, t)
        assert np.linalg.norm(B @ du - t) < 1e-10


class TestQP:
    def test_unconstrained_matches_pinv_small_sigma(self):
        problem = make_problem(m=4, seed=1, sigma=1e-8, target=[0.5, -0.3])
        res = allocate_qp(problem)
        assert res.status == "Optimal"
        np.testing.assert_allclose(
            res.delta_u, allocate_pseudo_inverse(problem.B_eff, problem.target), atol=1e-5
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
        H = problem.B_eff.T @ problem.W1 @ problem.B_eff + problem.sigma * problem.W2
        g = -problem.B_eff.T @ problem.W1 @ problem.target
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
        res = allocate_qp_virtual(problem, basis)
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
            res = allocate_qp_virtual(problem, basis)
            assert np.all(problem.ineq.A @ res.delta_u <= problem.ineq.b + 1e-9)

    def test_matches_oracle_in_virtual_space(self):
        basis = build_basis(LOCS12, 1.8, 5)
        rng = np.random.default_rng(60)
        for _ in range(50):
            problem = make_problem(
                m=12, seed=int(rng.integers(0, 2**31)),
                target=rng.uniform(-100.0, 100.0, size=2),
            )
            res = allocate_qp_virtual(problem, basis)
            B_v = problem.B_eff @ basis.Phi
            A_v = problem.ineq.A @ basis.Phi
            ref, _ = nnls_objective(problem, B=B_v, A=A_v, n=5)
            x = res.delta_u_virtual
            resid = B_v @ x - problem.target
            obj = 0.5 * resid @ problem.W1 @ resid + 0.5 * problem.sigma * x @ x
            assert obj <= ref + 1e-6

    def test_smoothness_of_increment(self):
        basis = build_basis(LOCS12, 1.8, 5)
        problem = make_problem(m=12, seed=70, target=[50.0, -30.0])
        res = allocate_qp_virtual(problem, basis)
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


def test_iteration_cap_returns_feasible():
    problem = make_problem(m=6, seed=90, target=[400.0, -350.0])
    assert allocate_qp(problem).iterations > 2
    res = allocate_qp(problem, solver=ActiveSetQP(max_iter=2))
    assert res.status == "IterationCap"
    assert np.all(problem.ineq.A @ res.delta_u <= problem.ineq.b + 1e-9)


def test_iteration_cap_steps_back_to_the_longest_feasible_point():
    # x0 = (4, 4) violates x0 <= 1 by 3 and x1 <= 2 by 2.  The first step
    # adds row 0 and reaches (1, 4); capped there, the solver returns the
    # longest feasible point of the segment from 0 to (1, 4): (0.5, 2)
    A, b = np.eye(2), np.array([1.0, 2.0])
    args = dual_qp(np.eye(2), np.array([-4.0, -4.0]), A, b)
    x, iterations, active, status = ActiveSetQP(max_iter=2).solve(*args)
    assert status == "IterationCap" and iterations == 2 and active == (0,)
    np.testing.assert_allclose(x, [0.5, 2.0], rtol=1e-15, atol=0.0)
    assert np.all(A @ x <= b)
    x, iterations, active, status = ActiveSetQP(max_iter=3).solve(*args)
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
                assert 1 < res.iterations < ActiveSetQP().max_iter, (seed, target)
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
    """H, g, A Phi and b of the problem's QP (identity weights) formed per
    call, with the pull projected through Phi by least squares: the
    uncompiled reference that CompiledQP is checked against."""
    B = problem.B_eff @ Phi
    pull = np.linalg.lstsq(Phi, problem.u_star - problem.u0, rcond=None)[0]
    H = B.T @ B + problem.sigma * np.eye(Phi.shape[1])
    g = -B.T @ problem.target - problem.sigma * pull
    return H, g, problem.ineq.A @ Phi, problem.ineq.b


def test_compiled_feasibility_check_is_exact():
    # the unconstrained minimizer overshoots a rate row by about 1e-10: no
    # tolerance may accept it, so the tick goes to the active-set solver
    problem = make_problem(m=2, B=np.eye(2), sigma=1e-3, target=[0.0, 0.0])
    compiled = CompiledQP(problem.B_eff, np.eye(2), np.eye(2), 1e-3, problem.ineq.A)
    problem.target = np.array([(1.2 + 1e-10) * (1.0 + 1e-3), 0.0])
    over = np.max(problem.ineq.A @ (compiled.M @ problem.target) - problem.ineq.b)
    assert 0.0 < over < 1e-9
    res = allocate_qp(problem, compiled=compiled)
    assert res.active_set and res.iterations > 1
    assert np.all(problem.ineq.A @ res.delta_u <= problem.ineq.b)

def random_case(rng, k):
    """Case k of a stream of random problems: servo-space (even k) or
    virtual, on the full inequality or the rate box, every third without
    a preferred-command pull.  Returns (problem, its CompiledQP built from
    the full limit matrix, Phi, virtual, box)."""
    virtual, box = k % 2, (k // 2) % 2
    m = 12 if virtual else int(rng.integers(2, 8))
    Phi = build_basis(LOCS12, 1.8, int(rng.integers(2, 7))).Phi if virtual else np.eye(m)
    u0 = rng.uniform(-5.0, 5.0, size=m)
    u_star = u0 + (rng.uniform(-20.0, 20.0, size=m) if k % 3 else 0.0)
    problem = make_problem(
        m=m, seed=int(rng.integers(0, 2**31)), sigma=float(rng.uniform(1e-4, 1e-2)),
        target=rng.uniform(-1.0, 1.0, size=2) * 10.0 ** rng.uniform(-2.0, 2.5),
        u0=u0, u_star=u_star, dt=float(rng.uniform(0.005, 0.03)),
    )
    compiled = CompiledQP(problem.B_eff, np.eye(2), np.eye(Phi.shape[1]), problem.sigma,
                          problem.ineq.A, Phi if virtual else None)
    if box:
        problem.ineq = rate_box(InputLimits(
            u_min=-30.0 * np.ones(m), u_max=30.0 * np.ones(m), rate_min=-80.0 * np.ones(m),
            rate_max=80.0 * np.ones(m), u_adj=10.0 * np.ones(m - 1), dt=0.015))
    return problem, compiled, Phi, virtual, box


def test_compiled_solve_matches_cold_active_set_and_nnls():
    # random servo-space and virtual problems, compiled once from the full
    # limit matrix, on the full inequality and on the rate box, with and
    # without a preferred-command pull.  The compiled QP equals the one
    # formed directly; its solve (one product on a non-binding tick) equals
    # the refined NNLS optimum of that QP within 1e-9: the KKT point of the
    # rows NNLS holds active, solved cold.  NNLS's own point would not do:
    # on case 233 it is 1.5e-9 off a limit and 1.6e-9 from the optimum
    rng = np.random.default_rng(2024)
    kinds = dict.fromkeys([(v, box, bind) for v in (0, 1) for box in (0, 1) for bind in (0, 1)], 0)
    for k in range(400):
        problem, compiled, Phi, virtual, box = random_case(rng, k)
        H, g, A, b = direct_qp(problem, Phi)
        g_c = compiled.G @ problem.target - compiled.S @ (problem.u_star - problem.u0)
        A_c = compiled.A[-b.size:]
        np.testing.assert_allclose(compiled.H, H, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(g_c, g, rtol=0.0, atol=1e-12 * np.max(np.abs(g)))
        np.testing.assert_allclose(A_c, A, rtol=0.0, atol=1e-14)

        if virtual:
            res = allocate_qp_virtual(problem, Phi, compiled=compiled)
            x = res.delta_u_virtual
        else:
            res = allocate_qp(problem, compiled=compiled)
            x = res.delta_u
        x_ref = least_distance_solve(H, g, A, b)
        assert res.status == "Optimal", k
        assert np.max(np.abs(x - x_ref)) <= 1e-9, (k, np.max(np.abs(x - x_ref)))
        # a problem binds when its unconstrained minimizer is infeasible
        assert bool(res.active_set) == bool(np.any(A @ np.linalg.solve(H, -g) > b)), k
        assert res.iterations == 1 if not res.active_set else res.iterations > 1, k
        assert np.all(A @ x <= b + 1e-9), k
        f_ref = 0.5 * x_ref @ H @ x_ref + g @ x_ref
        assert 0.5 * x @ H @ x + g @ x - f_ref <= 1e-7 * (1.0 + abs(f_ref)), k
        kinds[virtual, box, bool(res.active_set)] += 1
    # every combination of route, inequality and binding is exercised
    assert min(kinds.values()) >= 10, kinds


def test_badly_scaled_vertex_reaches_the_optimum():
    # case 5 of the stream above (virtual, q = 5, a pull of up to 20 deg):
    # a vertex with five working rows, on which the primal method once
    # cycled to its cap
    rng = np.random.default_rng(2024)
    for k in range(6):
        problem, _, Phi, _, _ = random_case(rng, k)
    H, g, A, b = direct_qp(problem, Phi)
    solver = ActiveSetQP()
    x, iterations, active, status = solver.solve(*dual_qp(H, g, A, b))
    assert status == "Optimal"
    assert 1 < iterations < solver.max_iter
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
