"""Per-step incremental control allocation.

The command increment du is the solution of one QP: track the demanded
pseudo-control increment t at a small cost sigma on the increment's size,
under the compiled servo-limit inequality,

    min |B Phi x - t|^2 + sigma |x|^2  s.t.  A Phi x <= b,  du = Phi x,

with Phi = I in servo space, or over virtual-shape coefficients, which
shrinks the decision space to q < m and keeps the spanwise profile smooth.
The QP is compiled once; a dual active-set method, warm started between
steps, runs only when its unconstrained optimum is infeasible, and forms
each working set's factors once per compiled QP.
"""

from dataclasses import dataclass, field

import numpy as np

from .constraints import LinearInequality
from .errors import DimensionMismatch

_ITER_CAP = 50
# working sets whose factors one CompiledQP keeps, all dropped at the cap: a
# 25-s run pinned by a load reference out of reach meets about 2,300 (1 KB each
# over 5 shape coefficients), a harsh run at most 5
_FACTOR_CAP = 4096
# a violation, pivot or multiplier rate below this share of its scale is rounding
_TIGHT = 1e-12


@dataclass(slots=True)
class AllocationProblem:
    """One time-step's allocation data.

    B_eff maps command increments to pseudo-control (load-units per
    deg), target is the demanded pseudo-control increment, sigma the
    cost of the increment's size, u0 the current command and ineq the
    limits on the increment.
    """

    B_eff: np.ndarray
    target: np.ndarray
    sigma: float
    u0: np.ndarray
    ineq: LinearInequality

    def __post_init__(self):
        # a 2-D float ndarray (every controller tick) is kept as is, as asarray would
        B = self.B_eff
        if not (type(B) is np.ndarray and B.dtype == np.float64 and B.ndim == 2):
            self.B_eff = np.atleast_2d(np.asarray(B, dtype=float))
        self.target = np.asarray(self.target, dtype=float)
        self.u0 = np.asarray(self.u0, dtype=float)
        if self.B_eff.shape[0] != self.target.size:
            raise DimensionMismatch("B_eff rows must match target length")

    # read-only, for readers of the weighted form min |W1 (B du - t)|^2 +
    # sigma |W2 (du - (u_star - u0))|^2 (the benchmark's oracle): this QP
    # is its case W1 = I, W2 = I, u_star = u0.  They go with this class
    W1 = property(lambda self: np.eye(self.target.size))
    W2 = property(lambda self: np.eye(self.u0.size))
    u_star = property(lambda self: self.u0)


@dataclass(slots=True)
class AllocationResult:
    delta_u: np.ndarray
    eps_ca: np.ndarray
    iterations: int
    active_set: tuple
    status: str  # Optimal | IterationCap
    delta_u_virtual: np.ndarray = field(default=None, repr=False)


class ActiveSetQP:
    """Dual active-set solver (Goldfarb & Idnani, Math. Prog. 27, 1983) for
    min 0.5 x'Hx + g'x s.t. A x <= b, on R = H^-1 A' and P = A R.

    x = x0 - R_W lam, P_WW lam = A_W x0 - b_W (x0 = -H^-1 g), is the minimizer
    with the working rows W tight, and the QP's optimum if lam >= 0 and no
    other row is violated.  Each step adds the most violated row (ties to the
    lowest index); a working row whose multiplier reaches zero leaves by a
    partial step.  A warm working set is taken if its multipliers are all
    >= 0 (Haerkegaard, CDC 2002).  iterations counts x0, the warm start and
    each step, up to _ITER_CAP.  A capped iterate, still infeasible, is pulled
    back to the longest feasible step from x = 0.

    A working set's factors P_WW^-1, A_W and R_W depend only on A, R, P and
    the ordered W: a caller that solves on the same A, R and P passes one
    factors dict across its solves, and each set's are formed once.  The
    solver itself keeps nothing; without a dict they last one solve.
    """

    def solve(self, A, b, R, P, x0, v, warm_start=(), factors=None):
        """(x, iterations, active set, status) from x0 and its violations v = A x0 - b.

        factors maps the ordered W to (P_WW^-1, A_W, R_W, W as an index array),
        filled here; it is emptied when it holds _FACTOR_CAP sets."""
        factors = {} if factors is None else factors

        def factor(W):
            key = tuple(W)
            f = factors.get(key)
            if f is None:
                if len(factors) >= _FACTOR_CAP:
                    factors.clear()
                i = np.array(W, dtype=np.intp)
                f = factors[key] = np.linalg.inv(P[i][:, i]), A[i], R[:, i], i
            return f

        W, x, lam, iterations, p = list(warm_start), x0, np.empty(0), 1, None
        Pinv, A_W, R_W, Wi = factor(W)
        if W:
            lam = np.dot(Pinv, v[Wi])
            if lam.min() >= 0.0:
                x, iterations = x0 - np.dot(R_W, lam), 2
            else:
                W, lam = [], np.empty(0)
                Pinv, A_W, R_W, Wi = factor(W)
        while True:
            if W:   # one refinement puts the working rows back on their limits
                c = np.dot(Pinv, np.dot(A_W, x) - b[Wi])
                x, lam = x - np.dot(R_W, c), lam + c
            if p is None:
                s = np.dot(A, x) - b
                s[Wi] = -np.inf
                p = int(np.argmax(s))
                # a violation within rounding of its scale (a working row's twin) holds
                if s[p] <= _TIGHT * (np.dot(np.abs(A[p]), np.abs(x)) + abs(b[p])):
                    return x, iterations, tuple(sorted(W)), "Optimal"
                lam_p = 0.0
            if iterations >= _ITER_CAP:
                break
            iterations += 1
            # raising p's multiplier by t moves x by -t z and keeps the W rows
            # tight; steps[0] makes row p tight, steps[1 + i] zeroes lam[i]
            r = np.dot(Pinv, P[Wi, p])
            z = R[:, p] - np.dot(R_W, r)
            d = np.dot(A[p], z)
            steps = np.full(len(W) + 1, np.inf)
            # with x.size rows in W a further row is dependent, whatever rounding makes d
            if d > _TIGHT * P[p, p] and len(W) < x.size:
                steps[0] = (np.dot(A[p], x) - b[p]) / d
            np.divide(lam, r, out=steps[1:], where=r > _TIGHT)
            j = int(np.argmin(steps))
            t = steps[j]
            if t == np.inf:   # nothing satisfies row p: end as at the cap
                break
            x, lam, lam_p = x - t * z, lam - t * r, lam_p + t
            if j:   # partial step: W[j - 1] leaves
                del W[j - 1]
                lam = np.delete(lam, j - 1)
            else:
                W.append(p)
                lam, p = np.append(lam, lam_p), None
            Pinv, A_W, R_W, Wi = factor(W)
        Ax = np.dot(A, x)
        over = Ax > b
        alpha = np.clip(np.min(b[over] / Ax[over], initial=1.0), 0.0, 1.0)
        return alpha * x, iterations, tuple(sorted(W)), "IterationCap"


_SOLVER = ActiveSetQP()   # it keeps no state between solves


class CompiledQP:
    """The run-constant parts of the allocation QP, built once per controller.

    Over x (du, or shape coefficients with du = Phi x; Phi is None in servo
    space) the QP is min 0.5 x'Hx - t'(B Phi) x s.t. A Phi x <= b, with
    H = (B Phi)' B Phi + sigma I.  H is positive definite, so x0 = M t,
    M = H^-1 (B Phi)', the unconstrained minimizer, is optimal if feasible.
    The dual solver runs on R = H^-1 (A Phi)' and P = A Phi R, which hold for
    the rows of A it was compiled with: each tick's b bounds those rows.
    factors keeps the solver's working-set factors for the QP's life, so each
    working set's P_WW^-1, A_W and R_W are formed once per compiled QP.
    """

    def __init__(self, B_eff, sigma, A, Phi=None):
        if not 0.0 < sigma < 1.0:
            raise DimensionMismatch(f"sigma must be in (0, 1), got {sigma}")
        B = B_eff if Phi is None else B_eff @ Phi
        Bt = np.ascontiguousarray(B.T)   # a transposed view rounds H differently
        self.H = Bt @ B + sigma * np.eye(B.shape[1])
        self.M = np.linalg.solve(self.H, Bt)
        self.A = A if Phi is None else A @ Phi
        self.R = np.linalg.solve(self.H, self.A.T)
        self.P = self.A @ self.R
        self.G = np.vstack([self.M, self.A @ self.M])
        # G's product lands in y, built once with its views x0 and the tested rows
        self._y = np.empty(len(self.G))
        self._x0, self._rows = np.split(self._y, [len(self.M)])
        self.factors = {}

    def solve(self, problem, warm_start):
        """One tick's (x, iterations, active set, status); warm_start seeds the solver.

        One product G t = [M; A M] t gives x0 and the rows tested against b.
        (A M) t can differ from A (M t) by rounding, so only a row within
        rounding of its bound can be decided otherwise than by A x0 <= b.  The
        test itself is exact, and the solver gets v = A x0 - b, formed here."""
        b = problem.ineq.b
        np.dot(self.G, problem.target, out=self._y)   # the gemv of @, with less dispatch
        x0 = self._x0.copy()
        # every row within its bound: no tolerance accepts a violation, a NaN fails
        if np.count_nonzero(self._rows <= b) == self._rows.size:
            return x0, 1, (), "Optimal"
        v = np.dot(self.A, x0)
        np.subtract(v, b, out=v)
        return _SOLVER.solve(self.A, b, self.R, self.P, x0, v, warm_start, self.factors)


def allocate_qp(problem, warm_start=(), compiled=None):
    """Constrained allocation in servo space: allocate_qp_virtual with Phi None."""
    return allocate_qp_virtual(problem, None, warm_start, compiled)


def allocate_qp_virtual(problem, Phi, warm_start=(), compiled=None):
    """Constrained allocation over virtual-shape coefficients, du = Phi x,
    or in servo space (du = x) when Phi is None.

    The effectiveness and inequality are both composed with Phi so the
    QP searches only q coefficients; the returned increment is mapped
    back to servo space and satisfies the original inequality by
    construction.  compiled is the CompiledQP of the problem's constant
    parts; without one it is built from the problem.

    Precondition: B_eff @ Phi (B_eff in servo space) has full row rank.
    Both are constant over a run, so the caller checks this once
    (IndiController does so at construction) rather than on every call.
    """
    compiled = compiled or CompiledQP(problem.B_eff, problem.sigma, problem.ineq.A, Phi)
    x, iterations, active, status = compiled.solve(problem, warm_start)
    delta_u = x if Phi is None else np.dot(Phi, x)
    eps_ca = np.dot(problem.B_eff, delta_u)
    np.subtract(eps_ca, problem.target, out=eps_ca)
    return AllocationResult(delta_u, eps_ca, iterations, active, status,
                            None if Phi is None else x)
