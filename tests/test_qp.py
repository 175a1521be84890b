import itertools

import numpy as np
import pytest

from contactbem import qp
from contactbem.assembly import known_data_vector
from contactbem.qp import GapState, QPError, QPProblem, build_qp, solve_qp
from contactbem.steklov import SteklovOperator
from oracles import (
    LAW,
    incremental_energy,
    objective,
    offset_constant,
    stacked,
    top_pressure,
    y_to_awb,
)

RNG = np.random.default_rng(13)


def stacked_op(nA=2, nB=2):
    """Square A pressed onto square B by -2 MPa: (pair, operator, the
    boundary data (g_D, f_N) and its known-data vector)."""
    _, _, pair, im = stacked(nA, nB)
    data = ([None, None], [top_pressure(im, -2.0), None])
    return pair, SteklovOperator(im), data, known_data_vector(im, *data)


def random_problem(rng, n):
    B = rng.normal(size=(n, n))
    A = B @ B.T + n * np.eye(n)
    b = rng.normal(size=n)
    xi = rng.normal(size=n) * 0.5
    return QPProblem(A=A, b=b, xi=xi), A


def oracle_solve(A, b, xi):
    """Exhaustive active-set enumeration for small strictly convex QPs."""
    n = len(b)
    best = None
    for mask in itertools.product([False, True], repeat=n):
        act = np.array(mask)
        y = np.empty(n)
        y[act] = xi[act]
        free = ~act
        if free.any():
            rhs = b[free] - A[np.ix_(free, act)] @ xi[act]
            y[free] = np.linalg.solve(A[np.ix_(free, free)], rhs)
        if np.any(y[free] < xi[free] - 1e-12):
            continue
        g = A @ y - b
        if np.any(g[act] < -1e-9):
            continue
        val = 0.5 * y @ A @ y - b @ y
        if best is None or val < best[1]:
            best = (y, val)
    return best[0]


def test_operator_symmetry_and_semidefiniteness():
    pair, op, _, d = stacked_op()
    z = GapState.rest(pair.n_master_nodes)
    p = build_qp(op, d, LAW, tau=1e-3, chi=1e-3, z_prev=z)
    for _ in range(5):
        y1, y2 = RNG.normal(size=(2, p.dim))
        a1, a2 = p.A @ y1, p.A @ y2
        s = abs(y2 @ a1) + abs(y1 @ a2) + 1e-30
        assert abs(y2 @ a1 - y1 @ a2) <= 1e-9 * s
        assert y1 @ a1 >= -1e-12 * (y1 @ y1) * np.linalg.norm(p.A, 2)
    assert np.allclose(p.A @ np.zeros(p.dim), 0.0)


def test_dense_operator_matches_fd_hessian():
    """The explicit QP matrix equals the central-difference Hessian of the
    incremental functional pulled back to the transformed variables."""
    pair, op, data, d = stacked_op()
    n_c = pair.n_master_nodes
    z = GapState(z_t=RNG.normal(size=n_c) * 1e-4,
                 z_n=-np.abs(RNG.normal(size=n_c)) * 1e-4)
    tau, chi = 1e-3, 5e-4
    p = build_qp(op, d, LAW, tau, chi, z)
    A = p.A
    assert np.abs(A - A.T).max() <= 1e-9 * np.abs(A).max()

    def f(y):
        alpha, beta, w_t, w_n = y_to_awb(y)
        return incremental_energy(w_t, w_n, alpha, beta, op, *data, LAW, tau,
                                  chi, z)

    h = 1e-5
    y0 = RNG.normal(size=p.dim) * 1e-4
    for i in range(p.dim):
        ei = np.zeros(p.dim)
        ei[i] = h
        for j in range(i, p.dim):
            ej = np.zeros(p.dim)
            ej[j] = h
            fd = (f(y0 + ei + ej) - f(y0 + ei - ej)
                  - f(y0 - ei + ej) + f(y0 - ei - ej)) / (4 * h * h)
            assert fd == pytest.approx(A[i, j], rel=1e-6,
                                       abs=1e-6 * np.abs(A).max())


def test_objective_equals_incremental_energy():
    pair, op, data, d = stacked_op()
    n_c = pair.n_master_nodes
    z = GapState(z_t=np.zeros(n_c), z_n=np.full(n_c, -1e-4))
    tau, chi = 1e-3, 1e-3
    p = build_qp(op, d, LAW, tau, chi, z)
    c = offset_constant(op, d)  # the constant build_qp leaves out
    for _ in range(3):
        y = RNG.normal(size=p.dim) * 1e-4
        alpha, beta, w_t, w_n = y_to_awb(y)
        e = incremental_energy(w_t, w_n, alpha, beta, op, *data, LAW, tau,
                               chi, z)
        assert objective(p, y, c) == pytest.approx(e, rel=1e-9, abs=1e-16)


def test_1d_clamped_minimum():
    p = QPProblem(A=np.eye(1), b=np.array([3.0]),
                  xi=np.array([5.0]))
    sol = solve_qp(p)
    assert sol.y[0] == pytest.approx(5.0, abs=1e-12)
    assert sol.active[0]


def test_unconstrained_matches_linear_solve():
    n = 9
    p, A = random_problem(RNG, n)
    p.xi = np.full(n, -1e10)
    sol = solve_qp(p)
    assert np.allclose(sol.y, np.linalg.solve(A, p.b), atol=1e-8)
    assert not sol.active.any()


@pytest.mark.parametrize("n", [2, 5, 8])
def test_random_instances_match_oracle(n):
    for k in range(15):
        rng = np.random.default_rng(100 * n + k)
        p, A = random_problem(rng, n)
        sol = solve_qp(p)
        y_ref = oracle_solve(A, p.b, p.xi)
        scale = np.abs(y_ref).max() + 1.0
        assert np.abs(sol.y - y_ref).max() <= 1e-12 * scale


def test_semidefinite_alpha_direction_handled():
    """The built contact QP has zero curvature along pure slip-magnitude
    directions; the solver must still converge (bounds catch the descent)."""
    pair, op, _, d = stacked_op()
    n_c = pair.n_master_nodes
    z = GapState(z_t=np.zeros(n_c), z_n=np.full(n_c, -5e-5))
    p = build_qp(op, d, LAW, tau=1e-3, chi=1e-3, z_prev=z)
    sol = solve_qp(p)
    alpha, beta, w_t, w_n = y_to_awb(sol.y)
    # slip magnitude tight against |w_t - z_t| at the optimum
    assert np.abs(alpha - np.abs(w_t - z.z_t)).max() <= 1e-8 * (
        np.abs(alpha).max() + 1e-12)


def test_iteration_cap_raises(monkeypatch):
    """The cap on working-set changes raises QPError; at cap 0 any problem
    whose start set is not optimal fails."""
    p, A = random_problem(np.random.default_rng(3), 6)
    start = np.ones(6, bool)
    assert solve_qp(p, active=start).iterations > 0
    monkeypatch.setattr(qp, "CHANGES_PER_DIM", 0)
    with pytest.raises(QPError, match="working-set changes"):
        solve_qp(p, active=start)


@pytest.mark.parametrize("off,b,y", [
    # PSD [[1, 1], [1, 1]] rounded to det -2^-53: the minimizer of
    # 0.5 (y1 + y2)^2 - y1 over y >= 0 is (1, 0); the uphill sign would
    # re-add the released component at once and cycle to the cap
    (1.0, [1.0, 0.0], [1.0, 0.0]),
    # PSD [[1, -1], [-1, 1]] rounded the same way: the minimizer of
    # 0.5 (y1 - y2)^2 + y1 + y2 over y >= 0 is (0, 0); the first step,
    # taken uphill, rises in both components and nothing would block it
    (-1.0, [-1.0, -1.0], [0.0, 0.0]),
])
def test_singular_free_block_steps_downhill(off, b, y):
    """A free block that is singular but for rounding is solved to a huge
    step whose sign rounding picks.  The solver steps downhill along it."""
    A = np.array([[1.0, off], [off, np.nextafter(1.0, 0.0)]])
    p = QPProblem(A=A, b=np.array(b), xi=np.zeros(2))
    sol = solve_qp(p, active=np.zeros(2, bool))
    assert sol.y.tolist() == y


def kkt_violation(p, sol):
    """Largest violation of y >= xi and of the multiplier signs of the
    returned active set, relative to the size of y and of the gradient."""
    g = p.A @ sol.y - p.b
    y_max = np.abs(sol.y).max()
    g_max = np.abs(p.A).max() * y_max + np.abs(p.b).max()
    return max((p.xi - sol.y).max() / y_max,
               np.abs(g[~sol.active]).max(initial=0.0) / g_max,
               -g[sol.active].min(initial=0.0) / g_max)


def test_random_contact_qps_meet_kkt():
    """Contact QPs of random gap states, friction weights (zero at some
    nodes), step sizes and start sets are solved to KKT at roundoff, with
    every slip magnitude tight."""
    pair, op, _, d = stacked_op(nA=3, nB=3)
    n = pair.n_master_nodes
    worst = 0.0
    for k in range(40):
        rng = np.random.default_rng(700 + k)
        z_n = rng.normal(size=n) * 1e-4
        z_n[rng.random(n) < 0.3] = 0.0
        z = GapState(z_t=rng.normal(size=n) * 1e-4, z_n=z_n)
        tau = 10.0 ** rng.uniform(-4, -2)
        p = build_qp(op, d * rng.uniform(0.1, 10.0), LAW, tau, 1e-3, z)
        start = None if k % 2 else rng.random(p.dim) < 0.5
        sol = solve_qp(p, active=start)
        worst = max(worst, kkt_violation(p, sol))
        alpha, _, w_t, _ = y_to_awb(sol.y)
        assert np.abs(alpha - np.abs(w_t - z.z_t)).max() <= 1e-14 * (
            np.abs(sol.y).max())
    assert worst <= 1e-13


# -- start sets -----------------------------------------------------------------

def active_of(y, xi):
    """The oracle puts active components exactly on their bounds."""
    return y == xi


def test_true_active_set_solves_without_mprgp():
    """The optimum's own active set as the start set returns the enumeration
    oracle's solution to roundoff in one solve, with no working-set
    change."""
    for k in range(12):
        p, A = random_problem(np.random.default_rng(300 + k), 8)
        y_ref = oracle_solve(A, p.b, p.xi)
        sol = solve_qp(p, active=active_of(y_ref, p.xi))
        assert sol.iterations == 0 and sol.n_backsolves == 1, k
        assert np.abs(sol.y - y_ref).max() <= 1e-12 * (np.abs(y_ref).max() + 1)


def test_wrong_candidate_is_corrected_or_falls_back():
    """A start set with one index flipped, or all free, or all active, ends
    at the oracle's solution and its active set, by working-set changes
    alone."""
    for k in range(12):
        p, A = random_problem(np.random.default_rng(400 + k), 8)
        y_ref = oracle_solve(A, p.b, p.xi)
        true = active_of(y_ref, p.xi)
        cands = [np.zeros(8, bool), np.ones(8, bool)]
        for i in range(8):
            cands.append(true.copy())
            cands[-1][i] = ~true[i]
        for j, cand in enumerate(cands):
            sol = solve_qp(p, active=cand)
            assert np.abs(sol.y - y_ref).max() <= 1e-12 * (
                np.abs(y_ref).max() + 1), (k, j)
            assert np.array_equal(sol.active, true), (k, j)
            assert sol.iterations > 0, (k, j)


def test_zero_weight_slip_pair_is_pinned_and_made_tight():
    """Where the friction weight is zero (beta_prev = 0 at a node and its
    neighbours) the slip magnitude alpha is a null direction of both A and
    the objective.  A start set that frees both y1 and y2 there is solved
    with alpha pinned: the pinned solve crosses a bound of the pair, that
    side joins the working set, and the next solve is the optimum, with
    alpha tight, alpha = |w_t - z_t|."""
    pair, op, _, d = stacked_op()
    n = pair.n_master_nodes
    z_n = np.full(n, -1e-4)
    z_n[:2] = 0.0
    z = GapState(z_t=np.random.default_rng(8).normal(size=n) * 1e-5, z_n=z_n)
    p = build_qp(op, d, LAW, tau=1e-3, chi=1e-3, z_prev=z)
    flat = p.b[:n] + p.b[n:2 * n] == 0.0
    assert flat[0] and not flat[1:].any()
    ref = solve_qp(p)
    assert ref.active[0] != ref.active[n]
    cand = ref.active.copy()
    cand[[0, n]] = False
    sol = solve_qp(p, active=cand)
    assert sol.iterations == 1 and sol.n_backsolves == 2
    assert np.array_equal(sol.active, ref.active)
    alpha, beta, w_t, w_n = y_to_awb(sol.y)
    scale = np.abs(sol.y).max()
    assert np.abs(alpha - np.abs(w_t - z.z_t)).max() <= 1e-14 * scale
    assert np.abs(sol.y - ref.y).max() <= 1e-12 * scale
