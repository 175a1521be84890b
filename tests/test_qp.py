import dataclasses
import itertools

import numpy as np
import pytest

from contactbem.assembly import assemble, known_data_vector
from contactbem.contact import ContactLaw, GapState, incremental_energy, y_to_awb
from contactbem.mesh import Material, build_mesh, pair_contacts
from contactbem.qp import (
    QPError,
    QPProblem,
    _active_set_solve,
    build_qp,
    jacobi_scaling,
    mprgp_solve,
)
from contactbem.steklov import SteklovOperator

MAT = Material(young_modulus=200.0, poisson_ratio=0.3)
RNG = np.random.default_rng(13)
LAW = ContactLaw(mu=0.8, k_g=4e5)


def stacked_op(nA=2, nB=2, pressure=-2.0):
    side = 1.0
    polyB = [(0, 0), (side, 0), (side, side), (0, side)]
    specB = [{"tag": "D", "n": nB}, {"tag": "N", "n": nB},
             {"tag": "C", "n": nB}, {"tag": "N", "n": nB}]
    meshB = build_mesh(polyB, specB, domain_label="B")
    polyA = [(0, side), (side, side), (side, 2 * side), (0, 2 * side)]
    specA = [{"tag": "C", "n": nA}, {"tag": "N", "n": nA},
             {"tag": "N", "n": nA}, {"tag": "N", "n": nA}]
    meshA = build_mesh(polyA, specA, domain_label="A", allow_floating=True)
    pair = pair_contacts(meshA, meshB)
    im = assemble([meshA, meshB], pair, [MAT, MAT])
    ddA = im.layout.domains[0]
    f = np.zeros(2 * ddA.n_phi)
    from contactbem.mesh import element_frame
    for e in range(meshA.n_elements):
        if meshA.part_tag[e] == "N" and element_frame(meshA, e)[1][1] > 0.5:
            f[ddA.phi_dofs_of_element(e)[1::2]] = pressure
    op = SteklovOperator(im)
    data = ([None, None], [f, None])
    return pair, op, data, known_data_vector(im, *data)


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
    for _ in range(3):
        y = RNG.normal(size=p.dim) * 1e-4
        alpha, beta, w_t, w_n = y_to_awb(y)
        e = incremental_energy(w_t, w_n, alpha, beta, op, *data, LAW, tau,
                               chi, z)
        assert p.objective(y) == pytest.approx(e, rel=1e-9, abs=1e-16)


def test_cached_norm_reproduces_recomputed_norm():
    """MPRGP with the scaled matrix and norm build_qp caches per step size
    takes exactly the iterates of a solve that builds them itself."""
    pair, op, data, d = stacked_op(nA=3, nB=3)
    rng = np.random.default_rng(5)
    n = pair.n_master_nodes
    z_prev = GapState(z_t=rng.normal(size=n) * 1e-4,
                      z_n=-np.abs(rng.normal(size=n)) * 1e-4)
    p = build_qp(op, d, LAW, tau=1e-3, chi=1e-3, z_prev=z_prev)
    assert p.scaled is not None
    for y0 in (None, p.xi + 1e-4):
        cached = mprgp_solve(p, y0=y0)
        fresh = mprgp_solve(dataclasses.replace(p, scaled=None), y0=y0)
        assert np.array_equal(cached.y, fresh.y)
        assert cached.iterations == fresh.iterations
        assert cached.n_backsolves == fresh.n_backsolves


def test_1d_clamped_minimum():
    p = QPProblem(A=np.eye(1), b=np.array([3.0]),
                  xi=np.array([5.0]))
    sol = mprgp_solve(p, y0=np.array([9.0]))
    assert sol.y[0] == pytest.approx(5.0, abs=1e-12)
    assert sol.active[0]


def test_unconstrained_matches_linear_solve():
    n = 9
    p, A = random_problem(RNG, n)
    p.xi = np.full(n, -1e10)
    sol = mprgp_solve(p, rtol=1e-12)
    assert np.allclose(sol.y, np.linalg.solve(A, p.b), atol=1e-8)
    assert not sol.active.any()


@pytest.mark.parametrize("n", [2, 5, 8])
def test_random_instances_match_oracle(n):
    for k in range(15):
        rng = np.random.default_rng(100 * n + k)
        p, A = random_problem(rng, n)
        sol = mprgp_solve(p, rtol=1e-10)
        y_ref = oracle_solve(A, p.b, p.xi)
        scale = np.abs(y_ref).max() + 1.0
        assert np.abs(sol.y - y_ref).max() <= 1e-8 * scale


def test_objective_monotone_and_kkt():
    rng = np.random.default_rng(42)
    p, A = random_problem(rng, 10)
    tel = []
    sol = mprgp_solve(p, rtol=1e-10, telemetry=tel)
    vals = [t[3] for t in tel]
    scale = abs(vals[0]) + 1.0
    assert all(v2 <= v1 + 1e-12 * scale for v1, v2 in zip(vals, vals[1:]))
    g = A @ sol.y - p.b
    gs = np.abs(g).max() + 1.0
    assert np.all(sol.y >= p.xi - 1e-12)
    assert np.abs(g[~sol.active]).max(initial=0.0) <= 1e-8 * gs
    assert g[sol.active].min(initial=0.0) >= -1e-8 * gs


def test_semidefinite_alpha_direction_handled():
    """The built contact QP has zero curvature along pure slip-magnitude
    directions; the solver must still converge (bounds catch the descent)."""
    pair, op, _, d = stacked_op()
    n_c = pair.n_master_nodes
    z = GapState(z_t=np.zeros(n_c), z_n=np.full(n_c, -5e-5))
    p = build_qp(op, d, LAW, tau=1e-3, chi=1e-3, z_prev=z)
    sol = mprgp_solve(p, rtol=1e-9)
    alpha, beta, w_t, w_n = y_to_awb(sol.y)
    # slip magnitude tight against |w_t - z_t| at the optimum
    assert np.abs(alpha - np.abs(w_t - z.z_t)).max() <= 1e-8 * (
        np.abs(alpha).max() + 1e-12)


def test_iteration_cap_raises():
    p, A = random_problem(np.random.default_rng(3), 6)
    with pytest.raises(QPError, match="iterations"):
        mprgp_solve(p, rtol=1e-14, max_iter=1)


# -- candidate active sets ------------------------------------------------------

def active_of(y, xi):
    """The oracle puts active components exactly on their bounds."""
    return y == xi


def test_true_active_set_solves_without_mprgp():
    """The optimum's own active set as candidate returns the enumeration
    oracle's solution to roundoff, with no MPRGP iteration."""
    for k in range(12):
        p, A = random_problem(np.random.default_rng(300 + k), 8)
        y_ref = oracle_solve(A, p.b, p.xi)
        sol = mprgp_solve(p, active=active_of(y_ref, p.xi))
        assert sol.iterations == 0, k
        assert np.abs(sol.y - y_ref).max() <= 1e-12 * (np.abs(y_ref).max() + 1)


def test_wrong_candidate_is_corrected_or_falls_back():
    """A candidate with one index flipped, or all free, or all active, ends
    at the oracle's solution, either by active-set corrections alone or by
    the MPRGP fallback; the corrections alone fix most single flips."""
    corrected = flips = 0
    for k in range(12):
        p, A = random_problem(np.random.default_rng(400 + k), 8)
        y_ref = oracle_solve(A, p.b, p.xi)
        true = active_of(y_ref, p.xi)
        cands = [np.zeros(8, bool), np.ones(8, bool)]
        for i in range(8):
            cands.append(true.copy())
            cands[-1][i] = ~true[i]
        for j, cand in enumerate(cands):
            sol = mprgp_solve(p, active=cand)
            assert np.abs(sol.y - y_ref).max() <= 1e-12 * (
                np.abs(y_ref).max() + 1), (k, j)
            flips += j >= 2
            corrected += j >= 2 and sol.iterations == 0
    assert corrected >= 0.9 * flips


def test_zero_weight_slip_pair_is_pinned_and_made_tight():
    """Where the friction weight is zero (beta_prev = 0 at a node and its
    neighbours) the slip magnitude alpha is a null direction of both A and
    the objective.  A candidate that frees both y1 and y2 there is solved
    with alpha pinned, in one active set and no MPRGP iteration, and alpha
    comes back tight, alpha = |w_t - z_t|, at a tight MPRGP solution."""
    pair, op, _, d = stacked_op()
    n = pair.n_master_nodes
    z_n = np.full(n, -1e-4)
    z_n[:2] = 0.0
    z = GapState(z_t=np.random.default_rng(8).normal(size=n) * 1e-5, z_n=z_n)
    p = build_qp(op, d, LAW, tau=1e-3, chi=1e-3, z_prev=z)
    flat = p.b[:n] + p.b[n:2 * n] == 0.0
    assert flat[0] and not flat[1:].any()
    ref = mprgp_solve(p, rtol=1e-12)
    cand = ref.active.copy()
    cand[[0, n]] = False
    sol = mprgp_solve(p, active=cand)
    assert sol.iterations == 0
    assert sol.n_backsolves == 2  # one active set: right side and gradient
    alpha, beta, w_t, w_n = y_to_awb(sol.y)
    scale = np.abs(sol.y).max()
    assert np.abs(alpha - np.abs(w_t - z.z_t)).max() <= 1e-14 * scale
    assert np.abs(sol.y - ref.y).max() <= 1e-12 * scale


def test_mprgp_iterate_is_finished_exactly():
    """Without a candidate, MPRGP stops at rtol 1e-8 on a contact QP, and
    the active-set corrections from its active set then meet the KKT
    conditions to roundoff (MPRGP's own iterate is off by about 3e-7)."""
    pair, op, _, d = stacked_op(nA=3, nB=3)
    rng = np.random.default_rng(5)
    n = pair.n_master_nodes
    z_prev = GapState(z_t=rng.normal(size=n) * 1e-4,
                      z_n=-np.abs(rng.normal(size=n)) * 1e-4)
    p = build_qp(op, d, LAW, tau=1e-3, chi=1e-3, z_prev=z_prev)
    sol = mprgp_solve(p)
    g = (p.A @ sol.y - p.b) / np.abs(p.b).max()
    assert sol.iterations > 0
    assert np.abs(g[~sol.active]).max() <= 1e-14
    assert g[sol.active].min() >= -1e-14


def test_infeasible_candidate_solve_is_rejected():
    """When the corrections stop at their cap with a component below its
    bound (while the projected gradient is already small), the candidate
    is rejected and MPRGP solves the problem."""
    rng = np.random.default_rng(380)
    n = rng.integers(2, 7)
    B = rng.normal(size=(n, n))
    A = B @ B.T + 0.1 * np.eye(n)
    p = QPProblem(A=A, b=rng.normal(size=n), xi=rng.normal(size=n) * 0.5)
    s, A_hat, _ = jacobi_scaling(A)
    y_hat = _active_set_solve(A_hat, p.b / s, p.xi * s, np.zeros(n, bool))[0]
    assert np.any(y_hat < p.xi * s)
    sol = mprgp_solve(p, active=np.zeros(n, bool), rtol=1e-12)
    assert sol.iterations > 0
    y_ref = oracle_solve(A, p.b, p.xi)
    assert np.all(sol.y >= p.xi)
    assert np.abs(sol.y - y_ref).max() <= 1e-12 * (np.abs(y_ref).max() + 1)
