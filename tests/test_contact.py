import numpy as np
import pytest

from contactbem.mesh import contact_mass, frame_matrix
from contactbem.qp import (
    ContactError,
    ContactLaw,
    GapState,
    competitor,
    gap_map,
    gap_of,
    mosco_bounds,
)
from contactbem.steklov import SteklovOperator
from oracles import (
    NO_DATA,
    awb_to_y,
    gradient,
    incremental_energy,
    solve_data,
    split_y,
    stacked,
    y_to_awb,
)

RNG = np.random.default_rng(11)


def test_law_validation():
    ContactLaw(mu=0.8, k_g=4e5)
    with pytest.raises(ContactError):
        ContactLaw(mu=0.0, k_g=4e5)
    with pytest.raises(ContactError):
        ContactLaw(mu=0.8, k_g=-1.0)


def test_mosco_bounds_rest_and_inviscid():
    z = GapState.rest(5)
    assert np.all(mosco_bounds(z, tau=1e-3, chi=1e-3) == 0.0)
    z = GapState(z_t=np.zeros(4), z_n=np.full(4, -0.5))
    xi = mosco_bounds(z, tau=1e-3, chi=0.0)
    # without viscosity the normal bound is beta + w_n >= 0
    assert np.all(split_y(xi)[3] == 0.0)


def test_mosco_bounds_substitution_example():
    z = GapState(z_t=np.array([0.1]), z_n=np.array([-0.02]))
    xi = mosco_bounds(z, tau=1e-3, chi=1e-3)  # chi/tau = 1
    # y = (alpha+w_t, alpha-w_t, beta, beta+w_n) >= xi encodes
    # alpha+w_t >= 0.1, alpha-w_t >= -0.1, beta >= 0, beta+w_n >= 0.02
    assert np.allclose(xi, [0.1, -0.1, 0.0, 0.02])
    # a state exactly on the corner of the feasible set
    y = awb_to_y(alpha=[0.1], beta=[0.02], w_t=[0.0], w_n=[0.0])
    assert np.all(y >= xi - 1e-15)
    # penetrating further than the viscous offset is infeasible at beta = 0
    y = awb_to_y(alpha=[0.2], beta=[0.0], w_t=[0.0], w_n=[-0.01])
    assert not np.all(y >= xi)


def test_y_round_trip():
    n = 6
    y = RNG.normal(size=4 * n)
    back = awb_to_y(*(lambda a, b, wt, wn: (a, b, wt, wn))(*y_to_awb(y)))
    assert np.abs(back - y).max() <= 1e-14
    alpha, beta = RNG.normal(size=(2, n))
    w_t, w_n = RNG.normal(size=(2, n))
    a2, b2, wt2, wn2 = y_to_awb(awb_to_y(alpha, beta, w_t, w_n))
    for got, ref in ((a2, alpha), (b2, beta), (wt2, w_t), (wn2, w_n)):
        assert np.abs(got - ref).max() <= 1e-14
    # trivial slots
    a, b, wt, wn = y_to_awb(np.zeros(4 * n))
    assert not np.any([a.any(), b.any(), wt.any(), wn.any()])
    y = awb_to_y(np.full(n, 0.3), np.zeros(n), np.zeros(n), np.zeros(n))
    assert np.allclose(y[:n], y[n:2 * n])


def test_layout_of_y_in_qp():
    """gap_of inverts the stacking of a gap into y, gap_map is that gap in
    the global frame, and the competitor's y carries the previous gap over
    and meets the bounds xi, to the rounding of beta_c + z_n when chi/tau
    is not a power of two."""
    _, _, pair, _ = stacked(3, 3)
    n = pair.n_master_nodes
    alpha, beta, w_t, w_n = RNG.normal(size=(4, n))
    y = awb_to_y(alpha, beta, w_t, w_n)
    for got, ref in zip(gap_of(y), (w_t, w_n)):
        assert np.abs(got - ref).max() <= 1e-14
    R = frame_matrix(pair)
    w = R @ np.concatenate(gap_of(y))
    assert np.abs(gap_map(R) @ y - w).max() <= 1e-15
    tau = 1e-3
    for chi in (0.0, 5e-4, 1e-3):
        z = GapState(z_t=RNG.normal(size=n) * 1e-4,
                     z_n=RNG.normal(size=n) * 1e-4)
        y_c = competitor(z, tau, chi)
        ulp = 1e-15 * np.abs(z.z_n).max()
        assert np.all(y_c >= mosco_bounds(z, tau, chi) - ulp)
        c_t, c_n = gap_of(y_c)
        assert np.array_equal(c_t, z.z_t)
        assert np.abs(c_n - z.z_n).max() <= ulp


def test_frame_round_trip_and_orientation():
    """frame_matrix puts each node's (w_t, w_n) on its x and y entries
    through the node's unit tangent and normal, and its transpose splits
    the global vector back into them."""
    _, _, pair, _ = stacked(3, 3)
    n_c = pair.n_master_nodes
    R = frame_matrix(pair)
    w_t, w_n = RNG.normal(size=(2, n_c))
    w = R @ np.concatenate([w_t, w_n])
    for c in range(2):
        ref = w_t * pair.tangent[:, c] + w_n * pair.normal[:, c]
        assert np.abs(w[c::2] - ref).max() <= 1e-15
    wt2, wn2 = np.split(R.T @ w, 2)
    assert np.abs(wt2 - w_t).max() <= 1e-14
    assert np.abs(wn2 - w_n).max() <= 1e-14
    # master normal points from B toward A (upwards for the stacked squares)
    assert np.allclose(pair.normal, [0.0, 1.0])
    w = R @ np.concatenate([np.zeros(n_c), np.ones(n_c)])
    assert np.allclose(w[1::2], 1.0) and np.allclose(w[0::2], 0.0)


def test_contact_mass_closed_form():
    _, _, pair, _ = stacked(3, 4)
    M = contact_mass(pair)
    n_c = pair.n_master_nodes
    L = 1.0 / 4
    assert M.shape == (n_c, n_c)
    assert np.allclose(M, M.T)
    assert M.sum() == pytest.approx(1.0, rel=1e-14)  # total contact length
    assert M[0, 0] == pytest.approx(L / 3)
    assert M[1, 1] == pytest.approx(2 * L / 3)
    assert M[0, 1] == pytest.approx(L / 6)
    assert M[0, 2] == 0.0


def test_incremental_energy_terms():
    law = ContactLaw(mu=0.8, k_g=4e5)
    tau, chi = 1e-3, 1e-3
    _, _, pair, im = stacked(3, 3)
    op = SteklovOperator(im)
    n_c = pair.n_master_nodes
    zero = np.zeros(n_c)
    assert incremental_energy(zero, zero, zero, zero, op, NO_DATA, NO_DATA,
                              law, tau, chi, GapState.rest(n_c)) == 0.0
    # beta-only: quadratic compliance with the consistent mass
    beta = RNG.uniform(0.1, 1.0, size=n_c) * 1e-3
    M = contact_mass(pair)
    e = incremental_energy(zero, zero, zero, beta, op, NO_DATA, NO_DATA, law,
                           tau, chi, GapState.rest(n_c))
    assert e == pytest.approx(
        0.5 * (tau * law.k_g / (tau + chi)) * beta @ M @ beta, rel=1e-12)
    # alpha-only with frozen penetration: linear friction work
    z = GapState(z_t=zero, z_n=np.full(n_c, -2e-4))
    alpha = RNG.uniform(0.1, 1.0, size=n_c) * 1e-3
    e = incremental_energy(zero, zero, alpha, zero, op, NO_DATA, NO_DATA, law,
                           tau, chi, z)
    assert e == pytest.approx(law.mu * law.k_g * 2e-4 * (M @ alpha).sum(),
                              rel=1e-12)


def test_smooth_part_gradient_fd():
    """Finite differences of the functional in (w_t, w_n) match the rotated
    elastic gradient plus the quadratic/linear auxiliary terms."""
    law = ContactLaw(mu=0.8, k_g=4e5)
    tau, chi = 1e-3, 5e-4
    _, _, pair, im = stacked(3, 3)
    op = SteklovOperator(im)
    n_c = pair.n_master_nodes
    alpha = np.abs(RNG.normal(size=n_c)) * 1e-4
    beta = np.abs(RNG.normal(size=n_c)) * 1e-4
    w_t = RNG.normal(size=n_c) * 1e-4
    w_n = RNG.normal(size=n_c) * 1e-4
    z = GapState(z_t=RNG.normal(size=n_c) * 1e-4,
                 z_n=-np.abs(RNG.normal(size=n_c)) * 1e-4)

    def f(wt, wn):
        return incremental_energy(wt, wn, alpha, beta, op, NO_DATA, NO_DATA,
                                  law, tau, chi, z)

    R = frame_matrix(pair)
    w = R @ np.concatenate([w_t, w_n])
    g = gradient(op, solve_data(im, NO_DATA, NO_DATA, w=w))
    g_t, g_n = np.split(R.T @ g, 2)
    h = 1e-6
    for i in range(n_c):
        e = np.zeros(n_c)
        e[i] = h
        de_t = (f(w_t + e, w_n) - f(w_t - e, w_n)) / (2 * h)
        de_n = (f(w_t, w_n + e) - f(w_t, w_n - e)) / (2 * h)
        assert de_t == pytest.approx(g_t[i], rel=1e-6, abs=1e-9)
        assert de_n == pytest.approx(g_n[i], rel=1e-6, abs=1e-9)


def test_convexity_segments():
    law = ContactLaw(mu=0.8, k_g=4e5)
    tau, chi = 1e-3, 1e-3
    _, _, pair, im = stacked(3, 3)
    op = SteklovOperator(im)
    n_c = pair.n_master_nodes
    z = GapState(z_t=RNG.normal(size=n_c) * 1e-4,
                 z_n=-np.abs(RNG.normal(size=n_c)) * 1e-4)

    def f(s):
        wt, wn, a, b = s
        return incremental_energy(wt, wn, a, b, op, NO_DATA, NO_DATA, law, tau,
                                  chi, z)

    for _ in range(10):
        sa = RNG.normal(size=(4, n_c)) * 1e-3
        sb = RNG.normal(size=(4, n_c)) * 1e-3
        lam = RNG.uniform()
        lhs = f(lam * sa + (1 - lam) * sb)
        rhs = lam * f(sa) + (1 - lam) * f(sb)
        scale = abs(f(sa)) + abs(f(sb)) + 1e-30
        assert lhs <= rhs + 1e-12 * scale
