import dataclasses
import itertools

import numpy as np
import pytest

from contactbem.assembly import InfluenceMatrices, _master_w_columns
from contactbem.cli import build_system, parse_scenario, preset_conforming
from contactbem.evolve import (
    EnergyResiduum,
    LoadProgram,
    StepRecord,
    adapt_tau,
    contact_tractions,
    run,
    step,
)
from contactbem.mesh import contact_mass, frame_matrix
from contactbem.qp import ContactLaw
from contactbem.steklov import SteklovOperator
from oracles import (
    LAW,
    gradient,
    known_data_vector,
    load_program,
    load_tables,
    offset_constant,
    patch_data,
    potential,
    residuum_scale,
    run_records,
    solve_data,
    stacked,
    tables_at,
    top_pressure,
)
from oracles import modified_dirichlet as modified_dirichlet_per_domain


def pressure_ramp(f_max):
    """(pair, im, lp): pressure on A's top, ramped to f_max over 5 ms and
    held there to 10 ms."""
    _, _, pair, im = stacked(3, 3)
    f1 = top_pressure(im, f_max)
    nB = 2 * im.layout.domains[1].n_phi
    return pair, im, load_program(
        im, [0.0, 5e-3, 1e-2],
        g_D=[None, np.zeros((3, 2 * im.pair.mesh_B.n_nodes))],
        f_N=[np.stack([0 * f1, f1, f1]), np.zeros((3, nB))],
    )


def pressed(dy, dx=0.0):
    """(pair, im, lp): A's top face, clamped, moves by (dx, dy) over 5 ms
    and holds there to 10 ms."""
    _, _, pair, im = stacked(3, 3, top="D")
    g1 = np.zeros(2 * pair.mesh_A.n_nodes)
    g1[0::2], g1[1::2] = dx, dy
    lp = load_program(im, [0.0, 5e-3, 1e-2],
                      g_D=[np.stack([0 * g1, g1, g1]), None], f_N=[None, None])
    return pair, im, lp


def test_load_program_interp_and_clamp():
    """The program interpolates its known-data rows linearly between
    breakpoints and clamps outside them (parse_scenario checks that the
    breakpoints increase).  The table build_system builds holds, at each
    breakpoint, the known-data vector of the scenario's per-domain load
    tables, and its Dirichlet mask marks the prescribed displacements."""
    lp = LoadProgram(times=[0.0, 1.0, 3.0],
                     table=np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 4.0]]),
                     dirichlet=np.array([True, False]))
    assert np.allclose(lp.at(0.5), [1.0, 0.0])
    assert np.allclose(lp.at(2.0), [2.0, 2.0])
    # clamped outside the program
    assert np.allclose(lp.at(-1.0), [0.0, 0.0])
    assert np.allclose(lp.at(9.0), [2.0, 4.0])
    # one breakpoint: the data hold at all times
    one = LoadProgram(times=[2.0], table=np.array([[1.0, -1.0]]),
                      dirichlet=np.array([True, False]))
    for t in (0.0, 2.0, 5.0):
        assert np.array_equal(one.at(t), [1.0, -1.0])

    sc = parse_scenario(preset_conforming())  # Neumann and Dirichlet loads
    system = build_system(sc)
    im, lp = system.im, system.loads
    g_D, f_N = load_tables(sc, im)
    times = sc.load_times
    assert lp.times == times and len(lp.table) == len(times)
    for j in range(len(times)):
        assert np.array_equal(lp.table[j], known_data_vector(
            im, [g[j] for g in g_D], [f[j] for f in f_N]))
    assert np.any(lp.table[-1][lp.dirichlet])
    assert np.any(lp.table[-1][~lp.dirichlet])
    for t in (-1.0, 0.0, 5e-3, 0.01, 0.0125, 0.015, 0.03, 0.04, 1.0):
        ref = known_data_vector(im, tables_at(times, g_D, t),
                                tables_at(times, f_N, t))
        assert np.allclose(lp.at(t), ref, rtol=1e-14, atol=1e-18)
    ones = known_data_vector(im, [np.ones(2 * dd.n_psi)
                                  for dd in im.layout.domains], [None, None])
    assert np.array_equal(lp.dirichlet, ones == 1.0)
    assert lp.dirichlet.sum() == sum(dd.disp_known.sum()
                                     for dd in im.layout.domains) > 0


def test_modified_dirichlet():
    """A step's fictitious problem takes the Dirichlet data
    d + (chi/tau) (d - d_start) at the step's end, with d_start the data the
    record it starts from carries, and the tractions unmodified; the energy
    residuum's lift increment is the same Dirichlet increment d - d_start.
    A record's data hold even where they are not the program's at its time,
    as where t_k - tau rounds away from the record's time."""
    _, im, lp = pressed(-1e-3, dx=2e-4)  # ramp to 5 ms, then hold
    op = SteklovOperator(im)
    nk, tau, rest = op.n_known, 1e-3, StepRecord.initial(op, lp.at(0.0))
    starts = [rest,  # on the ramp
              dataclasses.replace(rest, t=6e-3, d=lp.at(6e-3)),  # held
              # data off the program, at a time t with t + tau - tau != t
              dataclasses.replace(rest, t=7e-4, d=lp.at(0.0))]
    for state, chi in itertools.product(starts, (0.0, 2e-3)):
        rec = step(op, LAW, chi, lp, state, tau)
        d_now = lp.at(state.t + tau)
        lift = np.zeros(nk + op.n_w)
        lift[:nk] = np.where(lp.dirichlet, d_now - state.d, 0.0)
        assert np.allclose(rec.s_fict[:nk], d_now + (chi / tau) * lift[:nk],
                           rtol=1e-14, atol=0.0)
        assert rec.residuum.work_lift == pytest.approx(
            0.5 * lift @ op.Q @ lift, rel=1e-12, abs=1e-30)
    assert np.any(lift)


def test_adapt_tau_rules():
    def res(delta):
        return EnergyResiduum(r1=0, visc=0, stored_new=0, stored_old=0,
                              work_mixed=0, work_lift=0, work_ext=0,
                              delta=delta)
    eps = 1.0
    assert adapt_tau(res(1.5), eps, 1e-3, 1e-6, 1e-2) == (False, 0.5e-3)
    assert adapt_tau(res(0.05), eps, 1e-3, 1e-6, 1e-2) == (True, 2e-3)
    assert adapt_tau(res(0.5), eps, 1e-3, 1e-6, 1e-2) == (True, 1e-3)
    # clamped at the extremes
    assert adapt_tau(res(0.05), eps, 1e-2, 1e-6, 1e-2) == (True, 1e-2)
    assert adapt_tau(res(1.5), eps, 1e-6, 1e-6, 1e-2) == (True, 1e-6)


def test_zero_load_rest():
    _, _, pair, im = stacked(3, 3)
    lp = load_program(
        im, [0.0, 1.0], g_D=[None, np.zeros((2, 2 * pair.mesh_B.n_nodes))],
        f_N=[None, None])
    recs = run_records(im, LAW, chi=1e-3, loads=lp, t_end=0.01, tau=1e-3,
                       tau_min=1e-3, tau_max=1e-3)
    assert len(recs) == 10
    for r in recs:
        assert np.abs(r.z.z_n).max() == 0.0
        assert np.abs(r.p_n).max() == 0.0
        assert r.residuum.delta == pytest.approx(0.0, abs=1e-14)
        assert r.stored == 0.0


def test_compression_step_physics():
    """Pressing the upper block down closes the gap: compressive contact
    pressure balances the load and penetration follows the compliance law."""
    f = -0.5  # MPa downward on A's top
    pair, im, lp = pressure_ramp(f)
    chi, tau = 1e-3, 1e-3
    recs = run_records(im, LAW, chi=chi, loads=lp, t_end=1e-2, tau=tau,
                       tau_min=tau, tau_max=tau)
    last = recs[-1]
    # viscous memory has decayed: tractions transmit the applied pressure
    # (nodally within discretization error, exactly as a resultant)
    M = contact_mass(pair)
    assert last.p_n == pytest.approx(np.full_like(last.p_n, f), rel=3e-2)
    assert (M @ last.p_n).sum() == pytest.approx(f * 1.0, rel=1e-3)
    assert np.abs(last.p_t).max() <= 1e-2 * abs(f)
    # compliance: pressure = k_g * penetration
    assert -last.z.z_n * LAW.k_g == pytest.approx(-last.p_n, rel=3e-2)
    # no interpenetration beyond the compliance bound
    assert last.z.z_n.max() <= 0.0 + 1e-12
    for r in recs:
        assert r.residuum.delta >= -1e-9 * residuum_scale(r.residuum)


def test_gap_recursion_exact():
    pair, im, lp = pressure_ramp(-0.5)
    chi, tau = 1e-3, 1e-3
    op = SteklovOperator(im)
    state = StepRecord.initial(op, lp.at(0.0))
    for _ in range(3):
        result = step(op, LAW, chi, lp, state, tau)
        # reconstruct w from the recursion and re-apply it
        lam = tau / (tau + chi)
        w_t = (result.z.z_t - (1 - lam) * state.z.z_t) / lam
        z_re = lam * w_t + (1 - lam) * state.z.z_t
        err = np.abs(z_re - result.z.z_t)
        assert err.max() <= 1e-14 * (np.abs(result.z.z_t).max() + 1e-30)
        state = result


def test_chi_zero_degenerate_recursion():
    pair, im, lp = pressure_ramp(-0.5)
    op = SteklovOperator(im)
    state = StepRecord.initial(op, lp.at(0.0))
    result = step(op, LAW, chi=0.0, data=lp, state=state, tau=1e-3)
    # z^k = w^k when chi = 0: the fictitious trace is the real one
    wcols = _master_w_columns(pair)
    w_master = op.traces(result.s_fict).v[1][wcols]
    assert np.allclose(op.traces(result.s).v[1][wcols], w_master,
                       atol=1e-14)


def test_ledger_consistency():
    """Each step's residuum starts from the stored energy of the record it
    stepped from (0 at rest), and the primary residuum (the minimality gap)
    is nonnegative on every step."""
    pair, im, lp = pressure_ramp(-0.5)
    recs = run_records(im, LAW, chi=1e-3, loads=lp, t_end=1e-2, tau=1e-3,
                       tau_min=1e-3, tau_max=1e-3)
    stored = [0.0] + [r.stored for r in recs]
    assert [r.residuum.stored_old for r in recs] == stored[:-1]
    assert all(r.residuum.stored_new == r.stored for r in recs)
    # the scale of the run's energy terms
    res = [r.residuum for r in recs]
    scale = (abs(recs[-1].stored) + sum(r.r1 for r in res)
             + abs(sum(r.visc for r in res))
             + abs(sum(r.work_mixed + r.work_lift + r.work_ext for r in res))
             + 1e-30)
    assert min(r.residuum.delta for r in recs) >= -1e-12 * scale


def test_dirichlet_squeeze_lift_terms():
    """Prescribed downward motion of the clamped top face exercises the
    Dirichlet-lift terms of the energy estimate; the inequality must hold."""
    pair, im, lp = pressed(-2e-4)  # push straight down
    recs = run_records(im, LAW, chi=1e-3, loads=lp, t_end=1e-2, tau=1e-3,
                       tau_min=1e-3, tau_max=1e-3)
    last = recs[-1]
    assert last.p_n.min() < -1e-3  # contact is engaged in compression
    assert any(abs(r.residuum.work_mixed) > 0 for r in recs)
    for r in recs:
        assert r.residuum.delta >= -1e-9 * residuum_scale(r.residuum)


def test_no_load_independent_rebuild_per_step(monkeypatch):
    """Once the operator exists, steps (Dirichlet lifts included) construct
    no DomainDof, call no contact_mass, build no Hessian, make no full solve
    or backsolve and read no per-domain mass Mg; a run builds its operator
    once, with one multi-RHS backsolve."""
    from contactbem import assembly, evolve, mesh, qp, steklov

    pair, im, lp = pressed(-2e-4)
    op = SteklovOperator(im)
    calls = dict.fromkeys(("DomainDof", "contact_mass", "hessian",
                           "SteklovOperator", "solve_tbvp", "solve"), 0)

    def counted(owner, name):
        func = getattr(owner, name)
        key = name if name != "__post_init__" else "DomainDof"

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(assembly.DomainDof, "__post_init__")
    for module in (mesh, evolve, qp, steklov):
        counted(module, "contact_mass")
    counted(steklov.SteklovOperator, "hessian")
    counted(evolve, "SteklovOperator")
    for module in (assembly, evolve, steklov):
        counted(module, "solve_tbvp")
    counted(InfluenceMatrices, "solve")
    state = StepRecord.initial(op, lp.at(0.0))
    Mg, im.Mg = im.Mg, None  # a step that pairs through Mg fails
    for _ in range(4):
        state = step(op, LAW, 1e-3, lp, state, 1e-3)
    assert state.k == 4 and np.any(state.s)
    im.Mg = Mg
    assert calls == dict.fromkeys(calls, 0)
    recs = run_records(im, LAW, chi=1e-3, loads=lp, t_end=5e-3, tau=1e-3,
                       tau_min=1e-3, tau_max=1e-3)
    assert len(recs) == 5
    assert calls == {"DomainDof": 0, "contact_mass": 1, "hessian": 1,
                     "SteklovOperator": 1, "solve_tbvp": 0, "solve": 1}


def test_adaptive_run_respects_epsilon():
    pair, im, lp = pressed(-5e-4)
    eps = 1e-7
    recs = run_records(im, LAW, chi=1e-3, loads=lp, t_end=1e-2, tau=1e-3,
                       tau_min=1e-6, tau_max=2e-3, eps=eps)
    assert recs[-1].t == pytest.approx(1e-2, rel=1e-9)
    for r in recs:
        assert (r.residuum.delta <= eps
                or r.tau <= 1e-6 * (1 + 1e-9))
    # times strictly increasing
    ts = [r.t for r in recs]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_run_keeps_the_record_step_returns(monkeypatch):
    """step returns one record per attempt, rejected ones included; run
    keeps the accepted ones as they are, and each starts the next step.
    Slip flags compare with the previous kept record (rest before the
    first) and tractions are those of the record's fictitious state.  The
    QP of an attempt from a record with an active set is started from that
    set: at most a handful need a working-set change, and every accepted y
    meets the KKT conditions to roundoff."""
    from contactbem import evolve

    pair, im, lp = pressed(-5e-4, 1e-3)  # press down and drag sideways
    law, eps = ContactLaw(mu=0.2, k_g=4e5), 1e-7
    inputs, attempts = [], []
    step_ = evolve.step

    def recorded(*args, **kwargs):
        inputs.append(args[4])
        attempts.append(step_(*args, **kwargs))
        return attempts[-1]

    qps, mprgp_solve = [], evolve.mprgp_solve

    def solved(p, *args, **kwargs):
        qps.append(p)
        return mprgp_solve(p, *args, **kwargs)

    monkeypatch.setattr(evolve, "step", recorded)
    monkeypatch.setattr(evolve, "mprgp_solve", solved)
    recs = run_records(im, law, chi=1e-3, loads=lp, t_end=1e-2, tau=1e-3,
                       tau_min=1e-6, tau_max=2e-3, eps=eps)
    assert all(isinstance(a, StepRecord) for a in attempts)
    kept = [any(a is r for r in recs) for a in attempts]
    accepted = [a for a, k in zip(attempts, kept) if k]
    assert len(accepted) == len(recs)
    assert all(r is a for r, a in zip(recs, accepted))
    rejected = [a for a, k in zip(attempts, kept) if not k]
    assert rejected and all(a.residuum.delta > eps for a in rejected)
    prev = inputs[0]
    assert prev.k == 0 and not np.any(prev.z.z_t)
    for a, state, k in zip(attempts, inputs, kept):
        assert state is prev and a.k == state.k + 1
        prev = a if k else prev
    op, prev_zt = recs[0].op, np.zeros(pair.n_master_nodes)
    for rec in recs:
        assert np.array_equal(rec.slip, np.abs(rec.z.z_t - prev_zt) > 1e-10)
        p_t, p_n = contact_tractions(op, rec.s_fict)
        assert np.array_equal(rec.p_t, p_t) and np.array_equal(rec.p_n, p_n)
        prev_zt = rec.z.z_t
    slips = [bool(rec.slip.any()) for rec in recs]
    assert any(slips) and not all(slips)  # the run both slides and sticks
    changed = [a.qp_iterations > 0 for a, state in zip(attempts, inputs)
               if state.active is not None]
    assert len(changed) >= 10 and sum(changed) <= 2
    for rec, p in zip(recs, [p for p, k in zip(qps, kept) if k]):
        g = p.A @ rec.y - p.b
        y_max = np.abs(rec.y).max()
        g_max = np.abs(p.A).max() * y_max + np.abs(p.b).max()
        assert (p.xi - rec.y).max() <= 1e-14 * y_max
        assert np.abs(g[~rec.active]).max(initial=0.0) <= 1e-14 * g_max
        assert g[rec.active].min(initial=0.0) >= -1e-14 * g_max


def test_qp_norm_estimated_once_per_step_size(monkeypatch):
    """The quadratic part of the step QP depends only on the step size: an
    adaptive run that repeats step sizes builds it once per distinct size,
    not once per attempted step (a cached part is the same array)."""
    from contactbem import evolve, qp

    pair, im, lp = pressed(-5e-4)
    taus, parts = [], []
    step_, quadratic_part = evolve.step, qp.quadratic_part

    def counted_step(*args, **kwargs):
        taus.append(args[5])
        return step_(*args, **kwargs)

    def counted_part(*args, **kwargs):
        parts.append(quadratic_part(*args, **kwargs))
        return parts[-1]

    monkeypatch.setattr(evolve, "step", counted_step)
    monkeypatch.setattr(qp, "quadratic_part", counted_part)
    run(im, LAW, chi=1e-3, loads=lp, t_end=1e-2, tau=1e-3, tau_min=1e-6,
        tau_max=2e-3, eps=1e-7)
    assert len(taus) > len(set(taus)) > 1
    assert len(parts) == len(taus)
    assert len({id(A) for A in parts}) == len(set(taus))


def test_contact_traction_extraction_constant_state():
    """On the exact uniaxial transmission state the nodal extraction returns
    the constant traction (p_t, p_n) = (0, f) at every master node."""
    f = -5.0
    _, _, pair, im = stacked(3, 3)
    d = known_data_vector(im, *patch_data(im, f))
    s = np.concatenate([d, np.zeros(2 * pair.n_master_nodes)])
    p_t, p_n = contact_tractions(SteklovOperator(im), s)
    assert np.allclose(p_n, f, rtol=1e-6)
    assert np.abs(p_t).max() <= 1e-6 * abs(f)


def test_contact_space_step_matches_full_solves():
    """A step's contact-space forms reproduce the full-solve formulas: the
    offset gradient and potential and the contact force of full solves, and
    all six energy terms and the state traces from fields paired through the
    per-domain mass Mg, under moving Dirichlet data and a Neumann load."""
    _, _, pair, im = stacked(3, 3)
    meshB = pair.mesh_B
    gB = np.zeros(2 * meshB.n_nodes)
    gB[0::2], gB[1::2] = 2e-4, -1e-4  # the support slides and sinks
    f1 = top_pressure(im, -0.5)
    times = [0.0, 5e-3, 1e-2]
    g_D = [None, np.stack([0 * gB, gB, 0.5 * gB])]
    f_N = [np.stack([0 * f1, f1, f1]), None]
    lp = load_program(im, times, g_D, f_N)
    chi, tau = 1e-3, 1e-3
    op = SteklovOperator(im)
    M, W, nk = op.M, im.W, op.n_known
    state = StepRecord.initial(op, lp.at(0.0))
    u = [np.zeros(2 * dd.n_psi) for dd in im.layout.domains]
    pu = [np.zeros(2 * dd.n_phi) for dd in im.layout.domains]

    def pairing(ps, vs):
        return sum(float(p @ (Mg @ v)) for p, v, Mg in zip(ps, vs, im.Mg))

    def close(got, ref, scale):
        assert np.abs(np.asarray(got) - ref).max() <= 1e-10 * scale

    for _ in range(6):
        t_k = state.t + tau
        g_now = tables_at(times, g_D, t_k)
        g_til = modified_dirichlet_per_domain(
            g_now, tables_at(times, g_D, state.t), tau, chi)
        f_k = tables_at(times, f_N, t_k)
        d = known_data_vector(im, g_til, f_k)
        grad = gradient(op, solve_data(im, g_til, f_k, w=np.zeros(op.n_w)))
        close(-op.G[:, :nk] @ d, grad, np.abs(grad).max())
        phi = potential(op, np.zeros(op.n_w), g_til, f_k)
        close(offset_constant(op, d), phi, abs(phi))

        result = step(op, LAW, chi, lp, state, tau)
        close(result.s_fict[:nk], d, np.abs(d).max())
        sol = solve_data(im, g_til, f_k, w=result.s_fict[nk:])
        force = W.T @ sol.x
        close(op.G @ result.s_fict, force, np.abs(force).max())
        p_xy = np.linalg.solve(M, force.reshape(-1, 2)).ravel()
        p_ref = np.split(frame_matrix(pair).T @ p_xy, 2)
        close((result.p_t, result.p_n), p_ref, np.abs(p_xy).max())

        lam = tau / (tau + chi)
        u_new = [lam * v + (1 - lam) * a for v, a in zip(sol.v, u)]
        pu_new = [lam * p + (1 - lam) * q for p, q in zip(sol.p, pu)]
        du = [a - b for a, b in zip(u_new, u)]
        dp = [a - b for a, b in zip(pu_new, pu)]
        z, z_old = result.z, state.z
        beta = np.maximum(0.0, -z.z_n)
        dg = [None if gn is None else gn - go
              for gn, go in zip(g_now, tables_at(times, g_D, state.t))]
        lift = solve_data(im, dg, [None, None], w=np.zeros(op.n_w))
        ref = {
            "r1": LAW.mu * LAW.k_g * np.maximum(0.0, -z_old.z_n) @ (
                M @ np.abs(z.z_t - z_old.z_t)),
            "visc": (chi / tau) * pairing(dp, du),
            "stored_new": 0.5 * pairing(pu_new, u_new)
            + 0.5 * LAW.k_g * beta @ (M @ beta),
            "work_mixed": 0.5 * (pairing(pu, lift.v) + pairing(lift.p, u))
            + (chi / tau) * 0.5 * (pairing(dp, lift.v) + pairing(lift.p, du)),
            "work_lift": 0.5 * pairing(lift.p, lift.v),
            "work_ext": pairing([f for f in f_k if f is not None], du[:1]),
        }
        assert abs(ref["work_lift"]) > 0 and abs(ref["work_ext"]) > 0
        scale = max(abs(v) for v in ref.values())
        for name, value in ref.items():
            close(getattr(result.residuum, name), value, scale)
        close(result.residuum.stored_old, state.stored, scale)
        traces = op.traces(result.s)
        for got, want in zip(traces.p + traces.v, pu_new + u_new):
            close(got, want, np.abs(want).max() + 1e-30)
        state, u, pu = result, u_new, pu_new
