"""The seed-0 benchmark workloads (perfbench/workloads.py) run in the unit
suite: each step against a reference copy of the step formulas, and the
CSV outputs of cli.main against the benchmark's correctness gate and stored
reference outputs.  Nothing under perfbench/ is changed here."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from contactbem import cli, evolve
from contactbem.evolve import EnergyResiduum, modified_dirichlet
from contactbem.qp import (
    GapState,
    QPProblem,
    mosco_bounds,
    quadratic_part,
    solve_qp,
)
from oracles import awb_to_y, objective, traction, y_to_awb

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import gate  # noqa: E402
import workloads  # noqa: E402

# -- reference step -------------------------------------------------------------
# The step written plainly, one product per form: the QP data term through
# the nodal frame split, each objective and each Q form a product of its
# own, the tractions split after the traction map, every data vector
# interpolated afresh, and the QP solved with no free-block memo.


def frame_join(pair, w_t, w_n):
    """Nodal (w_t, w_n) in the master frame -> interleaved global vector."""
    w = np.empty(2 * pair.n_master_nodes)
    w[0::2] = w_t * pair.tangent[:, 0] + w_n * pair.normal[:, 0]
    w[1::2] = w_t * pair.tangent[:, 1] + w_n * pair.normal[:, 1]
    return w


def frame_split(pair, w):
    """Interleaved global gap vector -> nodal (w_t, w_n) in the master frame."""
    wx, wy = w[0::2], w[1::2]
    return (wx * pair.tangent[:, 0] + wy * pair.tangent[:, 1],
            wx * pair.normal[:, 0] + wy * pair.normal[:, 1])


def reference_qp(op, d, law, tau, chi, z_prev):
    A = quadratic_part(op, tau * law.k_g / (tau + chi))
    g_off_t, g_off_n = frame_split(op.im.pair, -(op.G[:, :op.n_known] @ d))
    fric = law.mu * law.k_g * (op.M @ np.maximum(0.0, -z_prev.z_n))
    b = -np.concatenate([0.5 * fric + 0.5 * g_off_t,
                         0.5 * fric - 0.5 * g_off_t, -g_off_n, g_off_n])
    return QPProblem(A=A, b=b, xi=mosco_bounds(z_prev, tau, chi),
                     slip_pairs=True)


def reference_step(op, law, chi, data, state, tau):
    """The fields of the StepRecord step returns, its residuum, and the
    magnitude of each (see magnitudes)."""
    pair, M, Q = op.im.pair, op.M, op.Q
    t_k = state.t + tau
    d_now = data.at(t_k)
    d_old = np.where(data.dirichlet, data.at(t_k - tau), d_now)
    d_tilde = modified_dirichlet(d_now, d_old, tau, chi)
    qp = reference_qp(op, d_tilde, law, tau, chi, state.z)
    qsol = solve_qp(qp, active=state.active)
    _, _, w_t, w_n = y_to_awb(qsol.y)
    lam = tau / (tau + chi)
    beta_c = np.maximum(0.0, -(1.0 + chi / tau) * state.z.z_n)
    y_comp = awb_to_y(np.zeros_like(beta_c), beta_c, state.z.z_t, state.z.z_n)
    delta = lam * (objective(qp, y_comp) - objective(qp, qsol.y))
    s_fict = np.concatenate([d_tilde, frame_join(pair, w_t, w_n)])
    z_new = GapState(z_t=lam * w_t + (1 - lam) * state.z.z_t,
                     z_n=lam * w_n + (1 - lam) * state.z.z_n)
    s_new = lam * s_fict + (1 - lam) * state.s
    ds = s_new - state.s
    dz_t = np.abs(z_new.z_t - state.z.z_t)
    beta_new = np.maximum(0.0, -z_new.z_n)
    stored_new = 0.5 * float(s_new @ (Q @ s_new)
                             + law.k_g * beta_new @ (M @ beta_new))
    beta_prev = np.maximum(0.0, -state.z.z_n)
    r1 = law.mu * law.k_g * beta_prev @ (M @ dz_t)
    visc = (chi / tau) * float(ds @ (Q @ ds))
    d_start = data.at(state.t)
    s_lift = np.zeros_like(s_new)
    s_lift[:op.n_known] = np.where(data.dirichlet, d_now - d_start, 0.0)
    q_lift = Q @ s_lift
    work_mixed = float((state.s + (chi / tau) * ds) @ q_lift)
    work_lift = 0.5 * float(s_lift @ q_lift)
    work_ext = float(d_tilde @ (op.F @ ds))
    res = EnergyResiduum(r1=r1, visc=visc, stored_new=stored_new,
                         stored_old=state.stored, work_mixed=work_mixed,
                         work_lift=work_lift, work_ext=work_ext, delta=delta)
    p_t, p_n = frame_split(pair, traction(op) @ s_fict)
    fields = dict(k=state.k + 1, t=t_k, tau=tau, z_t=z_new.z_t,
                  z_n=z_new.z_n, s=s_new, stored=stored_new, y=qsol.y,
                  active=qsol.active, qp_iterations=qsol.iterations,
                  s_fict=s_fict, p_t=p_t, p_n=p_n, slip=dz_t > 1e-10,
                  d=d_now)
    # magnitudes of the operands of the residuum's forms: a difference is
    # measured by its operands, as its rounding is
    a_ds = np.abs(s_new) + np.abs(state.s)
    a_lift = np.zeros_like(s_new)
    a_lift[:op.n_known] = np.where(data.dirichlet,
                                   np.abs(d_now) + np.abs(d_start), 0.0)
    forms = {
        "stored_new": [(0.5, np.abs(s_new), Q, np.abs(s_new)),
                       (0.5 * law.k_g, beta_new, M, beta_new)],
        "r1": [(law.mu * law.k_g, beta_prev, M,
                np.abs(z_new.z_t) + np.abs(state.z.z_t))],
        "visc": [(chi / tau, a_ds, Q, a_ds)],
        "work_mixed": [(1.0, np.abs(state.s) + (chi / tau) * a_ds, Q,
                        a_lift)],
        "work_lift": [(0.5, a_lift, Q, a_lift)],
        "work_ext": [(1.0, np.abs(d_tilde), op.F, a_ds)],
        "delta": [(0.5 * lam, np.abs(y), qp.A, np.abs(y))
                  for y in (y_comp, qsol.y)]
        + [(lam, np.abs(qp.b), np.eye(len(y_comp)), np.abs(y))
           for y in (y_comp, qsol.y)],
    }
    return fields, res, magnitudes(op, fields, forms, state.stored)


def magnitudes(op, fields: dict, forms: dict, stored_old: float) -> dict:
    """Per field and residuum term, the scale of its rounding.  A residuum
    term made of the forms c u^T A v with operand magnitudes u, v has the
    magnitude sum c u^T |A| v; the tractions have that of the traction map
    on s_fict, every other field its own size."""
    mags = {name: np.abs(fields[name]).max()
            for name in ("z_t", "z_n", "s", "y", "s_fict")}
    mags.update({name: sum(c * (u @ (np.abs(A) @ v)) for c, u, A, v in terms)
                 for name, terms in forms.items()})
    mags["stored"], mags["stored_old"] = mags["stored_new"], abs(stored_old)
    mags["p_t"] = mags["p_n"] = (np.abs(traction(op))
                                 @ np.abs(fields["s_fict"])).max()
    return mags


RTOL = 1e-12
EXACT = ("k", "t", "tau", "active", "qp_iterations", "slip", "d")


def deviations(rec, ref: dict, res, mags: dict) -> dict:
    """Per field and residuum term, |rec - ref| relative to its magnitude
    (0 where they are equal to the bit), and inf for an exact field that
    differs."""
    got = dict(vars(rec), z_t=rec.z.z_t, z_n=rec.z.z_n)
    dev = {}
    for name in EXACT:
        dev[name] = 0.0 if np.array_equal(got[name], ref[name]) else np.inf
    for name in ("z_t", "z_n", "s", "stored", "y", "s_fict", "p_t", "p_n"):
        diff = np.abs(np.asarray(got[name]) - ref[name]).max()
        dev[name] = diff and diff / mags[name]
    for name in vars(res):
        diff = abs(getattr(rec.residuum, name) - getattr(res, name))
        dev[f"residuum.{name}"] = diff and diff / mags[name]
    return dev


class Enough(Exception):
    pass


@pytest.mark.parametrize("name,limit", [
    ("receding", None), ("conforming", None), ("skewed", 300)])
def test_step_matches_reference_formulas(name, limit, monkeypatch):
    """Every attempt of the seed-0 workload (the first 300 of skewed),
    fed the state the march gives it, returns the record of the reference
    step formulas: identical counts, times, active sets, slip flags and data
    vector, every other field and residuum term within 1e-12 of its
    magnitude.  Each of its QPs, solved with the operator's free-block
    memo (which some of them hit), gives the y and active set it gives
    without, to the bit."""
    sc = workloads.scenario(name, 0)
    system = cli.build_system(sc)
    step, worst, attempts = evolve.step, {}, []
    solve, same, hits = evolve.mprgp_solve, [], []

    def memo_free_too(p, active=None):
        hits.append(active is not None and (~active).tobytes() in p.memo)
        free = solve_qp(dataclasses.replace(p, memo={}), active=active)
        sol = solve(p, active=active)
        same.append(np.array_equal(sol.y, free.y)
                    and np.array_equal(sol.active, free.active))
        return sol

    def checked(op, law, chi, data, state, tau):
        ref = reference_step(op, law, chi, data, state, tau)
        rec = step(op, law, chi, data, state, tau)
        for k, v in deviations(rec, *ref).items():
            worst[k] = max(worst.get(k, 0.0), v)
        attempts.append(rec)
        if len(attempts) == limit:
            raise Enough
        return rec

    monkeypatch.setattr(evolve, "step", checked)
    monkeypatch.setattr(evolve, "mprgp_solve", memo_free_too)
    s = sc.solver
    try:
        evolve.run(system.im, sc.law, sc.chi, system.loads, t_end=s.t_end,
                   tau=s.tau, tau_min=s.tau_min, tau_max=s.tau_max, eps=s.eps)
    except Enough:
        pass
    if limit is None:
        assert attempts[-1].t == pytest.approx(s.t_end, rel=1e-12)
    else:
        assert len(attempts) == limit
    assert max(worst.values()) <= RTOL, {
        k: v for k, v in worst.items() if v > RTOL}
    assert len(same) == len(attempts) and all(same) and any(hits)


# -- benchmark gate -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_workload_passes_the_benchmark_gate(name, tmp_path):
    """cli.main on the seed-0 workload YAML writes outputs that pass the
    benchmark's checks and match its stored reference outputs."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(workloads.scenario_yaml(name, 0))
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
    reference = json.loads(
        (PERFBENCH / "reference" / f"{name}.json").read_text())
    expect = workloads.expectations(workloads.scenario(name, 0))
    assert gate.check_outputs(out, expect, reference) == []
