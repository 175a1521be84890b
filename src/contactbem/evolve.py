"""Semi-implicit time stepping of the visco-elastic contact problem.

Each step minimizes the incremental boundary functional through the
bound-constrained QP, recovers the fictitious displacement v^k, and updates
the real displacement and the contact gap by the convex recursions

    u^k = (tau v^k + chi u^{k-1}) / (tau + chi),
    z^k = (tau w^k + chi z^{k-1}) / (tau + chi).

Every field involved is the operator's affine solution map applied to a
contact-space vector s = [d; w] of known boundary data and gap, so the
recursion is carried on s alone: s^k = (tau s~^k + chi s^{k-1}) / (tau + chi)
with s~^k = [d~^k; w^k], and the step makes no full solve.  The discrete
energy estimate is evaluated with every bulk integral rewritten as boundary
work: all displacement fields involved are equilibrium elastic fields, so
int e(a):C:e(b) dOmega  equals the symmetrized boundary pairing
(<p(a), b> + <p(b), a>)/2 of stored tractions and traces, which is the
operator's form Q on s.  Its residuum drives the optional time-step
adaptivity.

A step applies only maps the operator built once per run: the QP's data
map B^T G_R, the forms Q, M and F, and the traction map in nodal frame
components.  It evaluates both objectives of the residuum with one product
with A, and takes its four Q forms from one Gram matrix S Q S^T of the
states involved.  A record carries the data vector at its time, which the
next step takes as its start data.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .assembly import (
    known_data_vector,
    solve_tbvp,  # unused here; perfbench/probe.py wraps evolve.solve_tbvp
)
# unused here; perfbench/probe.py wraps evolve.contact_mass
from .mesh import contact_mass
from .qp import ContactLaw, GapState, QPError, build_qp, competitor, gap_of
# perfbench/probe.py wraps the step's QP solve under its former name
from .qp import solve_qp as mprgp_solve
from .steklov import SteklovOperator


class EvolveError(RuntimeError):
    pass


@dataclass
class LoadProgram:
    """Piecewise-linear-in-time boundary data as known-data vectors
    (known_data_vector order), one row per breakpoint; values are clamped
    outside [times[0], times[-1]]."""

    times: list  # the breakpoints, strictly increasing floats
    table: np.ndarray  # (n_times, n_known)
    dirichlet: np.ndarray  # True at the prescribed displacement entries

    @classmethod
    def from_tables(cls, im, times, g_D, f_N) -> "LoadProgram":
        """The program of per-domain breakpoint tables: g_D[d] (n_times,
        2 n_psi) of nodal Dirichlet values, f_N[d] (n_times, 2 n_phi) of
        traction coefficients, either None for no data."""
        def row(tabs, j):
            return [None if tab is None else tab[j] for tab in tabs]
        table = [known_data_vector(im, row(g_D, j), row(f_N, j))
                 for j in range(len(times))]
        ones = [np.ones(2 * dd.n_psi) for dd in im.layout.domains]
        dirichlet = known_data_vector(im, ones, [None] * len(ones)) > 0.0
        return cls(list(times), np.array(table), dirichlet)

    def at(self, t) -> np.ndarray:
        """The known-data vector at time t."""
        times, table = self.times, self.table
        if len(times) == 1:
            return table[0]
        t = min(max(t, times[0]), times[-1])
        j = min(max(bisect.bisect_right(times, t) - 1, 0), len(times) - 2)
        lam = (t - times[j]) / (times[j + 1] - times[j])
        return (1 - lam) * table[j] + lam * table[j + 1]


def modified_dirichlet(d_now, d_old, tau: float, chi: float) -> np.ndarray:
    """Dirichlet data of the fictitious problem of a step of size tau, from
    the data d_now at the end of the step and d_old tau before it."""
    return d_now + (chi / tau) * (d_now - d_old)


@dataclass
class EnergyResiduum:
    """Terms of the per-step discrete energy estimate (N mm).

    delta = right side - left side >= 0 up to roundoff; accepted steps in
    adaptive mode additionally satisfy delta <= eps.
    """

    r1: float  # friction dissipation increment
    visc: float  # viscous dissipation (2/tau) R2 increment
    stored_new: float
    stored_old: float
    work_mixed: float  # C/D stress work on the Dirichlet-lift increment
    work_lift: float  # elastic energy of the lift increment
    work_ext: float  # Neumann work on the displacement increment
    # energy imbalance, exact in the discrete system: the minimality gap of
    # the incremental functional (see step), >= 0 up to the QP tolerance,
    # unlike the balance of the terms above, which carries signed
    # discretization error
    delta: float


@dataclass
class StepRecord:
    """One step attempt of size tau from the last accepted record.

    The record an accepted attempt returns is both the march's output and
    the state the next step starts from; k = 0 is the rest state.
    """

    k: int
    t: float
    tau: float
    z: GapState
    s: np.ndarray  # contact-space state [d; z] of the real field u^k
    stored: float  # discrete stored energy E at step k
    op: SteklovOperator
    y: np.ndarray = None  # QP solution
    active: np.ndarray = None  # working set of y, the next step's start
    residuum: EnergyResiduum = None
    qp_iterations: int = 0
    s_fict: np.ndarray = None  # state [d~; w] of the fictitious field v^k
    p_t: np.ndarray = None
    p_n: np.ndarray = None
    slip: np.ndarray = None  # nodal slip flags against the input state
    d: np.ndarray = None  # known data at t, the next step's data at its start

    @classmethod
    def initial(cls, op: SteklovOperator, d: np.ndarray) -> "StepRecord":
        """The rest state at t = 0, with d the known data at t = 0."""
        z = GapState.rest(op.im.pair.n_master_nodes)
        return cls(k=0, t=0.0, tau=0.0, z=z, s=np.zeros(op.n_known + op.n_w),
                   stored=0.0, op=op, d=d)

    @property
    def u(self) -> list:
        """Per-domain nodal displacement traces, rebuilt on demand."""
        return self.op.traces(self.s).v


def step(op: SteklovOperator, law: ContactLaw, chi: float, data: LoadProgram,
         state: StepRecord, tau: float) -> StepRecord:
    """One semi-implicit step of size tau from the given accepted record.

    Only load-dependent work happens here, all of it on the contact space:
    the step's data vector, the QP vectors and its active-set solve (started
    from the record's active set), energy forms, tractions.
    """
    M, Q = op.M, op.Q
    t_k = state.t + tau
    d_now = data.at(t_k)
    # the data at the step's start is the record's; t_k - tau, where the
    # modified data is taken, can round away from state.t
    t_old = t_k - tau
    d_old = state.d if t_old == state.t else data.at(t_old)
    # only the Dirichlet entries are modified; the tractions stay at t_k
    d_tilde = modified_dirichlet(
        d_now, np.where(data.dirichlet, d_old, d_now), tau, chi)
    qp = build_qp(op, d_tilde, law, tau, chi, state.z)
    qsol = mprgp_solve(qp, active=state.active)
    y = qsol.y
    w_t, w_n = gap_of(y)
    # energy residuum: minimality gap of the incremental functional against
    # the do-nothing competitor (previous gap state carried over unchanged),
    # mapped from the fictitious to the physical displacement scale by the
    # same convex factor as the state recursion; the functional's constant
    # cancels
    lam = tau / (tau + chi)
    z_t, z_n = state.z.z_t, state.z.z_n
    # rows: the competitor's y, then the minimizer's
    Y = np.concatenate([competitor(state.z, tau, chi), y]).reshape(2, -1)
    obj = ((0.5 * (Y @ qp.A) - qp.b) * Y).sum(axis=1)  # A is symmetric
    delta = lam * float(obj[0] - obj[1])

    s_fict = np.concatenate([d_tilde, op.B @ y])
    z_new = GapState(z_t=lam * w_t + (1 - lam) * z_t,
                     z_n=lam * w_n + (1 - lam) * z_n)
    dz_t = np.abs(z_new.z_t - z_t)
    # rows s_new, ds, the lift increment s_lift and state.s; every Q form
    # of the residuum is an entry of S Q S^T
    S = np.zeros((4, len(state.s)))
    S[0] = lam * s_fict + (1 - lam) * state.s
    S[1] = S[0] - state.s
    # lift increment: glued-interface equilibrium field with the Dirichlet
    # increment as data, traction-free elsewhere and at zero gap
    S[2, :op.n_known] = np.where(data.dirichlet, d_now - state.d, 0.0)
    S[3] = state.s
    SQS = (S @ Q @ S.T).tolist()
    s_new, ds = S[0], S[1]

    beta_new = z_new.beta
    stored_new = 0.5 * (SQS[0][0]
                        + law.k_g * float(beta_new @ (M @ beta_new)))
    r1 = law.mu * law.k_g * state.z.beta @ (M @ dz_t)
    visc = (chi / tau) * SQS[1][1]
    work_mixed = SQS[3][2] + (chi / tau) * SQS[1][2]
    work_lift = 0.5 * SQS[2][2]
    work_ext = float(d_tilde @ (op.F @ ds))  # Neumann data of d~ only

    res = EnergyResiduum(r1=r1, visc=visc, stored_new=stored_new,
                         stored_old=state.stored, work_mixed=work_mixed,
                         work_lift=work_lift, work_ext=work_ext, delta=delta)
    p_t, p_n = contact_tractions(op, s_fict)
    return StepRecord(k=state.k + 1, t=t_k, tau=tau, z=z_new, s=s_new,
                      stored=stored_new, op=op, y=y, active=qsol.active,
                      residuum=res, qp_iterations=qsol.iterations,
                      s_fict=s_fict, p_t=p_t, p_n=p_n, slip=dz_t > 1e-10,
                      d=d_now)


GROW_FACTOR = 0.1  # a step whose delta is below this share of eps doubles


def adapt_tau(res: EnergyResiduum, eps: float, tau: float, tau_min: float,
              tau_max: float):
    """Accept/reject rule on the energy residuum; returns (accept, new tau)."""
    if res.delta > eps:
        if tau <= tau_min * (1 + 1e-12):
            # cannot refine further: accept; deltaE > eps shows in the log
            return True, tau_min
        return False, max(0.5 * tau, tau_min)
    if res.delta < GROW_FACTOR * eps:
        return True, min(2.0 * tau, tau_max)
    return True, tau


def contact_tractions(op: SteklovOperator, s: np.ndarray):
    """Nodal (p_t, p_n) of the physical contact traction on the master side.

    The Kelvin-Voigt traction at step k equals the elastic traction of the
    fictitious field v^k.  It is recovered consistently: the exact nodal
    contact forces (the gap gradient of the elastic potential) are mapped
    back to a traction through the contact mass matrix, which is more
    accurate than the raw traction trace near singular corners.  s is the
    contact-space state [d~; w] of the fictitious field.
    """
    p = op.traction_tn @ s
    return p[:len(p) // 2], p[len(p) // 2:]


def run(im, law: ContactLaw, chi: float, loads: LoadProgram, *, t_end: float,
        tau: float, tau_min: float = None, tau_max: float = None,
        eps: float = None, on_step=None) -> StepRecord:
    """March the evolution to t_end; fixed step if eps is None.

    on_step, if given, is called with each accepted StepRecord as it is
    accepted; the march keeps none of them and returns the last (the rest
    record if no step was taken).  Rejections halve the step and a step at
    tau_min is always accepted, so the march cannot stall.
    """
    if eps is not None and (tau_min is None or tau_max is None):
        raise EvolveError("adaptive stepping (eps) needs tau_min and tau_max")
    op = SteklovOperator(im)
    rec = StepRecord.initial(op, loads.at(0.0))
    while rec.t < t_end - 1e-12 * t_end:
        tau_k = min(tau, t_end - rec.t)
        try:
            attempt = step(op, law, chi, loads, rec, tau_k)
        except QPError as exc:
            raise EvolveError(f"QP failed at t={rec.t + tau_k:.6g}: {exc}")
        if eps is not None:
            accept, tau = adapt_tau(attempt.residuum, eps, tau_k, tau_min,
                                    tau_max)
            if not accept:
                continue
        rec = attempt
        if on_step is not None:
            on_step(rec)
    return rec
