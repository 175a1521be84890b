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
from .contact import (
    ContactLaw,
    GapState,
    awb_to_y,
    contact_mass,  # unused here; perfbench/probe.py wraps evolve.contact_mass
    y_to_awb,
)
# perfbench/probe.py wraps the step's QP solve under its former name
from .qp import QPError, build_qp
from .qp import solve_qp as mprgp_solve
from .steklov import SteklovOperator


class EvolveError(RuntimeError):
    pass


@dataclass
class LoadProgram:
    """Piecewise-linear-in-time boundary data for both domains.

    g_D[d] is None or an array (n_times, 2 * n_nodes) of nodal Dirichlet
    values; f_N[d] is None or (n_times, 2 * n_phi) of traction coefficients.
    Values are clamped outside [times[0], times[-1]].
    """

    times: np.ndarray
    g_D: list
    f_N: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) < 1 or np.any(np.diff(self.times) <= 0.0):
            raise EvolveError("load breakpoints must be strictly increasing")
        self.g_D = [None if tab is None else np.asarray(tab, dtype=float)
                    for tab in self.g_D]
        self.f_N = [None if tab is None else np.asarray(tab, dtype=float)
                    for tab in self.f_N]

    def g_at(self, t):
        return _interp(self.times, self.g_D, t)

    def f_at(self, t):
        return _interp(self.times, self.f_N, t)

    def known(self, im) -> "KnownData":
        """The program as known-data vectors of the assembly im."""
        table = [known_data_vector(im, self.g_at(t), self.f_at(t))
                 for t in self.times]
        ones = [np.ones(2 * dd.n_psi) for dd in im.layout.domains]
        dirichlet = known_data_vector(im, ones, [None] * len(ones)) > 0.0
        return KnownData(self.times.tolist(), np.array(table), dirichlet)


@dataclass
class KnownData:
    """A load program as known-data vectors (known_data_vector order), so a
    step interpolates one vector per time instead of every domain table."""

    times: list  # the breakpoints, as floats for bisect
    table: np.ndarray  # (n_times, n_known)
    dirichlet: np.ndarray  # True at the prescribed displacement entries

    def at(self, t) -> np.ndarray:
        return _interp(self.times, [self.table], t)[0]


def _interp(times, tables, t):
    """Every table at time t, from one bracket of the breakpoints."""
    if len(times) == 1:
        return [None if tab is None else tab[0] for tab in tables]
    t = min(max(t, times[0]), times[-1])
    j = min(max(bisect.bisect_right(times, t) - 1, 0), len(times) - 2)
    lam = (t - times[j]) / (times[j + 1] - times[j])
    return [None if tab is None else (1 - lam) * tab[j] + lam * tab[j + 1]
            for tab in tables]


def modified_dirichlet(g_now, g_old, tau: float, chi: float):
    """Dirichlet data of the fictitious problem of a step of size tau.

    g_now and g_old are the per-domain Dirichlet data at the end of the step
    and tau before it (or, in step, whole known-data vectors).
    """
    if not tau > 0.0:
        raise EvolveError(f"time step must be positive: {tau}")
    out = []
    for gn, go in zip(g_now, g_old):
        out.append(None if gn is None else gn + (chi / tau) * (gn - go))
    return out


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
    # unlike delta_pairing, which carries signed discretization error
    delta: float

    @property
    def delta_pairing(self) -> float:
        """Same imbalance from the logged decomposition terms (diagnostic)."""
        right = self.stored_old + self.work_mixed + self.work_lift + self.work_ext
        left = self.r1 + self.visc + self.stored_new
        return right - left

    @property
    def scale(self) -> float:
        return max(abs(self.stored_new), abs(self.stored_old), self.r1,
                   abs(self.visc), abs(self.work_ext), 1e-30)


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
    def initial(cls, op: SteklovOperator) -> "StepRecord":
        z = GapState.rest(op.im.pair.n_master_nodes)
        return cls(k=0, t=0.0, tau=0.0, z=z, s=np.zeros(op.n_known + op.n_w),
                   stored=0.0, op=op)

    @property
    def u(self) -> list:
        """Per-domain nodal displacement traces, rebuilt on demand."""
        return self.op.traces(self.s).v


def step(op: SteklovOperator, law: ContactLaw, chi: float, data: KnownData,
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
    d_start = data.at(state.t) if state.d is None else state.d
    t_old = t_k - tau
    d_old = d_start if t_old == state.t else data.at(t_old)
    # only the Dirichlet entries are modified; the tractions stay at t_k
    d_tilde, = modified_dirichlet(
        [d_now], [np.where(data.dirichlet, d_old, d_now)], tau, chi)
    qp = build_qp(op, d_tilde, law, tau, chi, state.z)
    qsol = mprgp_solve(qp, active=state.active)
    _, _, w_t, w_n = y_to_awb(qsol.y)
    # energy residuum: minimality gap of the incremental functional against
    # the do-nothing competitor (previous gap state carried over unchanged),
    # mapped from the fictitious to the physical displacement scale by the
    # same convex factor as the state recursion; the constant c cancels
    lam = tau / (tau + chi)
    beta_c = np.maximum(0.0, -(1.0 + chi / tau) * state.z.z_n)
    Y = np.array([awb_to_y(0.0, beta_c, state.z.z_t, state.z.z_n), qsol.y])
    obj = ((0.5 * (Y @ qp.A) - qp.b) * Y).sum(axis=1)  # A is symmetric
    delta = lam * float(obj[0] - obj[1])

    s_fict = np.concatenate([d_tilde, op.B @ qsol.y])
    z_new = GapState(z_t=lam * w_t + (1 - lam) * state.z.z_t,
                     z_n=lam * w_n + (1 - lam) * state.z.z_n)
    dz_t = np.abs(z_new.z_t - state.z.z_t)
    # rows s_new, ds, the lift increment s_lift and state.s; every Q form
    # of the residuum is an entry of S Q S^T
    S = np.zeros((4, len(state.s)))
    S[0] = lam * s_fict + (1 - lam) * state.s
    S[1] = S[0] - state.s
    # lift increment: glued-interface equilibrium field with the Dirichlet
    # increment as data, traction-free elsewhere and at zero gap
    S[2, :op.n_known] = np.where(data.dirichlet, d_now - d_start, 0.0)
    S[3] = state.s
    SQS = (S @ Q @ S.T).tolist()
    s_new, ds = S[0], S[1]

    beta_new = z_new.beta_prev()
    stored_new = 0.5 * (SQS[0][0]
                        + law.k_g * float(beta_new @ (M @ beta_new)))
    r1 = law.mu * law.k_g * state.z.beta_prev() @ (M @ dz_t)
    visc = (chi / tau) * SQS[1][1]
    work_mixed = SQS[3][2] + (chi / tau) * SQS[1][2]
    work_lift = 0.5 * SQS[2][2]
    work_ext = float(d_tilde @ (op.F @ ds))  # Neumann data of d~ only

    res = EnergyResiduum(r1=r1, visc=visc, stored_new=stored_new,
                         stored_old=state.stored, work_mixed=work_mixed,
                         work_lift=work_lift, work_ext=work_ext, delta=delta)
    p_t, p_n = contact_tractions(op, s_fict)
    return StepRecord(k=state.k + 1, t=t_k, tau=tau, z=z_new, s=s_new,
                      stored=stored_new, op=op, y=qsol.y, active=qsol.active,
                      residuum=res, qp_iterations=qsol.iterations,
                      s_fict=s_fict, p_t=p_t, p_n=p_n, slip=dz_t > 1e-10,
                      d=d_now)


GROW_FACTOR = 0.1  # a step whose delta is below this share of eps doubles


def adapt_tau(res: EnergyResiduum, eps: float, tau: float, tau_min: float,
              tau_max: float):
    """Accept/reject rule on the energy residuum; returns (accept, new tau)."""
    if not eps > 0.0:
        raise EvolveError(f"residual tolerance must be positive: {eps}")
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
    tau_min = tau if tau_min is None else tau_min
    tau_max = tau if tau_max is None else tau_max
    op = SteklovOperator(im)
    data = loads.known(im)
    rec = StepRecord.initial(op)
    while rec.t < t_end - 1e-12 * t_end:
        tau_k = min(tau, t_end - rec.t)
        try:
            attempt = step(op, law, chi, data, rec, tau_k)
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
