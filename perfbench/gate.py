"""Correctness gate on the CSV outputs of one benchmark run.

Every run must reach t_end and write one contact row per master node per
accepted step, and every row must respect the discrete Coulomb law.  Runs at
seed 0 are also compared with reference outputs captured from the solver and
stored in reference/<workload>.json.
"""

from __future__ import annotations

import csv
from pathlib import Path

# The time stepping is semi-implicit: the friction bound of step k is
# mu k_g M beta, with beta = max(0, -z_n) taken from step k-1 and M the
# consistent mass of the master contact nodes.  The bound holds for nodal
# forces M p, not pointwise for the tractions p (the mass matrix couples
# neighbouring stick and slip nodes), so the check multiplies by M first.
# Excess is measured against the largest bound of the run.
CONE_RTOL = 1e-5
# fixed-step runs: every energy_log column except qp_iters, and the final
# p_n, relative to the largest stored energy and the largest |p_n|
FIXED_RTOL = 1e-6
# adaptive runs: accepted-step count, and each entry of the final ledger
# (the column sums of R1, twoR2, work and deltaE) relative to itself.  A
# roundoff change can flip an accept decision and shift the step sequence,
# so both allow the same share.
ADAPTIVE_STEPS_RTOL = 0.01
ADAPTIVE_LEDGER_RTOL = 0.01
ENERGY_COLUMNS = ("t", "tau", "E", "R1", "twoR2", "work", "deltaE")
LEDGER_COLUMNS = ("R1", "twoR2", "work", "deltaE")


def read_csv(path) -> list:
    """Rows of a CSV file as dicts of floats."""
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _steps(contact: list) -> list:
    """Contact rows grouped by step, in file order."""
    groups = []
    for row in contact:
        if not groups or groups[-1][0]["step"] != row["step"]:
            groups.append([])
        groups[-1].append(row)
    return groups


def _mass_apply(s: list, p: list) -> list:
    """Consistent mass of linear elements between nodes at arclengths s."""
    f = [0.0] * len(s)
    for i in range(len(s) - 1):
        h = s[i + 1] - s[i]
        f[i] += h / 3.0 * p[i] + h / 6.0 * p[i + 1]
        f[i + 1] += h / 6.0 * p[i] + h / 3.0 * p[i + 1]
    return f


def cone_excess(contact: list, mu: float, k_g: float) -> float:
    """Largest |F_t| - mu k_g (M beta_prev) over nodes and steps, relative
    to the largest friction bound of the run.

    Assumes a straight master contact, as in every preset, so that the
    tangential nodal force equals M p_t.
    """
    worst, scale = 0.0, 0.0
    beta_prev = None
    for rows in _steps(contact):
        s = [r["s"] for r in rows]
        if beta_prev is None:
            beta_prev = [0.0] * len(rows)
        f_t = _mass_apply(s, [r["p_t"] for r in rows])
        bound = [mu * k_g * b for b in _mass_apply(s, beta_prev)]
        worst = max(worst, max(abs(a) - b for a, b in zip(f_t, bound)))
        scale = max(scale, max(bound))
        beta_prev = [max(0.0, -r["z_n"]) for r in rows]
    return worst / max(scale, 1e-300)


def summary(out_dir, adaptive: bool) -> dict:
    """The quantities compared against the reference of a workload."""
    out = Path(out_dir)
    energy = read_csv(out / "energy_log.csv")
    if adaptive:
        return {"accepted": len(energy),
                "ledger": {c: sum(r[c] for r in energy)
                           for c in LEDGER_COLUMNS}}
    last = _steps(read_csv(out / "contact_series.csv"))[-1]
    return {"accepted": len(energy),
            "energy": {c: [r[c] for r in energy] for c in ENERGY_COLUMNS},
            "final_p_n": [r["p_n"] for r in last]}


def _max_abs(values) -> float:
    return max((abs(v) for v in values), default=0.0)


def compare(got: dict, ref: dict, adaptive: bool) -> list:
    """Differences from the reference beyond the stated tolerances."""
    problems = []
    if adaptive:
        if abs(got["accepted"] - ref["accepted"]) > (
                ADAPTIVE_STEPS_RTOL * ref["accepted"]):
            problems.append(f"{got['accepted']} accepted steps, reference "
                            f"{ref['accepted']}")
        for c in LEDGER_COLUMNS:
            if abs(got["ledger"][c] - ref["ledger"][c]) > (
                    ADAPTIVE_LEDGER_RTOL * abs(ref["ledger"][c])):
                problems.append(f"ledger {c} {got['ledger'][c]!r}, reference "
                                f"{ref['ledger'][c]!r}")
        return problems
    if got["accepted"] != ref["accepted"]:
        return [f"{got['accepted']} steps, reference {ref['accepted']}"]
    e_scale = _max_abs(ref["energy"]["E"])
    t_scale = _max_abs(ref["energy"]["t"])
    for c in ENERGY_COLUMNS:
        scale = t_scale if c in ("t", "tau") else e_scale
        dev = max(abs(a - b) for a, b in zip(got["energy"][c],
                                              ref["energy"][c]))
        if dev > FIXED_RTOL * scale:
            problems.append(f"energy_log {c} deviates by {dev:.3e}")
    p_scale = _max_abs(ref["final_p_n"])
    dev = max(abs(a - b) for a, b in zip(got["final_p_n"], ref["final_p_n"]))
    if len(got["final_p_n"]) != len(ref["final_p_n"]) or (
            dev > FIXED_RTOL * p_scale):
        problems.append(f"final p_n deviates by {dev:.3e}")
    return problems


def check_outputs(out_dir, expect: dict, reference: dict = None) -> list:
    """Problems found in the outputs of one run; empty when it passes.

    expect holds t_end, n_master, mu, k_g and adaptive for the scenario run.
    """
    out = Path(out_dir)
    try:
        energy = read_csv(out / "energy_log.csv")
        contact = read_csv(out / "contact_series.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if not energy:
        return ["energy_log.csv has no rows"]
    problems = []
    t_end = expect["t_end"]
    if abs(energy[-1]["t"] - t_end) > 1e-9 * t_end:
        problems.append(f"run ends at t={energy[-1]['t']!r}, not {t_end!r}")
    n = expect["n_master"]
    groups = _steps(contact)
    if len(contact) != n * len(energy) or len(groups) != len(energy):
        problems.append(f"{len(contact)} contact rows for {len(energy)} "
                        f"steps and {n} master nodes")
        return problems
    for k, rows in enumerate(groups, start=1):
        if ([int(r["step"]) for r in rows] != [k] * n
                or [int(r["node"]) for r in rows] != list(range(n))):
            problems.append(f"contact rows of step {k} are not nodes "
                            f"0..{n - 1}")
            return problems
    excess = cone_excess(contact, expect["mu"], expect["k_g"])
    if excess > CONE_RTOL:
        problems.append(f"Coulomb cone exceeded by {excess:.3e} of the "
                        f"largest friction bound")
    if reference is not None:
        adaptive = expect["adaptive"]
        problems += compare(summary(out, adaptive), reference, adaptive)
    return problems
