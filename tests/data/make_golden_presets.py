"""Write the golden preset outputs of the solver on the path.

Runs the three shipped presets at full size (receding at refine 10) with
their stock solver settings and stores: for receding and conforming every
energy_log.csv column and the final p_n; for skewed the accepted-step
count, the four ledger sums (R1, twoR2, work, deltaE), the final p_n and
the p_n of the step with the largest |p_n|.

    PYTHONPATH=src python tests/data/make_golden_presets.py OUT.npz

The committed golden_presets.npz was written by the solver as it stood when
its numerics came to rest on numpy alone: np.linalg.solve for the one
multi-RHS solve with the symmetrized K and for the contact mass, and the
exact largest eigenvalue as the norm of the scaled QP matrix (which sets
MPRGP's expansion step) in place of a seeded power-iteration estimate.
That tree was checked against the one before it, which wrote the previous
file: both were run on these presets at qp_rtol 1e-12, where the
roundoff-driven spread of MPRGP's stopping test is small.  They took the
same steps and agreed to 7.4e-10 relative on the skewed ledger, to
3.7e-10 of each energy column's largest value (8.8e-11 on the fixed-step
presets, except receding's R1, a roundoff-level column below 3e-4 of E:
7.9e-10), and to 7.7e-11 on p_n over all steps; CHANGES.md gives the
figures.
Regenerate it only from a tree whose outputs are trusted: the golden test
checks every later change against that tree.
"""

import sys

import numpy as np

from contactbem.cli import (
    build_system,
    energy_row,
    parse_scenario,
    preset_conforming,
    preset_receding,
    preset_skewed,
)
from contactbem.evolve import run


def march(doc):
    sc = parse_scenario(doc)
    system = build_system(sc)
    return run(system.im, sc.law, sc.chi, system.loads,
               t_end=sc.solver.t_end, tau=sc.solver.tau,
               tau_min=sc.solver.tau_min, tau_max=sc.solver.tau_max,
               eps=sc.solver.eps)


def main(path):
    out = {}
    for name, doc in (("receding", preset_receding(10)),
                      ("conforming", preset_conforming())):
        records = march(doc)
        out[f"{name}_energy"] = np.array([energy_row(r) for r in records])
        out[f"{name}_p_n"] = records[-1].p_n
    records = march(preset_skewed())
    energy = np.array([energy_row(r) for r in records])
    out["skewed_steps"] = np.array(len(records))
    out["skewed_ledger"] = energy[:, 3:7].sum(axis=0)  # R1, twoR2, work, deltaE
    out["skewed_p_n"] = records[-1].p_n
    out["skewed_p_n_peak"] = max((r.p_n for r in records),
                                 key=lambda p: np.abs(p).max())
    np.savez_compressed(path, **out)


if __name__ == "__main__":
    main(sys.argv[1])
