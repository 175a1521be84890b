"""Write the golden preset outputs of the solver on the path.

Runs the three shipped presets at full size (receding at refine 10) with
their stock solver settings and stores: for receding and conforming every
energy_log.csv column and the final p_n; for skewed the accepted-step
count, the four ledger sums (R1, twoR2, work, deltaE) and the p_n of the
step with the largest |p_n|.  If OUT.npz exists, each column's deviation
from it, by the golden test's measure (deviations below), is printed before
the file is replaced.

    PYTHONPATH=src python tests/data/make_golden_presets.py OUT.npz

The committed golden_presets.npz was written by the solver as it stood when
each step's QP came to be solved exactly: primal-dual active-set
corrections from the previous step's active set, one direct solve of the
free block each, with MPRGP only as the fallback and the same corrections
finishing its iterate.  That tree was checked against the one before it,
which wrote the previous file, run on these presets at qp_rtol 1e-12,
where the spread of MPRGP's stopping test is small.  The new stock outputs
took the same steps and agreed with it to 4.1e-10 relative on the skewed
ledger, to 1.6e-10 of each fixed-step energy column's largest value
(except receding's R1, a roundoff-level column: 8.0e-10), and on p_n over
all steps to 1.5e-9 (fixed-step) and 6.1e-9 (skewed; 2.7e-13 at its peak
step).  The skewed final p_n, a residue of the separated state, is no
longer stored: the golden test checks it against the run's own peak.
CHANGES.md gives the figures.
Regenerate it only from a tree whose outputs are trusted: the golden test
checks every later change against that tree.
"""

import sys
from pathlib import Path

import numpy as np

from contactbem.cli import (
    ENERGY_COLUMNS,
    build_system,
    energy_row,
    parse_scenario,
    preset_conforming,
    preset_receding,
    preset_skewed,
)
from contactbem.evolve import run


LEDGER_COLUMNS = ("R1", "twoR2", "work", "deltaE")
COLUMNS = {"receding_energy": ENERGY_COLUMNS,
           "conforming_energy": ENERGY_COLUMNS,
           "skewed_ledger": LEDGER_COLUMNS}


def march(doc):
    sc = parse_scenario(doc)
    system = build_system(sc)
    return run(system.im, sc.law, sc.chi, system.loads,
               t_end=sc.solver.t_end, tau=sc.solver.tau,
               tau_min=sc.solver.tau_min, tau_max=sc.solver.tau_max,
               eps=sc.solver.eps)


def peak_p_n(records):
    """p_n of the accepted step with the largest |p_n|."""
    return max((r.p_n for r in records), key=lambda p: np.abs(p).max())


def outputs(receding, conforming, skewed) -> dict:
    """The golden arrays of the three presets' accepted records."""
    out = {}
    for name, records in (("receding", receding), ("conforming", conforming)):
        out[f"{name}_energy"] = np.array([energy_row(r) for r in records])
        out[f"{name}_p_n"] = records[-1].p_n
    energy = np.array([energy_row(r) for r in skewed])
    out["skewed_steps"] = np.array(len(skewed))
    out["skewed_ledger"] = energy[:, 3:7].sum(axis=0)  # LEDGER_COLUMNS
    out["skewed_p_n_peak"] = peak_p_n(skewed)
    return out


def deviations(got: dict, ref) -> dict:
    """Per-column deviation of each golden array from ref, of equal shapes:
    the largest |got - ref| over the column's largest |ref|, and for the
    skewed ledger each sum's |got - ref| over its own |ref|."""
    devs = {}
    for key in ("receding_energy", "receding_p_n", "conforming_energy",
                "conforming_p_n", "skewed_p_n_peak"):
        old = ref[key].reshape(len(ref[key]), -1)
        new = got[key].reshape(len(ref[key]), -1)
        devs[key] = (np.abs(new - old).max(axis=0)
                     / np.maximum(np.abs(old).max(axis=0), 1e-300))
    devs["skewed_ledger"] = (np.abs(got["skewed_ledger"] - ref["skewed_ledger"])
                             / np.abs(ref["skewed_ledger"]))
    return devs


def main(path):
    out = outputs(march(preset_receding(10)), march(preset_conforming()),
                  march(preset_skewed()))
    if Path(path).exists():
        old = np.load(path)
        shapes = {k: (out[k].shape, old[k].shape) for k in out
                  if k not in old or out[k].shape != old[k].shape}
        if shapes or int(out["skewed_steps"]) != int(old["skewed_steps"]):
            print(f"shapes or step count changed: {shapes}, skewed steps "
                  f"{int(old['skewed_steps'])} -> {int(out['skewed_steps'])}")
        else:
            for key, dev in deviations(out, old).items():
                names = COLUMNS.get(key, ("p_n",))
                print(f"{key}: " + ", ".join(
                    f"{c} {d:.1e}" for c, d in zip(names, dev)))
    np.savez_compressed(path, **out)


if __name__ == "__main__":
    main(sys.argv[1])
