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
each step's QP came to be solved by one primal active-set method, started
at y = xi from the previous step's active set, with no iterative solver and
no tolerance.  Against the file before it (written by active-set
corrections with an MPRGP fallback) the same steps were taken, every energy
column agreed to 6.5e-13 (receding) and 2.4e-11 (conforming) of its largest
value, the final p_n to 4.4e-10 and 8.5e-14, the skewed ledger to 4.9e-10
relative and its peak p_n to 5.1e-15; qp_iters, now the count of
components that entered or left the solver's start set, changed meaning.
The file was written with one BLAS thread; the default thread count
reproduces it to 7.9e-11.  The skewed final p_n, a residue of
the separated state, is not stored: the golden test checks it against the
run's own peak.  CHANGES.md gives the figures.
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
    """The accepted records of a preset run."""
    sc = parse_scenario(doc)
    system = build_system(sc)
    records = []
    run(system.im, sc.law, sc.chi, system.loads, t_end=sc.solver.t_end,
        tau=sc.solver.tau, tau_min=sc.solver.tau_min,
        tau_max=sc.solver.tau_max, eps=sc.solver.eps,
        on_step=records.append)
    return records


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
