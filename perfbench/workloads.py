"""Benchmark workloads: the shipped presets, coarsened, with seeded loads.

Each workload starts from a shipped preset and scales every part's element
count by a fixed factor.  With interpreted quadrature an element costs about
0.2 s of set-up, and the benchmark has to repeat every workload several times
inside one short run, so the presets at full size do not fit.  The geometry,
boundary tags, grading, materials, contact law, load schedule and time
stepping of the preset are kept, so each workload still exercises the same
code paths as its preset; only skewed's adaptivity tolerance is loosened,
which cuts its accepted steps while it still rejects some.

Seed 0 gives the coarsened preset unchanged.  Any other seed multiplies every
load amplitude (tractions and prescribed displacements) by one factor drawn
from [0.95, 1.05].  The solver only ever sees the YAML file written here.
"""

from __future__ import annotations

import copy
import random

import yaml

from contactbem import cli

# preset, element-count factor and solver overrides of each workload.
# skewed is coarsened no further than 0.25: at 0.2 (21 elements) its boundary
# pairing turns indefinite, and the logged viscous dissipation and stored
# energy go negative, which the full-size preset does not show.
WORKLOADS = {
    "receding": {"preset": "receding", "subdivide": 0.25, "solver": {}},
    "conforming": {"preset": "conforming", "subdivide": 0.15, "solver": {}},
    "skewed": {"preset": "skewed", "subdivide": 0.25,
               "solver": {"eps": 5e-3}},
}

LOAD_SPREAD = 0.05


def coarsen(doc: dict, factor: float) -> dict:
    """Scale every part's element count by factor.

    Counts round to the nearest integer, at least 1; parts graded at both
    ends keep an even count, as the mesher requires.  Matching contact parts
    of the two bodies get equal counts, so their nodes still coincide.
    """
    doc = copy.deepcopy(doc)
    for domain in doc["domains"]:
        for part in domain["parts"]:
            grade = part.get("grade")
            if grade is not None and grade[0] == "both":
                part["n"] = max(2, 2 * round(part["n"] * factor / 2))
            else:
                part["n"] = max(1, round(part["n"] * factor))
    return doc


def base_document(name: str) -> dict:
    """Scenario mapping of a workload at seed 0."""
    spec = WORKLOADS[name]
    doc = coarsen(cli.PRESETS[spec["preset"]](), spec["subdivide"])
    doc["solver"].update(spec["solver"])
    return doc


def load_scale(seed: int) -> float:
    """Common factor on every load amplitude; exactly 1 for seed 0."""
    if seed == 0:
        return 1.0
    return random.Random(seed).uniform(1.0 - LOAD_SPREAD, 1.0 + LOAD_SPREAD)


def scenario(name: str, seed: int) -> cli.Scenario:
    """Validated scenario of a workload for a seed."""
    sc = cli.parse_scenario(base_document(name))
    scale = load_scale(seed)
    for entry in sc.neumann_loads + sc.dirichlet_loads:
        entry["values"] = entry["values"] * scale
    return sc


def scenario_yaml(name: str, seed: int) -> str:
    """The YAML file the solver receives, exported by scenario_to_dict."""
    return yaml.safe_dump(cli.scenario_to_dict(scenario(name, seed)),
                          sort_keys=False)


def expectations(sc: cli.Scenario) -> dict:
    """What every correct run of sc must show, derived from the input alone.

    Each preset has one contiguous contact zone per body, so the master
    (second) body has one contact node more than contact elements.
    """
    master = sc.domains[1]
    n_contact = sum(p["n"] for p in master.parts if p["tag"] == "C")
    return {"t_end": sc.solver.t_end, "n_master": n_contact + 1,
            "mu": sc.law.mu, "k_g": sc.law.k_g,
            "adaptive": sc.solver.eps is not None}
