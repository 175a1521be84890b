"""Scenario configuration, shipped presets, run orchestration and outputs.

A scenario is a strict YAML document: two domain specs (polyline, per-segment
part tags and subdivisions, material), the contact law, the relaxation time,
a piecewise-linear load schedule attached to polyline segments, and solver
settings.  The three shipped presets realize a receding layer-on-block
problem, a flat punch on a stiff foundation under non-proportional loading,
and a skewed punch that is pushed sideways until separation.

Outputs per run: contact_series.csv (one row per accepted step and master
contact node), energy_log.csv, optional snapshots/*.svg of the deformed
boundary, and run_manifest.yaml with the fully resolved configuration.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .assembly import AssemblyError, assemble, geometry_hash
from .evolve import EvolveError, LoadProgram, StepRecord, run
from .kernels import KernelError
from .mesh import (VALID_TAGS, Material, MeshError, build_mesh, chain_nodes,
                   pair_contacts)
from .qp import ContactError, ContactLaw


class ConfigError(ValueError):
    pass


# libyaml's parser and emitter where PyYAML has them, at a fifth of the time;
# the constructor, resolver and representer are the same Python classes
if yaml.__with_libyaml__:
    YAML_LOADER, YAML_DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    YAML_LOADER, YAML_DUMPER = yaml.SafeLoader, yaml.SafeDumper


# Elements per domain.  Set-up holds dense pair blocks and system matrices,
# O(m^2) in a domain's m elements: about 1 kB per element pair (313 MB peak
# RSS for the receding preset at refine 80, 288 + 448 elements), so two
# domains at the cap need about 2 GB.  receding at refine 40 has 224.
MAX_ELEMENTS = 1000


# -- strict schema helpers ----------------------------------------------------

def _take(d: dict, key, path, required=True, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"{path}: missing key {key!r}")
        return default
    return d.pop(key)


def _done(d: dict, path):
    if d:
        raise ConfigError(f"{path}: unknown keys {sorted(d, key=str)}")


def _typed(v, path, kind, what):
    if not isinstance(v, kind):
        raise ConfigError(f"{path}: expected {what}, got {v!r}")
    return v


def _mapping(v, path) -> dict:
    return dict(_typed(v, path, dict, "a mapping"))


def _list(v, path) -> list:
    return _typed(v, path, (list, tuple), "a list")


def _number(v, path, lo=None, hi=None, integer=False):
    """A finite number within [lo, hi]: float, or int if integer is set."""
    # abs(v) <= max float also rejects nan, inf and ints beyond float range
    if (not isinstance(v, int if integer else (int, float))
            or isinstance(v, bool)
            or not (integer or abs(v) <= sys.float_info.max)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{path}: expected {kind}, got {v!r}")
    v = v if integer else float(v)
    if lo is not None and v < lo:
        raise ConfigError(f"{path}: value {v} below minimum {lo}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}: value {v} above maximum {hi}")
    return v


def _points(raw, path) -> list:
    """A list of [x, y] number pairs."""
    for i, v in enumerate(_list(raw, path)):
        if len(_list(v, f"{path}[{i}]")) != 2:
            raise ConfigError(f"{path}[{i}]: expected [x, y], got {v!r}")
    return [[_number(c, f"{path}[{i}]") for c in v] for i, v in enumerate(raw)]


@dataclass
class DomainSpec:
    label: str
    material: Material
    polyline: list
    parts: list
    allow_floating: bool = False


@dataclass
class SolverConfig:
    """Solver settings; parse_scenario sets every field and its defaults."""

    t_end: float
    tau: float
    tau_min: float
    tau_max: float
    eps: float  # N mm; adaptivity off when None
    plot_every: int
    magnification: float


@dataclass
class Scenario:
    name: str
    chi: float
    law: ContactLaw
    domains: list  # [DomainSpec A, DomainSpec B]
    load_times: list
    neumann_loads: list  # {domain, segment, traction: (m, 2)}
    dirichlet_loads: list  # {domain, segment, values: (m, 2)}
    solver: SolverConfig


def _parse_parts(raw, path):
    parts = []
    for i, p in enumerate(_list(raw, path)):
        p = _mapping(p, f"{path}[{i}]")
        tag = _take(p, "tag", f"{path}[{i}]")
        if tag not in VALID_TAGS:
            raise ConfigError(f"{path}[{i}].tag: unknown tag {tag!r}")
        n = _number(_take(p, "n", f"{path}[{i}]"), f"{path}[{i}].n", lo=1,
                    integer=True)
        part = {"tag": tag, "n": n}
        grade = _take(p, "grade", f"{path}[{i}]", required=False)
        if grade is not None:
            if (not isinstance(grade, (list, tuple)) or len(grade) != 2
                    or grade[0] not in ("start", "end", "both")):
                raise ConfigError(f"{path}[{i}].grade: expected "
                                  f"[start|end|both, min_len]")
            part["grade"] = (grade[0], _number(grade[1], f"{path}[{i}].grade",
                                               lo=1e-12))
            if grade[0] == "both" and n % 2:
                raise ConfigError(f"{path}[{i}].grade: 'both' grading needs "
                                  f"an even n, got {n}")
        _done(p, f"{path}[{i}]")
        parts.append(part)
    return parts


def _parse_loads(raw, path, n_times, value_key, n_segments):
    out = []
    for i, entry in enumerate(_list([] if raw is None else raw, path)):
        p = f"{path}[{i}]"
        entry = _mapping(entry, p)
        dom = _number(_take(entry, "domain", p), f"{p}.domain", lo=0, hi=1,
                      integer=True)
        seg = _number(_take(entry, "segment", p), f"{p}.segment", lo=0,
                      integer=True)
        if seg >= n_segments[dom]:
            raise ConfigError(f"{p}.segment: value {seg}, but domain {dom}'s "
                              f"polyline has {n_segments[dom]} segments")
        vals = _points(_take(entry, value_key, p), f"{p}.{value_key}")
        _done(entry, p)
        if len(vals) != n_times:
            raise ConfigError(f"{p}.{value_key}: expected one row per entry "
                              f"of loads.times ({n_times}), got {len(vals)}")
        out.append({"domain": dom, "segment": seg, "values": np.array(vals)})
    return out


# Collection levels a document may nest, far above the schema's 6 (at
# domains[i].parts[j].grade); composing recurses once per level.
MAX_NESTING = 32


def _check_nesting(doc):
    """Raise a located YAML error where doc nests past MAX_NESTING."""
    depth = 0
    for event in yaml.parse(doc, Loader=YAML_LOADER):
        depth += (isinstance(event, yaml.CollectionStartEvent)
                  - isinstance(event, yaml.CollectionEndEvent))
        if depth > MAX_NESTING:
            raise yaml.MarkedYAMLError(None, None, f"nested more than "
                                       f"{MAX_NESTING} deep", event.start_mark)


def parse_scenario(doc) -> Scenario:
    """Validate a scenario document (YAML str/bytes or mapping), strictly."""
    if isinstance(doc, (str, bytes)):
        # a one-line error: the byte of a character that does not decode,
        # else the line and column (1-based) of every other load error
        loader, mark = YAML_LOADER(doc), None
        try:
            _check_nesting(doc)
            doc = loader.get_single_data()
        except yaml.reader.ReaderError as exc:
            raise ConfigError(f"malformed YAML at byte {exc.position}: "
                              f"{exc.reason}")
        except yaml.MarkedYAMLError as exc:
            mark, problem = exc.problem_mark, exc.problem
        except (ValueError, AttributeError, KeyError):
            # a tagged scalar its constructor cannot convert (!!int abc)
            # raises unmarked; it is the node the loader has open last
            node = list(loader.recursive_objects)[-1]
            mark = node.start_mark
            problem = f"cannot convert {node.value!r} to {node.tag}"
        finally:
            loader.dispose()
        if mark is not None:
            raise ConfigError(f"malformed YAML at line {mark.line + 1}, "
                              f"column {mark.column + 1}: {problem}")
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a mapping")
    doc = dict(doc)
    name = _typed(_take(doc, "name", "scenario"), "name", str, "a string")
    if "\0" in name:  # it names the default output directory
        raise ConfigError("name: contains a NUL character")
    chi = _number(_take(doc, "chi", "scenario"), "chi", lo=0.0)
    law_raw = _mapping(_take(doc, "contact", "scenario"), "contact")
    try:
        law = ContactLaw(
            mu=_number(_take(law_raw, "mu", "contact"), "contact.mu"),
            k_g=_number(_take(law_raw, "k_g", "contact"), "contact.k_g"),
        )
    except ContactError as exc:
        raise ConfigError(f"contact: {exc}")
    _done(law_raw, "contact")

    raw_domains = _take(doc, "domains", "scenario")
    if not isinstance(raw_domains, list) or len(raw_domains) != 2:
        raise ConfigError("domains: exactly two domains (A then B) required")
    domains = []
    for j, rd in enumerate(raw_domains):
        p = f"domains[{j}]"
        rd = _mapping(rd, p)
        mat_raw = _mapping(_take(rd, "material", p), f"{p}.material")
        E = _number(_take(mat_raw, "E", f"{p}.material"), f"{p}.material.E",
                    lo=1e-12, hi=1e12)
        nu = _number(_take(mat_raw, "nu", f"{p}.material"), f"{p}.material.nu",
                     lo=0.0, hi=0.5 - 1e-12)
        _done(mat_raw, f"{p}.material")
        poly = _points(_take(rd, "polyline", p), f"{p}.polyline")
        parts = _parse_parts(_take(rd, "parts", p), f"{p}.parts")
        floating = _typed(_take(rd, "allow_floating", p, required=False,
                                default=False), f"{p}.allow_floating", bool,
                          "true or false")
        label = _typed(_take(rd, "label", p, required=False,
                             default="AB"[j]), f"{p}.label", str, "a string")
        _done(rd, p)
        n_elements = sum(part["n"] for part in parts)
        if n_elements > MAX_ELEMENTS:
            raise ConfigError(f"{p}.parts: {n_elements} elements, above the "
                              f"cap of {MAX_ELEMENTS} per domain")
        if len(poly) != len(parts):
            raise ConfigError(f"{p}: one part per polyline segment required "
                              f"({len(parts)} parts, {len(poly)} segments)")
        domains.append(DomainSpec(
            label=label, material=Material(young_modulus=E, poisson_ratio=nu,
                                           relaxation_time=chi),
            polyline=poly, parts=parts, allow_floating=floating))

    n_segments = [len(d.polyline) for d in domains]
    loads_raw = _mapping(_take(doc, "loads", "scenario"), "loads")
    times = [_number(t, "loads.times")
             for t in _list(_take(loads_raw, "times", "loads"), "loads.times")]
    if len(times) < 1 or any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("loads.times: strictly increasing sequence needed")
    neumann = _parse_loads(_take(loads_raw, "neumann", "loads",
                                 required=False), "loads.neumann",
                           len(times), "traction", n_segments)
    dirichlet = _parse_loads(_take(loads_raw, "dirichlet", "loads",
                                   required=False), "loads.dirichlet",
                             len(times), "values", n_segments)
    for i, entry in enumerate(dirichlet):  # the march starts at rest
        start = LoadProgram(times, entry["values"], None).at(0.0)
        if start.any():
            raise ConfigError(f"loads.dirichlet[{i}].values: {start.tolist()} "
                              "at t = 0 over loads.times; the march starts at rest")
    _done(loads_raw, "loads")

    sol_raw = _mapping(_take(doc, "solver", "scenario"), "solver")
    tau = _number(_take(sol_raw, "tau", "solver"), "solver.tau", lo=1e-15)
    eps = _take(sol_raw, "eps", "solver", required=False)
    sc = SolverConfig(
        t_end=_number(_take(sol_raw, "t_end", "solver"), "solver.t_end",
                      lo=1e-15),
        tau=tau,
        tau_min=_number(_take(sol_raw, "tau_min", "solver", required=False,
                              default=tau), "solver.tau_min", lo=1e-15,
                        hi=tau),
        tau_max=_number(_take(sol_raw, "tau_max", "solver", required=False,
                              default=tau), "solver.tau_max", lo=tau),
        eps=None if eps is None else _number(eps, "solver.eps", lo=1e-30),
        plot_every=_number(_take(sol_raw, "plot_every", "solver",
                                 required=False, default=0),
                           "solver.plot_every", lo=0, integer=True),
        magnification=_number(_take(sol_raw, "magnification", "solver",
                                    required=False, default=1000.0),
                              "solver.magnification", lo=0.0),
    )
    _done(sol_raw, "solver")
    _done(doc, "scenario")
    return Scenario(name=name, chi=chi, law=law, domains=domains,
                    load_times=times, neumann_loads=neumann,
                    dirichlet_loads=dirichlet, solver=sc)


# -- shipped presets ----------------------------------------------------------

def preset_receding(refine: int = 10) -> dict:
    """Elastic layer on a fixed square block, pressed by a central strip load.

    refine is the number of uniform contact elements in the central fine
    band (a multiple of 10); 10, 20 and 40 reproduce the published meshes.
    """
    s = refine // 10
    lmin = 4.0 / s
    tau = 1e-3 / s
    # block 200 x 200 fixed at the bottom; layer 160 x 10 centred on top;
    # load strip of width 10 centred at x = 100 (75 from the layer edge)
    block = {
        "label": "B",
        "material": {"E": 4.0e3, "nu": 0.35},
        "polyline": [[0, 0], [200, 0], [200, 200], [180, 200], [120, 200],
                     [80, 200], [20, 200], [0, 200]],
        "parts": [
            {"tag": "D", "n": 10 * s},
            {"tag": "N", "n": 10 * s},
            {"tag": "N", "n": 2 * s},
            {"tag": "C", "n": 6 * s, "grade": ["end", lmin]},
            {"tag": "C", "n": refine},
            {"tag": "C", "n": 6 * s, "grade": ["start", lmin]},
            {"tag": "N", "n": 2 * s},
            {"tag": "N", "n": 10 * s},
        ],
    }
    layer = {
        "label": "A",
        "material": {"E": 4.0e3, "nu": 0.35},
        "allow_floating": True,
        "polyline": [[20, 200], [80, 200], [120, 200], [180, 200],
                     [180, 210], [105, 210], [95, 210], [20, 210]],
        "parts": [
            {"tag": "C", "n": 6 * s, "grade": ["end", lmin]},
            {"tag": "C", "n": refine},
            {"tag": "C", "n": 6 * s, "grade": ["start", lmin]},
            {"tag": "N", "n": 2 * s},
            {"tag": "N", "n": 4 * s},
            {"tag": "N", "n": 2 * s},
            {"tag": "N", "n": 4 * s},
            {"tag": "N", "n": 2 * s},
        ],
    }
    t_end = 0.02
    return {
        "name": f"receding-N{refine}",
        "chi": 1e-3,
        "contact": {"mu": 0.8, "k_g": 4.0e5},
        "domains": [layer, block],
        "loads": {
            "times": [0.0, t_end],
            "neumann": [
                {"domain": 0, "segment": 5,
                 "traction": [[0.0, 0.0], [0.0, -0.5]]},
            ],
        },
        "solver": {"tau": tau, "t_end": t_end, "magnification": 5000.0},
    }


def preset_conforming() -> dict:
    """Flat elastic punch on a stiffer block: press down, then push the
    block sideways until it slides under the held punch."""
    E = 4.0e3
    return {
        "name": "conforming",
        "chi": 1e-3,
        "contact": {"mu": 0.2, "k_g": 4.0e5},
        "domains": [
            {  # punch, 100 x 50, horizontally held on top, pressed by f2
                "label": "A",
                "material": {"E": E, "nu": 0.35},
                "polyline": [[50, 300], [150, 300], [150, 350], [50, 350]],
                "parts": [
                    {"tag": "C", "n": 48, "grade": ["both", 0.11]},
                    {"tag": "N", "n": 10, "grade": ["start", 0.11]},
                    {"tag": "DxNy", "n": 8},
                    {"tag": "N", "n": 10, "grade": ["end", 0.11]},
                ],
            },
            {  # block 200 x 300, simply supported bottom and left
                "label": "B",
                "material": {"E": 4 * E, "nu": 0.35},
                "polyline": [[0, 0], [200, 0], [200, 300], [150, 300],
                             [50, 300], [0, 300]],
                "parts": [
                    {"tag": "NxDy", "n": 10},
                    {"tag": "N", "n": 15},
                    {"tag": "N", "n": 12, "grade": ["end", 0.11]},
                    {"tag": "C", "n": 48, "grade": ["both", 0.11]},
                    {"tag": "N", "n": 12, "grade": ["start", 0.11]},
                    {"tag": "DxNy", "n": 15},
                ],
            },
        ],
        "loads": {
            "times": [0.0, 0.01, 0.015, 0.04],
            "neumann": [
                {"domain": 0, "segment": 2,
                 "traction": [[0, 0], [0, -1.0], [0, -1.0], [0, -1.0]]},
            ],
            "dirichlet": [
                {"domain": 1, "segment": 5,
                 "values": [[0, 0], [0, 0], [0, 0], [0.1, 0]]},
            ],
        },
        "solver": {"tau": 2.5e-4, "t_end": 0.04, "magnification": 500.0},
    }


def preset_skewed() -> dict:
    """Skewed punch seated on an inclined face cut into the block's top;
    vertical seating displacement, then a lateral push of the block to
    separation.  The punch's deep (left) end carries a short chamfered nose
    facet, tilted 5 degrees off the block surface and left out of the
    contact zone, so contact terminates smoothly there and high friction
    cannot lock the corner in place."""
    E = 4.0e3
    phi = math.atan(0.5)
    # punch 25 wide, 80 tall, on a 200 x 300 block; contact on the incline
    # [x1, x2] climbing right at phi, nose facet on [x0, x1] diverging from
    # the block face by 5 degrees
    x0, x1, xm, x2 = 87.5, 92.5, 102.5, 112.5
    y0 = 300.0
    y_top = 380.0
    yn = y0 + (x1 - x0) * math.tan(phi)
    ya = yn - (x1 - x0) * math.tan(phi - math.radians(5.0))
    ym = yn + (xm - x1) * math.tan(phi)
    y1 = yn + (x2 - x1) * math.tan(phi)
    return {
        "name": "skewed",
        "chi": 1e-3,
        "contact": {"mu": 0.2, "k_g": 4.0e5},
        "domains": [
            {  # punch: free nose + inclined contact, top fully prescribed
                "label": "A",
                "material": {"E": E, "nu": 0.35},
                "polyline": [[x0, ya], [x1, yn], [xm, ym],
                             [x2, y1], [x2, y_top], [x0, y_top]],
                "parts": [
                    {"tag": "N", "n": 4},
                    {"tag": "C", "n": 12, "grade": ["start", 0.25]},
                    {"tag": "C", "n": 12, "grade": ["end", 0.25]},
                    {"tag": "N", "n": 6},
                    {"tag": "D", "n": 4},
                    {"tag": "N", "n": 6},
                ],
            },
            {  # block with the skewed wedge cut in its top face
                "label": "B",
                "material": {"E": 4 * E, "nu": 0.35},
                "polyline": [[0, 0], [200, 0], [200, y1], [x2, y1],
                             [xm, ym], [x1, yn], [x0, y0], [0, y0]],
                "parts": [
                    {"tag": "NxDy", "n": 10},
                    {"tag": "N", "n": 10},
                    {"tag": "N", "n": 6, "grade": ["end", 0.5]},
                    {"tag": "C", "n": 12, "grade": ["start", 0.25]},
                    {"tag": "C", "n": 12, "grade": ["end", 0.25]},
                    {"tag": "N", "n": 3},
                    {"tag": "N", "n": 6, "grade": ["start", 0.5]},
                    {"tag": "DxNy", "n": 10},
                ],
            },
        ],
        # the lateral push is two-rate: a gentle ramp during which a
        # low-friction contact slides out gradually, then a fast shove that
        # makes a still-wedged high-friction contact let go all at once
        "loads": {
            "times": [0.0, 0.005, 0.008, 0.029, 0.030, 0.035],
            "dirichlet": [
                {"domain": 0, "segment": 4,
                 "values": [[0, 0], [0, -0.02], [0, -0.02], [0, -0.02],
                            [0, -0.02], [0, -0.02]]},
                {"domain": 1, "segment": 7,
                 "values": [[0, 0], [0, 0], [0, 0], [0.21, 0],
                            [0.56, 0], [0.56, 0]]},
            ],
        },
        "solver": {"tau": 1e-3, "t_end": 0.035, "tau_min": 1e-7,
                   "tau_max": 2e-3, "eps": 1e-3, "magnification": 350.0},
    }


PRESETS = {
    "receding": preset_receding,
    "conforming": preset_conforming,
    "skewed": preset_skewed,
}


# -- system construction ------------------------------------------------------

@dataclass
class BuiltSystem:
    meshes: list
    pair: object
    im: object
    loads: LoadProgram


def build_system(sc: Scenario) -> BuiltSystem:
    meshes = []
    for j, ds in enumerate(sc.domains):
        try:
            meshes.append(build_mesh(ds.polyline, ds.parts,
                                     domain_label=ds.label,
                                     allow_floating=ds.allow_floating))
        except MeshError as exc:
            raise MeshError(f"domains[{j}]: {exc}")
    pair = pair_contacts(meshes[0], meshes[1])
    im = assemble(meshes, pair, [d.material for d in sc.domains])
    layout = im.layout
    # one full-layout row per breakpoint; the solve reads its known columns
    table = np.zeros((len(sc.load_times), layout.width))
    unknown = np.ones(layout.width, dtype=bool)
    unknown[layout.known_cols] = False
    for kind, quantity, loads in (
            ("dirichlet", "displacement", sc.dirichlet_loads),
            ("neumann", "traction", sc.neumann_loads)):
        for i, entry in enumerate(loads):
            d, seg, values = entry["domain"], entry["segment"], entry["values"]
            cols = layout.segment_cols(d, seg, kind == "neumann")
            dropped = unknown[cols].any(0) & values.any(0)
            if dropped.any():
                raise ConfigError(
                    f"loads.{kind}[{i}]: domain {d} segment {seg} prescribes "
                    f"a nonzero {'xy'[dropped.argmax()]} {quantity} on a "
                    "component its part tags leave unknown; the solve would "
                    "drop it")
            table[:, cols] = values[:, None, :]
    loads = LoadProgram(sc.load_times, table[:, layout.known_cols],
                        layout.known_disp)
    return BuiltSystem(meshes=meshes, pair=pair, im=im, loads=loads)


# -- artifact emission --------------------------------------------------------

CONTACT_COLUMNS = ("step", "t", "node", "s", "x1", "x2", "p_n", "p_t",
                   "z_n", "z_t", "slip")
ENERGY_COLUMNS = ("t", "tau", "E", "R1", "twoR2", "work", "deltaE",
                  "qp_iters")
# one line per row: %d for step, node, slip flag and iteration count, %.17g
# (round-trip precision) for every float.  A contact row is the step's
# columns (step, t), the node's (node, s, x1, x2, the same in every step)
# and the node's state (p_n, p_t, z_n, z_t, slip).
STEP_COLS = "%d,%.17g,"
NODE_COLS = "%d,%.17g,%.17g,%.17g,"
STATE_COLS = "%.17g,%.17g,%.17g,%.17g,%d\n"
ENERGY_ROW = "%.17g," * 7 + "%d\n"


def node_columns(pair) -> list:
    """The formatted node columns of each master contact node."""
    pos = pair.mesh_B.nodes[pair.nodes_B].tolist()
    return [NODE_COLS % (i, s, x1, x2) for i, (s, (x1, x2))
            in enumerate(zip(pair.arclength_B.tolist(), pos))]


def contact_lines(nodes: list, rec) -> str:
    """The contact rows of an accepted record, as one string."""
    step = STEP_COLS % (rec.k, rec.t)
    states = zip(rec.p_n.tolist(), rec.p_t.tolist(), rec.z.z_n.tolist(),
                 rec.z.z_t.tolist(), rec.slip.tolist())
    return "".join([step + node + STATE_COLS % state
                    for node, state in zip(nodes, states)])


def energy_row(rec):
    r = rec.residuum
    work = r.work_mixed + r.work_lift + r.work_ext
    return (rec.t, rec.tau, rec.stored, r.r1, r.visc, work, r.delta,
            rec.qp_iterations)


def _outline(mesh, disp=None, mag=0.0):
    pts = mesh.nodes if disp is None else mesh.nodes + mag * disp.reshape(-1, 2)
    return pts[chain_nodes(mesh, np.arange(mesh.n_elements))]


def _svg_path(pts, s, ox, oy):
    cmd = []
    for i, (x, y) in enumerate(pts):
        cmd.append(f"{'M' if i == 0 else 'L'}{ox + s * x:.2f} "
                   f"{oy - s * y:.2f}")
    return " ".join(cmd)


def emit_snapshot_svg(meshes, displacements, magnification, path, pair, p_n):
    """Undeformed and deformed boundary outlines, plus the contact pressure
    profile p_n drawn along the master contact curve where it is nonzero."""
    allpts = [_outline(m) for m in meshes]
    allpts += [_outline(m, d, magnification)
               for m, d in zip(meshes, displacements)]
    stack = np.vstack(allpts)
    lo, hi = stack.min(axis=0), stack.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    W, H, pad = 720.0, 540.0, 40.0
    s = min((W - 2 * pad) / span[0], (H - 2 * pad) / span[1])
    ox = pad - s * lo[0]
    oy = H - pad + s * lo[1]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" '
             f'height="{H:.0f}" viewBox="0 0 {W:.0f} {H:.0f}">']
    # the undeformed outlines in grey, then the deformed ones in red
    strokes = (['stroke="#999999" stroke-width="1"'] * len(meshes)
               + ['stroke="#cc2222" stroke-width="1.5"'] * len(meshes))
    for pts, stroke in zip(allpts, strokes):
        parts.append(f'<path d="{_svg_path(pts, s, ox, oy)} Z" '
                     f'fill="none" {stroke}/>')
    if np.abs(p_n).max() > 0:
        pos = pair.mesh_B.nodes[pair.nodes_B]
        scale = 0.15 * max(span) / np.abs(p_n).max()
        prof = pos + pair.normal * (scale * np.abs(p_n))[:, None]
        parts.append(f'<path d="{_svg_path(prof, s, ox, oy)}" fill="none" '
                     'stroke="#2244cc" stroke-width="1"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "chi": sc.chi,
        "contact": {"mu": sc.law.mu, "k_g": sc.law.k_g},
        "domains": [
            {"label": d.label,
             "material": {"E": d.material.young_modulus,
                          "nu": d.material.poisson_ratio},
             "polyline": [list(v) for v in d.polyline],
             "parts": [dict(p, grade=list(p["grade"])) if "grade" in p
                       else dict(p) for p in d.parts],
             "allow_floating": d.allow_floating}
            for d in sc.domains],
        "loads": {
            "times": list(sc.load_times),
            "neumann": [{"domain": e["domain"], "segment": e["segment"],
                         "traction": e["values"].tolist()}
                        for e in sc.neumann_loads],
            "dirichlet": [{"domain": e["domain"], "segment": e["segment"],
                           "values": e["values"].tolist()}
                          for e in sc.dirichlet_loads],
        },
        "solver": {
            "t_end": sc.solver.t_end, "tau": sc.solver.tau,
            "tau_min": sc.solver.tau_min, "tau_max": sc.solver.tau_max,
            "eps": sc.solver.eps,
            "plot_every": sc.solver.plot_every,
            "magnification": sc.solver.magnification,
        },
    }


def run_scenario(sc: Scenario, out_dir) -> StepRecord:
    """Execute a scenario, streaming artifacts into out_dir; returns the
    last accepted record."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    system = build_system(sc)
    manifest = {
        "scenario": scenario_to_dict(sc),
        "version": __version__,
        "geometry": geometry_hash(system.meshes,
                                  [d.material for d in sc.domains]),
    }
    (out / "run_manifest.yaml").write_text(
        yaml.dump(manifest, Dumper=YAML_DUMPER, sort_keys=False))
    snap_dir = out / "snapshots"
    if sc.solver.plot_every:
        snap_dir.mkdir(exist_ok=True)
    contact_fh = open(out / "contact_series.csv", "w")
    energy_fh = open(out / "energy_log.csv", "w")
    contact_fh.write(",".join(CONTACT_COLUMNS) + "\n")
    energy_fh.write(",".join(ENERGY_COLUMNS) + "\n")

    nodes = node_columns(system.pair)

    def on_step(rec):
        contact_fh.write(contact_lines(nodes, rec))
        energy_fh.write(ENERGY_ROW % energy_row(rec))
        contact_fh.flush()
        energy_fh.flush()
        if sc.solver.plot_every and rec.k % sc.solver.plot_every == 0:
            emit_snapshot_svg(
                system.meshes, rec.u, sc.solver.magnification,
                snap_dir / f"step_{rec.k:05d}.svg", system.pair, rec.p_n)

    try:
        last = run(system.im, sc.law, sc.chi, system.loads,
                   t_end=sc.solver.t_end, tau=sc.solver.tau,
                   tau_min=sc.solver.tau_min, tau_max=sc.solver.tau_max,
                   eps=sc.solver.eps, on_step=on_step)
    finally:
        contact_fh.close()
        energy_fh.close()
    return last


# -- command line -------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="contactbem",
        description="Quasistatic SGBEM solver for two-body frictional "
                    "contact with normal compliance and Coulomb friction")
    sub = ap.add_subparsers(dest="command", required=True)
    rp = sub.add_parser("run", help="run a scenario file or a preset")
    rp.add_argument("scenario", nargs="?", help="scenario YAML file")
    rp.add_argument("--preset", choices=sorted(PRESETS),
                    help="use a shipped preset instead of a file")
    rp.add_argument("--refine", type=int, default=None,
                    help="contact refinement of the receding preset "
                         "(default 10)")
    rp.add_argument("--export", action="store_true",
                    help="print the resolved scenario YAML and exit")
    rp.add_argument("--out", default=None, help="output directory")
    rp.add_argument("--tau", type=float, default=None,
                    help="override the initial/fixed time step")
    rp.add_argument("--eps", type=float, default=None,
                    help="energy-residuum tolerance (N mm); enables time-step "
                         "adaptivity")
    rp.add_argument("--plot-every", type=int, default=None,
                    help="snapshot cadence in accepted steps (0 = off)")
    return ap


def _load_scenario(args) -> Scenario:
    if args.preset and args.scenario:
        raise ConfigError("give either a scenario file or --preset, not both")
    if args.refine is not None and args.preset != "receding":
        raise ConfigError("--refine: applies to the receding preset only")
    if args.preset == "receding":
        refine = _number(10 if args.refine is None else args.refine,
                         "--refine", lo=1, integer=True)
        if refine % 10 != 0:
            raise ConfigError(f"--refine: value {refine} is not a multiple "
                              "of 10")
        doc = preset_receding(refine)
    elif args.preset:
        doc = PRESETS[args.preset]()
    elif args.scenario:
        # the loader decodes the bytes: bad UTF-8 is a located YAML error
        try:
            doc = Path(args.scenario).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {args.scenario}: "
                              f"{exc.strerror}")
    else:
        raise ConfigError("a scenario file or --preset is required")
    sc = parse_scenario(doc)
    if args.tau is not None:
        tau = sc.solver.tau = _number(args.tau, "--tau", lo=1e-15)
        sc.solver.tau_min = min(sc.solver.tau_min, tau)
        sc.solver.tau_max = max(sc.solver.tau_max, tau)
    if args.eps is not None:
        sc.solver.eps = _number(args.eps, "--eps", lo=1e-30)
    if args.plot_every is not None:
        sc.solver.plot_every = _number(args.plot_every, "--plot-every", lo=0,
                                       integer=True)
    return sc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sc = _load_scenario(args)
        if args.export:
            print(yaml.dump(scenario_to_dict(sc), Dumper=YAML_DUMPER,
                            sort_keys=False), end="")
            return 0
        out = args.out or f"out-{sc.name}"
        last = run_scenario(sc, out)
    except (ConfigError, MeshError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a run opens no file but its outputs
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except (EvolveError, KernelError, AssemblyError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    print(f"{sc.name}: {last.k} accepted steps to t={last.t:.6g}s, "
          f"stored energy {last.stored:.6g} N mm, output in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
