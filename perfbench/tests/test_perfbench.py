"""Self-tests of the benchmark: workloads, output gate, BENCHMARK.json.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import gate
import run
import workloads
from contactbem import cli

ROOT = Path(__file__).resolve().parents[2]
NAMES = sorted(workloads.WORKLOADS)


def _exported(doc) -> dict:
    return cli.scenario_to_dict(cli.parse_scenario(doc))


@pytest.mark.parametrize("name", NAMES)
def test_seed0_yields_the_coarsened_preset(name):
    spec = workloads.WORKLOADS[name]
    got = _exported(workloads.scenario_yaml(name, 0))
    assert got == _exported(workloads.base_document(name))
    # apart from element counts and the listed solver overrides, seed 0 is
    # the shipped preset itself
    preset = _exported(cli.PRESETS[spec["preset"]]())
    for doc in (got, preset):
        for domain in doc["domains"]:
            for part in domain["parts"]:
                part.pop("n")
        for key in spec["solver"]:
            doc["solver"].pop(key)
    assert got == preset


def test_coarsen_keeps_counts_valid():
    doc = {"domains": [{"parts": [
        {"tag": "C", "n": 48, "grade": ["both", 0.1]},
        {"tag": "N", "n": 2},
        {"tag": "N", "n": 1, "grade": ["start", 0.1]},
    ]}]}
    parts = workloads.coarsen(doc, 0.15)["domains"][0]["parts"]
    assert [p["n"] for p in parts] == [8, 1, 1]
    assert doc["domains"][0]["parts"][0]["n"] == 48  # input left unchanged


@pytest.mark.parametrize("name", NAMES)
def test_nonzero_seed_changes_only_load_amplitudes(name):
    base = _exported(workloads.scenario_yaml(name, 0))
    seeded = _exported(workloads.scenario_yaml(name, 7))
    scale = workloads.load_scale(7)
    assert 0.95 <= scale <= 1.05 and scale != 1.0
    loads = ("neumann", "traction"), ("dirichlet", "values")
    for kind, key in loads:
        for a, b in zip(base["loads"][kind], seeded["loads"][kind]):
            np.testing.assert_allclose(np.array(b[key]),
                                       scale * np.array(a[key]), rtol=1e-15)
            a.pop(key)
            b.pop(key)
    assert seeded == base
    assert workloads.scenario_yaml(name, 7) == workloads.scenario_yaml(name, 7)


# -- output gate --------------------------------------------------------------

EXPECT = {"t_end": 0.002, "n_master": 3, "mu": 0.5, "k_g": 4.0e5,
          "adaptive": False}


def _write_outputs(out: Path, p_t_step2=0.1, energy_scale=1.0):
    """A valid two-step, three-node run: the friction bound of step 2 is
    mu k_g 1e-6 = 0.2 per unit length, above |p_t| = 0.1."""
    out.mkdir(parents=True, exist_ok=True)
    energy = [",".join(cli.ENERGY_COLUMNS)]
    contact = [",".join(cli.CONTACT_COLUMNS)]
    for k, t in ((1, 0.001), (2, 0.002)):
        energy.append(f"{t},0.001,{energy_scale * 0.5 * k},0.01,0.02,"
                      f"{0.6 * k},1e-12,4")
        for i in range(3):
            p_t = 0.0 if k == 1 else p_t_step2
            contact.append(f"{k},{t},{i},{float(i)},{float(i)},0.0,-0.4,"
                           f"{p_t},-1e-06,0.0,0")
    (out / "energy_log.csv").write_text("\n".join(energy) + "\n")
    (out / "contact_series.csv").write_text("\n".join(contact) + "\n")


def test_gate_passes_valid_outputs(tmp_path):
    _write_outputs(tmp_path)
    reference = gate.summary(tmp_path, adaptive=False)
    assert gate.check_outputs(tmp_path, EXPECT, reference) == []


def test_gate_flags_corrupted_energy_log(tmp_path):
    _write_outputs(tmp_path / "ref")
    reference = gate.summary(tmp_path / "ref", adaptive=False)
    _write_outputs(tmp_path / "run", energy_scale=1.001)
    problems = gate.check_outputs(tmp_path / "run", EXPECT, reference)
    assert any("energy_log E" in p for p in problems)


def test_gate_flags_out_of_cone_row(tmp_path):
    _write_outputs(tmp_path, p_t_step2=0.3)
    problems = gate.check_outputs(tmp_path, EXPECT)
    assert any("Coulomb cone" in p for p in problems)


def test_gate_flags_missing_rows_and_early_end(tmp_path):
    _write_outputs(tmp_path)
    lines = (tmp_path / "contact_series.csv").read_text().splitlines()
    (tmp_path / "contact_series.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert gate.check_outputs(tmp_path, EXPECT)
    assert gate.check_outputs(tmp_path, dict(EXPECT, t_end=0.003))


def test_gate_compares_adaptive_ledger(tmp_path):
    _write_outputs(tmp_path)
    reference = gate.summary(tmp_path, adaptive=True)
    expect = dict(EXPECT, adaptive=True)
    assert gate.check_outputs(tmp_path, expect, reference) == []
    reference["ledger"]["work"] *= 1.02
    assert gate.check_outputs(tmp_path, expect, reference)


class _Rep:
    """Stand-in for run.Rep with a fixed report."""

    ok = run.Rep.ok
    setup_s = run.Rep.setup_s
    march_s = run.Rep.march_s

    def __init__(self, problems=(), report=None, out=None):
        self.problems = list(problems)
        self.wall = 1.0
        self.launch_epoch = 100.0
        self.peak_rss_mb = 1.0
        self.out = out
        self.report = report or {"t0": 0.0, "t_build": 0.5, "t_end": 0.9,
                                 "steps": [0.6, 0.7, 0.8]}


def test_failed_output_check_counts_as_failed_run():
    metrics = run.end_to_end([_Rep(), _Rep(["Coulomb cone exceeded"])])
    assert metrics["ok_frac"] == 0.5


def test_steps_per_s_pools_the_marches():
    short = {"t0": 0.0, "t_build": 0.5, "t_end": 0.7,
             "steps": [0.55, 0.6, 0.65]}
    # 3 steps in 0.4 s and 3 in 0.2 s: 6 steps in 0.6 s, not a median rate
    metrics = run.end_to_end([_Rep(), _Rep(report=short)])
    assert metrics["steps_per_s"] == pytest.approx(10.0)


# -- BENCHMARK.json -----------------------------------------------------------

def test_every_listed_metric_is_computed(tmp_path):
    assert {w["name"] for w in run.SPEC["workloads"]} == set(NAMES)
    assert set(run.end_to_end([_Rep()])) == set(run.END_TO_END)
    _write_outputs(tmp_path)
    spans = [["cli.main", 0.1, 0.9, -1], ["cli.build_system", 0.2, 0.5, 0],
             ["evolve.step", 0.6, 0.7, 0], ["evolve.step", 0.7, 0.8, 0]]
    report = {"t0": 0.0, "epoch0": 100.05, "t_build": 0.5, "t_end": 0.9,
              "steps": [0.7, 0.8], "spans": spans, "qp_iterations": [3, 4],
              "qp_matvecs": 9,
              "system": {"elements": 4, "unknowns": 12, "n_w": 6}}
    classes = {"pairs": dict.fromkeys(("coincident", "adjacent",
                                        "separated"), 1),
               "pair_seconds": dict.fromkeys(("coincident", "adjacent",
                                              "separated"), 0.1)}
    metrics = run.per_layer(_Rep(report=report, out=tmp_path), 0.9, classes)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["evolve.accept_ratio"] == 1.0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "receding", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""

