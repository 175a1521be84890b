import copy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contactbem import __version__, cli
from contactbem.assembly import AssemblyError, geometry_hash
from contactbem.cli import (
    ConfigError,
    PRESETS,
    build_mesh,
    build_system,
    main,
    parse_scenario,
    preset_receding,
    scenario_to_dict,
)
from contactbem.evolve import EvolveError
from contactbem.kernels import KernelError
from contactbem.mesh import MeshError
from oracles import domain_data

# main's exit-3 failures; a scenario that parses may still be unsolvable
SOLVER_ERRORS = (EvolveError, KernelError, AssemblyError)
# one contact_series.csv row, as contact_lines writes it
CONTACT_ROW = cli.STEP_COLS + cli.NODE_COLS + cli.STATE_COLS


def tiny_scenario(**solver):
    """Two stacked unit squares, pressure ramp on the layer top."""
    doc = {
        "name": "tiny",
        "chi": 1e-3,
        "contact": {"mu": 0.5, "k_g": 4e5},
        "domains": [
            {"label": "A", "allow_floating": True,
             "material": {"E": 200.0, "nu": 0.3},
             "polyline": [[0, 1], [1, 1], [1, 2], [0, 2]],
             "parts": [{"tag": "C", "n": 3}, {"tag": "N", "n": 2},
                       {"tag": "N", "n": 2}, {"tag": "N", "n": 2}]},
            {"label": "B",
             "material": {"E": 200.0, "nu": 0.3},
             "polyline": [[0, 0], [1, 0], [1, 1], [0, 1]],
             "parts": [{"tag": "D", "n": 2}, {"tag": "N", "n": 2},
                       {"tag": "C", "n": 3}, {"tag": "N", "n": 2}]},
        ],
        "loads": {
            "times": [0.0, 4e-3],
            "neumann": [{"domain": 0, "segment": 2,
                         "traction": [[0, 0], [0, -0.5]]}],
        },
        "solver": dict({"tau": 1e-3, "t_end": 4e-3}, **solver),
    }
    return doc


def test_presets_parse_and_build():
    for name, make in PRESETS.items():
        sc = parse_scenario(make())
        system = build_system(sc)
        assert system.pair.n_master_nodes > 10
        assert len(system.meshes) == 2


def test_parse_round_trips_through_yaml():
    doc = tiny_scenario()
    sc = parse_scenario(yaml.safe_dump(doc))
    again = parse_scenario(yaml.safe_dump(scenario_to_dict(sc)))
    assert again.name == sc.name
    assert again.law == sc.law
    assert again.solver.tau == sc.solver.tau
    np.testing.assert_allclose(again.neumann_loads[0]["values"],
                               sc.neumann_loads[0]["values"])


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d.pop("chi"), "missing key 'chi'"),
    (lambda d: d.update(bogus=1), "unknown keys"),
    # the QP is solved exactly: there is no tolerance to set
    (lambda d: d["solver"].update(qp_rtol=1e-8), r"unknown keys \['qp_rtol'\]"),
    (lambda d: d["contact"].update(mu=-0.5), "contact"),
    (lambda d: d["domains"][0]["material"].update(nu=0.7), "nu"),
    (lambda d: d["domains"][0]["parts"].pop(), "one part per"),
    (lambda d: d["loads"].update(times=[0.0, 0.0]), "strictly increasing"),
    (lambda d: d["loads"]["neumann"][0].update(segment=99),
     "polyline has 4 segments"),
    (lambda d: d["solver"].update(tau=-1.0), "tau"),
    # the march starts at rest: a prescribed displacement must start at 0,
    # interpolated there when loads.times starts before it
    (lambda d: d["loads"].update(times=[-4e-3, 4e-3], dirichlet=[
        {"domain": 1, "segment": 0, "values": [[0, 0], [0, -0.02]]}]),
     r"loads.dirichlet\[0\].values: \[0.0, -0.01\] at t = 0"),
    (lambda d: d["domains"][0]["parts"][0].update(grade=["mid", 0.1]), "grade"),
])
def test_malformed_documents_rejected(mutate, match):
    doc = tiny_scenario()
    mutate(doc)
    with pytest.raises(ConfigError, match=match):
        parse_scenario(yaml.safe_dump(doc))


def test_unparsable_yaml_rejected():
    with pytest.raises(ConfigError, match="YAML"):
        parse_scenario("foo: [unclosed")
    with pytest.raises(ConfigError, match="mapping"):
        parse_scenario("- just\n- a list\n")


def test_unknown_keys_of_mixed_types_rejected():
    doc = tiny_scenario()
    doc.update({1: 0, "bogus": 0})  # YAML allows integer keys
    with pytest.raises(ConfigError, match=r"unknown keys \[1, 'bogus'\]"):
        parse_scenario(doc)


def test_neumann_load_lands_on_requested_segment():
    sc = parse_scenario(tiny_scenario())
    system = build_system(sc)
    _, f_end = domain_data(system.im, system.loads.at(4e-3))
    # layer top carries -0.5 in y; everything else stays zero
    fA = f_end[0]
    assert fA.min() == -0.5
    dd = system.im.layout.domains[0]
    loaded = set()
    for e in range(system.meshes[0].n_elements):
        if np.any(fA[dd.phi_dofs[e]]):
            loaded.add(e)
    mids = [0.5 * (system.meshes[0].nodes[a] + system.meshes[0].nodes[b])
            for a, b in (system.meshes[0].elements[e] for e in loaded)]
    assert all(abs(m[1] - 2.0) < 1e-12 for m in mids)
    assert np.all(f_end[1] == 0.0)


@pytest.mark.parametrize("scale", [1e-9, 1e-8, 1.0, 1e9])
def test_load_segment_elements_at_any_scale(scale):
    """A load on segment 0, the layer top, reaches exactly that segment's
    four elements, whatever the unit of length: no element of the sides
    next to it, nor of the contact face opposite."""
    doc = tiny_scenario()
    layer = doc["domains"][0]
    layer["polyline"] = [[1, 2], [0, 2], [0, 1], [1, 1]]
    layer["parts"] = [{"tag": t, "n": 4} for t in ("N", "N", "C", "N")]
    doc["loads"]["neumann"][0]["segment"] = 0
    for ds in doc["domains"]:
        ds["polyline"] = (scale * np.array(ds["polyline"], float)).tolist()
    system = build_system(parse_scenario(doc))
    fA = domain_data(system.im, system.loads.at(4e-3))[1][0]
    dd = system.im.layout.domains[0]
    loaded = [e for e in range(system.meshes[0].n_elements)
              if np.any(fA[dd.phi_dofs[e]])]
    assert loaded == [0, 1, 2, 3]
    doc["loads"]["neumann"][0]["segment"] = 4
    with pytest.raises(ConfigError, match=r"loads\.neumann\[0\]\.segment: value "
                       "4, but domain 0's polyline has 4 segments"):
        parse_scenario(doc)


@pytest.mark.xfail(strict=True, reason=(
    "DomainDof merges the traction nodes at the ends of the receding strip "
    "(segments 4, 5 and 6 of the layer are collinear and tagged N alike), so "
    "the strip's -0.5 MPa ramps across the next element on each side"))
def test_receding_strip_load_resultant():
    """The receding preset presses its layer with a 10 mm strip of 0.5 MPa:
    the applied traction integrates to a 5 N/mm resultant at refine 10, 20
    and 40 (the merged nodes give 14.375, 9.6875 and 7.34375 N/mm)."""
    resultants = []
    for refine in (10, 20, 40):
        system = build_system(parse_scenario(preset_receding(refine)))
        f_y = domain_data(system.im, system.loads.at(0.02))[1][0][1::2]
        dd = system.im.layout.domains[0]
        ends = f_y[dd.phi_of]  # (m, 2) y traction at each element's ends
        resultants.append(float(system.meshes[0].lengths @ ends.mean(1)))
    assert resultants == pytest.approx([-5.0] * 3, rel=1e-12)


def test_one_load_breakpoint_holds_the_loads(tmp_path, monkeypatch):
    """loads.times may have one entry: its loads hold from t = 0 on, as
    the same loads given at 0 and at t_end do."""
    runs = []
    for times, traction in (([0.0], [[0, -0.5]]),
                            ([0.0, 4e-3], [[0, -0.5], [0, -0.5]])):
        doc = tiny_scenario()
        doc["loads"]["times"] = times
        doc["loads"]["neumann"][0]["traction"] = traction
        runs.append(run_collecting(monkeypatch, parse_scenario(doc),
                                   tmp_path / str(len(times))))
        monkeypatch.undo()
    one, two = runs
    assert len(one) == len(two) == 4
    p_max = max(np.abs(r.p_n).max() for r in two)
    assert p_max > 0.1
    for a, b in zip(one, two):
        assert a.t == b.t
        assert np.abs(a.p_n - b.p_n).max() <= 1e-12 * p_max


def run_collecting(monkeypatch, sc, out_dir):
    """run_scenario's accepted records, collected as the march streams them;
    run_scenario itself returns only the last."""
    records, run = [], cli.run

    def collecting(*args, on_step, **kwargs):
        def both(rec):
            on_step(rec)
            records.append(rec)
        return run(*args, on_step=both, **kwargs)

    monkeypatch.setattr(cli, "run", collecting)
    assert cli.run_scenario(sc, out_dir) is records[-1]
    return records


def test_run_writes_all_artifacts(tmp_path):
    sc = parse_scenario(tiny_scenario(plot_every=2, magnification=100.0))
    last = cli.run_scenario(sc, tmp_path)
    assert last.k == 4
    assert (tmp_path / "run_manifest.yaml").exists()
    man = yaml.safe_load((tmp_path / "run_manifest.yaml").read_text())
    assert man["scenario"]["name"] == "tiny"
    assert len(man["geometry"]) == 64
    svgs = sorted((tmp_path / "snapshots").glob("*.svg"))
    assert [p.name for p in svgs] == ["step_00002.svg", "step_00004.svg"]
    assert svgs[0].read_text().startswith("<svg")


def test_contact_csv_round_trips_bit_exact(tmp_path, monkeypatch):
    sc = parse_scenario(tiny_scenario())
    records = run_collecting(monkeypatch, sc, tmp_path)
    lines = (tmp_path / "contact_series.csv").read_text().splitlines()
    assert lines[0].split(",") == list(cli.CONTACT_COLUMNS)
    n_c = records[0].p_n.shape[0]
    assert len(lines) == 1 + len(records) * n_c
    for rec in records:
        for i in range(n_c):
            row = lines[1 + (rec.k - 1) * n_c + i].split(",")
            assert int(row[0]) == rec.k
            assert float(row[6]) == rec.p_n[i]  # 17 sig digits: exact
            assert float(row[9]) == rec.z.z_t[i]


def test_energy_csv_consistent_with_records(tmp_path, monkeypatch):
    sc = parse_scenario(tiny_scenario())
    records = run_collecting(monkeypatch, sc, tmp_path)
    lines = (tmp_path / "energy_log.csv").read_text().splitlines()
    assert lines[0].split(",") == list(cli.ENERGY_COLUMNS)
    assert len(lines) == 1 + len(records)
    for rec, line in zip(records, lines[1:]):
        row = line.split(",")
        assert float(row[0]) == rec.t
        assert float(row[2]) == rec.stored
        assert float(row[6]) == rec.residuum.delta


def test_csv_row_templates_match_per_value_rendering():
    """The row templates print ints and slip flags as str(int(v)) and floats
    as format(float(v), ".17g"), whatever the scalar types."""
    def reference(row, int_cols):
        return ",".join(str(int(v)) if c in int_cols
                        else format(float(v), ".17g")
                        for c, v in enumerate(row)) + "\n"

    floats = (-0.0, np.float64(-0.0), 0.1, np.float64(-1.0 / 3.0), 1e-300)
    for slip in (True, np.bool_(False), np.bool_(True)):
        row = (np.int64(12), floats[2], np.int64(3), *floats, 2.5e7, -7.0,
               slip)
        assert CONTACT_ROW % row == reference(row, (0, 2, 10))
    row = (*floats, np.float64(2e-3), -0.0, np.int64(41))
    assert cli.ENERGY_ROW % row == reference(row, (7,))
    assert "-0," in cli.ENERGY_ROW % row


def test_csv_files_are_the_row_templates_of_the_records(tmp_path,
                                                        monkeypatch):
    """Both CSV files are, byte for byte, the header and one CONTACT_ROW
    per master node and ENERGY_ROW per accepted record, each formatted
    from the record's values."""
    sc = parse_scenario(tiny_scenario())
    records = run_collecting(monkeypatch, sc, tmp_path)
    pair = records[0].op.im.pair
    pos = pair.mesh_B.nodes[pair.nodes_B]
    contact = [",".join(cli.CONTACT_COLUMNS) + "\n"]
    energy = [",".join(cli.ENERGY_COLUMNS) + "\n"]
    for rec in records:
        for i in range(pair.n_master_nodes):
            contact.append(CONTACT_ROW % (
                rec.k, rec.t, i, pair.arclength_B[i], pos[i, 0], pos[i, 1],
                rec.p_n[i], rec.p_t[i], rec.z.z_n[i], rec.z.z_t[i],
                rec.slip[i]))
        r = rec.residuum
        energy.append(cli.ENERGY_ROW % (
            rec.t, rec.tau, rec.stored, r.r1, r.visc,
            r.work_mixed + r.work_lift + r.work_ext, r.delta,
            rec.qp_iterations))
    assert (tmp_path / "contact_series.csv").read_bytes() == "".join(
        contact).encode()
    assert (tmp_path / "energy_log.csv").read_bytes() == "".join(
        energy).encode()


def test_reruns_are_deterministic(tmp_path):
    sc = parse_scenario(tiny_scenario())
    cli.run_scenario(sc, tmp_path / "a")
    cli.run_scenario(sc, tmp_path / "b")
    for name in ("contact_series.csv", "energy_log.csv"):
        assert ((tmp_path / "a" / name).read_text()
                == (tmp_path / "b" / name).read_text())


def test_main_export_prints_resolved_preset(capsys):
    assert main(["run", "--preset", "skewed", "--export"]) == 0
    out = capsys.readouterr().out
    doc = yaml.safe_load(out)
    assert doc["name"] == "skewed"
    assert parse_scenario(doc).solver.eps == pytest.approx(1e-3)
    # --eps alone makes a fixed-step preset adaptive
    assert main(["run", "--preset", "conforming", "--eps", "0.5",
                 "--export"]) == 0
    assert yaml.safe_load(capsys.readouterr().out)["solver"]["eps"] == 0.5
    # --tau may leave [tau_min, tau_max]: the bounds widen to take it
    for tau, bounds in (("1e-8", [1e-8, 2e-3]), ("0.01", [1e-7, 0.01])):
        assert main(["run", "--preset", "skewed", "--tau", tau,
                     "--export"]) == 0
        solver = yaml.safe_load(capsys.readouterr().out)["solver"]
        assert [solver["tau_min"], solver["tau_max"]] == bounds


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: broken\n")
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.yaml")]) == 2
    assert main(["run", "--preset", "skewed", "--eps", "0"]) == 2
    assert main(["run"]) == 2
    capsys.readouterr()
    # overrides are checked like the schema and name their flag
    for flag, value, match in [
            ("--refine", "0", "--refine: value 0 below minimum 1"),
            ("--refine", "15", "--refine: value 15 is not a multiple of 10"),
            ("--refine", "100000", "domains[0].parts: 360000 elements, "
                                   "above the cap"),
            ("--tau", "0", "--tau: value 0.0 below minimum"),
            ("--tau", "-1", "--tau: value -1.0 below minimum"),
            ("--tau", "nan", "--tau: expected a finite number"),
            ("--tau", "inf", "--tau: expected a finite number"),
            ("--plot-every", "-2", "--plot-every: value -2 below minimum 0")]:
        assert main(["run", "--preset", "receding", flag, value,
                     "--out", str(tmp_path / "out")]) == 2, (flag, value)
        err = capsys.readouterr().err.strip()
        assert match in err and "\n" not in err, (flag, value, err)


def test_main_refine_outside_receding_exits_2(tmp_path, capsys):
    """--refine refines the receding preset only; elsewhere it is an error,
    not a flag that is silently dropped."""
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(tiny_scenario()))
    for argv in (["--preset", "conforming", "--refine", "7", "--export"],
                 ["--preset", "skewed", "--refine", "40", "--export"],
                 [str(path), "--refine", "10", "--out", str(tmp_path / "o")]):
        assert main(["run", *argv]) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: --refine: applies to the receding "
                       "preset only\n")
    assert not (tmp_path / "o").exists()
    assert main(["run", "--preset", "receding", "--refine", "20",
                 "--export"]) == 0
    assert yaml.safe_load(capsys.readouterr().out)["name"] == "receding-N20"


# PyYAML's constructors raise ValueError, ValueError, AttributeError and
# KeyError on these, without a location
UNCONVERTIBLE_SCALARS = [
    (b"name: !!int abc\n",
     "at line 1, column 7: cannot convert 'abc' to tag:yaml.org,2002:int"),
    (b"name: tiny\na: !!float x\n",
     "at line 2, column 4: cannot convert 'x' to tag:yaml.org,2002:float"),
    (b"a: !!timestamp nope\n", "at line 1, column 4: cannot convert 'nope' "
     "to tag:yaml.org,2002:timestamp"),
    (b"a: [{b: !!bool maybe}]\n", "at line 1, column 9: cannot convert "
     "'maybe' to tag:yaml.org,2002:bool"),
]


@pytest.mark.parametrize("text,match", [
    # the problem is where the stream ends, on the line after the last
    (b"name: tiny\nchi: [unclosed\n", "at line 3, column 1: "),
    (b"\tname: tiny\n", "at line 1, column 1: "),
    # a byte that is not UTF-8 is located by its offset
    (b"name: \xff\n", "at byte 6: "),
    # a tagged scalar that does not convert is located at its node
    *UNCONVERTIBLE_SCALARS,
])
def test_main_malformed_yaml_is_one_located_line(text, match, tmp_path,
                                                 capsys):
    path = tmp_path / "bad.yaml"
    path.write_bytes(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: malformed YAML " + match), err
    assert "\n" not in err


@pytest.mark.parametrize("text,match", UNCONVERTIBLE_SCALARS)
def test_unconvertible_scalar_message_is_the_same_with_both_loaders(
        text, match, monkeypatch):
    """Both YAML loaders report a tagged scalar that does not convert with
    the same line, column and problem."""
    messages = []
    for loader in {yaml.SafeLoader, cli.YAML_LOADER}:
        monkeypatch.setattr(cli, "YAML_LOADER", loader)
        with pytest.raises(ConfigError, match=match) as err:
            parse_scenario(text)
        messages.append(str(err.value))
    assert len(set(messages)) == 1


# main on argv[2:] with the YAML loader argv[1] names
MAIN_WITH_LOADER = """
import sys
import yaml
from contactbem import cli
cli.YAML_LOADER = {"libyaml": yaml.CSafeLoader, "pure": yaml.SafeLoader}[
    sys.argv[1]]
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("loader", [
    pytest.param("libyaml", marks=pytest.mark.skipif(
        not yaml.__with_libyaml__, reason="PyYAML without libyaml")),
    "pure"])
def test_deeply_nested_document_is_one_located_line(loader, tmp_path):
    """A document nested far deeper than the schema exits 2 with one
    located line.  Composing it would overflow the stack: a crash of the
    interpreter under libyaml, so the run is a child process."""
    path = tmp_path / "deep.yaml"
    path.write_text("a: " + "[" * 30000 + "]" * 30000 + "\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = [{src!r}]\n"
         + MAIN_WITH_LOADER, loader, "run", str(path), "--out",
         str(tmp_path / "out")], capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr == ("config error: malformed YAML at line 1, column "
                           f"35: nested more than {cli.MAX_NESTING} deep\n")
    assert not (tmp_path / "out").exists()


def test_main_unreadable_scenario_file_exits_2(tmp_path, capsys):
    for path, reason in [(tmp_path, "Is a directory"),
                         (tmp_path / "missing.yaml", "No such file")]:
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip()
        assert f"cannot read scenario file {path}: {reason}" in err
        assert "\n" not in err


def test_main_out_naming_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", "--preset", "receding", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("cannot write output: ") and str(out) in err
    assert "\n" not in err


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
@pytest.mark.parametrize("doc", [
    *[preset_receding(refine) for refine in (10, 20, 40)],
    *[PRESETS[name]() for name in ("conforming", "skewed")], tiny_scenario()],
    ids=lambda doc: doc["name"])
def test_libyaml_and_pure_python_yaml_agree(doc):
    """cli reads and writes YAML through libyaml where PyYAML has it.  The
    pure-Python classes it falls back to write the same bytes for the
    export and the manifest of a scenario, and read the same documents."""
    assert (cli.YAML_LOADER, cli.YAML_DUMPER) == (yaml.CSafeLoader,
                                                  yaml.CSafeDumper)
    sc = parse_scenario(doc)
    meshes = [build_mesh(d.polyline, d.parts, domain_label=d.label,
                         allow_floating=d.allow_floating) for d in sc.domains]
    manifest = {  # as run_scenario writes it
        "scenario": scenario_to_dict(sc),
        "version": __version__,
        "geometry": geometry_hash(meshes, [d.material for d in sc.domains]),
    }
    for document in (scenario_to_dict(sc), manifest):
        text = yaml.dump(document, Dumper=yaml.CSafeDumper, sort_keys=False)
        assert text == yaml.dump(document, Dumper=yaml.SafeDumper,
                                 sort_keys=False)
        for source in (text, text.encode()):
            assert (yaml.load(source, Loader=yaml.CSafeLoader)
                    == yaml.load(source, Loader=yaml.SafeLoader) == document)


def test_main_runs_scenario_file(tmp_path, capsys):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(tiny_scenario()))
    code = main(["run", str(path), "--out", str(tmp_path / "out"),
                 "--tau", "2e-3"])
    assert code == 0
    assert "2 accepted steps" in capsys.readouterr().out
    assert (tmp_path / "out" / "energy_log.csv").exists()


NUMPY_ONLY = """
import sys
from contactbem.cli import main
assert main(sys.argv[1:]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")
             or m.split(".")[:2] == ["numpy", "random"]))
"""


def test_run_imports_no_scipy_and_no_numpy_random(tmp_path):
    """The solver's numerics are numpy's core and linalg alone: a run in a
    fresh interpreter loads no scipy module and no numpy.random."""
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(tiny_scenario()))
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = [{src!r}]\n"
         + NUMPY_ONLY, "run", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_snapshot_svg_geometry(tmp_path):
    sc = parse_scenario(tiny_scenario())
    system = build_system(sc)
    zero = [np.zeros(2 * m.n_nodes) for m in system.meshes]
    path = tmp_path / "snap.svg"
    cli.emit_snapshot_svg(system.meshes, zero, 100.0, path, system.pair,
                          np.zeros(system.pair.n_master_nodes))
    text = path.read_text()
    # two outlines, drawn twice (coincident); no pressure, no profile
    assert text.count("<path") == 4
    assert "</svg>" in text


def test_main_touching_polyline_exits_2(tmp_path, capsys):
    doc = tiny_scenario()
    # vertex (2, 0) touches the bottom edge: meshes, but cannot be integrated
    doc["domains"][1]["polyline"] = [[0, 0], [4, 0], [4, 4], [3, 4], [2, 0],
                                     [1, 4], [0, 4]]
    doc["domains"][1]["parts"] = [{"tag": t, "n": 1}
                                  for t in ("D", "N", "C", "N", "N", "N", "N")]
    path = tmp_path / "touch.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert "domains[1]: polyline segments 0 and 3 touch at (2, 0)" in err
    assert "\n" not in err


def test_main_huge_self_crossing_polyline_exits_2(tmp_path, capsys):
    """The crossing and orientation tests are scale-free: a self-crossing
    polyline near the float limit, where its raw signed area and
    orientation products overflow, is still rejected."""
    doc = tiny_scenario()
    doc["domains"][1]["polyline"] = [[1e155 * x, 1e155 * y] for x, y in
                                     [[0, 0], [2, 0], [2, 2], [1, -1], [0, 2]]]
    doc["domains"][1]["parts"] = [{"tag": t, "n": 1}
                                  for t in ("D", "N", "C", "N", "N")]
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert "domains[1]: polyline self-intersects" in err
    assert "\n" not in err


def test_main_split_contact_zone_exits_2(tmp_path, capsys):
    doc = cli.preset_receding(10)
    doc["domains"][0]["parts"][1]["tag"] = "N"
    doc["domains"][1]["parts"][4]["tag"] = "N"
    path = tmp_path / "split.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert "domain A: contact elements are not one contiguous chain" in err
    assert "\n" not in err


@pytest.mark.parametrize("kind,entry,match", [
    # a traction on the clamped base of B, whose traction the solve finds
    ("neumann", {"domain": 1, "segment": 0, "traction": [[0, 0], [0, 3.0]]},
     "loads.neumann[1]: domain 1 segment 0 prescribes a nonzero y traction"),
    # a displacement on a free face of B
    ("dirichlet", {"domain": 1, "segment": 1, "values": [[0, 0], [0.1, 0]]},
     "loads.dirichlet[0]: domain 1 segment 1 prescribes a nonzero x "
     "displacement"),
])
def test_main_dropped_load_exits_2(kind, entry, match, tmp_path, capsys):
    """A load value the solve would never read is a config error, not a
    silent change of the logged work."""
    doc = tiny_scenario()
    doc["loads"].setdefault(kind, []).append(entry)
    path = tmp_path / "dropped.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert match in err
    assert "\n" not in err


@pytest.mark.parametrize("error", SOLVER_ERRORS)
def test_main_maps_library_errors_to_exit_3(error, tmp_path, capsys, monkeypatch):
    def failing(sc, out):
        raise error("broken")

    monkeypatch.setattr(cli, "run_scenario", failing)
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(tiny_scenario()))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "solver failure: broken\n"


def test_main_non_finite_operator_exits_3(tmp_path, capsys):
    """Elements graded down to 1e-5 mm put quadrature points of an adjacent
    pair on their shared vertex: the run stops in set-up with one line
    naming the domain and the pair, not with a march on a nan operator."""
    doc = _exported("conforming")
    for domain in doc["domains"]:
        for part in domain["parts"]:
            if "grade" in part:
                part["grade"][1] = 1e-5
    path = tmp_path / "graded.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("solver failure: domain A: Galerkin block of "
                            "elements 0 and 75 is not finite\n")


# malformed nodes of the exported conforming preset: (path, value, message)
MALFORMED_NODES = [
    (("contact",), "abc", "contact: expected a mapping"),
    (("contact",), [1, 2], "contact: expected a mapping"),
    (("solver",), [1], "solver: expected a mapping"),
    (("domains", 0), "abc", "domains[0]: expected a mapping"),
    (("domains", 0, "parts", 0), "C", "domains[0].parts[0]: expected a mapping"),
    (("domains", 0, "parts"), 3, "domains[0].parts: expected a list"),
    (("domains", 0, "parts", 0, "n"), 2.5,
     "domains[0].parts[0].n: expected an integer"),
    (("domains", 1, "polyline", 2), [1],
     "domains[1].polyline[2]: expected [x, y]"),
    (("loads", "neumann"), 5, "loads.neumann: expected a list"),
    (("loads", "neumann", 0, "traction"), "x",
     "loads.neumann[0].traction: expected a list"),
    (("loads", "neumann", 0, "traction"), [[0, 0], [1]],
     "loads.neumann[0].traction[1]: expected [x, y]"),
    (("loads", "neumann", 0, "domain"), 0.5,
     "loads.neumann[0].domain: expected an integer"),
    (("loads", "dirichlet", 0, "segment"), 5.0,
     "loads.dirichlet[0].segment: expected an integer"),
    (("domains", 0, "allow_floating"), "no",
     "domains[0].allow_floating: expected true or false"),
    (("name",), [1, 2], "name: expected a string"),
    (("domains", 1, "label"), 7, "domains[1].label: expected a string"),
    (("domains", 0, "parts", 0, "n"), 10**30,
     f"domains[0].parts: {10**30 + 28} elements, above the cap of 1000 per "
     "domain"),
    (("domains", 0, "material", "E"), 1e300,
     "domains[0].material.E: value 1e+300 above maximum 1000000000000.0"),
    # each rule of the admissible data, checked once, where the input enters
    (("domains", 1, "material", "E"), 0,
     "domains[1].material.E: value 0.0 below minimum 1e-12"),
    (("domains", 0, "material", "nu"), 0.5,
     "domains[0].material.nu: value 0.5 above maximum 0.499999999999"),
    (("chi",), -1e-3, "chi: value -0.001 below minimum 0.0"),
    (("domains", 1, "parts", 2, "tag"), "X",
     "domains[1].parts[2].tag: unknown tag 'X'"),
    (("domains", 0, "parts", 1, "n"), 0,
     "domains[0].parts[1].n: value 0 below minimum 1"),
    (("domains", 1, "parts", 3, "n"), 47,
     "domains[1].parts[3].grade: 'both' grading needs an even n, got 47"),
    (("loads", "neumann", 0, "segment"), 4,
     "loads.neumann[0].segment: value 4, but domain 0's polyline has 4 "
     "segments"),
    (("loads", "dirichlet", 0, "domain"), 0,
     "loads.dirichlet[0].segment: value 5, but domain 0's polyline has 4 "
     "segments"),
    # the punch's side held in x at the corner of its contact face
    (("domains", 0, "parts", 1, "tag"), "DxNy",
     "domains[0]: Dirichlet and contact closures intersect"),
    # the march starts at rest, so a prescribed displacement starts at zero
    (("loads", "dirichlet", 0, "values"), [[0.01, 0]] * 4,
     "loads.dirichlet[0].values: [0.01, 0.0] at t = 0"),
    # tau_min <= tau <= tau_max
    (("solver", "tau_min"), 1e-3,
     "solver.tau_min: value 0.001 above maximum 0.00025"),
    (("solver", "tau_max"), 1e-5,
     "solver.tau_max: value 1e-05 below minimum 0.00025"),
    (("solver", "tau"), 1e-3,
     "solver.tau_max: value 0.00025 below minimum 0.001"),
    # the default output directory is named after the scenario
    (("name",), "a\0b", "name: contains a NUL character"),
]


def _exported(name):
    return scenario_to_dict(parse_scenario(PRESETS[name]()))


def _node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(doc, path, value=None, drop=False):
    doc = copy.deepcopy(doc)
    node = _node_at(doc, path[:-1])
    if drop:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@pytest.mark.parametrize("path,value,match", MALFORMED_NODES)
def test_main_malformed_node_exits_2(path, value, match, tmp_path, capsys):
    """A node of the wrong type is a config error naming its key path, not
    a traceback."""
    doc = _mutated(_exported("conforming"), path, value)
    yaml_path = tmp_path / "bad.yaml"
    yaml_path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(yaml_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert match in err
    assert "\n" not in err


def _node_paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _node_paths(child, path + (key,))


FUZZ_DOCS = {"tiny": tiny_scenario(),
             **{name: _exported(name) for name in PRESETS}}
# one node of each type the schema may meet
ANY_TYPE = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.floats(),
                     st.booleans(), st.none(),
                     st.lists(st.integers(-1, 2), max_size=3),
                     st.dictionaries(st.sampled_from(["n", "x"]),
                                     st.integers(0, 2), max_size=2))
# beyond every bound of the schema, or beyond a float's range
OUT_OF_RANGE = st.sampled_from([-1e300, -1, 0, 1e300, 10**400, 0.5 - 1e-13,
                                float("nan"), float("inf"), -float("inf")])
MAX_FUZZ_ELEMENTS = 64  # larger counts are a resource limit, not built here


@st.composite
def schema_cases(draw):
    """(document, mutation kind, node path, new value) of a mutated preset."""
    base = draw(st.sampled_from(sorted(FUZZ_DOCS)))
    paths = list(_node_paths(FUZZ_DOCS[base]))[1:]
    kind = draw(st.sampled_from(["drop", "add", "swap", "range"]))
    if kind == "drop":
        path = draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        return base, kind, path, None
    if kind == "add":
        parents = [p for p in [()] + paths
                   if isinstance(_node_at(FUZZ_DOCS[base], p), dict)]
        return base, kind, draw(st.sampled_from(parents)) + ("bogus",), 1
    if kind == "swap":
        return base, kind, draw(st.sampled_from(paths)), draw(ANY_TYPE)
    numbers = [p for p in paths
               if type(_node_at(FUZZ_DOCS[base], p)) in (int, float)]
    return base, kind, draw(st.sampled_from(numbers)), draw(OUT_OF_RANGE)


def _fuzz_schema(case):
    """A mutated preset either parses to a Scenario or raises ConfigError or
    MeshError naming the mutated key; the tiny scenario that parses also
    builds, or fails with an error that main maps to exit 2 or 3."""
    base, kind, path, value = case
    doc = _mutated(FUZZ_DOCS[base], path, value, drop=kind == "drop")
    key = [k for k in path if isinstance(k, str)][-1]
    try:
        sc = parse_scenario(doc)
    except (ConfigError, MeshError) as exc:
        assert key in str(exc)
        return
    assert isinstance(sc, cli.Scenario)
    counts = [p["n"] for d in sc.domains for p in d.parts]
    if base == "tiny" and max(counts) <= MAX_FUZZ_ELEMENTS:
        try:
            build_system(sc)
        except (ConfigError, MeshError, *SOLVER_ERRORS):
            pass


for _path, _value, _ in MALFORMED_NODES:
    _fuzz_schema = example(case=("conforming", "swap", _path, _value))(
        _fuzz_schema)
test_fuzz_schema = settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])(
    given(case=schema_cases())(_fuzz_schema))
