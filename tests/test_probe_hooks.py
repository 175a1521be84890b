"""The benchmark's probe wraps solver names from outside; renaming one of
them, or a step that stops calling one, must fail here rather than as a
failed benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import probe
from contactbem import _kernels_impl, kernels
probe.install_probes({}, probe.Recorder())
kernels.classify_pairs, kernels.galerkin_integral, _kernels_impl.USE_NUMBA
"""


def test_probe_hooks_resolve():
    path = [str(ROOT / "perfbench"), str(ROOT / "src")]
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = {path!r}\n" + CHECK],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_traced_probe_spans_every_step(tmp_path, monkeypatch):
    """A traced probe run (MODE 1) of the seed-0 receding workload exits 0,
    records one QP build, QP solve and traction span inside every step
    span, and one QP iteration count per step, which the benchmark's
    per-layer quantiles need: a step that stops calling a wrapped name
    fails here."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(workloads.scenario_yaml("receding", 0))
    path = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(path),
         "1", "run", str(scenario), "--out", str(tmp_path / "out")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(path.read_text())
    spans = report["spans"]
    steps = [i for i, span in enumerate(spans) if span[0] == "evolve.step"]
    assert steps
    for name in ("qp.build", "qp.mprgp", "evolve.tractions"):
        parents = sorted(span[3] for span in spans if span[0] == name)
        assert parents == steps, name
    assert len(report["qp_iterations"]) == len(steps)
