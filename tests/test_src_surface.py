"""src/contactbem keeps only what a run executes: a child process traces
cli.main under sys.setprofile (imports included) on the seed-0 benchmark
workloads, with snapshots, and on the export of every preset.  Every
top-level function and class method must have run but the allowlist; what
only a test calls belongs in tests/oracles.py."""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "contactbem"

NEVER_CALLED = {
    # perfbench/probe.py wraps evolve.solve_tbvp and steklov.solve_tbvp
    "assembly.solve_tbvp",
    # perfbench/probe.py times galerkin_integral over every classified pair
    "kernels.classify_pairs",
    "kernels.galerkin_integral",
}

# accepted steps between snapshots: each workload writes at least one SVG
PLOT_EVERY = {"receding": 10, "conforming": 80, "skewed": 1000}

TRACE = """
import json, sys
from pathlib import Path
called = set()

def profile(frame, event, arg):
    path = Path(frame.f_code.co_filename)
    if event == "call" and path.parent == Path(sys.argv[1]):
        called.add((path.stem, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from contactbem import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
sys.setprofile(None)
print(json.dumps([codes, sorted(called)]))
"""


def defined_functions() -> dict:
    """{(module, first line of its code, at a decorator if any): name} of
    every top-level function and class method."""
    names = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            scope, defs = "", [node]
            if isinstance(node, ast.ClassDef):
                scope, defs = f"{node.name}.", node.body
            for item in defs:
                if isinstance(item, ast.FunctionDef):
                    line = min([item.lineno]
                               + [d.lineno for d in item.decorator_list])
                    names[path.stem, line] = f"{path.stem}.{scope}{item.name}"
    return names


def test_every_src_function_runs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    argvs = [["run", "--preset", name, "--export"]
             for name in workloads.cli.PRESETS]
    for name, every in PLOT_EVERY.items():
        (tmp_path / f"{name}.yaml").write_text(workloads.scenario_yaml(name, 0))
        argvs.append(["run", f"{name}.yaml", "--out", name,
                      "--plot-every", str(every)])
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}]\n" + TRACE,
         str(SRC), json.dumps(argvs)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes, called = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    for name in PLOT_EVERY:
        assert any((tmp_path / name / "snapshots").glob("*.svg")), name
    called = {tuple(key) for key in called}
    assert {name for key, name in defined_functions().items()
            if key not in called} == NEVER_CALLED
