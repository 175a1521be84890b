"""The benchmark's probe wraps solver names from outside; renaming one of
them must fail here rather than as a failed benchmark run."""

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
