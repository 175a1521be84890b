"""contactbem benchmark: YAML-to-CSV time of three workloads, traced by module.

usage: python3 perfbench/run.py --workload {receding,conforming,skewed}
                                --seed N --seconds S --trace {0,1}
       python3 perfbench/run.py --workload W --write-reference

Run it from the root of a source checkout; it imports the solver from src/.
Each repetition launches a fresh interpreter (probe.py) that calls
contactbem.cli.main(["run", <yaml>, "--out", <dir>]), the code path of
`python -m contactbem.cli run`, with BLAS held to BLAS_THREADS threads.
Repetitions run one at a time and continue while the next one is expected
to end within --seconds; there is always at least one.  The outputs of every
repetition pass through gate.py; a repetition fails on a nonzero exit, an
exception or a failed check.

--trace 0 prints the end-to-end metrics, --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics.  Both print each metric
by name with its unit, the output verdict and the run metadata; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --write-reference stores the seed-0 outputs
of a workload as the reference that later seed-0 runs are compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
# every launch is killed once the run has lasted this long, so that a hung
# or very slow solver still lets the benchmark exit within its time limit
RUN_DEADLINE_S = 170.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# metric name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# per-layer self times: metric <- span names whose self times it sums
SELF_TIMES = {
    "mesh.build_s": ("mesh.build_mesh", "mesh.pair_contacts"),
    "kernels.pair_blocks_s": ("kernels.pair_blocks",),
    "assembly.assemble_self_s": ("assembly.assemble",),
    "assembly.factorize_s": ("assembly.factorize",),
    "assembly.backsolve_s": ("assembly.backsolve",),
    "assembly.solve_tbvp_self_s": ("assembly.solve_tbvp",),
    "steklov.operator_init_s": ("steklov.operator_init",),
    "steklov.hessian_s": ("steklov.hessian",),
    "contact.contact_mass_s": ("contact.contact_mass",),
    "qp.build_s": ("qp.build",),
    "qp.mprgp_s": ("qp.mprgp",),
    "evolve.step_self_s": ("evolve.step",),
    "evolve.tractions_s": ("evolve.tractions",),
    "evolve.run_self_s": ("evolve.run",),
    "cli.import_s": ("cli.import",),
    "cli.parse_s": ("cli.parse",),
    "cli.main_self_s": ("cli.main",),
    "cli.run_scenario_self_s": ("cli.run_scenario",),
    "cli.build_system_self_s": ("cli.build_system",),
    "cli.emit_s": ("cli.emit",),
}
SPAN_COUNTS = {
    "assembly.backsolves": "assembly.backsolve",
    "steklov.operator_inits": "steklov.operator_init",
    "contact.contact_mass_calls": "contact.contact_mass",
    "evolve.steps_attempted": "evolve.step",
}


class Rep:
    """One launch of probe.py: wall time and peak memory seen from outside."""

    def __init__(self, mode: str, args: list, work: Path, timeout: float):
        work.mkdir(parents=True)
        self.trace = mode == "1"
        report = work / "report.json"
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                   OMP_NUM_THREADS=str(BLAS_THREADS),
                   MKL_NUM_THREADS=str(BLAS_THREADS))
        with open(work / "stdout.txt", "w") as out, \
                open(work / "stderr.txt", "w") as err:
            self.launch_epoch = time.time()
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), str(report), mode]
                + args, cwd=ROOT, env=env, stdout=out, stderr=err)
            killer = threading.Timer(max(timeout, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # kB on Linux
        self.report = json.loads(report.read_text()) if report.exists() else {}
        self.problems = []
        if self.returncode != 0:
            tail = (work / "stderr.txt").read_text().strip().splitlines()[-3:]
            self.problems.append(f"exit code {self.returncode}: "
                                 + " | ".join(tail))

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def setup_s(self) -> float:
        return self.report["t_build"] - self.report["t0"]

    @property
    def march_s(self) -> float:
        return self.report["t_end"] - self.report["t_build"]


class Runner:
    """Launches the repetitions of one workload and seed in a scratch dir."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        import gate
        import workloads

        self.gate = gate
        self.scratch = scratch
        sc = workloads.scenario(workload, seed)
        self.expect = workloads.expectations(sc)
        ref = HERE / "reference" / f"{workload}.json"
        self.reference = (json.loads(ref.read_text())
                          if seed == 0 and ref.exists() else None)
        self.yaml = scratch / "scenario.yaml"
        self.yaml.write_text(workloads.scenario_yaml(workload, seed))
        self.reps = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def launch(self, trace: bool) -> Rep:
        out = self.scratch / f"rep{len(self.reps)}" / "out"
        rep = Rep("1" if trace else "0",
                  ["run", str(self.yaml), "--out", str(out)], out.parent,
                  self.deadline - time.perf_counter())
        rep.out = out
        if rep.returncode == 0:
            rep.problems += self.gate.check_outputs(out, self.expect,
                                                    self.reference)
        self.reps.append(rep)
        return rep

    def time_pair_classes(self) -> dict:
        rep = Rep("classes", [str(self.yaml)], self.scratch / "classes",
                  self.deadline - time.perf_counter())
        if rep.returncode != 0:
            raise SystemExit(f"pair-class timing failed: {rep.problems}")
        return rep.report


def repeat(seconds: float, deadline: float, round_trip):
    """Call round_trip() while the next call is expected to end in time.

    Always calls it once; the estimate is the slowest call so far.  Stops
    at the perf_counter() deadline whatever the estimate.
    """
    start = time.perf_counter()
    slowest = 0.0
    while True:
        t = time.perf_counter()
        round_trip()
        slowest = max(slowest, time.perf_counter() - t)
        now = time.perf_counter()
        if now - start + slowest > seconds or now >= deadline:
            return


def quantile(values: list, q: int) -> float:
    """q-th percentile, inclusive linear interpolation."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def step_intervals(reps: list) -> list:
    """Milliseconds between consecutive accepted steps of passing reps."""
    out = []
    for r in reps:
        if r.ok:
            steps = r.report["steps"]
            out += [1e3 * (b - a) for a, b in zip(steps, steps[1:])]
    return out


def end_to_end(reps: list) -> dict:
    """End-to-end metrics of the passing reps.

    steps_per_s pools the marches of all passing reps (summed accepted steps
    over summed march time).  A march can be shorter than 0.1 s, short enough
    to fall wholly into one of the host's fast or slow phases, so a median
    over a handful of reps jumps between phases where the pooled rate
    averages them.
    """
    good = [r for r in reps if r.ok]
    intervals = step_intervals(reps)
    return {
        "wall_s": statistics.median(r.wall for r in good),
        "setup_s": statistics.median(r.setup_s for r in good),
        "steps_per_s": (sum(len(r.report["steps"]) for r in good)
                        / sum(r.march_s for r in good)),
        "step_ms_p50": quantile(intervals, 50),
        "step_ms_p90": quantile(intervals, 90),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
        "ok_frac": len(good) / len(reps),
    }


def self_times(spans: list):
    """Per span name: summed self time (duration minus children) and count."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total, count = defaultdict(float), Counter()
    for (name, start, end, _), inner in zip(spans, child):
        total[name] += end - start - inner
        count[name] += 1
    return total, count


def per_layer(rep: Rep, untraced_wall: float, classes: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    report, spans = rep.report, rep.report["spans"]
    total, count = self_times(spans)
    m = {k: sum(total[n] for n in names) for k, names in SELF_TIMES.items()}
    m.update({k: count[n] for k, n in SPAN_COUNTS.items()})
    iters = report["qp_iterations"]
    accepted = len(report["steps"])
    system = report["system"]
    startup = report["epoch0"] - rep.launch_epoch
    teardown = rep.wall - startup - (report["t_end"] - report["t0"])
    self_sum = sum(total.values())
    m.update({
        "mesh.elements": system["elements"],
        "assembly.unknowns": system["unknowns"],
        "steklov.n_w": system["n_w"],
        "qp.iterations": sum(iters),
        "qp.matvecs": report["qp_matvecs"],
        "qp.iters_per_step_p50": quantile(iters, 50),
        "qp.iters_per_step_p90": quantile(iters, 90),
        "evolve.steps_accepted": accepted,
        "evolve.accept_ratio": accepted / count["evolve.step"],
        "cli.csv_bytes": sum((rep.out / f).stat().st_size for f in
                             ("contact_series.csv", "energy_log.csv")),
        "trace.wall_s": rep.wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": rep.wall - untraced_wall,
        "trace.startup_s": startup,
        "trace.teardown_s": teardown,
        "trace.self_sum_s": self_sum,
        "trace.unaccounted_s": rep.wall - startup - teardown - self_sum,
        "trace.spans": len(spans),
    })
    for cls in ("coincident", "adjacent", "separated"):
        m[f"kernels.pairs_{cls}"] = classes["pairs"][cls]
        m[f"kernels.{cls}_s"] = classes["pair_seconds"][cls]
    return m


def median_metrics(samples: list) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def metadata(report: dict) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "contactbem").glob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "compiled_kernels": report.get("compiled_kernels"),
        "src_lines": src_lines,
    }


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the seed-0 outputs as the workload reference")
    return ap.parse_args(argv)


def measure(args, runner: Runner):
    """Run the repetitions; metrics of the passing ones, or None."""
    if not args.trace:
        repeat(args.seconds, runner.deadline,
               lambda: runner.launch(trace=False))
        if not any(r.ok for r in runner.reps):
            return None
        return end_to_end(runner.reps)
    start = time.perf_counter()
    classes = runner.time_pair_classes()
    pairs = []

    def traced_pair():
        untraced = runner.launch(trace=False)
        traced = runner.launch(trace=True)
        if untraced.ok and traced.ok:
            pairs.append((traced, untraced.wall))
    repeat(args.seconds - (time.perf_counter() - start), runner.deadline,
           traced_pair)
    if not pairs:
        return None
    return median_metrics([per_layer(t, u, classes) for t, u in pairs])


def write_reference(workload: str, runner: Runner):
    runner.reference = None  # the outputs replace the stored reference
    rep = runner.launch(trace=False)
    if not rep.ok:
        raise SystemExit(f"reference run failed: {rep.problems}")
    path = HERE / "reference" / f"{workload}.json"
    summary = runner.gate.summary(rep.out, runner.expect["adaptive"])
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    if not (SRC / "contactbem" / "cli.py").is_file():
        print(f"no solver sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    scratch_root = ROOT / ".perfbench_runs"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        if args.write_reference:
            if args.seed != 0:
                raise SystemExit("references are stored for seed 0 only")
            write_reference(args.workload, Runner(args.workload, 0, scratch))
            return 0
        runner = Runner(args.workload, args.seed, scratch)
        metrics = measure(args, runner)
        units = PER_LAYER if args.trace else END_TO_END
        reps = runner.reps
        failed = sum(not r.ok for r in reps)
        for i, r in enumerate(reps):
            steps = len(r.report.get("steps", []))
            print(f"repetition {i}: {'traced ' if r.trace else ''}wall "
                  f"{r.wall:.3f} s, {steps} accepted steps, "
                  f"{'PASS' if r.ok else 'FAIL'}")
            for p in r.problems:
                print(f"  {p}")
        if metrics is None:
            print("no repetition passed; no metrics", file=sys.stderr)
            return 1
        print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, "
              f"{failed} failed, outputs {'PASS' if not failed else 'FAIL'}")
        for k in units:
            print(f"  {k:28s} {metrics[k]:14.6g} {units[k]}")
        if not args.trace:
            print(f"  {'failed_frac':28s} {failed / len(reps):14.6g} ratio")
            print(f"  step_ms percentiles over {len(step_intervals(reps))} "
                  f"intervals between accepted steps")
        print("meta " + json.dumps(metadata(reps[-1].report)))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
