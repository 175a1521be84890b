"""Child process of the benchmark: one contactbem CLI run, probed from outside.

usage: python probe.py REPORT MODE [cli arguments...]

MODE 0 or 1 calls contactbem.cli.main(cli arguments), the code path of
`python -m contactbem.cli run ...`, and stamps the return of
cli.build_system and the end of every accepted step.  MODE 1 also wraps the
public functions of every module where their caller binds them (the modules
import each other with `from .x import y`) and records a span per call:
name, start, end and parent.  Spans stay in memory until the run ends.

MODE classes reads the scenario YAML given as the only argument, meshes it
and times galerkin_integral over every element pair of each class.

REPORT (JSON) is written when the process ends.  No file under src/ is
modified; everything here wraps calls from the outside.
"""

import time

T0 = time.perf_counter()
EPOCH0 = time.time()

import json  # noqa: E402
import sys  # noqa: E402


class Recorder:
    """Spans of one run: [name, start, end, parent index] (-1 at top)."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1]])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, func, name: str):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(idx)
        return traced


def _patch(owner, attr, make):
    setattr(owner, attr, make(getattr(owner, attr)))


def install_probes(report: dict, rec):
    """Stamp set-up and steps; with a recorder, trace every module call."""
    from contactbem import assembly, cli, evolve, qp, steklov

    def build_probe(build_system):
        def probed(sc):
            system = build_system(sc)
            report["t_build"] = time.perf_counter()
            report["system"] = {
                "elements": sum(m.n_elements for m in system.meshes),
                "unknowns": int(system.im.K.shape[0]),
                "n_w": int(system.im.W.shape[1]),
            }
            return system
        return probed

    def run_probe(run):
        def probed(*args, on_step=None, **kwargs):
            emit = on_step if rec is None else rec.wrap(on_step, "cli.emit")

            def stamped(record):
                emit(record)
                report["steps"].append(time.perf_counter())
            return run(*args, on_step=stamped, **kwargs)
        return probed

    def mprgp_probe(mprgp_solve):
        def counted(*args, **kwargs):
            sol = mprgp_solve(*args, **kwargs)
            report["qp_iterations"].append(sol.iterations)
            report["qp_matvecs"] += sol.n_backsolves
            return sol
        return counted

    _patch(cli, "build_system", build_probe)
    _patch(cli, "run", run_probe)
    if rec is None:
        return
    _patch(evolve, "mprgp_solve", mprgp_probe)
    spans = [
        (cli, "parse_scenario", "cli.parse"),
        (cli, "run_scenario", "cli.run_scenario"),
        (cli, "build_system", "cli.build_system"),
        (cli, "build_mesh", "mesh.build_mesh"),
        (cli, "pair_contacts", "mesh.pair_contacts"),
        (cli, "assemble", "assembly.assemble"),
        (assembly, "all_pair_blocks", "kernels.pair_blocks"),
        (assembly.InfluenceMatrices, "factorize", "assembly.factorize"),
        (assembly.InfluenceMatrices, "solve", "assembly.backsolve"),
        (evolve, "solve_tbvp", "assembly.solve_tbvp"),
        (steklov, "solve_tbvp", "assembly.solve_tbvp"),
        (cli, "run", "evolve.run"),
        (evolve, "step", "evolve.step"),
        (evolve, "contact_tractions", "evolve.tractions"),
        (evolve, "SteklovOperator", "steklov.operator_init"),
        (steklov.SteklovOperator, "hessian", "steklov.hessian"),
        (evolve, "contact_mass", "contact.contact_mass"),
        (qp, "contact_mass", "contact.contact_mass"),
        (evolve, "build_qp", "qp.build"),
        (evolve, "mprgp_solve", "qp.mprgp"),
    ]
    for owner, attr, name in spans:
        _patch(owner, attr, lambda f, name=name: rec.wrap(f, name))


def run_cli(report: dict, trace: bool, argv: list) -> int:
    rec = Recorder() if trace else None
    report.update(steps=[], qp_iterations=[], qp_matvecs=0)
    if rec is not None:
        idx = rec.open("cli.import")
    from contactbem import _kernels_impl, cli
    if rec is not None:
        rec.close(idx)
    report["compiled_kernels"] = bool(_kernels_impl.USE_NUMBA)
    install_probes(report, rec)
    main = cli.main if rec is None else rec.wrap(cli.main, "cli.main")
    try:
        return main(argv)
    finally:
        report["t_end"] = time.perf_counter()
        if rec is not None:
            report["spans"] = rec.spans


def time_pair_classes(report: dict, yaml_path: str) -> int:
    from pathlib import Path

    from contactbem import cli
    from contactbem.kernels import classify_pairs, galerkin_integral

    names = {2: "coincident", 1: "adjacent", 0: "separated"}
    pairs = dict.fromkeys(names.values(), 0)
    seconds = dict.fromkeys(names.values(), 0.0)
    sc = cli.parse_scenario(Path(yaml_path).read_text())
    for ds in sc.domains:
        mesh = cli.build_mesh(ds.polyline, ds.parts, domain_label=ds.label,
                              allow_floating=ds.allow_floating)
        kind, _ = classify_pairs(mesh)
        # the pairs compute_pair_blocks integrates: i <= j
        for i in range(mesh.n_elements):
            for j in range(i, mesh.n_elements):
                cls = names[int(kind[i, j])]
                t = time.perf_counter()
                galerkin_integral(mesh, i, j, "U", ds.material)
                seconds[cls] += time.perf_counter() - t
                pairs[cls] += 1
    report.update(pairs=pairs, pair_seconds=seconds)
    return 0


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    report = {"t0": T0, "epoch0": EPOCH0}
    try:
        if mode == "classes":
            return time_pair_classes(report, argv[0])
        return run_cli(report, mode == "1", argv)
    finally:
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
