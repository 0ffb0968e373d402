"""lmgsim benchmark: wall time, set-up time and memory of the published
experiments, with every output checked against oracles computed apart from
the package.

    python3 perfbench/run.py --workload presets_n200 --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout: the package is imported from the
checkout's src/. A run repeats whole passes over the workload's operations
for about --seconds of measured time (at least one pass; with --trace 1 at
least two, alternating untraced and traced). Each pass runs in a fresh
interpreter and clears lmgsim's module caches before each operation, so it
pays what a series of `lmgsim run` calls pays, apart from interpreter start-up,
which setup_s measures. The first pass is checked against the oracles and
every later pass byte for byte against the first. The last line of standard
output is the JSON result; the lines above it and perfbench/out/ hold the
environment, per-operation times and, with --trace 1, per-layer seconds and
the spans.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, and inherited by every child. One thread is at
# most nproc on any machine, keeps seeded tomography identical across
# machines, and is steadier on shared cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def require_source():
    if not (SRC / "lmgsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lmgsim package under {SRC}; run inside a checkout of the repository")


def import_package():
    """Import lmgsim from this checkout's src/, never from anywhere else."""
    require_source()
    sys.path.insert(0, str(SRC))
    import lmgsim

    if Path(lmgsim.__file__).resolve().parent != (SRC / "lmgsim").resolve():
        sys.exit(f"perfbench: imported lmgsim from {lmgsim.__file__}, not from {SRC}")
    return lmgsim


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def measure_setup(configs: list[dict]) -> list[float]:
    """Wall time of fresh interpreters that import lmgsim and expand the configs."""
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import lmgsim; "
              "[lmgsim.expand_config(c) for c in json.loads(sys.argv[2])]")
    samples = []
    for _ in range(SETUP_SAMPLES):
        # wait() blocks in waitpid; a timeout would poll in 50 ms steps and quantise the time
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", script, str(SRC), json.dumps(configs)])
        killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        killer.start()
        try:
            status = child.wait()
        finally:
            killer.cancel()
        samples.append(time.perf_counter() - start)
        if status != 0:
            sys.exit(f"perfbench: the set-up interpreter exited with code {status}")
    return samples


# ---------------------------------------------------------------- one pass


def clear_caches():
    """Empty lmgsim's module-level caches, as a fresh `lmgsim run` process has them."""
    for name, module in list(sys.modules.items()):
        if name == "lmgsim" or name.startswith("lmgsim."):
            for attr, value in list(vars(module).items()):
                if attr.endswith("_cache") and callable(getattr(value, "clear", None)):
                    value.clear()
                elif callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def digest_dir(path: Path) -> str:
    """Hash of the datasets; manifest.json carries the wall time and is left out."""
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        if f.name != "manifest.json":
            h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run_pass(spec: dict) -> dict:
    """Run one pass in this process: time each operation, then, on the first
    pass, check the outputs. Returns a JSON-able record."""
    lmgsim = import_package()
    import checks
    import oracles
    import spans

    ops = workloads.build(spec["workload"], spec["seed"], spec["smoke"])
    pass_dir = OUT / spec["workload"] / ("pass0" if spec["index"] == 0 else "pass")
    checker = checks.Checker()
    inputs = {}
    fig4 = lmgsim.expand_config({"experiment": "fig4"})
    for op in ops:
        if op.kind == "wigner":  # fig4's exact pre-echo target state, from the oracle
            state = lmgsim.PureState(checker.spin(op.n_atoms).evolved(fig4["ratio"], fig4["s_chi_t"]))
            thetas, _, phis, _ = oracles.wigner_quadrature(op.n_atoms)
            inputs[op.name] = (state, thetas, phis)

    captured: list = []
    tracer = spans.Tracer() if spec["traced"] else None
    restore = [spans.patch([t for t in spans.TARGETS if t[0] == "tomography.reconstruct"],
                           spans.capture_results(captured))]
    if tracer is not None:
        restore.append(spans.patch(spans.TARGETS, tracer.wrap))
    record = {"walls": {}, "digests": {}, "errors": {}, "write_s": 0.0}
    outputs = {}
    try:
        for op in ops:
            clear_caches()
            try:
                start = time.perf_counter()
                if op.kind == "task":
                    result = lmgsim.experiments.run_experiment(op.config, pass_dir / op.name, workers=1)
                else:
                    state, thetas, phis = inputs[op.name]
                    result = (lmgsim.observables.multipole_components(state),
                              lmgsim.observables.wigner(state, thetas, phis))
                wall = time.perf_counter() - start
            except Exception:
                record["errors"][op.name] = traceback.format_exc()
                print(record["errors"][op.name], file=sys.stderr)
                continue
            record["walls"][op.name] = wall
            if op.kind == "task":
                record["digests"][op.name] = digest_dir(pass_dir / op.name)
                record["write_s"] += wall - float(result.manifest.get("wall_time_s", wall))
                outputs[op.name] = pass_dir / op.name
            else:
                record["digests"][op.name] = hashlib.sha256(b"".join(a.tobytes() for a in result)).hexdigest()
                outputs[op.name] = result
    finally:
        for undo in reversed(restore):
            undo()
    record["wall"] = sum(record["walls"].values())
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["mle"] = [(int(getattr(r, "iterations", 0)), bool(getattr(r, "converged", False))) for r in captured]
    if tracer is not None:
        record["layers"] = tracer.layer_totals()
        record["spans"] = tracer.spans
    if spec["index"] == 0:
        record["failures"] = {}
        for op in ops:
            if op.name in record["errors"]:
                fails = ["raised: " + record["errors"][op.name].strip().splitlines()[-1]]
            elif op.kind == "task":
                fails = checker.task(op, outputs[op.name], captured)
            else:
                fails = checks.wigner_failures(inputs[op.name][0], *outputs[op.name])
            record["failures"][op.name] = fails
    return record


def spawn_pass(spec: dict) -> dict:
    """Run one pass in a fresh interpreter and wait for it."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--pass", json.dumps(spec)],
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: pass {spec['index']} of {spec['workload']} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- one run


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    require_source()
    ops = workloads.build(name, seed, smoke)
    shutil.rmtree(OUT / name, ignore_errors=True)
    setup = [] if trace else measure_setup([op.config for op in ops if op.kind == "task"])
    passes: list[dict] = []
    measured = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        record = spawn_pass({"workload": name, "seed": seed, "smoke": smoke, "index": len(passes), "traced": traced})
        record["traced"] = traced
        passes.append(record)
        measured += record["wall"]
        if len(passes) >= (2 if trace else 1) and measured + record["wall"] > seconds:
            break

    found = passes[0]["failures"]
    correct, failed, problems = True, 0, []
    for op in ops:
        fails = found[op.name]
        if fails and op.known_fault is None and op.name not in passes[0]["errors"]:
            correct = False
            problems += [f"{op.name}: {msg}" for msg in fails]
        for later in passes[1:]:
            if op.name not in later["errors"] and later["digests"].get(op.name) != passes[0]["digests"].get(op.name):
                correct = False
                problems.append(f"{op.name}: output differs from the first pass")
        failed += sum(1 for p in passes if op.name in p["errors"] or (fails and op.known_fault is not None))

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    result = {
        "workload": name,
        "environment": environment(seed),
        "smoke": smoke,
        "passes": len(passes),
        "measured_s": measured,
        "pass_walls_s": [p["wall"] for p in passes],
        "op_median_s": {op.name: statistics.median(p["walls"][op.name] for p in untraced if op.name in p["walls"])
                        for op in ops if any(op.name in p["walls"] for p in untraced)},
        "setup_samples_s": setup,
        "failed_ops": {op.name: found[op.name] for op in ops
                       if op.name in passes[0]["errors"] or (op.known_fault and found[op.name])},
        "problems": problems,
        "correct": correct,
        "attempted": len(ops) * len(passes),
        "failed": failed,
    }
    if trace:
        result["metrics"] = layer_metrics(traced_passes, untraced)
        result["layer_seconds_per_pass"] = {
            layer: statistics.fmean(p["layers"][layer]["self_s"] for p in traced_passes)
            for layer in traced_passes[0]["layers"]}
        spans_out = [[{"name": n, "start": s, "end": e, "parent": parent} for n, s, e, parent in p["spans"]]
                     for p in traced_passes]
        (OUT / f"{name}-spans.json").write_text(json.dumps(spans_out))
    else:
        result["metrics"] = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (statistics.median(p["wall"] for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    return result


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per traced pass: calls and share of the pass spent in each layer's own
    code, plus the counters and ratios the layers' optimisations should move."""
    n = len(traced)
    wall = sum(p["wall"] for p in traced)
    totals = {layer: {key: sum(p["layers"][layer][key] for p in traced) for key in ("calls", "self_s")}
              for layer in traced[0]["layers"]}
    mle = [entry for p in traced for entry in p["mle"]]
    out = {}
    for layer, t in totals.items():
        out[f"{layer}.calls"] = (t["calls"] / n, "count")
        out[f"{layer}.self_pct"] = (100.0 * t["self_s"] / wall, "%")
    lookups = totals["dynamics.propagator_for"]["calls"]
    out["dynamics.propagator_cache.hit_ratio"] = (
        1.0 - totals["dynamics.eigensolve"]["calls"] / lookups if lookups else 0.0, "ratio")
    iterations = sum(i for i, _ in mle)
    mle_s = totals["tomography.reconstruct"]["self_s"]
    out["tomography.mle_iterations"] = (iterations / n, "count")
    out["tomography.mle_iterations_per_s"] = (iterations / mle_s if mle_s else 0.0, "1/s")
    out["tomography.mle_converged_ratio"] = (sum(c for _, c in mle) / len(mle) if mle else 0.0, "ratio")
    out["experiments.write_s"] = (statistics.median(p["write_s"] for p in untraced), "s")
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in untraced), "s")
    return out


def report(result: dict) -> dict:
    """Print the human-readable lines, save the details, return the JSON result."""
    OUT.mkdir(parents=True, exist_ok=True)
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"# {result['workload']}: {result['passes']} passes, {result['measured_s']:.3f} s measured")
    for op, seconds in result["op_median_s"].items():
        print(f"#   {op:<16} {seconds:10.4f} s median")
    for op, msgs in result["failed_ops"].items():
        print(f"#   {op} counted as failed: {msgs[0]}")
    for msg in result["problems"]:
        print(f"# CHECK FAILED {msg}")
    for layer, seconds in result.get("layer_seconds_per_pass", {}).items():
        print(f"#   {layer:<36} {seconds:10.4f} s self per traced pass")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    (OUT / f"{result['workload']}.json").write_text(json.dumps(dict(result, metrics=metrics), indent=1))
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and check at tiny sizes, one untraced and one traced pass each")
    parser.add_argument("--pass", dest="pass_spec", help=argparse.SUPPRESS)  # internal: one pass in this process
    args = parser.parse_args(argv)
    if args.pass_spec is not None:
        print(json.dumps(run_pass(json.loads(args.pass_spec))))
        return 0
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    seed = args.seed % 2**32
    if args.smoke:
        ok = True
        for name in workloads.NAMES:
            line = report(run(name, seed, 0.0, trace=True, smoke=True))
            ok &= line["correct"] and line["failed"] == 0
            print(json.dumps({"workload": name, **{k: line[k] for k in ("correct", "attempted", "failed")}}))
        return 0 if ok else 1
    print(json.dumps(report(run(args.workload, seed, args.seconds, bool(args.trace)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
