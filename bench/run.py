"""Benchmark: time to a checked answer for four gaborzak workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: zak-certify, theta-orbit, phase-cocycle, cli.  Each is a fixed
seeded task list run as a closed loop (one task at a time; the cli workload
runs one child process at a time).  The list is run round(--seconds / nominal
pass time) times, so the number of passes, and with it the tail percentile,
does not depend on how fast a particular run happens to go (only a host slow
enough to take the run past 1.3 x --seconds cuts it short); every answer is
checked against a known reference.

--trace 0 prints the end-to-end metrics (measured with tracing off);
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics from the traced ones plus the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  A results
file with run metadata goes to bench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", "out")
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOADS = ("zak-certify", "theta-orbit", "phase-cocycle", "cli")
SETUP_PROBES = 5
# seconds one untraced pass of each task list takes on a 2-core x86-64 host
# (Python 3.11, numpy 2.4); only the pass count is derived from these
NOMINAL_PASS_S = {"zak-certify": 6.0, "theta-orbit": 6.0, "phase-cocycle": 4.8, "cli": 11.5}
CLI_SUBCOMMANDS = ("classify", "gram", "residual", "zak", "theta", "phase-check",
                   "cluster", "dual", "remark1", "remark2")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
                    "peak_rss_mb": "MB"}


def setup(workload: str, seed: int, workdir: str):
    """Import gaborzak and build the seeded task list (the timed set-up)."""
    import inputs
    import tasks

    api = tasks.Api()
    spec = inputs.GENERATORS[workload](seed)
    runner = None
    if workload == "cli":
        runner = tasks.CliRunner(ROOT, workdir)
        task_list = tasks.cli_tasks(runner, spec, tasks.write_cli_inputs(spec, workdir))
    else:
        build = {"zak-certify": tasks.zak_certify_tasks, "theta-orbit": tasks.theta_orbit_tasks,
                 "phase-cocycle": tasks.phase_cocycle_tasks}[workload]
        task_list = build(api, spec)
    return api, task_list, runner


def setup_probe(workload: str, seed: int) -> None:
    workdir = os.path.join(OUT_DIR, f"probe-{os.getpid()}")
    t0 = time.perf_counter()
    setup(workload, seed, workdir)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes (import + inputs)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--setup-probe"], cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Run:
    """State of one benchmark run: passes, task latencies, failures, spans."""

    def __init__(self, task_list, api, runner, trace: bool):
        self.tasks = task_list
        self.api = api
        self.runner = runner
        self.trace = trace
        self.passes: list[dict] = []
        self.failures: dict[tuple, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.child_summaries: list[str] = []

    def run_pass(self, traced: bool) -> None:
        from tracing import Installation, Tracer

        inst = None
        if traced:
            self.tracer = self.tracer or Tracer()
            inst = Installation(self.tracer)
            self.api.bind(inst.wrapper)
        if self.runner is not None:
            self.runner.wall = {}
            self.runner.output_bytes = 0
            self.runner.trace_summaries = [] if traced else None
        latencies = []
        t_pass = time.perf_counter()
        try:
            for task in self.tasks:
                t0 = time.perf_counter()
                try:
                    if traced:
                        self.tracer.call(f"task.{task.kind}", task.run, (), {})
                    else:
                        task.run()
                except Exception as exc:  # every failure is recorded, none stops the run
                    self._record_failure(task.kind, exc)
                latencies.append(time.perf_counter() - t0)
                self.attempted += 1
        finally:
            wall = time.perf_counter() - t_pass
            if inst is not None:
                inst.restore()
                self.api.bind(None)
        record = {"traced": traced, "wall_s": wall, "latencies": latencies}
        if self.runner is not None:
            record["cli_wall"] = dict(self.runner.wall)
            record["output_bytes"] = self.runner.output_bytes
            if traced:
                self.child_summaries += self.runner.trace_summaries
        self.passes.append(record)

    def _record_failure(self, kind: str, exc: Exception) -> None:
        self.failed += 1
        message = f"{type(exc).__name__}: {exc}"
        rec = self.failures.setdefault((kind, message), {
            "task": kind, "error": message, "count": 0,
            "known_defect": getattr(exc, "known_defect", None)})
        rec["count"] += 1

    def measure(self, n_passes: int, deadline_s: float) -> None:
        """Run the passes (in traced runs every second one is traced); stop
        early only when a very slow host would push the run past the deadline."""
        start = time.perf_counter()
        for i in range(n_passes):
            if i >= (2 if self.trace else 1):
                next_end = time.perf_counter() - start + statistics.median(p["wall_s"] for p in self.passes)
                if next_end > deadline_s:
                    break
            self.run_pass(self.trace and i % 2 == 1)

    def untraced(self) -> list[dict]:
        return [p for p in self.passes if not p["traced"]]

    def traced(self) -> list[dict]:
        return [p for p in self.passes if p["traced"]]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten tasks beyond it,
    that percentile and the task count."""
    xs = sorted(latencies)
    n = len(xs)
    i = max(n - 11, 0)
    return xs[i], 100.0 * (i + 1) / n, n


def end_to_end(run: Run, setup_times: list[float], workload: str) -> dict:
    lat = [x for p in run.untraced() for x in p["latencies"]]
    tail_s, pct, n = tail(lat)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in run.untraced()),
        "task_p50_s": statistics.median(lat),
        "task_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "_task_tail_percentile": pct,
        "_task_count": n,
        "_failed_frac": run.failed / run.attempted,
    }


def per_layer(run: Run) -> dict:
    from tracing import CLUSTER_SPANS, LAYERS, PHASE_SPANS, empty_summary, merge_summaries

    n_traced = len(run.traced())
    total = empty_summary()
    merge_summaries(total, run.tracer.summarize())
    for path in run.child_summaries:
        with open(path) as fh:
            merge_summaries(total, json.load(fh))
    names = total["names"]

    def stat(name, key):
        return names.get(name, {}).get(key, 0) / n_traced

    out = {}
    for layer in LAYERS:
        recs = [r for k, r in names.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(r["calls"] for r in recs) / n_traced
        out[f"{layer}.self_s"] = sum(r["self_s"] for r in recs) / n_traced
        out[f"{layer}.failed"] = sum(r["failed"] for r in recs) / n_traced
    for name, keys in (
        ("windows.decay_bound", ("calls", "self_s")),
        ("windows.eval_many", ("count", "self_s")),
        ("zak._choose_truncation", ("self_s",)),
        ("zak.zak_transform", ("self_s",)),
        ("zak.quasi_periodicity_residual", ("self_s",)),
        ("zak.zak_point", ("calls", "self_s")),
        ("gabor.gram_matrix", ("self_s",)),
        ("gabor.gram_matrix_zak", ("self_s",)),
        ("gabor.gaussian_gram_closed_form", ("self_s",)),
        ("gabor.dependence_residual", ("self_s",)),
        ("orbit.classify", ("calls", "self_s")),
        ("orbit.subgroup_closure", ("self_s",)),
        ("orbit.orbit_points", ("count", "self_s")),
        ("trigpoly.eval_points", ("calls", "count", "self_s")),
        ("trigpoly.min_modulus", ("self_s",)),
        ("trigpoly.eval", ("calls", "self_s")),
        ("cocycle.theta_haar", ("self_s",)),
        ("cocycle.theta_birkhoff", ("self_s",)),
    ):
        for key in keys:
            out[f"{name}.{'points' if key == 'count' else key}"] = stat(name, key)
    derived = total["derived"]
    out["zak.grid_values"] = stat("zak.zak_transform", "count")
    out["zak.lattice_terms"] = derived.get("zak_lattice_terms", 0) / n_traced
    out["cocycle.haar_single_point_evals"] = derived.get("haar_single_point_evals", 0) / n_traced
    out["cocycle.phase_steps"] = derived.get("phase_steps", 0) / n_traced
    out["cocycle.phase.self_s"] = sum(stat(n, "self_s") for n in PHASE_SPANS)
    out["cocycle.cluster.self_s"] = sum(stat(n, "self_s") for n in CLUSTER_SPANS)

    # cli: subprocess wall times of the untraced passes, at documented defaults
    def cli_wall(kind):
        return _median([p["cli_wall"][kind] for p in run.untraced() if kind in p.get("cli_wall", {})])

    out["cli.startup_s"] = cli_wall("cli-startup")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.wall_s"] = cli_wall(f"cli-{sub}")
    out["cli.remark1.threads2.wall_s"] = cli_wall("cli-remark1-threads2")
    out["cli.remark2.threads2.wall_s"] = cli_wall("cli-remark2-threads2")
    out["cli.output_bytes"] = statistics.median(p.get("output_bytes", 0) for p in run.untraced())

    # the ROADMAP item 1 baseline rows, as the median span duration
    def row(span, task_kind):
        return _median(run.tracer.durations(span, under=f"task.{task_kind}"))

    out["baseline.choose_truncation_d2_s"] = row("zak._choose_truncation", "zak-d2-m16")
    out["baseline.zak_transform_d2_m16_s"] = row("zak.zak_transform", "zak-d2-m16")
    out["baseline.zak_transform_d1_m2048_k6_s"] = row("zak.zak_transform", "zak-d1-m2048-k6")
    out["baseline.theta_birkhoff_1e6_s"] = row("cocycle.theta_birkhoff", "theta-")
    out["baseline.orbit_points_1e6_s"] = row("orbit.orbit_points", "orbit-eval-1e6")
    out["baseline.eval_points_1e6_s"] = row("trigpoly.eval_points", "orbit-eval-1e6")
    for n in (100, 200, 400):
        out[f"baseline.phase_check_n{n}_s"] = _median(run.tracer.durations(f"task.phase-identity-n{n}"))
    out["baseline.zero_coset_failure_s"] = row("cocycle.theta_haar", "zero-coset")
    out["baseline.classify_m4_s"] = row("orbit.classify", "classify-m4")
    out["baseline.remark1_curve_s"] = row("cli.remark1_curve", "remark1")

    untraced_wall = statistics.median(p["wall_s"] for p in run.untraced())
    out["trace.overhead_s"] = statistics.median(p["wall_s"] for p in run.traced()) - untraced_wall
    return out


def _median(vals) -> float:
    return statistics.median(vals) if vals else 0.0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    src_lines = 0
    for name in sorted(os.listdir(os.path.join(SRC, "gaborzak"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "gaborzak", name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "blas_threads": int(BLAS_THREADS),
        "src_lines": src_lines,
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown'
    when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_path = os.path.join(git, ref_name)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "gaborzak", "__init__.py")):
        print(f"benchmark: no gaborzak sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup_times = measure_setup(args.workload, args.seed)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        api, task_list, runner = setup(args.workload, args.seed, workdir)
        import gaborzak

        if not os.path.abspath(gaborzak.__file__).startswith(SRC + os.sep):
            print(f"benchmark: imported gaborzak from {gaborzak.__file__}", file=sys.stderr)
            return 2
        run = Run(task_list, api, runner, bool(args.trace))
        n_passes = max(2 if args.trace else 1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        run.measure(n_passes, deadline_s=1.3 * args.seconds)
        e2e = end_to_end(run, setup_times, args.workload)
        layers = per_layer(run) if args.trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = sorted(run.failures.values(), key=lambda r: (r["task"], r["error"]))
    unexpected = [f for f in failures if not f["known_defect"]]
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    results = {
        "workload": args.workload,
        "metadata": metadata(args.seed),
        "seconds": args.seconds,
        "passes": [{k: v for k, v in p.items() if k != "latencies"} for p in run.passes],
        "setup_samples_s": setup_times,
        "task_median_s": [[t.kind, statistics.median(p["latencies"][i] for p in run.untraced())]
                          for i, t in enumerate(run.tasks)],
        "end_to_end": {k.lstrip("_"): v for k, v in e2e.items()},
        "per_layer": layers,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": failures,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    if run.tracer is not None:
        with gzip.open(stem + "-spans.json.gz", "wt") as fh:
            json.dump(run.tracer.spans, fh)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(run.untraced())} untraced"
          f" / {len(run.traced())} traced  tasks {run.attempted}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<14} {e2e[name]:.6g} {unit}")
    print(f"  task_tail is p{e2e['_task_tail_percentile']:.1f} of {e2e['_task_count']} tasks")
    print(f"  failed_frac    {e2e['_failed_frac']:.6g} ratio ({run.failed}/{run.attempted})")
    for f in failures:
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"  failed x{f['count']} {f['task']}: {f['error'][:200]} [{tag}]")
    for name, value in layers.items():
        print(f"  {name:<40} {value:.6g}")

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": not unexpected, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
