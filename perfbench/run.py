"""qstitch benchmark: every end-to-end and per-layer metric from one command.

Run from the repository root:

    python3 perfbench/run.py --workload shipped_evolve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload shipped_paths --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports the per-layer metrics. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 if any output check failed,
2 if the repository sources are missing. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CLI_ENTRY = "import sys; from qstitch.cli import main; sys.exit(main())"
SETUP_REPS = 10
SUBPROCESS_TIMEOUT_S = 120

END_TO_END = {
    "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s", "cli_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
LAYER_TIMES = (
    "scheme.parse", "scheme.validate", "basis.scenario", "operators.assemble",
    "operators.eig", "pathways.build_graph", "pathways.reachable",
    "pathways.reachable_set", "pathways.enumerate", "pathways.to_dict",
    "propagator.prepare", "propagator.evolve", "cli.report", "job",
)


def time_metric(span: str) -> str:
    return "job.self_s" if span == "job" else f"{span}_s"


# Per-layer metric -> unit: the self times of the spans above, then the sizes
# and counts the probes record.
LAYER_METRICS = {
    **{time_metric(name): "s" for name in LAYER_TIMES},
    "basis.kets": "count", "basis.entangled_kets": "count", "operators.v_nnz": "count",
    "operators.dense_bytes": "bytes", "pathways.components": "count",
    "pathways.largest_component": "count", "pathways.reach_share": "1",
    "pathways.paths": "count", "pathways.truncated": "1", "propagator.steps": "count",
    "propagator.step_us": "us", "propagator.events": "count",
    "propagator.norm_drift": "1", "propagator.energy_drift": "1",
    "cli.report_bytes": "bytes", "trace.overhead_s": "s", "fail_ratio": "1",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def one_cpu() -> tuple[int, int]:
    """Pin this process to one CPU and BLAS to one thread; returns (nproc, cpu).

    Called before numpy loads, so the numbers measure the program and not
    the scheduler. The CLI runs inherit both, so a child runs on the CPU
    whose speed the parent measures.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus), max(cpus)


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(nproc: int, cpu: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu": model,
    }


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


@dataclass
class Sample:
    """One timed job: wall time, the loop time it used, its speed scale."""

    label: str
    job_id: int
    wall: float  # the job alone
    block: float  # the job and its output checks
    scale: float
    traced: bool

    @property
    def scaled(self) -> float:
        return self.wall * self.scale


class Run:
    """One workload's jobs, their checks and the failures they found."""

    def __init__(self, workload, seed: int, out_dir: Path) -> None:
        import numpy as np
        from speed import SpeedProbe

        self.w = workload
        self.rng = np.random.default_rng(seed)
        self.out = out_dir
        self.speed = SpeedProbe()
        self.reruns: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.sizes: dict[int, dict] = {}  # traced job id -> probe sizes

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")
        print(f"CHECK FAILED {label}: {why}", file=sys.stderr)

    def job(self, job, tr) -> Sample:
        """Run, time and check one job."""
        from workloads import check_outcome, probe

        job_id = self.attempted
        self.attempted += 1
        gc.collect()  # every job starts from a collected heap
        before = self.speed.measure()
        t0 = perf_counter()
        try:
            with tr.span("job", job=job_id):
                out = self.w.run(tr, job)
        except Exception:  # a job that raises is a failed job, not a crash
            out = None
            self.fail(job.label, traceback.format_exc(limit=3).strip().replace("\n", " | "))
        wall = perf_counter() - t0
        if out is not None:
            for why in check_outcome(job, out, self.reruns):
                self.fail(job.label, why)
        block = perf_counter() - t0
        scale = self.speed.scale(before, self.speed.measure())
        if tr.enabled and out is not None:
            self.sizes[job_id] = probe(tr, job, out)
        return Sample(job.label, job_id, wall, block, scale, tr.enabled)

    def cycles(self, seconds: float, tracers, between=None) -> list[list[Sample]]:
        """Closed loop over whole cycles for about ``seconds`` of loop time.

        Cycles take the ``tracers`` by turns, and each tracer gets at least
        one. A new cycle starts only if it is expected to end within
        ``seconds``. ``between`` runs after each cycle, off the loop clock.
        Returns the samples of each cycle.
        """
        cycles: list[list[Sample]] = []
        busy = 0.0
        while True:
            tr = tracers[len(cycles) % len(tracers)]
            cycles.append([self.job(job, tr) for job in self.w.cycle(self.rng)])
            busy += sum(s.block for s in cycles[-1])
            if between is not None:
                between()
            n = len(cycles)
            if n >= len(tracers) and busy * (n + 1) / n > seconds:
                return cycles

    def timed_subprocess(self, argv: list[str], stdout) -> tuple[float, float, int, str]:
        """Wall time, speed scale, exit code and stderr of a fresh interpreter.

        The wait blocks instead of polling, so the time is not rounded to a
        poll interval; a watchdog kills a child that hangs.
        """
        before = self.speed.measure()
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=subprocess_env(),
                              stdout=stdout, stderr=subprocess.PIPE, text=True) as proc:
            watchdog = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, err = proc.communicate()
            finally:
                watchdog.cancel()
        wall = perf_counter() - t0
        return wall, self.speed.scale(before, self.speed.measure()), proc.returncode, err


class Subprocesses:
    """The CLI runs (``cli_s``) and fresh imports (``setup_s``) of one run.

    They are spread between the cycles of the timed loop, so a slow spell
    of the host touches few of them. The CLI output goes to files that are
    checked after the loop, so it adds nothing to the loop's memory.
    """

    def __init__(self, run: Run, cli_reps: Optional[int] = None,
                 setup_reps: int = SETUP_REPS) -> None:
        self.run = run
        self.cli_reps = run.w.cli_reps if cli_reps is None else cli_reps
        self.setup_reps = setup_reps
        self.argv, self.job = run.w.cli_job(run.rng, run.out)
        self.cli: list[tuple[float, float]] = []  # (wall, scale)
        self.setup: list[tuple[float, float]] = []
        self.import_qstitch()  # untimed: bytecode caches and the file cache

    def import_qstitch(self) -> tuple[float, float]:
        wall, scale, code, err = self.run.timed_subprocess(["-c", "import qstitch"],
                                                           subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"import qstitch failed: {err.strip()[:300]}")
        return wall, scale

    def step(self) -> None:
        if len(self.cli) < self.cli_reps:
            path = self.run.out / f"cli-{len(self.cli)}.out"
            with path.open("w", encoding="utf-8") as fh:
                wall, scale, code, err = self.run.timed_subprocess(
                    ["-c", CLI_ENTRY, *self.argv], fh)
            self.run.attempted += 1
            self.cli.append((wall, scale))
            if code != 0:
                self.run.fail(self.job.label, f"exit {code}: {err.strip()[:300]}")
                path.unlink()
        for _ in range(2):
            if len(self.setup) < self.setup_reps:
                self.setup.append(self.import_qstitch())

    def finish(self) -> None:
        """Take the runs still missing, then check every CLI output."""
        from workloads import check_report

        while len(self.cli) < self.cli_reps or len(self.setup) < self.setup_reps:
            self.step()
        for i in range(self.cli_reps):
            path = self.run.out / f"cli-{i}.out"
            if not path.exists():
                continue  # its failure is already recorded
            try:
                report = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                self.run.fail(self.job.label, f"output is not JSON: {exc}")
                continue
            for why in check_report(self.job, report):
                self.run.fail(self.job.label, why)


def warm_up(run: Run) -> None:
    """One untimed cycle: caches, lazy imports and the rerun references."""
    from spans import NullTracer

    for job in run.w.cycle(run.rng):
        run.job(job, NullTracer())


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    from spans import NullTracer

    warm_up(run)
    procs = Subprocesses(run)
    cycles = run.cycles(seconds, [NullTracer()], between=procs.step)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = [s for cycle in cycles for s in cycle]
    procs.finish()
    scaled = [s.scaled for s in samples]
    pct = run.w.tail_pct
    metrics = {
        "job_p50_s": statistics.median(scaled),
        "job_tail_s": percentile(scaled, pct),
        "jobs_per_s": statistics.median(len(c) / sum(s.block * s.scale for s in c)
                                        for c in cycles),
        "cli_s": statistics.median(w * k for w, k in procs.cli),
        "setup_s": statistics.median(w * k for w, k in procs.setup),
        "peak_rss_mb": rss_mb,
    }
    by_label: dict[str, list[float]] = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s.scaled)
    detail = {
        "jobs": len(samples),
        "cycles": len(cycles),
        "tail_percentile": pct,
        "jobs_beyond_tail": len(samples) - math.ceil(pct / 100 * len(samples)),
        "fail_ratio": len(run.failures) / run.attempted,
        "speed_scale_p50": statistics.median(s.scale for s in samples),
        "wall_job_p50_s": statistics.median(s.wall for s in samples),
        "wall_loop_s": sum(s.block for s in samples),
        "wall_cli_s": [w for w, _ in procs.cli],
        "wall_setup_s": [w for w, _ in procs.setup],
        "label_p50_s": {k: statistics.median(v) for k, v in sorted(by_label.items())},
    }
    return metrics, detail


def per_layer(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Traced run; its cycles alternate traced and untraced, for the overhead."""
    from spans import NullTracer, Tracer, median_per_job

    tracer = Tracer()
    warm_up(run)
    samples = [s for cycle in run.cycles(seconds, [tracer, NullTracer()]) for s in cycle]
    tracer.write(spans_path)
    scale = {s.job_id: s.scale for s in samples}
    per_job = []
    for job_id, times in tracer.self_times().items():
        row = {time_metric(name): t * scale[job_id] for name, t in times.items()}
        row.update(run.sizes.get(job_id, {}))
        if row.get("propagator.steps"):
            row["propagator.step_us"] = row["propagator.evolve_s"] / row["propagator.steps"] * 1e6
        per_job.append(row)
    metrics = {name: median_per_job(per_job, name) for name in LAYER_METRICS}
    traced = statistics.median(s.scaled for s in samples if s.traced)
    untraced = statistics.median(s.scaled for s in samples if not s.traced)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["fail_ratio"] = len(run.failures) / run.attempted
    detail = {
        "traced_jobs": sum(s.traced for s in samples),
        "untraced_jobs": sum(not s.traced for s in samples),
        "traced_job_p50_s": traced,
        "untraced_job_p50_s": untraced,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def smoke() -> int:
    """One traced cycle, CLI run and import of every workload; checks, no timing."""
    from spans import Tracer
    from workloads import WORKLOADS

    failed = 0
    for name, cls in WORKLOADS.items():
        out_dir = OUT / f"smoke-{name}"
        out_dir.mkdir(parents=True, exist_ok=True)
        run = Run(cls(), 0, out_dir)
        tracer = Tracer()
        for job in run.w.cycle(run.rng):
            run.job(job, tracer)
        Subprocesses(run, cli_reps=1, setup_reps=1).finish()
        unnamed = {n for job in tracer.self_times().values() for n in job} - set(LAYER_TIMES)
        if unnamed:
            run.fail(name, f"spans without a per-layer metric: {sorted(unnamed)}")
        shutil.rmtree(out_dir)
        print(f"smoke {name}: {run.attempted} jobs, {len(run.failures)} failed")
        failed += len(run.failures)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle of every workload with all checks, no timing")
    args = parser.parse_args(argv)
    nproc, cpu = one_cpu()

    if not (SRC / "qstitch" / "__init__.py").is_file() or not (ROOT / "schemes").is_dir():
        print(f"error: qstitch sources not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qstitch

    if Path(qstitch.__file__).resolve().parent != SRC / "qstitch":
        print(f"error: imported qstitch from {qstitch.__file__}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    run = Run(WORKLOADS[args.workload](), args.seed, out_dir)
    if args.trace:
        metrics, detail = per_layer(run, args.seconds, OUT / f"{tag}.spans.jsonl")
        units = LAYER_METRICS
    else:
        metrics, detail = end_to_end(run, args.seconds)
        units = END_TO_END
    shutil.rmtree(out_dir)

    env = environment(nproc, cpu)
    for key, value in {**env, **detail}.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "environment": env, "detail": detail, "failures": run.failures, **result},
        indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
