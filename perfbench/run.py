"""henonlab benchmark: the public CLI, driven in-process on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads, metric definitions and each per-layer metric's
target live in ``perfbench/spec.json``; stored references in
``perfbench/refs/``.

--trace 0 measures the end-to-end metrics with no tracing installed:
  setup_s     median wall time of fresh interpreters that import
              henonlab.cli and run the workload's jobs shrunk to a trivial
              size on the same code path (the cost every CLI call pays);
  job_s       median wall time of one pass over the workload's jobs,
              argv to last byte written, in this one process after one
              warm-up pass; passes run until --seconds;
  work_per_s  work units in one pass over job_s;
  peak_rss_mb peak RSS of this process;
  ok_frac     share of jobs, set-up runs included, passing checker.py.
--trace 1 alternates untraced and traced passes and reports the per-layer
  metrics of the traced ones (spans.py), plus the tracing overhead and a
  fresh-interpreter scipy.stats import time.

Every output is checked; the last stdout line is one JSON object with
keys correct, attempted, failed and metrics.  The line before it holds the
run context: library versions, sample counts and a calibration kernel's
time, a drift diagnostic that enters no metric.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The jobs run at --threads 1; an idle BLAS thread pool would only add
# scheduling noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 120

SETUP_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from henonlab.cli import main
ok = all(main(argv) == want for argv, want in json.loads(sys.argv[2]))
sys.exit(0 if ok else 1)
"""

IMPORT_CHILD = """\
import time
import numpy
t0 = time.perf_counter()
import scipy.stats
print(time.perf_counter() - t0)
"""


def load_spec() -> dict:
    with open(HERE / "spec.json") as fh:
        return json.load(fh)


def merged(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = merged(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def time_child(code: str, *args: str):
    """Wall time, stdout and problems of a fresh interpreter running `code`."""
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    problems = ([f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
                if proc.returncode else [])
    return elapsed, proc.stdout, problems


class Job:
    """One CLI call of a workload: config file written once, argv per pass.

    `ref` is the stored reference record, or None where it does not apply:
    set-up sized jobs, and seeded jobs at another seed than the default.
    """

    def __init__(self, spec: dict, seed: int, ref: dict | None,
                 cfg_path: Path):
        self.spec = spec
        self.name = spec["name"]
        self.seed = seed
        self.ref = ref
        self.cfg_path = cfg_path
        cfg_path.write_text(json.dumps(spec["config"], sort_keys=True))

    def argv(self, out_dir: Path) -> list:
        return [self.spec["command"], "--config", str(self.cfg_path),
                "--seed", str(self.seed), "--threads", "1",
                "--out", str(out_dir / self.name)]

    def work_units(self, out_dir: Path) -> int:
        cmd, cfg = self.spec["command"], self.spec["config"]
        if cmd == "render-green":
            nx, ny = cfg["window"]["pixels"]
            return nx * ny
        if cmd == "julia-cloud":
            return cfg["budgets"]["walks"] * cfg["budgets"]["depth"]
        (report,) = (out_dir / self.name).glob("periodic-*-report.json")
        return sum(lv["fixed_point_count"]
                   for lv in json.loads(report.read_text())["levels"])


class Runner:
    def __init__(self, spec: dict, workload: str, seed: int, check_job):
        self.check_job = check_job
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        refs = json.loads((HERE / "refs" / f"{workload}.json").read_text())
        default_seed = spec["default_seed"]
        self.jobs, self.setup_jobs = [], []
        for js in spec["workloads"][workload]["jobs"]:
            # Only seeded jobs take the run's seed.  census_halton is not
            # one: its cost is set by how many Halton draws the last orbit of
            # the top level needs (414 to 1988 of 2048 at level 8 over seeds
            # 0-4; some seeds fall short), which would swamp any change.
            s = seed if js["seeded"] else default_seed
            ref = (refs["jobs"][js["name"]]
                   if seed == default_seed or not js["seeded"] else None)
            small = dict(js, config=merged(js["config"], js["setup_config"]))
            self.jobs.append(
                Job(js, s, ref, self.work / f"{js['name']}.json"))
            self.setup_jobs.append(
                Job(small, s, None, self.work / f"{js['name']}-setup.json"))
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.cpu_s = []

    def run_pass(self, jobs):
        """One pass over `jobs`, each checked; returns (wall s, out dir)."""
        from henonlab.cli import main
        out = self.work / f"pass{self.passes}"
        self.passes += 1
        argvs = [job.argv(out) for job in jobs]
        rcs = []
        c0 = time.process_time()
        t0 = time.perf_counter()
        for argv in argvs:
            try:
                rcs.append(main(argv))
            except Exception as exc:  # a crash is a failed job, not a lost run
                traceback.print_exc()
                rcs.append(f"raised {exc!r}")
        elapsed = time.perf_counter() - t0
        self.cpu_s.append(time.process_time() - c0)
        for job, rc in zip(jobs, rcs):
            self.note(job.name, self.check_job(job.spec, out / job.name, rc,
                                               job.ref))
        return elapsed, out

    def note(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"check failed: {what}: {p}", file=sys.stderr)

    def setup_samples(self) -> list:
        out = self.work / "setup-child"
        payload = json.dumps([[job.argv(out), job.spec["exit"]]
                              for job in self.setup_jobs])
        samples = []
        for _ in range(SETUP_SAMPLES):
            shutil.rmtree(out, ignore_errors=True)
            elapsed, _, problems = time_child(SETUP_CHILD, str(SRC),
                                                   payload)
            self.note("setup", problems)
            samples.append(elapsed)
        return samples

    def import_samples(self) -> list:
        samples = []
        for _ in range(IMPORT_SAMPLES):
            _, stdout, problems = time_child(IMPORT_CHILD)
            self.note("import", problems)
            if not problems:
                samples.append(float(stdout))
        return samples


def calibration_s() -> float:
    """Median time of a fixed kernel mixing interpreter work with small
    numpy calls, like the workloads; a drift diagnostic only."""
    import numpy as np
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        z = np.linspace(0.0, 1.0, 64) + 0.5j
        for _ in range(3_000):
            z = np.sqrt(z * z + 0.25)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "henonlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def context(args, runner: Runner, samples: dict, calib: list) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "cli_seeds": {job.name: job.seed for job in runner.jobs},
        "trace": args.trace, "seconds": args.seconds,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": THREAD_ENV,
        "commit": commit(), "src_sha256": src_digest(),
        "samples": samples,
        "calibration_s": {"before": calib[0], "after": calib[1]},
    }


def end_to_end(runner: Runner, seconds: float) -> tuple:
    setup = runner.setup_samples()
    runner.run_pass(runner.jobs)  # warm-up: first calls, allocator growth
    times, work = [], None
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        elapsed, out = runner.run_pass(runner.jobs)
        times.append(elapsed)
        if work is None:
            work = sum(job.work_units(out) for job in runner.jobs)
        shutil.rmtree(out)
    job_s = statistics.median(times)
    metrics = {
        "job_s": job_s,
        "work_per_s": work / job_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    return metrics, {"setup_s_all": setup, "warmup": 1, "passes": len(times),
                     "job_s_all": times,
                     "cpu_s_all": runner.cpu_s[-len(times):]}


def per_layer(runner: Runner, seconds: float, chain: list) -> tuple:
    import spans
    tracer = spans.Tracer()
    scipy_import = runner.import_samples()
    runner.run_pass(runner.jobs)  # warm-up: first calls, allocator growth
    plain, traced, per_pass = [], [], []
    structure, chained = [], False
    deadline = time.perf_counter() + seconds
    while not (plain and traced) or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            elapsed, out = runner.run_pass(runner.jobs)
            plain.append(elapsed)
        else:
            tracer.install()
            try:
                elapsed, out = runner.run_pass(runner.jobs)
            finally:
                tracer.uninstall()
            recorded = tracer.take()
            structure += spans.nesting_problems(recorded)
            chained = chained or spans.has_chain(recorded, chain)
            m = spans.pass_metrics(recorded, elapsed)
            m["cli.bytes_written"] = sum(p.stat().st_size
                                         for p in out.rglob("*")
                                         if p.is_file())
            per_pass.append(m)
            traced.append(elapsed)
        shutil.rmtree(out)
    runner.note("trace", structure)
    if not chained:
        print(f"note: no span chain {' -> '.join(chain)}", file=sys.stderr)
    metrics = spans.median_metrics(per_pass)
    metrics["import.scipy_stats_s"] = (statistics.median(scipy_import)
                                       if scipy_import else 0.0)
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    return metrics, {"import_s_all": scipy_import, "warmup": 1,
                     "untraced_passes": len(plain),
                     "traced_passes": len(traced)}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "henonlab" / "cli.py").is_file():
        print(f"error: no henonlab sources under {SRC}", file=sys.stderr)
        return 2
    # numpy reads THREAD_ENV once, when these imports first load it
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import henonlab.cli
    from checker import check_job
    if SRC not in Path(henonlab.__file__).resolve().parents:
        print(f"error: henonlab imported from {henonlab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    runner = Runner(spec, args.workload, args.seed, check_job)
    calib = [calibration_s()]
    if args.trace:
        chain = spec["workloads"][args.workload]["trace_chain"]
        metrics, samples = per_layer(runner, args.seconds, chain)
        defs = spec["per_layer"]
    else:
        metrics, samples = end_to_end(runner, args.seconds)
        defs = spec["end_to_end"]
    calib.append(calibration_s())
    shutil.rmtree(runner.work, ignore_errors=True)

    for d in defs:
        print(f"{d['name']:30s} {metrics[d['name']]:>16.6g} {d['unit']}")
    if args.trace:
        for d in defs:
            on = d["on"]
            if on != "all" and args.workload not in on and metrics[d["name"]]:
                print(f"note: {d['name']} predicted zero on "
                      f"{args.workload}, reads {metrics[d['name']]}",
                      file=sys.stderr)
    print(json.dumps({"context": context(args, runner, samples, calib)}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]],
                                "unit": d["unit"]} for d in defs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
