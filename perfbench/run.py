"""Benchmark of the qszegedy CLI: closed-loop job latency and throughput.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload theorem-path --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

With ``--trace 0`` one client runs the workload's jobs as
``python -m qszegedy.cli ...`` processes, one at a time, for a number of
whole cycles fixed by ``--seconds`` (see ``workloads.CYCLES_AT_25_S``),
checks every report against references computed here, and prints the
end-to-end metrics.  A reference job (``calibrate.py``) runs between the
jobs, and times are reported at the baseline speed (see ``at_baseline``).
With ``--trace 1`` the jobs are replayed in-process
with spans around each public library call, and the per-layer metrics are
printed instead.  The last line of stdout is one
JSON object; details go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every job.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QWALK_TOL", None)

import argparse  # noqa: E402
import bisect  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import closed_loop  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: End-to-end metrics in the result line: name -> unit.
END_TO_END = {
    "job_s.gmean": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: Set-up runs this many times per run, after one untimed set-up that
#: warms the page cache and the benchmark's own imports; setup_s is the
#: median.  Cheap set-ups repeat more, to steady the median.
SETUP_REPEATS = {"theorem-path": 3, "oracle-dense": 5, "verify-mix": 7}
#: The reference job, run through the launcher between jobs and set-ups.
CALIBRATE = [sys.executable, str(Path(__file__).resolve().parent
                                 / "calibrate.py")]
#: The reference job's time on the baseline machine, rounded.  Reported
#: times are scaled to the speed at which it takes this long.
REF_CAL_S = 0.2
#: The reference job runs before a job once this much time has passed
#: since it last ran.
CAL_EVERY_S = 2.0
#: The tail runs from the slowest job with at least this many jobs beyond
#: it up to the slowest job.
TAIL_BEYOND = 10


def job_env() -> dict:
    """Environment of every job: pinned threads, default tolerance, and
    bytecode cached under OUT as an installed package would have it."""
    env = dict(os.environ)
    env.pop("QWALK_TOL", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Setup:
    prepared: list  # (job, cli args, replay target)
    refs: dict
    report_path: Path
    schema_checked: bool


def set_up(workload: str, seed: int, workdir: Path) -> Setup:
    """Write the instance files, compute reference spectra, warm up."""
    inst_dir = workdir / "instances"
    inst_dir.mkdir(parents=True, exist_ok=True)
    validate = workloads.load_validator(ROOT)
    rng = np.random.default_rng(seed)
    files, refs = {}, {}
    for spec in workloads.generated_specs(workload):
        graph = workloads.parse_spec(spec)
        data = workloads.instance_dict(
            f"{spec}-seed{seed}", graph, workloads.random_weights(graph, rng),
            seed)
        if validate is not None:
            validate(data)
        files[spec] = inst_dir / f"{spec.replace('+', '_')}.json"
        files[spec].write_text(json.dumps(data), encoding="utf-8")
    needs_ref = {job.instance for job in workloads.WORKLOADS[workload]
                 if job.kind in ("spectrum", "lift")}
    for name in sorted(needs_ref):
        path = (SRC / "qszegedy" / "instances" / f"{name}.json"
                if name in workloads.BUNDLED else files[name])
        refs[name] = reference.load_reference(path)

    report_path = workdir / "report.json"
    prepared = []
    for job in workloads.WORKLOADS[workload]:
        path = files.get(job.instance)
        args = [a.replace("{file}", str(path)).replace("{seed}", str(seed))
                for a in job.argv] + ["--output", str(report_path)]
        target = seed if job.kind == "verify-random" else path
        prepared.append((job, args, target))

    warm = closed_loop.spawn("warm-up", [sys.executable, "-m", "qszegedy.cli",
                                         "--version"],
                             job_env(), workdir / "stderr.txt")
    if warm.exit_code != 0:
        raise SystemExit(f"warm-up job failed with exit {warm.exit_code}")
    return Setup(prepared, refs, report_path, validate is not None)


def calibrate(launch, workdir: Path) -> float:
    """Run the reference job once; its wall time in seconds."""
    run = launch("calibrate", CALIBRATE, workdir / "stderr.txt")
    if not run.passed:
        raise SystemExit(f"reference job failed: exit {run.exit_code}")
    return run.wall_s


def at_baseline(times: list[float], cal_s: list[float],
                cal_at: list[int]) -> list[float]:
    """``times[i]`` at the baseline speed.

    ``cal_s[k]`` is a reference job run just before item ``cal_at[k]``
    (ascending; one past the last item for a run after it).  Each time is
    divided by the median of the two reference runs before it and the two
    after, and multiplied by REF_CAL_S.  The host's speed drifts by 20% to
    40% over minutes; the ratio cancels that drift.
    """
    scaled = []
    for i, t in enumerate(times):
        k = bisect.bisect_right(cal_at, i)
        scaled.append(t * REF_CAL_S
                      / statistics.median(cal_s[max(0, k - 2):k + 2]))
    return scaled


def timed_setup(workload: str, seed: int, workdir: Path):
    """Set up SETUP_REPEATS[workload] times; raw times and reference-job
    times."""
    times = []
    set_up(workload, seed, workdir)
    with closed_loop.Launcher(job_env()) as launch:
        cal_s = [calibrate(launch, workdir)]
        for _ in range(SETUP_REPEATS[workload]):
            start = time.perf_counter()
            setup = set_up(workload, seed, workdir)
            times.append(time.perf_counter() - start)
            cal_s.append(calibrate(launch, workdir))
    return setup, times, cal_s


def judge(setup: Setup, job, run: closed_loop.JobRun) -> closed_loop.JobRun:
    """Attach the output check's findings to a finished job."""
    if run.timed_out:
        run.problems.append("timed out")
    elif run.exit_code != 0:
        run.problems.append(f"exit code {run.exit_code}")
    try:
        report = json.loads(setup.report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        run.problems.append(f"no readable report: {exc}")
        return run
    run.problems.extend(
        reference.check_report(report, job, setup.refs.get(job.instance)))
    return run


def judge_exit(setup: Setup, job, code: int) -> closed_loop.JobRun:
    """Judge an in-process ``cli.main`` call by its exit code and report."""
    run = judge(setup, job, closed_loop.JobRun(job.label, 0.0, code, 0, False))
    setup.report_path.unlink(missing_ok=True)
    return run


def measure(setup: Setup, cycles: int, workdir: Path):
    """Closed loop with one client: ``cycles`` passes over the jobs.

    The reference job runs before the first job, before any job that
    starts CAL_EVERY_S or more after it last ran, and after the last job.
    Returns the runs, the reference times, the index of the job each
    reference run preceded, and the wall time of the loop.
    """
    runs, cal_s, cal_at = [], [], []
    with closed_loop.Launcher(job_env()) as launch:
        start = time.perf_counter()
        last_cal = -math.inf
        for _ in range(cycles):
            for job, args, _target in setup.prepared:
                if time.perf_counter() - last_cal >= CAL_EVERY_S:
                    cal_s.append(calibrate(launch, workdir))
                    cal_at.append(len(runs))
                    last_cal = time.perf_counter()
                setup.report_path.unlink(missing_ok=True)
                run = launch(job.label,
                             [sys.executable, "-m", "qszegedy.cli", *args],
                             workdir / "stderr.txt")
                runs.append(judge(setup, job, run))
        cal_s.append(calibrate(launch, workdir))
        cal_at.append(len(runs))
        elapsed = time.perf_counter() - start
    return runs, cal_s, cal_at, elapsed


def tail(labels: list[str], times: list[float]) -> tuple[float, float, int]:
    """Mean time of the tail: the slowest job with TAIL_BEYOND jobs
    beyond it, and those jobs.  Also that job's percentile and the number
    of jobs beyond it (fewer in a run of few jobs).

    Each job's time is first replaced by the median time of its job type
    over the run's cycles, so a one-off stall of the host does not land in
    the tail.  The tail is a mean, not the one job at the percentile,
    because a workload's job types differ widely in size: the job at a
    fixed rank jumps between types from run to run, the mean moves little.
    """
    by_label: dict[str, list[float]] = {}
    for label, t in zip(labels, times):
        by_label.setdefault(label, []).append(t)
    typical = {label: statistics.median(ts) for label, ts in by_label.items()}
    ordered = sorted(typical[label] for label in labels)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return (statistics.fmean(ordered[n - beyond - 1:]),
            100.0 * (n - beyond) / n, beyond)


def environment(workload: str, seed: int) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v]
                    for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_sha": git_sha(),
    }


def environment_line(env: dict) -> str:
    return (f"  nproc {env['nproc']}, Python {env['python']}, numpy "
            f"{env['numpy']}, BLAS {env['blas']}, git {env['git_sha']}")


def git_sha() -> str:
    """HEAD from ``.git`` if the checkout has one, without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def outcome_line(metrics: dict, units: dict, runs, correct: bool) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if not r.passed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    })


def end_to_end(runs, cal_s, cal_at, setup_times,
               setup_cal_s) -> tuple[dict, dict]:
    """Metrics at the baseline speed, and the raw wall-clock figures.

    ``setup_cal_s[k]`` is the reference job run just before set-up k.
    """
    raw = [r.wall_s for r in runs]
    labels = [r.label for r in runs]
    times = at_baseline(raw, cal_s, cal_at)
    tail_s, tail_pct, beyond = tail(labels, times)
    passed = sum(1 for r in runs if r.passed)
    setups = at_baseline(setup_times, setup_cal_s,
                         list(range(len(setup_cal_s))))
    metrics = {
        "job_s.gmean": statistics.geometric_mean(times),
        "job_s.tail": tail_s,
        "jobs_per_s": passed / sum(times),
        "peak_rss_mb": max(r.max_rss_kb for r in runs) / 1024.0,
        "setup_s": statistics.median(setups),
    }
    extra = {
        "fail_frac": sum(1 for r in runs if not r.passed) / len(runs),
        "tail_percentile": tail_pct,
        "jobs": len(runs),
        "jobs_beyond_tail": beyond,
        "job_s.p50": statistics.median(times),
        "reference_runs": len(cal_s),
        "reference_job_s.p50": statistics.median(cal_s),
        "wall_clock": {
            "job_s.gmean": statistics.geometric_mean(raw),
            "job_s.p50": statistics.median(raw),
            "job_s.tail": tail(labels, raw)[0],
            "jobs_per_s": passed / sum(raw),
            "setup_s": statistics.median(setup_times),
        },
    }
    return metrics, extra


def run_workload(workload: str, seed: int, seconds: float) -> str:
    workdir = OUT / f"{workload}-seed{seed}"
    setup, setup_times, setup_cal_s = timed_setup(workload, seed, workdir)
    cycles = workloads.cycles_for(workload, seconds)
    runs, cal_s, cal_at, elapsed = measure(setup, cycles, workdir)
    metrics, extra = end_to_end(runs, cal_s, cal_at, setup_times,
                                setup_cal_s)
    env = environment(workload, seed)
    print(f"workload {workload}, seed {seed}: {len(runs)} jobs in {cycles} "
          f"cycles, {elapsed:.2f} s measured; {len(cal_s)} reference jobs, "
          f"median {extra['reference_job_s.p50']:.4f} s (baseline "
          f"{REF_CAL_S} s)")
    print(environment_line(env))
    print(f"  {'':<14} {'at baseline':>12}      {'wall clock':>12}")
    for name, unit in END_TO_END.items():
        wall = extra["wall_clock"].get(name)
        print(f"  {name:<14} {metrics[name]:12.6f} {unit:<4} "
              + (f"{wall:12.6f}" if wall is not None else ""))
    print(f"  {'fail_frac':<14} {extra['fail_frac']:12.6f} frac "
          f"({len(runs) - sum(r.passed for r in runs)} of {len(runs)} failed)")
    print(f"  {'job_s.p50':<14} {extra['job_s.p50']:12.6f} s    "
          f"{extra['wall_clock']['job_s.p50']:12.6f}")
    print(f"  tail = mean from p{extra['tail_percentile']:.1f} of {len(runs)} "
          f"jobs up, {extra['jobs_beyond_tail']} beyond it")
    failures: dict[str, list] = {}
    for r in runs:
        if not r.passed:
            failures.setdefault(r.label, []).append(r)
    for label, failed in failures.items():
        known = workloads.KNOWN_DEFECTS.get(label)
        print(f"  FAILED {len(failed)}x {label}: "
              f"{'; '.join(failed[0].problems)}"
              + (f" [known defect: {known}]" if known else ""))
    details = {
        "environment": env,
        "schema_checked": setup.schema_checked,
        "cycles": cycles,
        "measured_s": elapsed,
        "setup_s_each": setup_times,
        "setup_reference_job_s": setup_cal_s,
        "reference_job_s": cal_s,
        "reference_job_before": cal_at,
        "metrics": metrics,
        **extra,
        "jobs": [vars(r) for r in runs],
    }
    write_json(workdir / "result-trace0.json", details)
    return outcome_line(metrics, END_TO_END, runs,
                        not any(r.wrong for r in runs))


def trace_workload(workload: str, seed: int, seconds: float) -> str:
    workdir = OUT / f"{workload}-seed{seed}"
    setup = set_up(workload, seed, workdir)
    lib = tracing.load_library(SRC)
    import_s = tracing.import_time(sys.executable, job_env())

    traced, traced_walls, plain_walls, runs = [], [], [], []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer(True)
        traced_wall, plain_wall, outcomes = tracing.run_cycle(
            lib, setup.prepared, tracer, functools.partial(judge_exit, setup),
            flip=len(traced) % 2 == 1)
        traced.append(tracer)
        traced_walls.append(traced_wall)
        plain_walls.append(plain_wall)
        runs.extend(outcomes)
        cycles = len(traced)
        elapsed = time.perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            break
    metrics = tracing.layer_metrics(traced, traced_walls, plain_walls,
                                    import_s)
    job_s = metrics["cli.main_s"] + len(setup.prepared) * import_s
    env = environment(workload, seed)
    print(f"trace {workload}, seed {seed}: {cycles} replay cycles, each job "
          f"traced and untraced; share = self time / (cli.main + imports)")
    print(environment_line(env))
    for name, unit in tracing.PER_LAYER.items():
        share = (f"{100 * metrics[name] / job_s:6.1f}%"
                 if unit == "s" and name != "cli.import_s" else "")
        print(f"  {name:<40} {metrics[name]:16.6f} {unit:<5} {share}")
    spans = [{"cycle": c, "name": s[0], "start": s[1], "end": s[2],
              "parent": s[3], "job": s[4]}
             for c, tracer in enumerate(traced) for s in tracer.spans]
    details = {
        "environment": env,
        "metrics": metrics,
        "traced_cycle_s": traced_walls,
        "untraced_cycle_s": plain_walls,
        "failed": [vars(r) for r in runs if not r.passed],
    }
    write_json(workdir / "result-trace1.json", details)
    write_json(workdir / "spans.json", spans)
    return outcome_line(metrics, tracing.PER_LAYER, runs,
                        not any(r.wrong for r in runs))


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="smoke-test the metrics and the output check")
    args = parser.parse_args(argv)
    if not (SRC / "qszegedy" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        import self_check

        return self_check.main(sys.modules[__name__], args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    runner = trace_workload if args.trace else run_workload
    line = runner(args.workload, args.seed, args.seconds)
    sys.stdout.flush()
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
