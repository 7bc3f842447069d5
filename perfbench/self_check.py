"""Smoke test of the benchmark itself.

Runs the smallest job of each workload once, untraced and traced, and
confirms that the result line names every metric of BENCHMARK.json with
its unit.  Then injects a corrupted report, one eigenvalue replaced by
its conjugate, and confirms the output check counts it as failed and
marks the run incorrect.  Run with ``python3 perfbench/run.py --self-check``.
"""

from __future__ import annotations

import functools
import json

import closed_loop
import tracing

SMOKE_JOBS = {
    "theorem-path": "spectrum star60+loop",
    "oracle-dense": "spectrum K8+loops --oracle --eigenvectors",
    "verify-mix": "spectrum k3_loops --oracle",
}


def _expect(failures: list[str], ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def _check_line(failures, line: str, declared: list[dict], what: str) -> dict:
    result = json.loads(line)
    _expect(failures, set(result) == {"correct", "attempted", "failed",
                                      "metrics"}, f"{what}: result keys")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wrong = [m["name"] for m in declared
             if printed.get(m["name"]) != m["unit"]]
    _expect(failures, not wrong and len(printed) == len(declared),
            f"{what}: all {len(declared)} metrics printed with their units"
            + (f"; missing or mislabelled: {wrong}" if wrong else ""))
    return result


def _corrupt(report: dict) -> dict:
    values = report["spectrum"]["psi_u_spectrum"]
    index = next(i for i, (_re, im) in enumerate(values) if abs(im) > 1e-3)
    values[index] = [values[index][0], -values[index][1]]
    return report


def main(bench, seed: int) -> int:
    """``bench`` is the run module, which owns set-up and measurement."""
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    lib = tracing.load_library(bench.SRC)
    for workload, label in SMOKE_JOBS.items():
        workdir = bench.OUT / f"self-check-{workload}"
        setup = bench.set_up(workload, seed, workdir)
        setup.prepared = [p for p in setup.prepared if p[0].label == label]
        runs, cal_s, cal_at, elapsed = bench.measure(setup, 1, workdir)
        metrics, _extra = bench.end_to_end(runs, cal_s, cal_at, [elapsed],
                                           cal_s[:2])
        result = _check_line(
            failures, bench.outcome_line(metrics, bench.END_TO_END, runs,
                                         not any(r.wrong for r in runs)),
            declared["end_to_end"], f"{workload} untraced")
        _expect(failures, result["correct"] and result["failed"] == 0,
                f"{workload}: '{label}' passes its output check")

        report = json.loads(setup.report_path.read_text(encoding="utf-8"))
        setup.report_path.write_text(json.dumps(_corrupt(report)))
        bad = bench.judge(setup, setup.prepared[0][0],
                          closed_loop.JobRun(label, 1.0, 0, 1, False))
        result = json.loads(bench.outcome_line(
            metrics, bench.END_TO_END, runs + [bad],
            not any(r.wrong for r in runs + [bad])))
        _expect(failures, result["failed"] == 1 and not result["correct"],
                f"{workload}: a flipped eigenvalue counts as failed "
                f"({'; '.join(bad.problems)})")

        tracer = tracing.Tracer(True)
        traced_s, plain_s, outcomes = tracing.run_cycle(
            lib, setup.prepared, tracer,
            functools.partial(bench.judge_exit, setup), flip=False)
        layers = tracing.layer_metrics([tracer], [traced_s], [plain_s], 0.1)
        _check_line(failures, bench.outcome_line(
            layers, tracing.PER_LAYER, outcomes,
            not any(r.wrong for r in outcomes)),
            declared["per_layer"], f"{workload} traced")
    print("self-check " + ("passed" if not failures else
                           f"FAILED: {len(failures)} problem(s)"))
    return 1 if failures else 0
