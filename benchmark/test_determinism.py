"""Self-tests of the benchmark harness, on tiny inputs.

    python3 -m pytest benchmark

Counts from a traced run must repeat exactly on one seed, the seed must
change the inputs, a hooked function that no longer exists must leave its
layer at zero calls instead of crashing the run, and a pose beyond the
acceptance bar must count as a miss, not as a failed registration.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402  (needs the paths above)
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Sizes small enough for a quick test; every layer still runs.
TINY = {"track": 60, "map": 400, "relocalize": 80}
COUNT_METRICS = sorted(name for name, unit in run.declared_units("per_layer").items()
                       if unit == "count") + ["graph.inlier_frac", "em.converged_frac"]


def traced_run(name: str, seed: int, workdir: Path) -> tuple[dict, list]:
    workload = workloads.WORKLOADS[name](seed, str(workdir), n=TINY[name])
    workload.lap = 2
    plain, traced, tracer = run.measure_traced(workload, 0.0)
    metrics = tracing.layer_metrics(tracer.spans, tracer.registrations)
    return metrics, [(o.failure, o.miss) for o in plain + traced]


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_repeat_on_one_seed(name, tmp_path):
    first, failures_first = traced_run(name, 7, tmp_path / "a")
    second, failures_second = traced_run(name, 7, tmp_path / "b")
    assert {m: first[m] for m in COUNT_METRICS} == {m: second[m] for m in COUNT_METRICS}
    assert failures_first == failures_second
    assert first["em.sweeps"] > 0 and first["graph.edges"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_changes_inputs(name, tmp_path):
    def scan(seed):
        return workloads.WORKLOADS[name](seed, str(tmp_path), n=TINY[name]).scene(0)[0]

    assert np.array_equal(scan(3), scan(3))
    assert not np.array_equal(scan(3), scan(4))


def test_missing_hook_reports_zero_calls(monkeypatch, tmp_path):
    hooks = [h if h[0] != "em.loglik" else ("em.loglik", "emscan.em", "no_such_function", None)
             for h in tracing.HOOKS]
    monkeypatch.setattr(tracing, "HOOKS", tuple(hooks))
    metrics, _ = traced_run("track", 1, tmp_path)
    assert metrics["em.loglik_calls_per_sweep"] == 0
    assert metrics["em.loglik_ms"] == 0
    assert metrics["em.e_step_calls_per_sweep"] > 0


def test_tail_has_ten_samples_beyond():
    value, level, beyond = run.tail([float(v) for v in range(1, 101)])
    assert (value, level, beyond) == (90.0, 90.0, 10)


def test_miss_is_not_a_failure():
    hit = workloads.Outcome(0.01, 100, trans_err_mm=3.0, rot_err_mdeg=40.0)
    miss = workloads.Outcome(0.01, 100, trans_err_mm=30.0, rot_err_mdeg=900.0,
                             miss="pose misses the truth")
    broken = workloads.Outcome(0.01, 100, problems=["raised ValueError()"])
    metrics, notes = run.end_to_end([hit, hit, miss, broken, miss], setup_s=0.1,
                                    accuracy_sample=4)
    assert metrics["pose_ok_frac"] == 0.5
    assert (metrics["trans_err_mm_rms"], metrics["rot_err_mdeg_rms"]) == (3.0, 40.0)
    assert (notes["fail_frac"], notes["miss_frac"]) == (0.2, 0.25)
    assert run.show_failures([hit, miss, broken]) == 1


def test_measure_spreads_pauses_and_completes_accuracy_sample(tmp_path):
    workload = workloads.WORKLOADS["track"](1, str(tmp_path), n=TINY["track"])
    workload.accuracy_sample = 5
    pauses = []
    outcomes = run.measure(workload, 0.0, 3, lambda: pauses.append(workload.k))
    assert len(outcomes) == 5
    assert len(pauses) == 3
