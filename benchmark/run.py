"""emscan benchmark: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload track --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports emscan from ``src/``.
One caller drives the library in a closed loop: the next registration
starts when the previous one returned.  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` alternates untraced and traced
laps over the same inputs and reports the per-layer metrics.  The metric
names and units are those of ``BENCHMARK.json``; the last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("track", "map", "relocalize")
#: Cold set-ups per run (this process plus fresh interpreters spread over
#: the run, so that one slow spell of the machine does not hold them all);
#: median reported.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
#: The tail percentile is the highest one with this many samples beyond it.
TAIL_BEYOND = 10
MAX_FAILURES_SHOWN = 20


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use.

    Must run before numpy is imported; child processes inherit the cap.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def cold_setup(name: str, seed: int, workdir: Path):
    """Import emscan, then run the workload's first, untimed registration.

    Returns the set-up seconds (the import plus that registration's call),
    the workload and the warm-up outcome.
    """
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import emscan  # cold: numpy is imported here too
    import_s = time.perf_counter() - start
    if not Path(emscan.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"emscan was imported from {emscan.__file__}, not from {SRC}")
    import workloads  # after the timed import: it imports emscan and numpy too

    workload = workloads.WORKLOADS[name](seed, str(workdir))
    outcome = workload.warm_up(timed_call)
    return import_s + outcome.seconds, workload, outcome


def timed_call(fn, *args):
    """``(result, seconds, error)`` of one program call; ``error`` is what it raised."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # the workload records it as a failed registration
        return None, time.perf_counter() - start, exc
    return result, time.perf_counter() - start, None


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def measure(workload, seconds: float, pauses: int = 0, pause=None) -> list:
    """Registrations of consecutive inputs until their calls took ``seconds``
    and the workload's accuracy sample is complete.

    ``pause()`` runs, untimed, each time another ``1 / pauses`` of
    ``seconds`` has been measured; the last call comes after the loop.
    """
    outcomes = []
    measured = 0.0
    done = 0
    while len(outcomes) < workload.accuracy_sample or measured < seconds:
        outcomes.append(workload.step(timed_call))
        measured += outcomes[-1].seconds
        if done < pauses - 1 and measured >= seconds * (done + 1) / pauses:
            pause()
            done += 1
    for _ in range(done, pauses):
        pause()
    return outcomes


def measure_traced(workload, seconds: float):
    """Alternate untraced and traced laps of the same inputs.

    Whole laps only, so every count is a mean over identical laps and
    repeats exactly on one seed.  Returns the untraced and traced outcomes
    and the tracer.
    """
    tracer = tracing.Tracer()

    def traced_call(fn, *args):
        with tracer.registration():
            return timed_call(fn, *args)

    plain, traced = [], []
    while not traced or sum(o.seconds for o in plain + traced) < seconds:
        for outcomes, call in ((plain, timed_call), (traced, traced_call)):
            workload.restart()
            if call is traced_call:
                tracer.install()
            try:
                outcomes.extend(workload.step(call) for _ in range(workload.lap))
            finally:
                tracer.uninstall()
    return plain, traced, tracer


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile level, samples beyond)`` of the highest
    percentile that has at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def rms(values: list[float]) -> float | None:
    return math.sqrt(statistics.fmean(v * v for v in values)) if values else None


def end_to_end(outcomes: list, setup_s: float, accuracy_sample: int) -> tuple[dict, dict]:
    """End-to-end metrics; the pose metrics cover the first ``accuracy_sample``
    registrations only, a sample fixed by the seed."""
    seconds = [o.seconds for o in outcomes]
    failed = sum(o.failure is not None for o in outcomes)
    sample = outcomes[:accuracy_sample]
    # Pose errors of the registrations within the acceptance bar; the
    # others are counted by pose_ok_frac instead of dominating the RMS.
    hits = [o for o in sample if o.failure is None and o.miss is None]
    tail_ms, level, beyond = tail([1e3 * s for s in seconds])
    metrics = {
        "latency_ms_p50": 1e3 * statistics.median(seconds),
        "latency_ms_tail": tail_ms,
        "scan_points_per_s": sum(o.points for o in outcomes) / sum(seconds),
        "trans_err_mm_rms": rms([o.trans_err_mm for o in hits]),
        "rot_err_mdeg_rms": rms([o.rot_err_mdeg for o in hits]),
        "pose_ok_frac": len(hits) / len(sample),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    notes = {"tail_level_pct": level, "tail_samples_beyond": beyond,
             "samples": len(seconds), "fail_frac": failed / len(outcomes),
             "miss_frac": sum(o.miss is not None for o in sample) / len(sample),
             "accuracy_sample": len(sample)}
    return metrics, notes


def declared_units(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment(nproc: int) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc, "blas_threads_cap": nproc}


def report(values: dict, kind: str) -> dict:
    """Pair each value with its unit from BENCHMARK.json; names must match."""
    units = declared_units(kind)
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {kind} "
                           f"{sorted(units)}")
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def show_failures(outcomes: list) -> int:
    """Print every failed registration and every pose miss with its cause;
    return the number failed."""
    for label, cause_of in (("FAIL", lambda o: o.failure), ("MISS", lambda o: o.miss)):
        found = [(k, cause_of(o)) for k, o in enumerate(outcomes) if cause_of(o) is not None]
        for k, cause in found[:MAX_FAILURES_SHOWN]:
            print(f"{label} registration {k}: {cause}")
        if len(found) > MAX_FAILURES_SHOWN:
            print(f"{label} ... and {len(found) - MAX_FAILURES_SHOWN} more")
    return sum(o.failure is not None for o in outcomes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, workload, warm = cold_setup(args.workload, args.seed, workdir)
    except ImportError as exc:
        print(f"error: cannot import emscan from {SRC}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment(nproc)
        print(f"emscan benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} "
              + " ".join(f"{k}={v}" for k, v in env.items()))
        if warm.failure:
            print(f"FAIL warm-up registration: {warm.failure}")
        if warm.miss:
            print(f"MISS warm-up registration: {warm.miss}")

        if args.trace:
            plain, traced, tracer = measure_traced(workload, args.seconds)
            outcomes = plain + traced
            values = tracing.layer_metrics(tracer.spans, tracer.registrations)
            values["trace.overhead_frac"] = (sum(o.seconds for o in traced)
                                             / sum(o.seconds for o in plain) - 1.0)
            print(f"{len(plain)} untraced + {len(traced)} traced registrations "
                  f"in laps of {workload.lap}; spans kept: {len(tracer.spans)}")
            for hook in sorted(tracer.missing):
                print(f"note: {hook} no longer exists; its layer reports zero calls")
            metrics = report(values, "per_layer")
        else:
            samples = [setup_s]
            outcomes = measure(workload, args.seconds, SETUP_SAMPLES - 1,
                               lambda: samples.append(probe_setup(args.workload, args.seed)))
            values, notes = end_to_end(outcomes, statistics.median(samples),
                                       workload.accuracy_sample)
            print(f"{notes['samples']} registrations; tail = p{notes['tail_level_pct']:.2f} "
                  f"({notes['tail_samples_beyond']} samples beyond); "
                  f"fail_frac = {notes['fail_frac']:.6g}; miss_frac = {notes['miss_frac']:.6g} "
                  f"(first {notes['accuracy_sample']}); "
                  f"setup samples (s): {', '.join(f'{s:.4f}' for s in samples)}")
            metrics = report(values, "end_to_end")
        failed = show_failures(outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    # A failed check means the program's output is wrong; a pose beyond the
    # acceptance bar is a measured outcome, reported through pose_ok_frac.
    correct = not any(o.failure for o in outcomes + [warm])
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
