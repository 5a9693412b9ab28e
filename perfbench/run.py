"""Benchmark for sndp: one workload, one process, a closed loop with one client.

    python3 perfbench/run.py --workload dsg-ring --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/sndp``.
Each operation is one public library call on a set-up instance, and the next
starts when the previous one returns.  The run repeats whole passes over the
workload's instance pool, in an order drawn from ``--seed``, until the timed
operations add up to ``--seconds``.

``--trace 0`` reports the end-to-end metrics with no wrapper installed.
Times are scaled to a reference machine speed (see ``kernel_seconds``):

* ``ops_per_s``   operations that returned a checked result per timed second
* ``op_s.p50``    median seconds per operation: the median over the pool of
                  each instance's median
* ``setup_s``     median, over fresh processes, of process start to the point
                  the first operation could start (import, generate, document
                  round trip, validate, count scenarios)
* ``peak_rss_mb`` peak resident set of this process
* ``ok_frac``     1 - failed_frac: share of operations that neither raised nor
                  failed their check

``--trace 1`` alternates an untraced and a traced pass (set-up included) and
reports the per-layer metrics of ``spans.PER_LAYER``, per pass, averaged over
the traced passes; ``trace.overhead_s`` is traced minus untraced pass time,
both scaled to the reference speed.  Other per-layer times are raw.
The spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One process on a 2-core box: keep BLAS from starting threads of its own.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import numpy  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Case, prepare_instance  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
OUT = HERE / "out"
SETUP_REPEATS = 5
PROBE_TIMEOUT = 60.0

# Machine speed.  On a shared 2-vCPU VM the same pure-Python loop runs up to
# 40% slower for tens of seconds at a time; raw bd-grid pass times spread by
# 24% (quartile distance over median, 18 passes).  Each end-to-end time is
# therefore scaled to a reference speed: a fixed kernel of small numpy calls
# and Python loops runs before and after every timed interval, and the
# interval is multiplied by KERNEL_REFERENCE_S over the kernel's mean time.
# Scaled that way, the same passes spread by 6%.
KERNEL_ITERS = 15000
KERNEL_REFERENCE_S = 0.06

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_s.p50": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "fraction"}


@dataclasses.dataclass
class OpRecord:
    case: Case
    seconds: float
    result: object = None
    error: str = ""      # exception class, or "mismatch" after the check
    detail: str = ""
    scaled: float = 0.0  # seconds at the reference machine speed


def kernel_seconds() -> float:
    """Time a fixed mix of small numpy calls and Python loops."""
    rows = numpy.arange(1.0, 3201.0).reshape(40, 80) % 7.3
    total = 0.0
    start = time.perf_counter()
    for i in range(KERNEL_ITERS):
        rows[i % 40] *= 0.999
        total += float(rows[:, i % 80].argmin())
        for j in range(30):
            total += j * 0.5
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    return seconds * KERNEL_REFERENCE_S * 2.0 / (before + after)


def import_program():
    """Import ``sndp`` from this checkout's ``src``, nowhere else."""
    if not (SRC / "sndp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'sndp'}")
    sys.path.insert(0, str(SRC))
    import sndp
    import sndp.decomposition  # noqa: F401  used as sndp.decomposition
    import sndp.reporting  # noqa: F401  patched by the tracer
    if Path(sndp.__file__).resolve().parent != SRC / "sndp":
        raise SystemExit(f"perfbench: imported sndp from {sndp.__file__}")
    return sndp


def load_cases(sndp, workload) -> list[Case]:
    try:
        stored = json.loads(REFERENCES.read_text())[workload.name]
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"perfbench: no references for {workload.name}: "
                         f"{exc!r}") from exc
    cases = []
    for spec in workload.pool:
        if spec.key not in stored:
            raise SystemExit(f"perfbench: no reference for {spec.key}")
        cases.append(Case(spec, prepare_instance(sndp, spec), stored[spec.key]))
    return cases


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh process to its set-up finishing, scaled
    to the reference machine speed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    before = kernel_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {err.strip()}")
        after = kernel_seconds()
        samples.append(scale(elapsed, before, after))
        before = after
    return samples


def run_op(sndp, workload, case: Case) -> OpRecord:
    start = time.perf_counter()
    try:
        result = workload.run(sndp, case)
    except Exception as exc:  # noqa: BLE001 - one failed op never ends the run
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return OpRecord(case, seconds, error=type(exc).__name__,
                        detail=str(exc))
    return OpRecord(case, time.perf_counter() - start, result)


def orders(seed: int, workload, size: int):
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield rng.sample(range(size), size)


def check_records(sndp, workload, records) -> None:
    """Check every result outside the timed window, each distinct one once."""
    verdicts: dict = {}
    for rec in records:
        if rec.error:
            continue
        key = (rec.case.spec, workload.signature(rec.result))
        if key not in verdicts:
            try:
                verdicts[key] = workload.check(sndp, rec.case, rec.result)
            except Exception as exc:  # noqa: BLE001 - a crashing check fails the op
                traceback.print_exc(file=sys.stderr)
                verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
        if verdicts[key]:
            rec.error, rec.detail = "mismatch", verdicts[key]


def op_median(records) -> float:
    """Median over pool instances of each instance's median scaled time.

    Every instance weighs the same however many passes the run made.  Every
    pool has an even size, so the two middle instances swapping rank leave
    the value unchanged.
    """
    by_case: dict = {}
    for rec in records:
        by_case.setdefault(rec.case.spec, []).append(rec.scaled)
    return statistics.median(statistics.median(v) for v in by_case.values())


def timed_run(sndp, workload, cases, args) -> tuple[list[OpRecord], float]:
    """Whole passes until the raw operation time reaches ``args.seconds``."""
    records, timed = [], 0.0
    before = kernel_seconds()
    for order in orders(args.seed, workload, len(cases)):
        if records and timed >= args.seconds:
            break
        for index in order:
            rec = run_op(sndp, workload, cases[index])
            after = kernel_seconds()
            rec.scaled = scale(rec.seconds, before, after)
            before = after
            records.append(rec)
            timed += rec.seconds
    return records, timed


def run_pass(sndp, workload, cases, order, tracer=None, label=""):
    """Set up and run every case once; spans share an id per operation."""
    records = []
    start = time.perf_counter()
    for position, index in enumerate(order):
        case = cases[index]
        if tracer is not None:
            tracer.op = f"{label}:{position}:setup:{case.spec.key}"
        prepare_instance(sndp, case.spec)
        if tracer is not None:
            tracer.op = f"{label}:{position}:{case.spec.key}"
        records.append(run_op(sndp, workload, case))
    return records, time.perf_counter() - start


def traced_run(sndp, workload, cases, args):
    """Untraced and traced passes in turn; per-layer metrics per pass."""
    tracer = spans.Tracer()
    records, per_pass, all_spans, elapsed = [], [], [], 0.0
    for order in orders(args.seed, workload, len(cases)):
        if per_pass and elapsed >= args.seconds:
            break
        k0 = kernel_seconds()
        plain, untraced_s = run_pass(sndp, workload, cases, order)
        k1 = kernel_seconds()
        tracer.spans = []
        with tracer.installed():
            traced, traced_s = run_pass(sndp, workload, cases, order, tracer,
                                        label=f"pass{len(per_pass)}")
        k2 = kernel_seconds()
        metrics = spans.per_layer_metrics(tracer.spans, traced_s)
        metrics["trace.overhead_s"] = (scale(traced_s, k1, k2)
                                       - scale(untraced_s, k0, k1))
        per_pass.append(metrics)
        all_spans.extend(tracer.spans)
        records += plain + traced
        elapsed += untraced_s + traced_s
    mean = {name: sum(m[name] for m in per_pass) / len(per_pass)
            for name in per_pass[0]}
    kept, absent = spans.available(mean, tracer.present)
    return records, kept, absent, all_spans, len(per_pass)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sndp = import_program()
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        for spec in workload.pool:
            prepare_instance(sndp, spec)
        print("ready", flush=True)
        return 0

    cases = load_cases(sndp, workload)
    if args.trace:
        records, metrics, absent, all_spans, passes = traced_run(
            sndp, workload, cases, args)
    else:
        setup_samples = measure_setup(args)
        records, timed = timed_run(sndp, workload, cases, args)
        if spans.wrapped_functions():
            raise SystemExit("perfbench: untraced run found a wrapper")
    check_records(sndp, workload, records)

    attempted = len(records)
    failed = [r for r in records if r.error]
    for rec in failed:
        print(f"failed {rec.case.spec.key}: {rec.error} {rec.detail}",
              file=sys.stderr)
    print(json.dumps({"env": environment(args)}))
    if args.trace:
        units = {name: spec[0] for name, spec in spans.PER_LAYER.items()}
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.write_spans(all_spans, span_file)
        print(f"traced passes {passes}, {len(all_spans)} spans -> {span_file}")
        if absent:
            print("absent (function not found): " + ", ".join(absent))
        layer_sum = metrics["trace.unattributed_s"] + sum(
            metrics.get(name, 0.0) for name in spans.SELF_TIME_PARTS)
        print(f"layer self times + unattributed = {layer_sum:.6f} s; "
              f"traced wall = {metrics['trace.wall_s']:.6f} s")
    else:
        ok = attempted - len(failed)
        scaled = sum(r.scaled for r in records)
        metrics = {
            "ops_per_s": ok / scaled,
            "op_s.p50": op_median(records),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok / attempted,
        }
        units = END_TO_END_UNITS
        print(f"ops {attempted} in {timed:.3f} raw s ({scaled:.3f} scaled s) "
              f"over {len(cases)} instances; raw op_s.p50 "
              f"{statistics.median(r.seconds for r in records):.6g}; "
              f"op_s.p50 over {len(cases)} instances x {attempted // len(cases)} "
              f"passes; setup_s over "
              f"n={len(setup_samples)}; failed_frac {len(failed) / attempted}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not any(r.error == "mismatch" for r in records),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
