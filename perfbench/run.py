"""Seeded closed-loop benchmark of ebcompose.

Run from the repository root:

    python3 perfbench/run.py --workload hw-2eb-sweep --seed 1 --seconds 25 --trace 0

One client in one process sends the next query only when the previous one
has returned (a closed loop), with BLAS pinned to one thread and no extra
threads or processes; queue wait therefore does not exist and is not
reported.  Set-up imports the package from ``src/`` once, then three times
builds every input from ``--seed`` and runs a warm-up; ``setup_s`` is the
import time plus the median of the three.  The timed loop then runs queries
for ``--seconds`` seconds, and every verdict and its evidence are re-checked
afterwards.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` a fixed, seeded list of queries runs twice, untraced and
traced, alternating cycle by cycle, and the last line carries the per-layer
metrics plus the tracing overhead between the two passes.  Metric names and
units come from ``BENCHMARK.json``; a full record of each run, including the
environment and the input digest, is written under ``perfbench/results/``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
QUEUE_NOTE = "queue wait: none; one client in one process runs a closed loop"
CONTROL_NOTE = (
    "only this process is controlled (BLAS pinned to 1 thread, one client, no "
    "extra threads or processes); file-cache state and other tenants are not"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS bundled with numpy and scipy."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[path.name] = fn()
                    break
    return found


def environment() -> dict:
    import numpy as np
    import scipy

    from ebcompose import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "jit_enabled": bool(_kernels.JIT_ENABLED),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                       "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(),
        "control": CONTROL_NOTE,
    }


def run_query(run, inp) -> tuple[float, object]:
    t0 = time.perf_counter()
    try:
        out = run(inp)
    except Exception as exc:  # a raising query is counted as an error
        out = exc
    return time.perf_counter() - t0, out


def timed_pass(run, inputs, cycle, seconds):
    """Run queries back to back; returns per-query seconds, outputs, elapsed.

    The pass ends at the first cycle boundary after ``seconds``, so its
    queries follow the workload's input mix exactly.
    """
    times, outputs = [], []
    start = time.perf_counter()
    while len(times) % cycle or time.perf_counter() - start < seconds:
        t, out = run_query(run, inputs[len(times) % len(inputs)])
        times.append(t)
        outputs.append(out)
    return times, outputs, time.perf_counter() - start


def paired_passes(run, inputs, cycle, count, tracer):
    """Run the first ``count`` queries untraced and traced, a cycle at a time.

    Alternating cycles, and which pass goes first, exposes both passes to the
    same machine speed, so their time difference is the tracing overhead.
    """
    base, traced = ([], []), ([], [])
    for c in range(count // cycle):
        for with_trace in ((False, True) if c % 2 == 0 else (True, False)):
            times, outputs = traced if with_trace else base
            with tracer if with_trace else contextlib.nullcontext():
                for i in range(c * cycle, (c + 1) * cycle):
                    tracer.query = i
                    t, out = run_query(run, inputs[i % len(inputs)])
                    times.append(t)
                    outputs.append(out)
    return base, traced


def check_all(workload, inputs, outputs) -> tuple[list, int]:
    """Re-verify every output; returns (errors, certified count)."""
    errors, certified = [], 0
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            errors.append((i, "".join(traceback.format_exception_only(out)).strip()))
            continue
        error, ok = workload.check(inputs[i % len(inputs)], out)
        if error:
            errors.append((i, error))
        certified += bool(ok) and not error
    return errors, certified


def percentile(times: list, q: float) -> float:
    ordered = sorted(times)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if not (SRC / "ebcompose" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'ebcompose'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import ebcompose

    if Path(ebcompose.__file__).resolve().parent != SRC / "ebcompose":
        fail(f"imported ebcompose from {ebcompose.__file__}, not from {SRC}")
    import tracing
    import workloads

    import_s = time.perf_counter() - T_START
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")

    reps, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.generate(args.seed, workload.cycles)
        for inp in workload.warmup():
            workload.run(inp)
        digests.add(workloads.digest(inputs))
        reps.append(time.perf_counter() - t0)
    if len(digests) != 1:
        fail("input generation is not deterministic for one seed")
    digest = digests.pop()
    setup_s = import_s + statistics.median(reps)

    tracing.assert_untraced()
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "input_digest": digest, "queue_wait": QUEUE_NOTE}
    cycle = len(workload.cycle)
    if args.trace == 0:
        times, outputs, elapsed = timed_pass(workload.run, inputs, cycle, seconds=args.seconds)
        errors, certified = check_all(workload, inputs, outputs)
        p90 = percentile(times, 90)
        values = {
            "setup_s": setup_s,
            "queries_per_s": len(times) / elapsed,
            "query_p50_ms": 1e3 * percentile(times, 50),
            "query_p90_ms": 1e3 * p90,
            "certified_rate": certified / len(times),
            "error_rate": len(errors) / len(times),
        }
        record["samples"] = len(times)
        record["query_times_s"] = times
        record["p90_tail_samples"] = sum(t > p90 for t in times)
        attempted, declared = len(times), spec["end_to_end"]
    else:
        count = workload.trace_queries(args.seconds)
        tracer = tracing.Tracer()
        (base_times, base_out), (traced_times, traced_out) = paired_passes(
            workload.run, inputs, cycle, count, tracer)
        tracing.assert_untraced()
        errors, certified = check_all(workload, inputs, base_out)
        traced_errors, traced_certified = check_all(workload, inputs, traced_out)
        errors += [(count + i, message) for i, message in traced_errors]
        certified += traced_certified
        values = tracing.layer_metrics(tracing.aggregate(tracer.spans))
        values["trace.overhead_pct"] = 100.0 * (sum(traced_times) / sum(base_times) - 1.0)
        spans_path = RESULTS / f"{workload.name}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w") as fh:
            fh.write(json.dumps(tracing.SPAN_FIELDS) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span.as_row()) + "\n")
        record["traced_queries"] = count
        record["spans"] = len(tracer.spans)
        attempted, declared = 2 * count, spec["per_layer"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            fail(f"metric {m['name']} declared in BENCHMARK.json is not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    held_out = json.loads((HERE / "predictions.json").read_text())["held_out_seed"]
    record.update(environment=environment(), setup_repeats_s=reps, import_s=import_s,
                  attempted=attempted, failed=len(errors), certified=certified,
                  errors=errors[:50], metrics=values, held_out_seed=held_out)
    out_path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  input digest {digest}")
    print(f"environment {json.dumps(record['environment'])}")
    print(QUEUE_NOTE)
    if args.trace == 0:
        print(f"samples {record['samples']}  beyond p90 {record['p90_tail_samples']}")
        print(f"error_rate {values['error_rate']:.6g} ratio  ({len(errors)} of {attempted})")
    else:
        print(f"traced queries {count}, each run untraced and traced  spans {len(tracer.spans)}")
    for i, message in errors[:10]:
        print(f"error at query {i}: {message}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"record {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
