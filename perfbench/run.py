"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the program is imported from
``src/``).  One process runs one workload: it builds the workload's inputs
from ``--seed``, sets the system up several times (``setup_s`` is the import
time plus the median set-up), runs whole rounds of operations from one
closed-loop thread, checks the outputs, and prints one JSON object as the
last line of standard output.  With ``--trace 0`` the object holds the
end-to-end metrics; with ``--trace 1`` the layers' public functions are
wrapped in spans and the object holds the per-layer metrics instead (the
spans are also written to ``.perfbench_out/``).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: on a 2-CPU host a second thread made a U-Net evaluation
# slower and twice as spread out.  Must be set before NumPy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
SETUP_REPEATS = 5
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_tail_s": "s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  Span self times end in ``.self_s``;
#: ``.calls`` count wrapped calls; the rest are documented in the README.
PER_LAYER = {
    "nn.unet_forward.calls": "count",
    "nn.unet_forward.self_s": "s",
    "nn.conv2d.calls": "count",
    "nn.conv2d.self_s": "s",
    "nn.group_norm.self_s": "s",
    "nn.activation.self_s": "s",
    "nn.attention.self_s": "s",
    "quant.weight.calls": "count",
    "quant.weight.self_s": "s",
    "quant.activation.self_s": "s",
    "diffusion.sample.self_s": "s",
    "diffusion.fid.self_s": "s",
    "pipeline.relu_adapt.self_s": "s",
    "sparsity.trace.self_s": "s",
    "diffusion.fid_reference.self_s": "s",
    "accelerator.kernel.calls": "count",
    "accelerator.kernel.entries": "count",
    "accelerator.kernel.self_s": "s",
    "columnar.materialize.self_s": "s",
    "columnar.reports_materialized": "count",
    "service.queue_wait_s": "s",
    "report_cache.hits": "count",
    "report_cache.misses": "count",
    "report_cache.lookup.self_s": "s",
    "codec.encode.self_s": "s",
    "codec.decode.self_s": "s",
    "codec.bytes": "bytes",
    "client.requests_per_job": "count/job",
    "http.request.self_s": "s",
    "client.poll_sleep_s": "s",
    "fleet.claims": "count",
    "fleet.empty_claims": "count",
    "fleet.lease_s": "s",
    "worker.simulate.self_s": "s",
    "artifacts.writes": "count",
    "artifacts.write.self_s": "s",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_percentile(latencies: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least ``TAIL_BEYOND`` samples
    beyond it (nearest rank), its value, and how many samples lie beyond it;
    the maximum for tiny samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    percentile = math.floor(100.0 * (1.0 - TAIL_BEYOND / n)) if n > TAIL_BEYOND else 100
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return percentile, ordered[rank - 1], n - rank


def layer_metrics(tracer, workload, operations: int, materialized: float) -> dict[str, float]:
    """Every per-layer metric; layers the workload does not load read 0."""
    self_times = tracer.self_times()
    values: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_times.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = float(tracer.counts.get(name, 0) or tracer.sums.get(name, 0.0))
    values["artifacts.writes"] = float(tracer.counts.get("artifacts.write.calls", 0))
    values["columnar.reports_materialized"] = materialized
    values.update(workload.layer_metrics(tracer, operations))
    return values


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for span in tracer.spans:
            out.write(json.dumps(span._asdict()) + "\n")


def import_program():
    """Put ``src/`` on the path and import the workloads, and with them the program."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def import_seconds(own: float) -> float:
    """Median import time over this process and fresh interpreters.

    Imports cannot be repeated in one process, so the other samples come from
    child interpreters that run this module's imports and exit.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
        "import run; run.import_program(); print(run.time.perf_counter() - run.STARTED)"
    )
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(child.stdout.split()[-1]))
    return statistics.median(samples)


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    catalogue = import_program()
    own_import_s = time.perf_counter() - STARTED
    from tracer import Tracer

    if args.workload not in catalogue.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = import_seconds(own_import_s)

    workload = catalogue.WORKLOADS[args.workload]()
    rounds = max(1, round(args.seconds / workload.nominal_round_s))
    workload.make_inputs(args.seed, rounds)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        catalogue.install_tracing(tracer, workload)
    materialized_at_start = catalogue.registry_total("repro_reports_materialized_total")

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            began = time.perf_counter()
            workload.setup(scratch / f"setup{repeat}")
            setups.append(time.perf_counter() - began)
        try:
            latencies: list[float] = []
            attempted = failed = 0
            cpu_began, wall_began = time.process_time(), time.perf_counter()
            for round_index in range(rounds):
                for operation in workload.operations(round_index):
                    attempted += 1
                    if tracer is not None:
                        tracer.operation = attempted
                    began = time.perf_counter()
                    try:
                        operation()
                    except Exception:  # noqa: BLE001 - counted and reported, the run goes on
                        failed += 1
                        traceback.print_exc()
                        continue
                    latencies.append(time.perf_counter() - began)
            wall = time.perf_counter() - wall_began
            cpu = time.process_time() - cpu_began
            materialized = (
                catalogue.registry_total("repro_reports_materialized_total")
                - materialized_at_start
            )
            if tracer is not None:
                tracer.restore()
                tracer.operation = None
            errors = workload.check()
        finally:
            workload.teardown()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    completed = attempted - failed
    percentile, tail, beyond = tail_percentile(latencies) if latencies else (100, math.nan, 0)
    p50 = statistics.median(latencies) if latencies else math.nan
    slow = sum(latency > 2.0 * p50 for latency in latencies)
    end_to_end = {
        "setup_s": import_s + statistics.median(setups),
        "jobs_per_s": completed / wall,
        "job_latency_p50_s": p50,
        "job_latency_tail_s": tail,
        "cpu_s_per_job": cpu / max(completed, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(
        f"{args.workload}: {rounds} rounds, {attempted} operations ({failed} failed), "
        f"tail = p{percentile} of {len(latencies)} samples ({beyond} beyond), "
        f"{slow} over 2x the median; "
        f"set-ups {', '.join(f'{s:.4f}' for s in setups)} s "
        f"after {import_s:.4f} s of imports (median)"
    )
    for name, value in end_to_end.items():
        print(f"  {name} = {value:.6g} {END_TO_END[name]}")
    if tracer is not None:
        values = layer_metrics(tracer, workload, max(completed, 1), materialized)
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {PER_LAYER[name]}")
        write_spans(tracer, ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name]} for name, value in end_to_end.items()
        }
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not errors
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
