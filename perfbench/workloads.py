"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, sets the system up
(repeatably: the harness sets up several times and reports the median), and
hands the harness one round of operations at a time.  Every round attempts
the same operations, so a run is a whole number of rounds.  After the timed
phase, :meth:`check` verifies the outputs against a separate computation or
a property the method must have.

``paper-tables``
    Tables I/II and the Fig. 12 hardware evaluation through ``SQDMPipeline``
    on the four paper workloads; a round is one sampling seed.
``dse-sweep``
    Accelerator design-space sweeps (``SweepJobSpec``) through an in-process
    ``EvaluationService`` with thread dispatch; a round is one sweep over a
    fresh trace, so every case is a report-cache miss.
``remote-fleet``
    A closed-loop ``RemoteEvaluationClient`` submitting ``SimulateJobSpec``
    jobs over HTTP to a fleet-dispatching server with one in-process worker;
    a round is one new key (a miss) and three repeated keys (hits).
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from tracer import Tracer

from repro.accelerator.backends import vectorized
from repro.accelerator.config import AcceleratorConfig, dense_baseline_config, sqdm_config
from repro.accelerator.simulator import AcceleratorSimulator
from repro.accelerator.workload import ConvLayerWorkload
from repro.core import artifacts as artifacts_module
from repro.core import codec, pipeline, sparsity, telemetry
from repro.core.artifacts import ArtifactStore
from repro.core.columnar import ColumnarReportBatch, ensure_report
from repro.core.pipeline import PipelineConfig, SQDMPipeline
from repro.core.policy import mixed_precision_policy
from repro.core.report_cache import ReportCache
from repro.diffusion import fid, sampler
from repro.nn import functional, unet
from repro.quant import dispatch
from repro.serve import client as client_module
from repro.serve import fleet as fleet_module
from repro.serve import http as http_module
from repro.serve import worker as worker_module
from repro.serve.client import RemoteEvaluationClient
from repro.serve.http import start_http_server
from repro.serve.service import EvaluationService
from repro.serve.specs import SimulateJobSpec, SweepJobSpec
from repro.serve.worker import WorkerRuntime
from repro.workloads.models import load_workload, workload_names

Operation = Callable[[], None]


def pool_size() -> int:
    """Service thread-pool size: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def registry_total(name: str) -> float:
    """Current total of a counter or observation count of a histogram."""
    metric = telemetry.get_registry().get(name)
    if metric is None:
        return 0.0
    if isinstance(metric, telemetry.Histogram):
        return float(metric.count())
    return float(metric.total())


def evolving_trace(
    rng: np.random.Generator, steps: int, layers: list[tuple[int, int, int]]
) -> list[list[ConvLayerWorkload]]:
    """A synthetic 4-bit workload trace whose per-channel sparsity drifts
    across time steps (channels become dense or sparse as sampling proceeds,
    as in the paper's Fig. 7).  ``layers`` holds (in, out, spatial) shapes."""
    trace: list[list[ConvLayerWorkload]] = [[] for _ in range(steps)]
    for index, (c_in, c_out, spatial) in enumerate(layers):
        base = rng.beta(2.0, 1.2, size=c_in)
        drift = rng.normal(0.0, 0.12, size=(steps, c_in)).cumsum(axis=0)
        sparsity_by_step = np.clip(base + drift, 0.0, 1.0)
        for step in range(steps):
            trace[step].append(
                ConvLayerWorkload(
                    name=f"layer{index}",
                    in_channels=c_in,
                    out_channels=c_out,
                    kernel_size=3,
                    out_height=spatial,
                    out_width=spatial,
                    weight_bits=4,
                    act_bits=4,
                    channel_sparsity=sparsity_by_step[step],
                )
            )
    return trace


def case_totals(results: list[Any]) -> tuple[list[float], list[float]]:
    """Total cycles and energy of each sweep case, read without building reports."""
    cycles, energy = [], []
    for result in results:
        if isinstance(result, ColumnarReportBatch):
            cycles.append(float(result.total_cycles[0]))
            energy.append(float(result.total_energy_pj[0]))
        else:
            cycles.append(result.total_cycles)
            energy.append(result.total_energy.total_pj)
    return cycles, energy


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""
    #: The load's HTTP client, if the workload has one (its requests are counted).
    client: Any = None
    #: Nominal duration of one round on a 2-CPU host; a run of S seconds does
    #: round(S / nominal_round_s) rounds, at least one.
    nominal_round_s = 1.0

    def make_inputs(self, seed: int, rounds: int) -> None:
        raise NotImplementedError

    def setup(self, scratch: Path) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (called between set-ups and at the end)."""

    def operations(self, round_index: int) -> list[Operation]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer, operations: int) -> dict[str, float]:
        """Per-layer metrics this workload can attribute beyond span self times."""
        return {}


# -- paper-tables --------------------------------------------------------------------------


class PaperTables(Workload):
    """Table I formats, Table II schemes and Fig. 12 on the four paper workloads."""

    name = "paper-tables"
    nominal_round_s = 15.0
    #: Reduced evaluation scale: 3 generated images, 4 sampling steps, 256
    #: reference images and 1 traced image per evaluation.
    scale = dict(
        num_fid_samples=3, num_reference_samples=256, num_sampling_steps=4, num_trace_samples=1
    )

    def make_inputs(self, seed: int, rounds: int) -> None:
        rng = np.random.default_rng(seed)
        self.sampling_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=rounds)]
        self.workload_names = workload_names()
        self.repeat_workload = self.workload_names[int(rng.integers(len(self.workload_names)))]
        self.fig12_workload = self.workload_names[int(rng.integers(len(self.workload_names)))]
        self.tables: dict[tuple[str, int], dict[str, dict[str, float]]] = {}
        self.hardware: dict[tuple[str, int], Any] = {}

    def _config(self, seed: int) -> PipelineConfig:
        return PipelineConfig(seed=seed, **self.scale)

    def _pipeline(self, name: str, seed: int) -> SQDMPipeline:
        return SQDMPipeline(
            name,
            self._config(seed),
            workload=self.models[name],
            artifacts=self.store,
            report_cache=self.report_cache,
        )

    def setup(self, scratch: Path) -> None:
        self.store = ArtifactStore(scratch / "artifacts")
        self.report_cache = ReportCache()
        self.models = {name: load_workload(name) for name in self.workload_names}
        for name in self.workload_names:
            self._pipeline(name, seed=0).fid_evaluator  # reference statistics into the store

    def operations(self, round_index: int) -> list[Operation]:
        seed = self.sampling_seeds[round_index]
        ops: list[Operation] = []
        for name in self.workload_names:
            pipe = self._pipeline(name, seed)
            table = self.tables.setdefault((name, seed), {})
            for fmt in checks.TABLE1_FORMATS:
                ops.append(
                    lambda pipe=pipe, table=table, fmt=fmt: self._record(
                        table, pipe.evaluate_format(fmt)
                    )
                )
            for relu in (False, True):
                ops.append(
                    lambda pipe=pipe, table=table, relu=relu: self._record(
                        table, pipe.evaluate_mixed_precision(relu=relu)
                    )
                )
            ops.append(lambda pipe=pipe, key=(name, seed): self._hardware(pipe, key))
        return ops

    @staticmethod
    def _record(table: dict[str, dict[str, float]], evaluation: Any) -> None:
        table[evaluation.scheme] = {
            "fid": evaluation.fid,
            "compute_saving": evaluation.compute_saving,
            "memory_saving": evaluation.memory_saving,
        }

    def _hardware(self, pipe: SQDMPipeline, key: tuple[str, int]) -> None:
        trace = pipe.collect_trace(relu=True)
        self.hardware[key] = (pipe, trace, pipe.evaluate_hardware(trace=trace))

    def check(self) -> list[str]:
        errors = []
        for (name, seed), table in self.tables.items():
            errors += checks.check_paper_table(f"{name} seed {seed}", table)
        seed = self.sampling_seeds[0]
        first = self.tables[(self.repeat_workload, seed)]["INT4-VSQ"]["fid"]
        again = self._pipeline(self.repeat_workload, seed).evaluate_format("INT4-VSQ").fid
        errors += checks.check_repeat(f"{self.repeat_workload} INT4-VSQ", first, again)
        for (name, hw_seed), (_, _, hw) in self.hardware.items():
            label = f"Fig. 12 {name} seed {hw_seed}"
            errors += checks.check_fig12_order(label, checks.fig12_reports(hw))
        errors += self._check_fig12((self.fig12_workload, seed))
        return errors

    def _check_fig12(self, key: tuple[str, int]) -> list[str]:
        """Re-simulate one workload's Fig. 12 traces on the reference backend."""
        pipe, trace, hw = self.hardware[key]
        policy = mixed_precision_policy(pipe.relu_unet(), relu=True)
        quant = sparsity.trace_to_workloads(trace, policy)
        fp16 = sparsity.trace_to_workloads(trace, policy=None, default_bits=16)
        reference = {
            name: AcceleratorSimulator(config, backend="reference").run_trace(workloads)
            for name, config, workloads in (
                ("sqdm", sqdm_config(), quant),
                ("dense", dense_baseline_config(), quant),
                ("fp16", dense_baseline_config(), fp16),
            )
        }
        label = f"Fig. 12 {key[0]} seed {key[1]}"
        return checks.check_fig12(label, checks.fig12_reports(hw), reference)


# -- dse-sweep -----------------------------------------------------------------------------


class DseSweep(Workload):
    """80-case design-space sweeps, one fresh trace per sweep.

    The client reads every case's cycles and energy from the columnar
    results, as a sweep-level consumer does, and materializes the full report
    of the chosen design point only.  Reading all 80 reports instead spent a
    third of the run in gen-2 garbage collection, whose few long pauses made
    the tail latency unsteady.
    """

    name = "dse-sweep"
    #: A 25 s run is then 407 sweeps, whose tail percentile (p97, 12 samples
    #: beyond) lies clear of the ~4 sweeps that a gen-2 collection lands in.
    nominal_round_s = 0.0615
    grid = {
        "num_dpe": [1, 2],
        "num_spe": [1, 2, 3, 4],
        "sparsity_threshold": [0.2, 0.35, 0.5, 0.65, 0.8],
        "sparsity_update_period": [1, 2],
    }
    #: Time steps per trace.  With 4, a sweep took ~25 ms, and host stalls
    #: of a few ms moved the tail percentile by tens of percent between runs.
    steps = 16
    layers = [(128, 128, 16), (128, 256, 8), (256, 256, 8), (256, 128, 16)]
    #: Sweeps kept whole for the check phase; the rest keep what was read back.
    checked_sweeps = 2
    #: Cases per checked sweep re-simulated on the reference backend.
    reference_cases = 4

    def make_inputs(self, seed: int, rounds: int) -> None:
        rng = np.random.default_rng(seed)
        self.traces = [evolving_trace(rng, self.steps, self.layers) for _ in range(rounds)]
        picker = random.Random(seed)
        self.checked = set(picker.sample(range(rounds), min(self.checked_sweeps, rounds)))
        num_cases = int(np.prod([len(v) for v in self.grid.values()]))
        self.reference_picks = {
            r: sorted(picker.sample(range(num_cases), self.reference_cases)) for r in self.checked
        }
        self.kept: dict[int, Any] = {}
        self.readback: list[tuple[list[float], list[float], int, float]] = []
        self.queue_waits: list[float] = []

    def setup(self, scratch: Path) -> None:
        self.service = EvaluationService(cache=ReportCache(), max_workers=pool_size())

    def teardown(self) -> None:
        self.service.close()

    def operations(self, round_index: int) -> list[Operation]:
        return [lambda: self._sweep(round_index)]

    def _sweep(self, round_index: int) -> None:
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid=self.grid,
            trace=self.traces[round_index],
            baseline=dense_baseline_config(),
            name=f"dse-{round_index}",
        )
        job = self.service.submit_sweep(spec)
        result = job.result(timeout=60.0)
        # Every case's cycles and energy are read from the columnar results;
        # only the chosen design point (fewest cycles) becomes a full report.
        cases = result.case_results()
        cycles, energy = case_totals(cases)
        best = int(np.argmin(cycles))
        chosen = ensure_report(cases[best])
        self.readback.append((cycles, energy, best, chosen.total_cycles))
        self.queue_waits.append(job.queued_seconds)
        if round_index in self.checked:
            self.kept[round_index] = (spec, result)

    def check(self) -> list[str]:
        errors = []
        for index, (cycles, energy, best, chosen_cycles) in enumerate(self.readback):
            values = np.asarray(cycles + energy)
            if not (np.isfinite(values).all() and (values > 0).all()):
                errors.append(f"sweep {index}: non-finite or non-positive cycles/energy")
            if chosen_cycles != cycles[best]:
                errors.append(f"sweep {index}: chosen report's cycles differ from the read-back")
        for round_index, (spec, result) in sorted(self.kept.items()):
            cycles, energy, _, _ = self.readback[round_index]
            errors += checks.check_readback(f"sweep {round_index}", cycles, energy, result.reports)
            configs = [req.config for req in spec.plan()]
            reference = {
                case: AcceleratorSimulator(configs[case], backend="reference").run_trace(
                    spec.trace
                )
                for case in self.reference_picks[round_index]
            }
            errors += checks.check_sweep_cases(f"sweep {round_index}", result.reports, reference)
        return errors

    def layer_metrics(self, tracer: Tracer, operations: int) -> dict[str, float]:
        return {"service.queue_wait_s": float(sum(self.queue_waits))}


# -- remote-fleet ------------------------------------------------------------------------


class _TimedSleep:
    """Stand-in for the ``time`` module inside the client: times every sleep
    taken by the load thread (result polling) and delegates the rest."""

    def __init__(self, tracer: Tracer, load_thread: threading.Thread) -> None:
        self._time = time
        self._tracer = tracer
        self._load_thread = load_thread

    def sleep(self, seconds: float) -> None:
        began = self._time.perf_counter()
        self._time.sleep(seconds)
        if threading.current_thread() is self._load_thread:
            self._tracer.add("client.poll_sleep_s", self._time.perf_counter() - began)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._time, name)


class _CountingJson:
    """Stand-in for the ``json`` module in the HTTP client and server: counts
    the bytes of every body they serialize."""

    def __init__(self, tracer: Tracer) -> None:
        import json

        self._json = json
        self._tracer = tracer

    def dumps(self, obj: Any, *args: Any, **kwargs: Any) -> str:
        text = self._json.dumps(obj, *args, **kwargs)
        self._tracer.count("codec.bytes", len(text))
        return text

    def __getattr__(self, name: str) -> Any:
        return getattr(self._json, name)


class RemoteFleet(Workload):
    """Closed-loop remote simulate jobs, three in four served from the cache."""

    name = "remote-fleet"
    nominal_round_s = 0.09
    steps = 4
    layers = [(32, 32, 8), (32, 32, 8), (32, 32, 8), (32, 32, 8)]
    num_traces = 8
    #: Repeated keys per round: the key just simulated and the two before it.
    repeats = (0, 1, 2)

    def make_inputs(self, seed: int, rounds: int) -> None:
        rng = np.random.default_rng(seed)
        traces = [evolving_trace(rng, self.steps, self.layers) for _ in range(self.num_traces)]
        self.keys: list[tuple[AcceleratorConfig, Any]] = []
        seen = set()
        while len(self.keys) < rounds:
            config = dataclasses.replace(
                sqdm_config(),
                num_dpe=int(rng.integers(1, 3)),
                num_spe=int(rng.integers(1, 5)),
                sparsity_threshold=float(rng.uniform(0.2, 0.8)),
            )
            trace_index = len(self.keys) % self.num_traces
            if (config, trace_index) in seen:
                continue
            seen.add((config, trace_index))
            self.keys.append((config, traces[trace_index]))
        self.received: dict[int, list[Any]] = {}
        self.solo: dict[int, str] | None = None

    def setup(self, scratch: Path) -> None:
        self.store = ArtifactStore(scratch / "artifacts")
        self.service = EvaluationService(
            cache=ReportCache(store=self.store), max_workers=pool_size(), worker_fleet=True
        )
        self.server = start_http_server(self.service)
        self.worker = WorkerRuntime(self.server.endpoint, name="bench-worker")
        self.worker.start()
        self.client = RemoteEvaluationClient(self.server.endpoint)
        self.kernel_calls_at_start = registry_total("repro_kernel_duration_seconds")

    def teardown(self) -> None:
        self.worker.stop(timeout=0)  # ask the puller to stop ...
        self.service.close()  # ... closing the fleet ends its long-poll claim ...
        self.worker.stop()  # ... and wait for it
        self.server.close()
        self.client.close()

    def operations(self, round_index: int) -> list[Operation]:
        keys = [round_index] + [max(0, round_index - back) for back in self.repeats]
        return [lambda key=key: self._job(key) for key in keys]

    def _job(self, key: int) -> None:
        config, trace = self.keys[key]
        report = self.client.submit_spec(SimulateJobSpec(config=config, trace=trace)).result(
            timeout=60.0
        )
        self.received.setdefault(key, []).append(report)

    def check(self) -> list[str]:
        if self.solo is None:
            # Count the run's simulations before the solo ones add to the count.
            self.simulations = int(
                registry_total("repro_kernel_duration_seconds") - self.kernel_calls_at_start
            )
            self.solo = {
                key: codec.dumps(AcceleratorSimulator(config).run_trace(trace))
                for key, (config, trace) in enumerate(self.keys)
                if key in self.received
            }
        errors = checks.check_single_flight(
            "remote-fleet",
            unique_keys=len(self.received),
            simulations=self.simulations,
            misses=self.service.cache.stats.misses,
        )
        solo = self.solo
        received = {
            key: [codec.dumps(report) for report in reports]
            for key, reports in self.received.items()
        }
        errors += checks.check_remote_reports("remote-fleet", received, solo)
        return errors

    def layer_metrics(self, tracer: Tracer, operations: int) -> dict[str, float]:
        return {"client.requests_per_job": tracer.counts["client.requests"] / operations}


# -- tracing ---------------------------------------------------------------------------


def install_tracing(tracer: Tracer, workload: Workload) -> None:
    """Wrap the public functions of every layer in spans and counts.

    All wrappers go in on every workload, so a layer a workload does not load
    reads 0 there.
    """
    # Paper pipeline.
    tracer.wrap(unet.EDMUNet, "forward", "nn.unet_forward")
    tracer.wrap(functional, "conv2d", "nn.conv2d")
    tracer.wrap(functional, "group_norm", "nn.group_norm")
    tracer.wrap(functional, "silu", "nn.activation")
    tracer.wrap(functional, "relu", "nn.activation")
    tracer.wrap(functional, "scaled_dot_product_attention", "nn.attention")
    tracer.wrap_everywhere(dispatch, "apply_weight_format", "quant.weight")
    tracer.wrap_everywhere(dispatch, "apply_activation_format", "quant.activation")
    tracer.wrap_everywhere(sampler, "sample", "diffusion.sample")
    tracer.wrap(fid.FIDEvaluator, "fid", "diffusion.fid")
    tracer.wrap(fid.FIDEvaluator, "set_reference", "diffusion.fid_reference")
    tracer.wrap(pipeline.SQDMPipeline, "relu_unet", "pipeline.relu_adapt")
    tracer.wrap_everywhere(sparsity, "collect_sparsity_trace", "sparsity.trace")

    # Simulator, results and caches.
    def count_entries(args: tuple, kwargs: dict, result: Any) -> None:
        entries = args[0] if args else kwargs["entries"]
        tracer.count(
            "accelerator.kernel.entries",
            sum(len(step) for _, traces in entries for trace in traces for step in trace),
        )

    def count_lookup(args: tuple, kwargs: dict, entry: Any) -> None:
        tracer.count("report_cache.misses" if entry is None else "report_cache.hits")

    tracer.wrap(
        vectorized, "run_config_traces_columnar", "accelerator.kernel", on_return=count_entries
    )
    tracer.wrap(ColumnarReportBatch, "report_at", "columnar.materialize")
    tracer.wrap(ColumnarReportBatch, "report_lists", "columnar.materialize")
    tracer.wrap(ReportCache, "lookup_key", "report_cache.lookup", on_return=count_lookup)
    tracer.wrap(artifacts_module.ArtifactStore, "put", "artifacts.write")
    tracer.wrap(codec, "encode", "codec.encode")
    tracer.wrap(codec, "decode", "codec.decode")

    # Serving: client, HTTP, fleet, worker.
    tracer.patch(client_module, "json", _CountingJson(tracer))
    tracer.patch(http_module, "json", _CountingJson(tracer))
    tracer.patch(client_module, "time", _TimedSleep(tracer, threading.current_thread()))
    original_request = client_module.RemoteEvaluationClient._request

    def request(client: Any, *args: Any, **kwargs: Any) -> Any:
        if client is workload.client:
            tracer.count("client.requests")
        return original_request(client, *args, **kwargs)

    tracer.patch(client_module.RemoteEvaluationClient, "_request", request)
    for method in ("do_GET", "do_POST", "do_DELETE"):
        tracer.wrap(http_module._EvaluationRequestHandler, method, "http.request")
    lease_started: dict[str, float] = {}

    def claimed(args: tuple, kwargs: dict, tasks: Any) -> None:
        # Claims are counted while operations run only: between set-up
        # repetitions, closing the fleet ends the worker's long-poll empty.
        if tracer.operation is None:
            return
        tracer.count("fleet.claims" if tasks else "fleet.empty_claims")
        now = time.perf_counter()
        for task in tasks:
            lease_started[task["id"]] = now

    def completed(args: tuple, kwargs: dict, accepted: Any) -> None:
        task_id = args[2] if len(args) > 2 else kwargs["task_id"]
        began = lease_started.pop(task_id, None)
        if began is not None:
            tracer.add("fleet.lease_s", time.perf_counter() - began)

    tracer.wrap(fleet_module.WorkerFleet, "claim", "fleet.claim", on_return=claimed)
    tracer.wrap(fleet_module.WorkerFleet, "complete", "fleet.complete", on_return=completed)
    tracer.wrap(worker_module, "run_batched", "worker.simulate")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperTables, DseSweep, RemoteFleet)
}
