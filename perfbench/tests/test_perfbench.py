"""Tests of the benchmark itself: its checks reject corrupted results, and its
command prints every metric named in BENCHMARK.json for every workload.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that must read above 0 on each workload (the layer ->
#: end-to-end map in the README); every other one must still be printed.
#: ``fleet.empty_claims`` is not among them: with the worker's 2 s long-poll
#: and a miss every ~90 ms, no claim comes back empty while operations run.
LOADED = {
    "paper-tables": """
        nn.unet_forward.calls nn.unet_forward.self_s nn.conv2d.calls nn.conv2d.self_s
        nn.group_norm.self_s nn.activation.self_s nn.attention.self_s quant.weight.calls
        quant.weight.self_s quant.activation.self_s diffusion.sample.self_s diffusion.fid.self_s
        pipeline.relu_adapt.self_s sparsity.trace.self_s diffusion.fid_reference.self_s
        accelerator.kernel.calls
    """.split(),
    "dse-sweep": """
        accelerator.kernel.calls accelerator.kernel.entries accelerator.kernel.self_s
        columnar.materialize.self_s columnar.reports_materialized service.queue_wait_s
    """.split(),
    "remote-fleet": """
        report_cache.hits report_cache.misses report_cache.lookup.self_s codec.encode.self_s
        codec.decode.self_s codec.bytes client.requests_per_job http.request.self_s
        client.poll_sleep_s fleet.claims fleet.lease_s
        worker.simulate.self_s artifacts.writes artifacts.write.self_s accelerator.kernel.self_s
    """.split(),
}


def scaled(report, factor=1.01):
    """A copy of a simulation report with its total cycles moved by ``factor``."""
    return dataclasses.replace(report, total_cycles=report.total_cycles * factor)


# -- checks reject corrupted results -------------------------------------------------


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """One real round of the paper workload, restricted to one dataset."""
    workload = workloads.PaperTables()
    workload.make_inputs(seed=5, rounds=1)
    workload.workload_names = ["afhqv2"]
    workload.repeat_workload = workload.fig12_workload = "afhqv2"
    workload.setup(tmp_path_factory.mktemp("paper"))
    for operation in workload.operations(0):
        operation()
    yield workload
    workload.teardown()


def test_paper_checks_pass_on_a_real_run(paper):
    assert paper.check() == []


def _swap(table, a, b):
    table[a]["fid"], table[b]["fid"] = table[b]["fid"], table[a]["fid"]


PAPER_CORRUPTIONS = {
    "FP16 drifts from FP32": lambda t: t["FP16"].update(fid=t["FP32"]["fid"] * 1.06),
    "MXINT8 swapped with INT8": lambda t: _swap(t, "MXINT8", "INT8"),
    "INT4-VSQ swapped with INT4": lambda t: _swap(t, "INT4-VSQ", "INT4"),
    "INT4 close to FP32": lambda t: t["INT4"].update(fid=t["FP32"]["fid"] * 2.9),
    "MP-only swapped with INT4-VSQ": lambda t: _swap(t, "Ours (MP-only)", "INT4-VSQ"),
    "MP+ReLU above INT4-VSQ": lambda t: t["Ours (MP+ReLU)"].update(
        fid=t["INT4-VSQ"]["fid"] * 1.01
    ),
    "compute saving too high": lambda t: t["Ours (MP-only)"].update(compute_saving=0.76),
    "memory saving too low": lambda t: t["Ours (MP+ReLU)"].update(memory_saving=0.5),
    "a scheme is missing": lambda t: t.pop("MXINT8"),
}


@pytest.mark.parametrize("corruption", sorted(PAPER_CORRUPTIONS))
def test_paper_table_check_rejects(paper, corruption):
    table = copy.deepcopy(next(iter(paper.tables.values())))
    assert checks.check_paper_table("t", table) == []
    PAPER_CORRUPTIONS[corruption](table)
    assert checks.check_paper_table("t", table)


def test_repeat_check_rejects_a_one_ulp_change():
    fid = 1234.5678
    assert checks.check_repeat("r", fid, fid) == []
    assert checks.check_repeat("r", fid, math.nextafter(fid, math.inf))


@pytest.mark.parametrize("name", ["sqdm", "dense", "fp16"])
def test_fig12_check_rejects_one_percent_cycles(paper, name):
    pipe, trace, hw = next(iter(paper.hardware.values()))
    field = {"sqdm": "sqdm_report", "dense": "dense_baseline_report", "fp16": "fp16_dense_report"}
    key = next(iter(paper.hardware))
    corrupted = dataclasses.replace(hw, **{field[name]: scaled(getattr(hw, field[name]))})
    paper.hardware[key] = (pipe, trace, corrupted)
    try:
        assert paper._check_fig12(key)
    finally:
        paper.hardware[key] = (pipe, trace, hw)


def test_fig12_check_rejects_wrong_cycle_order(paper):
    key = next(iter(paper.hardware))
    pipe, trace, hw = paper.hardware[key]
    swapped = dataclasses.replace(
        hw, sqdm_report=hw.fp16_dense_report, fp16_dense_report=hw.sqdm_report
    )
    assert checks.check_fig12_order("f", checks.fig12_reports(hw)) == []
    assert checks.check_fig12_order("f", checks.fig12_reports(swapped))
    paper.hardware[("another", 0)] = (pipe, trace, swapped)
    try:
        assert any("another" in error for error in paper.check())
    finally:
        del paper.hardware[("another", 0)]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    workload = workloads.DseSweep()
    workload.make_inputs(seed=5, rounds=3)
    workload.setup(tmp_path_factory.mktemp("sweep"))
    for round_index in range(3):
        for operation in workload.operations(round_index):
            operation()
    yield workload
    workload.teardown()


def test_sweep_checks_pass_on_a_real_run(sweep):
    assert sweep.check() == []


def _corrupt_case(sweep, corrupt):
    round_index, (spec, result) = next(iter(sorted(sweep.kept.items())))
    case = sweep.reference_picks[round_index][0]
    reports = result.reports
    original = reports[case]
    reports[case] = corrupt(original)
    try:
        return sweep.check()
    finally:
        reports[case] = original


def test_sweep_check_rejects_one_percent_cycles(sweep):
    assert _corrupt_case(sweep, scaled)


def test_sweep_check_rejects_energy_that_does_not_add_up(sweep):
    def corrupt(report):
        energy = dataclasses.replace(report.total_energy, mac_pj=report.total_energy.mac_pj * 1.01)
        return dataclasses.replace(report, total_energy=energy)

    assert _corrupt_case(sweep, corrupt)


def _corrupt_readback(sweep, index, corrupt):
    original = sweep.readback[index]
    sweep.readback[index] = corrupt(*original)
    try:
        return sweep.check()
    finally:
        sweep.readback[index] = original


def test_sweep_check_rejects_a_non_finite_readback(sweep):
    def corrupt(cycles, energy, best, chosen):
        return [math.nan] + cycles[1:], energy, best, chosen

    assert _corrupt_readback(sweep, 0, corrupt)


def test_sweep_check_rejects_a_read_back_cycle_count_off_by_one_percent(sweep):
    kept = min(sweep.kept)

    def corrupt(cycles, energy, best, chosen):
        moved = list(cycles)
        case = (best + 1) % len(moved)
        moved[case] *= 1.01
        return moved, energy, best, chosen

    assert _corrupt_readback(sweep, kept, corrupt)


def test_sweep_check_rejects_a_chosen_report_that_differs(sweep):
    assert _corrupt_readback(
        sweep, 0, lambda cycles, energy, best, chosen: (cycles, energy, best, chosen * 1.01)
    )


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    workload = workloads.RemoteFleet()
    workload.make_inputs(seed=5, rounds=4)
    workload.setup(tmp_path_factory.mktemp("fleet"))
    try:
        for round_index in range(4):
            for operation in workload.operations(round_index):
                operation()
        yield workload
    finally:
        workload.teardown()


def test_fleet_checks_pass_on_a_real_run(fleet):
    assert fleet.check() == []


def test_fleet_check_rejects_one_percent_cycles(fleet):
    key = next(iter(fleet.received))
    original = fleet.received[key][-1]
    fleet.received[key][-1] = scaled(original)
    try:
        assert fleet.check()
    finally:
        fleet.received[key][-1] = original


def test_single_flight_check_rejects_an_extra_simulation():
    assert checks.check_single_flight("s", unique_keys=4, simulations=4, misses=4) == []
    assert checks.check_single_flight("s", unique_keys=4, simulations=5, misses=4)
    assert checks.check_single_flight("s", unique_keys=4, simulations=4, misses=5)


# -- the command's output ------------------------------------------------------------


def run_command(
    cwd: Path, workload: str, trace: int, seconds: float = 1
) -> subprocess.CompletedProcess:
    command = SPEC["command"] + ["--workload", workload, "--seed", "3"]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed(workload, trace):
    completed = run_command(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"]) and printed["value"] >= 0, metric["name"]
        if not trace or metric["name"] in LOADED[workload]:
            assert printed["value"] > 0, metric["name"]


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_command(tmp_path, WORKLOAD_NAMES[0], trace=0)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
