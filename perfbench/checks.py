"""Correctness checks for the benchmark's outputs.

Every check compares against a separate computation (the reference
simulation backend, a solo in-process simulation, a repeated evaluation) or
a property the method must have.  None compares against saved numbers: the
4-bit FIDs move by about 10% under round-off changes, so only the paper's
qualitative claims are asserted on them.  Each function returns a list of
error strings, empty when the result passes.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

#: Table I formats and Table II schemes, in the paper's row order.
TABLE1_FORMATS = ("FP32", "FP16", "INT8", "MXINT8", "INT4", "INT4-VSQ")
MIXED_SCHEMES = ("Ours (MP-only)", "Ours (MP+ReLU)")

#: Fields of ``EnergyBreakdown`` whose sum is the total energy.
ENERGY_COMPONENTS = (
    "mac_pj",
    "local_buffer_pj",
    "global_buffer_pj",
    "dram_pj",
    "noc_pj",
    "detector_pj",
    "idle_pj",
)

REFERENCE_RTOL = 1e-9


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)


def report_mismatches(report: Any, expected: Any, rtol: float = REFERENCE_RTOL) -> list[str]:
    """Where two simulation reports differ beyond ``rtol``: total cycles,
    every energy component, and every step's cycles and energy."""
    errors = []
    if not _close(report.total_cycles, expected.total_cycles, rtol):
        errors.append(f"total_cycles {report.total_cycles!r} != {expected.total_cycles!r}")
    for name in ENERGY_COMPONENTS:
        got, want = getattr(report.total_energy, name), getattr(expected.total_energy, name)
        if not _close(got, want, rtol):
            errors.append(f"energy.{name} {got!r} != {want!r}")
    if len(report.step_results) != len(expected.step_results):
        errors.append(f"{len(report.step_results)} steps != {len(expected.step_results)} steps")
        return errors
    for index, (step, want) in enumerate(zip(report.step_results, expected.step_results)):
        if not _close(step.cycles, want.cycles, rtol):
            errors.append(f"step {index} cycles {step.cycles!r} != {want.cycles!r}")
        if not _close(step.energy.total_pj, want.energy.total_pj, rtol):
            errors.append(
                f"step {index} energy {step.energy.total_pj!r} != {want.energy.total_pj!r}"
            )
    return errors


def energy_sum_mismatches(report: Any, rtol: float = REFERENCE_RTOL) -> list[str]:
    """Per-step cycles and energy components must add up to the report's totals."""
    errors = []
    cycles = sum(step.cycles for step in report.step_results)
    if not _close(cycles, report.total_cycles, rtol):
        errors.append(f"step cycles sum {cycles!r} != total {report.total_cycles!r}")
    for name in ENERGY_COMPONENTS:
        summed = sum(getattr(step.energy, name) for step in report.step_results)
        total = getattr(report.total_energy, name)
        if not _close(summed, total, rtol):
            errors.append(f"step {name} sum {summed!r} != total {total!r}")
    return errors


# -- paper-tables ----------------------------------------------------------------------


def check_paper_table(label: str, table: Mapping[str, Mapping[str, float]]) -> list[str]:
    """Table I/II claims for one (workload, sampling seed).

    ``table`` maps each scheme to ``{"fid", "compute_saving", "memory_saving"}``.
    """
    fid = {scheme: row["fid"] for scheme, row in table.items()}
    missing = [s for s in TABLE1_FORMATS + MIXED_SCHEMES if s not in fid]
    if missing:
        return [f"{label}: missing schemes {missing}"]
    errors = []
    if not abs(fid["FP16"] - fid["FP32"]) <= 0.05 * fid["FP32"]:
        errors.append(
            f"{label}: FP16 FID {fid['FP16']:.6g} not within 5% of FP32 {fid['FP32']:.6g}"
        )
    if not fid["MXINT8"] < fid["INT8"]:
        errors.append(f"{label}: MXINT8 FID {fid['MXINT8']:.6g} >= INT8 {fid['INT8']:.6g}")
    if not fid["INT4-VSQ"] < fid["INT4"]:
        errors.append(f"{label}: INT4-VSQ FID {fid['INT4-VSQ']:.6g} >= INT4 {fid['INT4']:.6g}")
    if not fid["INT4"] > 3.0 * fid["FP32"]:
        errors.append(f"{label}: INT4 FID {fid['INT4']:.6g} <= 3x FP32 {fid['FP32']:.6g}")
    for scheme in MIXED_SCHEMES:
        row = table[scheme]
        if not row["fid"] < fid["INT4-VSQ"]:
            errors.append(
                f"{label}: {scheme} FID {row['fid']:.6g} >= INT4-VSQ {fid['INT4-VSQ']:.6g}"
            )
        for saving in ("compute_saving", "memory_saving"):
            if not 0.5 < row[saving] <= 0.75:
                errors.append(f"{label}: {scheme} {saving} {row[saving]:.6g} outside (0.5, 0.75]")
    return errors


def check_repeat(label: str, first: float, second: float) -> list[str]:
    """A repeated evaluation in the same process must give a bitwise-equal FID."""
    if first.hex() != second.hex():
        return [f"{label}: repeated FID {second!r} != first {first!r}"]
    return []


def fig12_reports(evaluation: Any) -> dict[str, Any]:
    """The three reports of a Fig. 12 hardware evaluation, by short name."""
    return {
        "sqdm": evaluation.sqdm_report,
        "dense": evaluation.dense_baseline_report,
        "fp16": evaluation.fp16_dense_report,
    }


def check_fig12(label: str, reports: Mapping[str, Any], reference: Mapping[str, Any]) -> list[str]:
    """Fig. 12 reports equal the reference backend's.

    Both mappings hold the ``"sqdm"``, ``"dense"`` and ``"fp16"`` reports.
    """
    errors = []
    for name in ("sqdm", "dense", "fp16"):
        mismatches = report_mismatches(reports[name], reference[name])
        errors += [f"{label} {name}: {e}" for e in mismatches]
    return errors


def check_fig12_order(label: str, reports: Mapping[str, Any]) -> list[str]:
    """Fig. 12's speed-up ordering: SQ-DM cycles < dense cycles < FP16 cycles."""
    sqdm, dense, fp16 = (reports[name].total_cycles for name in ("sqdm", "dense", "fp16"))
    if not sqdm < dense < fp16:
        return [f"{label}: cycles not SQ-DM {sqdm!r} < dense {dense!r} < FP16 {fp16!r}"]
    return []


# -- dse-sweep ---------------------------------------------------------------------------


def check_sweep_cases(
    label: str, reports: Iterable[Any], reference: Mapping[int, Any]
) -> list[str]:
    """Every case's energy adds up; sampled cases equal the reference backend.

    ``reference`` maps case indices to the reference backend's report.
    """
    errors = []
    for index, report in enumerate(reports):
        errors += [f"{label} case {index}: {e}" for e in energy_sum_mismatches(report)]
        if index in reference:
            errors += [
                f"{label} case {index} vs reference: {e}"
                for e in report_mismatches(report, reference[index])
            ]
    return errors


def check_readback(
    label: str, cycles: list[float], energy: list[float], reports: Iterable[Any]
) -> list[str]:
    """Cycles and energy read from columnar results equal the full reports'."""
    errors = []
    for index, (got_cycles, got_energy, report) in enumerate(zip(cycles, energy, reports)):
        if got_cycles != report.total_cycles:
            errors.append(f"{label} case {index}: read-back cycles {got_cycles!r} != report")
        if not _close(got_energy, report.total_energy.total_pj, REFERENCE_RTOL):
            errors.append(f"{label} case {index}: read-back energy {got_energy!r} != report")
    return errors


# -- remote-fleet ------------------------------------------------------------------------


def check_remote_reports(
    label: str, received: Mapping[Any, list[str]], solo: Mapping[Any, str]
) -> list[str]:
    """Every report decoded over HTTP is byte-identical to a solo simulation.

    Both mappings are keyed by job key; values are canonical encodings.
    """
    errors = []
    for key, encodings in received.items():
        for encoding in encodings:
            if encoding != solo[key]:
                errors.append(f"{label}: report for key {key!r} differs from a solo simulation")
                break
    return errors


def check_single_flight(label: str, unique_keys: int, simulations: int, misses: int) -> list[str]:
    """Exactly one simulation (and one cache miss) per unique key."""
    errors = []
    if simulations != unique_keys:
        errors.append(f"{label}: {simulations} simulations for {unique_keys} unique keys")
    if misses != unique_keys:
        errors.append(f"{label}: {misses} cache misses for {unique_keys} unique keys")
    return errors
