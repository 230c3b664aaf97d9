"""Evaluation quantities: downlink spectral efficiency and URLLC outage.

A run's per-slot records are columns (``RunRecords``), which aggregate into
a run summary with an empirical CDF of per-window outage rates. CSV export
uses fixed column order and fixed decimal formatting so identical runs
produce byte-identical files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .domain import ResourceGrid

CSV_COLUMNS = (
    "t", "policy_id", "seed", "lambda_t", "sum_rate_embb", "sum_rate_urllc",
    "spectral_efficiency", "outage",
)


@dataclass(frozen=True)
class SlotMetrics:
    """One slot of a run: a row of its ``RunRecords``."""

    t: int
    sum_rate_embb: float  # bits/slot
    sum_rate_urllc: float  # R_u(t), bits/slot
    spectral_efficiency: float  # bits/s/Hz
    outage: bool
    lambda_t: float


class RunRecords(NamedTuple):
    """A run's per-slot records as columns, the fields of ``SlotMetrics``
    in its order: entry k of each is slot ``t[k]``. The runner's columns
    are rows of its ``[R, T]`` arrays, contiguous per run."""

    t: np.ndarray  # int
    sum_rate_embb: np.ndarray  # float64
    sum_rate_urllc: np.ndarray  # float64
    spectral_efficiency: np.ndarray  # float64
    outage: np.ndarray  # bool
    lambda_t: np.ndarray  # float64

    @classmethod
    def of(cls, slots: Union[Sequence[SlotMetrics], "RunRecords"]) -> "RunRecords":
        """The columns of a list of records; columns are returned as given."""
        if isinstance(slots, RunRecords):
            return slots
        dtypes = zip(cls._fields, (int, float, float, float, bool, float))
        return cls(*(np.array([getattr(s, f) for s in slots], d) for f, d in dtypes))

    def slots(self) -> list[SlotMetrics]:
        """The records as ``SlotMetrics`` with Python fields, one per slot."""
        return [SlotMetrics(*row) for row in zip(*(column.tolist() for column in self))]


def spectral_efficiency(
    rates: Iterable[float], grid: ResourceGrid, slot_duration: float
) -> float:
    """Delivered bits/slot summed over users, as bits/s/Hz of system bandwidth;
    given arrays, of every entry, in the same operand order."""
    bw = grid.system_bandwidth
    if not bw > 0:
        raise ValueError("system bandwidth must be > 0")
    total = 0.0
    for r in rates:
        total += r
    return total / slot_duration / bw


def outage_event(r_u: float, packet_bits: float, lam_t: float) -> bool:
    """True when the URLLC sum rate fails to clear the offered load; given
    arrays, for every entry.

    The boundary counts as outage: the contract is on R_u <= zeta * lambda,
    inclusive.
    """
    if not packet_bits > 0:
        raise ValueError("packet_bits must be > 0")
    return r_u <= packet_bits * lam_t


@dataclass(frozen=True)
class OutageCdf:
    """Empirical CDF of per-window outage rates."""

    values: tuple[float, ...]  # sorted unique outage rates
    cumulative: tuple[float, ...]  # P(rate <= value), ends at 1
    exceedance_mass: float  # fraction of windows with rate > eps_max

    def __post_init__(self):
        if any(b < a for a, b in zip(self.cumulative, self.cumulative[1:])):
            raise ValueError("CDF must be nondecreasing")
        if self.cumulative and not math.isclose(self.cumulative[-1], 1.0):
            raise ValueError("CDF must end at 1")


def window_outage_rates(outages: Sequence[bool], window: int) -> list[float]:
    """Per-window outage probability estimates; trailing partial window dropped."""
    if window < 1:
        raise ValueError("window must be >= 1")
    n_windows = len(outages) // window
    return [float(np.mean(outages[w * window : (w + 1) * window])) for w in range(n_windows)]


def outage_cdf(window_rates: Sequence[float], eps_max: float) -> OutageCdf:
    if len(window_rates) == 0:
        raise ValueError("need at least one window")
    arr = np.asarray(window_rates, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("outage rates must lie in [0, 1]")
    values, counts = np.unique(arr, return_counts=True)
    cumulative = np.cumsum(counts) / arr.size
    exceedance = float(np.mean(arr > eps_max))
    return OutageCdf(tuple(values.tolist()), tuple(cumulative.tolist()), exceedance)


@dataclass(frozen=True)
class RunSummary:
    policy_id: str
    seed: int
    scenario_hash: str
    n_slots: int
    window: int
    mean_spectral_efficiency: float
    outage_probability: float  # per-slot empirical rate
    cdf: OutageCdf
    mean_lambda: float


def summarize_run(
    slots: Union[Sequence[SlotMetrics], RunRecords], policy_id: str, seed: int,
    scenario_hash: str, window: int, eps_max: float,
) -> RunSummary:
    """Aggregate a run's slots. Raises ``ValueError`` when a slot's spectral
    efficiency is negative, and ``FloatingPointError`` when the mean of a
    per-slot column is not finite, so such a run writes no file."""
    records = RunRecords.of(slots)
    if not records.t.size:
        raise ValueError("cannot summarize an empty run")
    if np.any(records.spectral_efficiency < 0):
        raise ValueError("spectral_efficiency must be >= 0")
    means = {
        name: float(np.mean(getattr(records, name)))
        for name in ("spectral_efficiency", "sum_rate_embb", "sum_rate_urllc", "lambda_t")
    }
    bad = [f"{name}={m}" for name, m in means.items() if not math.isfinite(m)]
    if bad:
        raise FloatingPointError(
            f"{policy_id} run (seed {seed}) has non-finite mean {', '.join(bad)}"
        )
    outage = float(np.mean(records.outage))
    # a run shorter than one window is one window
    rates = window_outage_rates(records.outage, window) or [outage]
    return RunSummary(
        policy_id=policy_id, seed=seed, scenario_hash=scenario_hash,
        n_slots=records.t.size, window=window,
        mean_spectral_efficiency=means["spectral_efficiency"], outage_probability=outage,
        cdf=outage_cdf(rates, eps_max), mean_lambda=means["lambda_t"],
    )


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def export_csv(
    slots: Union[Sequence[SlotMetrics], RunRecords], summary: RunSummary, path
) -> tuple[str, str]:
    """Write the per-slot CSV and a key=value summary beside it.

    Returns (csv_path, summary_path). Formatting is pinned to nine decimal
    places; rerunning the same seed reproduces both files byte for byte.
    Each row is one ``%`` format: ``%.9f`` gives the digits ``_fmt`` does.
    """
    csv_path = str(path)
    summary_path = csv_path + ".summary"
    r = RunRecords.of(slots)
    policy_id = summary.policy_id.replace("%", "%%")
    row = f"%d,{policy_id},{summary.seed},%.9f,%.9f,%.9f,%.9f,%d"
    columns = (
        r.t, r.lambda_t, r.sum_rate_embb, r.sum_rate_urllc, r.spectral_efficiency, r.outage
    )
    lines = [",".join(CSV_COLUMNS)]
    lines += map(row.__mod__, zip(*(c.tolist() for c in columns)))
    with open(csv_path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")

    s_lines = [
        f"policy_id={summary.policy_id}",
        f"seed={summary.seed}",
        f"scenario_hash={summary.scenario_hash}",
        f"n_slots={summary.n_slots}",
        f"window={summary.window}",
        f"mean_lambda={_fmt(summary.mean_lambda)}",
        f"mean_spectral_efficiency={_fmt(summary.mean_spectral_efficiency)}",
        f"outage_probability={_fmt(summary.outage_probability)}",
        f"exceedance_mass={_fmt(summary.cdf.exceedance_mass)}",
        "cdf_values=" + ";".join(_fmt(v) for v in summary.cdf.values),
        "cdf_cumulative=" + ";".join(_fmt(c) for c in summary.cdf.cumulative),
    ]
    with open(summary_path, "w", newline="\n") as f:
        f.write("\n".join(s_lines) + "\n")
    return csv_path, summary_path
