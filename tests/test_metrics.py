from dataclasses import replace

import numpy as np
import pytest

from twinslice.domain import ResourceGrid
from twinslice.metrics import (
    CSV_COLUMNS,
    SlotMetrics,
    export_csv,
    outage_cdf,
    outage_event,
    spectral_efficiency,
    summarize_run,
    window_outage_rates,
)


def test_spectral_efficiency_unit_sanity():
    # 2.2e6 bits over 1 s in 1 MHz -> 2.2 bits/s/Hz
    grid = ResourceGrid(10, 1e5)
    assert spectral_efficiency([2.2e6], grid, 1.0) == pytest.approx(2.2)


def test_spectral_efficiency_zero_rates():
    assert spectral_efficiency([0.0, 0.0], ResourceGrid(4, 1e5), 1e-3) == 0.0


def test_spectral_efficiency_linearity():
    grid = ResourceGrid(8, 1e5)
    rates = [100.0, 250.0, 3.5]
    assert spectral_efficiency([2 * r for r in rates], grid, 1e-3) == pytest.approx(
        2 * spectral_efficiency(rates, grid, 1e-3)
    )


def test_outage_boundary_counts_as_outage():
    assert outage_event(25_600.0, 256, 100.0) is True
    assert outage_event(25_601.0, 256, 100.0) is False


def test_outage_degenerate_lambda():
    assert outage_event(1.0, 256, 0.0) is False
    assert outage_event(0.0, 256, 0.0) is True


def test_outage_requires_positive_packet():
    with pytest.raises(ValueError):
        outage_event(1.0, 0, 1.0)


def test_window_rates_drop_partial_tail():
    outages = [True, False, False, False, True, True, False]
    assert window_outage_rates(outages, 2) == [0.5, 0.0, 1.0]


def test_cdf_all_zero_windows():
    cdf = outage_cdf([0.0, 0.0, 0.0], eps_max=0.07)
    assert cdf.values == (0.0,)
    assert cdf.cumulative == (1.0,)
    assert cdf.exceedance_mass == 0.0


def test_cdf_exceedance_counting():
    cdf = outage_cdf([0.0, 0.1], eps_max=0.07)
    assert cdf.exceedance_mass == pytest.approx(0.5)


def test_cdf_is_monotone_and_ends_at_one():
    rng = np.random.default_rng(0)
    rates = rng.uniform(0, 1, size=200)
    cdf = outage_cdf(rates, eps_max=0.07)
    assert all(b >= a for a, b in zip(cdf.cumulative, cdf.cumulative[1:]))
    assert cdf.cumulative[-1] == pytest.approx(1.0)
    assert cdf.values == tuple(sorted(cdf.values))


def test_cdf_rejects_bad_input():
    with pytest.raises(ValueError):
        outage_cdf([], eps_max=0.07)
    with pytest.raises(ValueError):
        outage_cdf([1.5], eps_max=0.07)


def _slots(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for t in range(n):
        r_u = float(rng.uniform(0, 60_000))
        lam = float(rng.choice([100.0, 150.0]))
        out.append(
            SlotMetrics(
                t=t,
                sum_rate_embb=float(rng.uniform(0, 1e5)),
                sum_rate_urllc=r_u,
                spectral_efficiency=float(rng.uniform(0, 4)),
                outage=outage_event(r_u, 256, lam),
                lambda_t=lam,
            )
        )
    return out


def test_summary_mean_se_matches_per_slot_mean():
    slots = _slots(250)
    summary = summarize_run(slots, "orthogonal", 1, "abc", window=50, eps_max=0.07)
    assert summary.mean_spectral_efficiency == pytest.approx(
        np.mean([s.spectral_efficiency for s in slots]), abs=1e-12
    )


@pytest.mark.parametrize(
    "column,value",
    [
        # NaN passes SlotMetrics' sign check: inf / inf bits per Hz
        ("spectral_efficiency", float("nan")),
        ("sum_rate_embb", float("inf")),
        ("sum_rate_urllc", float("inf")),
    ],
)
def test_summary_rejects_a_non_finite_column_mean(column, value):
    slots = _slots(10)
    slots[4] = replace(slots[4], **{column: value})
    with pytest.raises(FloatingPointError, match=f"non-finite mean {column}"):
        summarize_run(slots, "orthogonal", 1, "abc", window=5, eps_max=0.07)


def test_export_csv_shape_and_consistency(tmp_path):
    slots = _slots(3)
    summary = summarize_run(slots, "oracle", 7, "deadbeef", window=1, eps_max=0.07)
    csv_path, summary_path = export_csv(slots, summary, tmp_path / "run.csv")

    lines = open(csv_path).read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3
    assert all(len(l.split(",")) == len(CSV_COLUMNS) for l in lines)

    # outage flag must be recomputable from the logged row
    for row in lines[1:]:
        parts = dict(zip(CSV_COLUMNS, row.split(",")))
        recomputed = outage_event(
            float(parts["sum_rate_urllc"]), 256, float(parts["lambda_t"])
        )
        assert parts["outage"] == ("1" if recomputed else "0")

    kv = dict(
        line.split("=", 1) for line in open(summary_path).read().splitlines()
    )
    assert kv["policy_id"] == "oracle"
    assert kv["seed"] == "7"
    assert kv["scenario_hash"] == "deadbeef"


def test_export_csv_is_byte_deterministic(tmp_path):
    slots = _slots(20, seed=3)
    summary = summarize_run(slots, "dnn", 2, "cafe", window=5, eps_max=0.07)
    p1, _ = export_csv(slots, summary, tmp_path / "a.csv")
    p2, _ = export_csv(slots, summary, tmp_path / "b.csv")
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_slot_metrics_rejects_negative_se():
    with pytest.raises(ValueError):
        SlotMetrics(0, 0.0, 0.0, -1.0, False, 0.0)


def test_spectral_efficiency_rejects_zero_bandwidth():
    grid = ResourceGrid.__new__(ResourceGrid)  # bypass init to fake zero bw
    object.__setattr__(grid, "num_rbs", 0)
    object.__setattr__(grid, "rb_bandwidth", 0.0)
    with pytest.raises(ValueError):
        spectral_efficiency([1.0], grid, 1.0)
