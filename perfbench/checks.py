"""Checks of the program's outputs, recomputed without the program's code.

File checks read the CSV, ``.summary``, ``.twin.csv`` and ``comparison.csv``
files a sweep writes. Slot checks take the allocation, channel and queues
of one slot and re-derive what the policy and the physical layer promise.
Every check appends a message to a ``Failures`` list instead of raising, so
that one run reports all it finds.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

CSV_HEADER = "t,policy_id,seed,lambda_t,sum_rate_embb,sum_rate_urllc,spectral_efficiency,outage"
COMPARISON_HEADER = "policy_id,lambda,mean_spectral_efficiency,outage_probability,exceedance_mass"
TWIN_HEADER = "t,captured_at,delivered_at,staleness,stale_underflow"
#: Allowed relative error between two sums of the same rates taken in a
#: different order or with a different log2 implementation.
RATE_RTOL = 1e-12


class Failures:
    """Collected check failures; falsy while nothing has failed."""

    def __init__(self):
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.messages.append(message)
        return ok

    def __bool__(self) -> bool:
        return bool(self.messages)

    def __len__(self) -> int:
        return len(self.messages)


def fmt(x: float) -> str:
    return f"{x:.9f}"


def lam_tag(lam: float) -> str:
    return f"{lam:g}"


def close(a: float, b: float, rtol: float = RATE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- files -------------------------------------------------------------------


def parse_run_csv(text: str) -> list[tuple]:
    """Rows of a run CSV as (t, policy, seed, lam, embb, urllc, se, outage)."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        f = line.split(",")
        if len(f) != 8 or f[7] not in ("0", "1"):
            raise ValueError(f"line {n} is malformed: {line!r}")
        rows.append(
            (int(f[0]), f[1], int(f[2]), float(f[3]), float(f[4]), float(f[5]),
             float(f[6]), f[7] == "1")
        )
    return rows


def parse_summary(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if line)


def check_run_files(
    fails: Failures,
    name: str,
    csv_text: str,
    summary_text: str,
    *,
    policy_id: str,
    lam: float,
    horizon: int,
    packet_bits: int,
    eps_max: float,
) -> dict[str, str]:
    """Check one run's CSV rows and recompute its summary from them.

    Returns the parsed summary (empty when the CSV cannot be read).
    """
    try:
        rows = parse_run_csv(csv_text)
    except ValueError as exc:
        fails.expect(False, f"{name}: {exc}")
        return {}
    summary = parse_summary(summary_text)
    fails.expect(len(rows) == horizon, f"{name}: {len(rows)} rows, want {horizon}")
    bad_outage = 0
    for i, (t, pid, seed, lam_t, embb, urllc, se, outage) in enumerate(rows):
        fails.expect(t == i, f"{name}: row {i} has t={t}")
        fails.expect(pid == policy_id, f"{name}: row {i} policy {pid!r}")
        fails.expect(str(seed) == summary.get("seed"), f"{name}: row {i} seed {seed}")
        fails.expect(lam_t == lam, f"{name}: row {i} lambda_t {lam_t}")
        fails.expect(embb >= 0 and urllc >= 0 and se >= 0, f"{name}: row {i} negative rate")
        load = packet_bits * lam_t
        # The file holds nine decimals: a rate within their rounding of the
        # load cannot be classified from the file and is not counted.
        if abs(urllc - load) > 1e-9 * max(1.0, load) and outage != (urllc <= load):
            bad_outage += 1
    fails.expect(bad_outage == 0, f"{name}: {bad_outage} rows with a wrong outage bit")

    outages = [r[7] for r in rows]
    n = len(outages)
    if n == 0:
        return summary
    window = int(summary.get("window", "0") or 0)
    if window < 1:
        fails.expect(False, f"{name}: summary window {summary.get('window')!r}")
        return summary
    rates = [sum(outages[w * window:(w + 1) * window]) / window for w in range(n // window)]
    if not rates:
        rates = [sum(outages) / n]
    values = sorted(set(rates))
    cumulative = [sum(r <= v for r in rates) / len(rates) for v in values]
    want = {
        "policy_id": policy_id,
        "n_slots": str(n),
        "mean_lambda": fmt(lam),
        "outage_probability": fmt(sum(outages) / n),
        "exceedance_mass": fmt(sum(r > eps_max for r in rates) / len(rates)),
        "cdf_values": ";".join(fmt(v) for v in values),
        "cdf_cumulative": ";".join(fmt(c) for c in cumulative),
    }
    for key, value in want.items():
        fails.expect(
            summary.get(key) == value,
            f"{name}: summary {key}={summary.get(key)!r}, recomputed {value!r}",
        )
    mean_se = math.fsum(r[6] for r in rows) / n
    got_se = float(summary.get("mean_spectral_efficiency", "nan"))
    # Each CSV value is rounded to 1e-9 and so is the summary.
    fails.expect(
        abs(got_se - mean_se) <= 2e-9,
        f"{name}: mean_spectral_efficiency {got_se} vs {mean_se} from the rows",
    )
    return summary


def check_comparison(
    fails: Failures, text: str, expected: list[tuple[str, float, dict[str, str]]]
) -> None:
    """comparison.csv must list each run's summary values in run order."""
    lines = text.splitlines()
    want = [COMPARISON_HEADER] + [
        ",".join((
            pid, lam_tag(lam), s.get("mean_spectral_efficiency", "?"),
            s.get("outage_probability", "?"), s.get("exceedance_mass", "?"),
        ))
        for pid, lam, s in expected
    ]
    fails.expect(lines == want, f"comparison.csv disagrees with the summaries: {lines[:3]}")


def expected_staleness(t: int, delay_slots: int) -> int:
    """With cadence 1, the twin is ``delay_slots`` behind once it has that
    much history; before that it serves the first recorded slot."""
    return min(t, delay_slots)


def check_twin_log(
    fails: Failures, name: str, text: str, delay_slots: int, horizon: int
) -> None:
    lines = text.splitlines()
    if not fails.expect(lines[:1] == [TWIN_HEADER], f"{name}: bad twin header"):
        return
    fails.expect(len(lines) == horizon + 1, f"{name}: {len(lines) - 1} twin rows")
    bad = 0
    for i, line in enumerate(lines[1:]):
        t, captured, delivered, stale, underflow = (int(v) for v in line.split(","))
        want = expected_staleness(i, delay_slots)
        if not (t == i and delivered == t and stale == want
                and captured == t - stale and underflow == int(t < delay_slots)):
            bad += 1
    fails.expect(bad == 0, f"{name}: {bad} twin rows with unexpected staleness")


# -- training ----------------------------------------------------------------


def argmax_labels(weights, biases, output_shape, X: np.ndarray) -> np.ndarray:
    """Per-block argmax user of a ReLU MLP, written out independently."""
    a = X
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if i < len(weights) - 1:
            a = np.maximum(a, 0.0)
    return np.argmax(a.reshape(X.shape[0], *output_shape), axis=2)


def check_training(
    fails: Failures, loss_curve, weights, biases, output_shape, X, labels, n_users
) -> float:
    """Losses finite and falling, and better than chance on the labels.

    Returns the training-label accuracy.
    """
    losses = [loss for _, _, loss in loss_curve]
    fails.expect(all(math.isfinite(v) for v in losses), "training: non-finite loss")
    last_epoch = loss_curve[-1][1]
    last = [loss for _, e, loss in loss_curve if e == last_epoch]
    fails.expect(
        sum(last) / len(last) < losses[0],
        f"training: last epoch mean {sum(last) / len(last):.4f} >= step-0 {losses[0]:.4f}",
    )
    acc = float(np.mean(argmax_labels(weights, biases, output_shape, X) == labels))
    fails.expect(acc > 1.0 / n_users, f"training: accuracy {acc:.4f} <= 1/{n_users}")
    return acc


# -- one slot ----------------------------------------------------------------


class SlotModel:
    """What the checks need to know about the users and the grid."""

    def __init__(self, user_ids, is_urllc, bw, tau, packet_bits, embb_min_rate):
        self.user_ids = tuple(user_ids)
        self.is_urllc = tuple(is_urllc)
        self.bw = bw
        self.tau = tau
        self.packet_bits = packet_bits
        self.min_rate_bits = embb_min_rate * tau
        self.row = {uid: i for i, uid in enumerate(self.user_ids)}
        self.urllc_ids = {u for u, q in zip(self.user_ids, is_urllc) if q}

    def user_rates(self, assignment, snr) -> dict[int, float]:
        """bw*tau*log2(1+snr) summed exactly (fsum) over each user's blocks."""
        parts: dict[int, list[float]] = {uid: [] for uid in self.user_ids}
        for b, uid in enumerate(assignment):
            if uid in parts:
                parts[uid].append(self.bw * self.tau * math.log2(1.0 + snr[self.row[uid], b]))
        return {uid: math.fsum(p) for uid, p in parts.items()}

    def penalty_weight(self, snr) -> float:
        """The objective's documented weight: 10 x the largest per-block rate,
        evaluated with numpy's log2 as the objective's contract specifies."""
        return 10.0 * float(np.max(self.bw * self.tau * np.log2(1.0 + snr)))

    def objective(self, assignment, snr, lam, pw) -> float:
        """Plain-loop objective in (user, block) order, left to right."""
        load = self.packet_bits * lam
        total = urllc = embb_deficit = 0.0
        for uid, urllc_user in zip(self.user_ids, self.is_urllc):
            row = snr[self.row[uid]]
            r = 0.0
            for b, owner in enumerate(assignment):
                if owner == uid:
                    r += self.bw * math.log2(1.0 + row[b]) * self.tau
            total += r
            if urllc_user:
                urllc += r
            else:
                embb_deficit += max(0.0, self.min_rate_bits - r)
        return total - pw * max(0.0, load - urllc) - pw * embb_deficit

    def enumerate_best(self, snr, lam, n_blocks) -> tuple[float, tuple[int, ...]]:
        """Best objective over every assignment; first argmax in
        lexicographic (block, user id) order."""
        pw = self.penalty_weight(snr)
        best, best_a = -math.inf, ()
        for a in itertools.product(self.user_ids, repeat=n_blocks):
            obj = self.objective(a, snr, lam, pw)
            if obj > best:
                best, best_a = obj, a
        return best, best_a


def check_orthogonal(fails: Failures, where: str, model: SlotModel, assignment, split: int):
    """Blocks below the split go to URLLC users, the rest to eMBB users, and
    each partition is shared within one block between its users."""
    for blocks, want_urllc in ((assignment[:split], True), (assignment[split:], False)):
        if not fails.expect(
            all((uid in model.urllc_ids) == want_urllc for uid in blocks),
            f"{where}: orthogonal block outside its partition: {assignment}",
        ):
            return
        members = [u for u, q in zip(model.user_ids, model.is_urllc) if q == want_urllc]
        counts = [blocks.count(u) for u in members]
        if counts:
            fails.expect(max(counts) - min(counts) <= 1,
                         f"{where}: orthogonal partition unbalanced: {counts}")


def check_repair(
    fails: Failures, where: str, model: SlotModel, before, after, snr, lam, unmet: bool
):
    """Repair moves only eMBB-held blocks, to URLLC users, and stops when the
    predicted URLLC rate covers the load or no eMBB block is left."""
    for b, (old, new) in enumerate(zip(before, after)):
        if old != new:
            fails.expect(
                old not in model.urllc_ids and new in model.urllc_ids,
                f"{where}: repair moved block {b} from {old} to {new}",
            )
    rates = model.user_rates(after, snr)
    predicted = math.fsum(rates[u] for u in model.urllc_ids)
    load = model.packet_bits * lam
    if unmet:
        fails.expect(
            all(uid in model.urllc_ids for uid in after),
            f"{where}: repair gave up with eMBB blocks left",
        )
    else:
        fails.expect(
            predicted >= load or close(predicted, load),
            f"{where}: repaired URLLC rate {predicted} below load {load}",
        )


def check_physics(
    fails: Failures, where: str, model: SlotModel, assignment, snr, outcome,
    queue_before, queue_after, urllc_order
):
    """Realised rates, served bits and queue bits of one slot."""
    rates = model.user_rates(assignment, snr)
    embb = math.fsum(r for u, r in rates.items() if u not in model.urllc_ids)
    urllc = math.fsum(r for u, r in rates.items() if u in model.urllc_ids)
    fails.expect(close(outcome.embb_sum_rate, embb),
                 f"{where}: eMBB sum rate {outcome.embb_sum_rate} vs {embb}")
    fails.expect(close(outcome.urllc_sum_rate, urllc),
                 f"{where}: URLLC sum rate {outcome.urllc_sum_rate} vs {urllc}")
    packets = 0
    for i, uid in enumerate(urllc_order):
        served = outcome.urllc_served_bits[uid]
        fails.expect(served <= outcome.rates[uid] and served <= queue_before[i],
                     f"{where}: user {uid} served {served} bits beyond capacity or backlog")
        arrived = (queue_after[i] - (queue_before[i] - served)) / model.packet_bits
        k = round(arrived)
        fails.expect(k >= 0 and abs(arrived - k) <= 1e-6 * max(1.0, k),
                     f"{where}: user {uid} queue moved by {arrived} packets")
        packets += k
    fails.expect(packets == outcome.urllc_arrival_packets,
                 f"{where}: queues gained {packets} packets, arrivals {outcome.urllc_arrival_packets}")


# -- self-test -----------------------------------------------------------------


def self_test(csv_text: str, summary_text: str, **run) -> list[str]:
    """Feed a corrupted row and a flipped outage bit to the file checks.

    Both must be caught; returns the ways in which the checks failed to
    catch them (empty when the checks work).
    """
    problems = []
    clean = Failures()
    check_run_files(clean, "self-test", csv_text, summary_text, **run)
    if clean:
        problems.append(f"the unmodified file fails: {clean.messages[0]}")
    lines = csv_text.splitlines()
    row = len(lines) // 2
    truncated = lines.copy()
    truncated[row] = truncated[row].rsplit(",", 2)[0]
    flipped = lines.copy()
    head, bit = flipped[row].rsplit(",", 1)
    flipped[row] = f"{head},{'0' if bit == '1' else '1'}"
    for label, variant in (("corrupted row", truncated), ("flipped outage bit", flipped)):
        f = Failures()
        check_run_files(f, "self-test", "\n".join(variant) + "\n", summary_text, **run)
        if not f:
            problems.append(f"{label} passed the checks")
    return problems
