"""The runner's loops rebuilt from twinslice's public functions.

``replay_run`` follows ``runner.simulate``, ``replay_labels`` follows
``runner.collect_training_data`` and ``replay_train`` follows ``nn.train``.
Each call into a layer goes through a tracer, which times it from outside,
and every replayed slot is checked against ``checks``. Callers compare the
replayed outputs with the originals, so a runner change that the rebuild
does not follow fails the benchmark instead of skewing its layer numbers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from twinslice import metrics, nn, policy, runner
from twinslice.domain import ServiceClass
from twinslice.twin import delay_to_slots

import checks


class Tracer:
    """Spans (name, start ns, end ns, parent index or -1), kept in memory."""

    def __init__(self):
        self.spans: list[list] = []

    def open(self, name: str, parent: int = -1) -> int:
        self.spans.append([name, perf_counter_ns(), 0, parent])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()

    def call(self, name: str, parent: int, fn, *args, **kwargs):
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        self.spans.append([name, start, perf_counter_ns(), parent])
        return result

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_ns(self, name: str) -> list[int]:
        """Each ``name`` span's duration minus that of its child spans."""
        own = {i: end - start for i, (n, start, end, _) in enumerate(self.spans) if n == name}
        for _, start, end, parent in self.spans:
            if parent in own:
                own[parent] -= end - start
        return list(own.values())

    def write(self, f, trace: str) -> None:
        for i, (name, start, end, parent) in enumerate(self.spans):
            f.write(f"{trace},{i},{name},{start},{end},{parent}\n")


class NullTracer(Tracer):
    """Calls straight through; used where only the checks are wanted."""

    def open(self, name: str, parent: int = -1) -> int:
        return -1

    def close(self, index: int) -> None:
        pass

    def call(self, name: str, parent: int, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Context:
    """Objects derived once from a scenario, as the runner derives them."""

    def __init__(self, scenario, net=None, enumerate_every: int = 0):
        self.scenario = scenario
        self.users = scenario.users()
        self.grid = scenario.grid
        self.tau = scenario.slot_duration
        self.qos = scenario.qos
        self.scaling = scenario.scaling()
        self.orthogonal = policy.OrthogonalConfig(urllc_fraction=scenario.urllc_fraction)
        self.split = int(scenario.urllc_fraction * scenario.num_rbs)
        self.delay_slots = delay_to_slots(
            scenario.twin_delay, scenario.moderate_slots, scenario.significant_slots
        )
        self.net = net
        self.enumerate_every = enumerate_every
        self.model = checks.SlotModel(
            [u.id for u in self.users],
            [u.service is ServiceClass.URLLC for u in self.users],
            self.grid.rb_bandwidth,
            self.tau,
            self.qos.urllc_packet_bits,
            self.qos.embb_min_rate,
        )


@dataclass
class RunStats:
    slots: list = field(default_factory=list)  # metrics.SlotMetrics per slot
    staleness: list[int] = field(default_factory=list)
    underflow_slots: int = 0
    repair_moved: list[int] = field(default_factory=list)
    repair_unmet_slots: int = 0


def _record_snapshot(twin, state, t):
    twin.record(state)
    return twin.snapshot(now=t)


def _slot_metrics(outcome, grid, tau, qos):
    """The per-slot record runner.simulate builds inline."""
    se = metrics.spectral_efficiency(
        [outcome.embb_sum_rate, outcome.urllc_served_total], grid, tau
    )
    return metrics.SlotMetrics(
        t=outcome.t,
        sum_rate_embb=outcome.embb_sum_rate,
        sum_rate_urllc=outcome.urllc_sum_rate,
        spectral_efficiency=se,
        outage=metrics.outage_event(
            outcome.urllc_sum_rate, qos.urllc_packet_bits, outcome.lambda_t
        ),
        lambda_t=outcome.lambda_t,
    )


def _check_step(fails, where, ctx, state, allocation, outcome, after):
    checks.check_physics(
        fails, where, ctx.model, allocation.assignment, state.channel.snr, outcome,
        state.traffic.urllc_queue, after.traffic.urllc_queue,
        state.traffic.urllc_user_ids,
    )


def replay_run(
    ctx: Context, policy_id: str, lam, seed: int, n_slots: int,
    tracer: Tracer, fails: checks.Failures, name: str,
) -> RunStats:
    """runner.simulate for one (policy, lambda) run, slot by slot."""
    env = ctx.scenario.environment(seed=seed, lam_override=lam)
    twin = ctx.scenario.make_twin()
    grid, users, qos, tau = ctx.grid, ctx.users, ctx.qos, ctx.tau
    stats = RunStats()
    run_span = tracer.open("runner.run")
    for t in range(n_slots):
        where = f"{name} t={t}"
        state = env.state
        slot = tracer.open("runner.slot", run_span)
        snap = tracer.call("twin.record_snapshot", slot, _record_snapshot, twin, state, t)
        dnn = None
        if policy_id == "orthogonal":
            decision = tracer.call(
                "policy.orthogonal", slot, policy.orthogonal_allocate,
                snap, ctx.orthogonal, grid, users, tau,
            )
        elif policy_id == "oracle":
            decision = tracer.call(
                "policy.oracle", slot, policy.oracle_allocate,
                snap, grid, users, qos, tau, mode="auto",
            )
        else:  # policy.dynamic_allocate, one call per stage
            x = tracer.call("nn.encode", slot, nn.encode_features, snap, grid, users, qos, ctx.scaling)
            y = tracer.call("nn.forward", slot, nn.forward, ctx.net, x)
            m = tracer.call("nn.decode", slot, nn.decode_output, y, users)
            obj = tracer.call(
                "policy.objective", slot, policy.allocation_objective,
                m, snap, grid, users, qos, tau,
            )
            decision = dnn = policy.PolicyDecision(m, obj, "dnn")
            if policy_id == "dnn+repair":
                decision = tracer.call(
                    "policy.repair", slot, policy.priority_repair,
                    dnn, snap, qos, grid, users, tau,
                )
        outcome = tracer.call("envsim.step", slot, env.step, decision.allocation)
        stats.slots.append(
            tracer.call("metrics.slot", slot, _slot_metrics, outcome, grid, tau, qos)
        )
        tracer.close(slot)
        # The policies compute their objective internally and the runner
        # never reads it, so it is timed by one extra call per decision.
        obj = tracer.call(
            "policy.objective", run_span, policy.allocation_objective,
            decision.allocation, snap, grid, users, qos, tau,
        )
        fails.expect(obj == decision.objective_estimate,
                     f"{where}: objective {decision.objective_estimate} re-evaluates to {obj}")

        stale = t - snap.captured_at
        stats.staleness.append(stale)
        stats.underflow_slots += snap.stale_underflow
        fails.expect(stale == checks.expected_staleness(t, ctx.delay_slots),
                     f"{where}: staleness {stale} at delay {ctx.delay_slots}")
        _check_step(fails, where, ctx, state, decision.allocation, outcome, env.state)
        assignment = decision.allocation.assignment
        snr = snap.channel.snr
        lam_snap = snap.traffic.urllc_rate
        if policy_id == "orthogonal":
            checks.check_orthogonal(fails, where, ctx.model, assignment, ctx.split)
        if policy_id == "dnn+repair":
            before = dnn.allocation.assignment
            stats.repair_moved.append(sum(a != b for a, b in zip(before, assignment)))
            stats.repair_unmet_slots += decision.constraint_unmet
            checks.check_repair(fails, where, ctx.model, before, assignment, snr,
                                lam_snap, decision.constraint_unmet)
        if policy_id == "oracle" and ctx.enumerate_every and t % ctx.enumerate_every == 0:
            _check_oracle(fails, where, ctx, snap, decision)
    tracer.close(run_span)
    return stats


def _check_oracle(fails, where, ctx, snap, decision):
    """Exhaustive oracle = plain enumeration, and no worse than the other
    policies on the same snapshot."""
    snr, lam = snap.channel.snr, snap.traffic.urllc_rate
    best, best_a = ctx.model.enumerate_best(snr, lam, ctx.grid.num_rbs)
    fails.expect(decision.objective_estimate == best and decision.allocation.assignment == best_a,
                 f"{where}: oracle {decision.objective_estimate} {decision.allocation.assignment}"
                 f" vs enumeration {best} {best_a}")
    pw = ctx.model.penalty_weight(snr)
    others = [("orthogonal", policy.orthogonal_allocate(
        snap, ctx.orthogonal, ctx.grid, ctx.users, ctx.tau))]
    if ctx.net is not None:
        others.append(("dnn", policy.dynamic_allocate(
            snap, ctx.net, ctx.grid, ctx.users, ctx.qos, ctx.scaling, ctx.tau)))
    for label, other in others:
        obj = ctx.model.objective(other.allocation.assignment, snr, lam, pw)
        fails.expect(obj <= best, f"{where}: {label} objective {obj} beats the oracle {best}")


def replay_labels(ctx: Context, tracer: Tracer, fails: checks.Failures):
    """runner.collect_training_data, slot by slot."""
    scenario = ctx.scenario
    env = scenario.environment()
    twin = scenario.make_twin()
    id_to_col = {u.id: i for i, u in enumerate(ctx.users)}
    grid, users, qos, tau = ctx.grid, ctx.users, ctx.qos, ctx.tau
    X = np.empty((scenario.horizon_slots, nn.feature_dim(len(users), grid.num_rbs)))
    labels = np.empty((scenario.horizon_slots, grid.num_rbs), dtype=int)
    for t in range(scenario.horizon_slots):
        state = env.state
        slot = tracer.open("runner.label")
        snap = tracer.call("twin.record_snapshot", slot, _record_snapshot, twin, state, t)
        decision = tracer.call(
            "policy.oracle", slot, policy.oracle_allocate,
            snap, grid, users, qos, tau, mode="auto",
        )
        X[t] = tracer.call("nn.encode", slot, nn.encode_features, snap, grid, users, qos, ctx.scaling)
        labels[t] = [id_to_col[uid] for uid in decision.allocation.assignment]
        outcome = tracer.call("envsim.step", slot, env.step, decision.allocation)
        tracer.close(slot)
        _check_step(fails, f"labels t={t}", ctx, state, decision.allocation, outcome, env.state)
    return X, labels


def _train_step(net, X, labels, batch, lr):
    loss, grads_w, grads_b = nn.loss_and_grads(net, X[batch], labels[batch])
    for i in range(len(net.weights)):
        net.weights[i] -= lr * grads_w[i]
        net.biases[i] -= lr * grads_b[i]
    return loss


def replay_train(ctx: Context, X, labels, cfg, tracer: Tracer):
    """nn.train with each optimisation step timed; returns (net, loss curve)."""
    net = runner.build_net(ctx.scenario, cfg).copy()
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    curve = [(0, 0, nn.loss_and_grads(net, X, labels)[0])]
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss = tracer.call("nn.train_step", -1, _train_step, net, X, labels, batch, cfg.learning_rate)
            step += 1
            curve.append((step, epoch, loss))
    return net, curve
