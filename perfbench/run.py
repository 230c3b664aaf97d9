"""Benchmark of the twinslice slicing pipeline, end to end and per layer.

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout. One round of the pipeline calls
the program's public entry points in this order: oracle labels through the
twin (``runner.collect_training_data``), training (``nn.train``, then
``nn.save_weights``), and one lambda sweep per policy
(``runner.run_experiment``, writing its CSVs). Rounds repeat until
``--seconds`` are used; each metric is the median over the rounds. The
outputs of the last round are then checked (see checks.py).

With ``--trace 1`` the run makes one round, then replays the runner's loops
from the public functions with every layer call timed from outside (see
replay.py) and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when one failed, and 2 when the checkout lacks
the program.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from time import perf_counter, perf_counter_ns

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
#: Fresh interpreters timed for setup_s before the first round; one more
#: follows every round, so the median samples the whole run.
SETUP_PROBES = 3
#: Repeats of the short calls timed in a traced run, so that each has at
#: least 40 samples and a 99th percentile with samples beyond it.
LOAD_REPEATS = 50
PER_RUN_REPEATS = 3
#: The nine modules of the package, for the line counts.
MODULES = ("domain", "envsim", "twin", "policy", "nn", "metrics", "scenario", "runner", "cli")
#: Operations of one round: labels, training, and one sweep per policy.
OPS_PER_ROUND = 5

# (metric, span, tracer, unit): median, _p99 and _n of one span's durations.
SPAN_METRICS = (
    ("twin.record_snapshot_us", "twin.record_snapshot", "sweep", "us"),
    ("envsim.step_us", "envsim.step", "sweep", "us"),
    ("policy.orthogonal_us", "policy.orthogonal", "sweep", "us"),
    ("policy.oracle_us", "policy.oracle", "sweep", "us"),
    ("policy.repair_us", "policy.repair", "sweep", "us"),
    ("policy.objective_us", "policy.objective", "sweep", "us"),
    ("nn.encode_us", "nn.encode", "sweep", "us"),
    ("nn.forward_us", "nn.forward", "sweep", "us"),
    ("nn.decode_us", "nn.decode", "sweep", "us"),
    ("metrics.slot_us", "metrics.slot", "sweep", "us"),
    # the rebuilt slot's own time: its span minus the layer calls inside it
    ("runner.self_us", "runner.slot", "sweep", "us"),
    ("runner.label_us", "runner.label", "labels", "us"),
    ("nn.train_step_ms", "nn.train_step", "train", "ms"),
    ("metrics.summarize_ms", "metrics.summarize", "misc", "ms"),
    ("metrics.export_csv_ms", "metrics.export_csv", "misc", "ms"),
    ("scenario.load_ms", "scenario.load", "misc", "ms"),
    ("nn.load_weights_ms", "nn.load_weights", "misc", "ms"),
)
NS_PER_UNIT = {"us": 1e3, "ms": 1e6}


def blas_threads() -> int:
    """BLAS threads the benchmark runs with: two, or fewer on fewer CPUs."""
    return min(2, len(os.sched_getaffinity(0)))


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class SetupProbe:
    """Times a fresh interpreter running probe.py, the set-up of a run.

    The wait blocks in waitpid: a wait with a timeout polls with sleeps of
    up to 50 ms, which would quantise the measurement. A timer kills a
    child that hangs instead.
    """

    def __init__(self, scenario_paths: list[str]):
        self.cmd = [sys.executable, os.path.join(BENCH, "probe.py"), *scenario_paths]
        self.times: list[float] = []
        self.once()  # writes the bytecode caches, as any earlier use would have
        self.times.clear()

    def once(self) -> None:
        start = perf_counter()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        self.times.append(perf_counter() - start)


class Pipeline:
    """One workload's scenario, outputs and round timings."""

    def __init__(self, workload, label_path: str, sweep_path: str, out_dir: str):
        from twinslice import nn
        from twinslice.scenario import load_scenario

        self.workload = workload
        self.scenario_path = sweep_path
        self.label_scenario = load_scenario(label_path)
        self.scenario = load_scenario(sweep_path)
        t = self.label_scenario.train
        # The configuration runner.train_command derives from the scenario.
        self.cfg = nn.TrainConfig(
            learning_rate=t.learning_rate, epochs=t.epochs,
            batch_size=t.batch_size, seed=t.seed,
        )
        self.out_dir = out_dir
        self.weights_path = os.path.join(out_dir, "weights.bin")
        self.rounds: list[dict[str, float]] = []
        self.attempted = self.failed = 0
        self.X = self.labels = self.train_result = None

    def sweep_dir(self, policy_id: str) -> str:
        return os.path.join(self.out_dir, policy_id.replace("+", "_"))

    def run_round(self) -> bool:
        """Run the pipeline once; False when an operation raised."""
        from twinslice import nn, runner
        from twinslice.scenario import ExperimentSpec

        from workloads import POLICIES

        times: dict[str, float] = {}
        done = 0
        self.attempted += OPS_PER_ROUND
        try:
            start = perf_counter()
            self.X, self.labels = runner.collect_training_data(self.label_scenario)
            times["label_s"] = perf_counter() - start
            done += 1
            net = runner.build_net(self.label_scenario, self.cfg)
            t0 = perf_counter()
            self.train_result = nn.train(net, self.X, self.labels, self.cfg)
            times["train_s"] = perf_counter() - t0
            nn.save_weights(self.train_result.net, self.weights_path, seed=self.cfg.seed)
            done += 1
            for policy_id in POLICIES:
                t0 = perf_counter()
                runner.run_experiment(ExperimentSpec(
                    scenario=self.scenario, policies=(policy_id,),
                    out_dir=self.sweep_dir(policy_id),
                    lambdas=self.workload.lambdas, weights_path=self.weights_path,
                    dump_twin=True,
                ))
                times[policy_id] = perf_counter() - t0
                done += 1
            times["pipeline_s"] = perf_counter() - start
        except Exception:  # an operation of the program failed: count it
            traceback.print_exc()
            self.failed += OPS_PER_ROUND - done
            return False
        self.rounds.append(times)
        return True

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        labels = self.label_scenario.horizon_slots
        sweep_slots = self.scenario.horizon_slots * len(self.workload.lambdas)

        def med(fn):
            return statistics.median(fn(r) for r in self.rounds)

        return {
            "setup_s": setup_s,
            "pipeline_s": med(lambda r: r["pipeline_s"]),
            "label_slots_per_s": med(lambda r: labels / r["label_s"]),
            "train_samples_per_s": med(lambda r: labels * self.cfg.epochs / r["train_s"]),
            "orthogonal_slots_per_s": med(lambda r: sweep_slots / r["orthogonal"]),
            "oracle_slots_per_s": med(lambda r: sweep_slots / r["oracle"]),
            "dnn_repair_slots_per_s": med(lambda r: sweep_slots / r["dnn+repair"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def check_outputs(pipe: Pipeline, fails) -> list[str]:
    """Check the last round's files and replay the start of every sweep run.

    Returns what the self-test found wrong with the checks themselves.
    """
    import checks
    import replay
    from twinslice import runner

    from workloads import POLICIES

    sc, wl = pipe.scenario, pipe.workload
    h = sc.horizon_slots
    res = pipe.train_result
    checks.check_training(
        fails, res.loss_curve, res.net.weights, res.net.biases, res.net.output_shape,
        pipe.X, pipe.labels, len(sc.users()),
    )
    ctx = replay.Context(sc, net=res.net, enumerate_every=wl.enumerate_every)
    run_args = dict(horizon=h, packet_bits=sc.qos.urllc_packet_bits,
                    eps_max=sc.qos.urllc_outage_threshold)
    problems = None
    for policy_id in POLICIES:
        d = pipe.sweep_dir(policy_id)
        summaries = []
        for i, lam in enumerate(wl.lambdas):
            base = os.path.join(d, f"{policy_id.replace('+', '_')}_lam{lam:g}")
            with open(base + ".csv") as f:
                csv_text = f.read()
            with open(base + ".csv.summary") as f:
                summary_text = f.read()
            with open(base + ".twin.csv") as f:
                twin_text = f.read()
            name = os.path.basename(base)
            kw = dict(run_args, policy_id=policy_id, lam=lam)
            summaries.append((policy_id, lam, checks.check_run_files(
                fails, name, csv_text, summary_text, **kw)))
            checks.check_twin_log(fails, name, twin_text, ctx.delay_slots, h)
            if problems is None:
                problems = checks.self_test(csv_text, summary_text, **kw)
            # Replay the first slots and match them to the file's rows, so
            # that the slot checks speak about what the sweep wrote.
            n = min(h, wl.check_slots)
            stats = replay.replay_run(
                ctx, policy_id, lam, runner.derive_seed(sc.seed, i), n,
                replay.NullTracer(), fails, name,
            )
            rows = csv_text.splitlines()[1:n + 1]
            fails.expect(
                [row_tail(r) for r in rows] == [slot_tail(s) for s in stats.slots],
                f"{name}: replayed slots differ from the CSV",
            )
        with open(os.path.join(d, "comparison.csv")) as f:
            checks.check_comparison(fails, f.read(), summaries)
    return problems


def row_tail(row: str) -> str:
    """A CSV row without its policy and seed columns."""
    f = row.split(",")
    return ",".join([f[0]] + f[3:])


def slot_tail(s) -> str:
    from checks import fmt

    return ",".join((str(s.t), fmt(s.lambda_t), fmt(s.sum_rate_embb), fmt(s.sum_rate_urllc),
                     fmt(s.spectral_efficiency), "1" if s.outage else "0"))


def traced(pipe: Pipeline, fails) -> tuple[dict[str, float], int]:
    """Replay the round with every layer call timed; returns (metrics, runs)."""
    import numpy as np

    import checks
    import replay
    from twinslice import metrics, nn, policy, runner
    from twinslice.scenario import load_scenario

    from workloads import POLICIES

    sc, wl = pipe.scenario, pipe.workload
    h = sc.horizon_slots
    tracers = {k: replay.Tracer() for k in ("labels", "train", "sweep", "misc")}
    ctx = replay.Context(sc, enumerate_every=wl.enumerate_every)
    label_ctx = replay.Context(pipe.label_scenario)

    X, labels = replay.replay_labels(label_ctx, tracers["labels"], fails)
    fails.expect(np.array_equal(X, pipe.X) and np.array_equal(labels, pipe.labels),
                 "replayed labels differ from runner.collect_training_data")
    net, curve = replay.replay_train(label_ctx, pipe.X, pipe.labels, pipe.cfg, tracers["train"])
    ref = pipe.train_result
    fails.expect(
        curve == ref.loss_curve and all(
            np.array_equal(a, b) for a, b in zip(net.weights + net.biases,
                                                 ref.net.weights + ref.net.biases)),
        "replayed training differs from nn.train",
    )
    misc = tracers["misc"]
    for _ in range(LOAD_REPEATS):
        misc.call("scenario.load", -1, load_scenario, pipe.scenario_path)
    for _ in range(LOAD_REPEATS):
        ctx.net, _ = misc.call("nn.load_weights", -1, nn.load_weights, pipe.weights_path)

    trace_dir = os.path.join(pipe.out_dir, "trace")
    os.makedirs(trace_dir)
    sweep = tracers["sweep"]
    run_args = dict(horizon=h, packet_bits=sc.qos.urllc_packet_bits,
                    eps_max=sc.qos.urllc_outage_threshold)
    staleness, moved = [], []
    underflow = unmet = csv_bytes = 0
    sim_total = slot_total = 0
    runs = 0
    for policy_id in POLICIES:
        for i, lam in enumerate(wl.lambdas):
            name = f"{policy_id.replace('+', '_')}_lam{lam:g}"
            seed = runner.derive_seed(sc.seed, i)
            start = perf_counter_ns()
            run = runner.simulate(sc, policy_id, lam=lam, seed=seed, net=ctx.net)
            sim_ns = perf_counter_ns() - start
            first = len(sweep.spans)
            stats = replay.replay_run(ctx, policy_id, lam, seed, h, sweep, fails, name)
            runs += 1
            fails.expect(stats.slots == run.slots,
                         f"{name}: rebuilt loop differs from runner.simulate")
            kw = dict(policy_id=policy_id, seed=seed, scenario_hash=sc.with_lambda(lam).hash,
                      window=sc.outage_window, eps_max=sc.qos.urllc_outage_threshold)
            for _ in range(PER_RUN_REPEATS):
                summary = misc.call("metrics.summarize", -1, metrics.summarize_run, stats.slots, **kw)
            fails.expect(summary == run.summary, f"{name}: summary differs from runner.simulate")
            path = os.path.join(trace_dir, name + ".csv")
            for _ in range(PER_RUN_REPEATS):
                misc.call("metrics.export_csv", -1, metrics.export_csv, stats.slots, summary, path)
            with open(path) as f, open(path + ".summary") as g:
                csv_text, summary_text = f.read(), g.read()
            csv_bytes += len(csv_text) + len(summary_text)
            checks.check_run_files(fails, "trace/" + name, csv_text, summary_text,
                                   policy_id=policy_id, lam=lam, **run_args)

            sim_total += sim_ns
            slot_total += sum(e - s for n, s, e, _ in sweep.spans[first:] if n == "runner.slot")
            staleness += stats.staleness
            underflow += stats.underflow_slots
            moved += stats.repair_moved
            unmet += stats.repair_unmet_slots

    with open(os.path.join(trace_dir, "spans.csv"), "w") as f:
        f.write("trace,index,name,start_ns,end_ns,parent\n")
        for key, tracer in tracers.items():
            tracer.write(f, key)
    print(f"tracing overhead: traced slots took {slot_total / sim_total - 1:+.1%} "
          "over runner.simulate")

    out: dict[str, float] = {}
    for metric, span, key, unit in SPAN_METRICS:
        ns = tracers[key].self_ns(span) if metric == "runner.self_us" else tracers[key].durations_ns(span)
        d = np.asarray(ns, dtype=float) / NS_PER_UNIT[unit]
        out[metric] = float(np.median(d))
        out[metric + "_p99"] = float(np.percentile(d, 99))
        out[metric + "_n"] = int(d.size)

    users, rbs = len(ctx.users), sc.num_rbs
    if users ** rbs <= policy.EXHAUSTIVE_CAP:
        candidates = users ** rbs  # every assignment
    else:
        candidates = users * rbs * (rbs + 1) // 2  # (user, open block) pairs scored
    layers = list(zip(ctx.net.layer_sizes, ctx.net.layer_sizes[1:]))
    macs = sum(i * o for i, o in layers)
    bs = pipe.cfg.batch_size
    out.update({
        "twin.staleness_mean_slots": float(np.mean(staleness)),
        "twin.underflow_slots": underflow,
        "policy.oracle_candidates": candidates,
        "policy.repair_blocks_moved": float(np.mean(moved)),
        "policy.repair_exhausted_slots": unmet,
        "nn.forward_param_bytes": sum(w.nbytes + b.nbytes
                                      for w, b in zip(ctx.net.weights, ctx.net.biases)),
        "nn.forward_flops": 2 * macs,
        # forward, weight gradients, and input gradients of all but the first layer
        "nn.train_flops_per_step": bs * (6 * macs - 2 * layers[0][0] * layers[0][1]),
        "metrics.csv_bytes": csv_bytes,
    })
    for module in MODULES:
        with open(os.path.join(ROOT, "src", "twinslice", module + ".py")) as f:
            out[f"{module}.src_lines"] = sum(1 for _ in f)
    return out, runs


def load_metric_units() -> tuple[dict[str, str], dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    from workloads import WORKLOADS, write_scenarios

    args = parse_args(argv, sorted(WORKLOADS))
    wl = WORKLOADS[args.workload]
    needed = ["src/twinslice/__init__.py", wl.template, "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a twinslice checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    threads = blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import checks

    out_dir = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    label_path, sweep_path = write_scenarios(ROOT, wl, args.seed, out_dir)
    setup = SetupProbe([label_path, sweep_path])
    for _ in range(SETUP_PROBES):
        setup.once()

    pipe = Pipeline(wl, label_path, sweep_path, out_dir)
    start = perf_counter()
    longest = 0.0
    # Whole rounds only; start another while it is likely to end in time.
    while pipe.run_round() and args.trace == 0:
        setup.once()
        longest = max(longest, pipe.rounds[-1]["pipeline_s"])
        if perf_counter() - start + longest > args.seconds:
            break
    if pipe.failed:
        print(f"error: {pipe.failed} operations of the program failed", file=sys.stderr)
        return 1

    fails = checks.Failures()
    problems = check_outputs(pipe, fails)
    e2e_units, layer_units = load_metric_units()
    if args.trace:
        values, runs = traced(pipe, fails)
        pipe.attempted += runs
        units = layer_units
    else:
        values = pipe.end_to_end(statistics.median(setup.times))
        units = e2e_units
    for p in problems:
        fails.expect(False, f"self-test: {p}")

    print(f"workload={wl.name} seed={args.seed} trace={args.trace} "
          f"blas_threads={threads} rounds={len(pipe.rounds)} "
          f"setup_probes={len(setup.times)}")
    for i, r in enumerate(pipe.rounds):
        print(f"  round {i}: " + " ".join(f"{k}={v:.3f}" for k, v in r.items()))
    for name in units:
        print(f"  {name:<34} {values[name]:>14.6g} {units[name]}")
    for message in fails.messages[:20]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    if len(fails) > 20:
        print(f"... and {len(fails) - 20} more failed checks", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
