import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twinslice import envsim, metrics, runner
from twinslice.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from twinslice.nn import MLP, save_weights
from twinslice.scenario import FEATURE_ENTRY_MAX, POISSON_LAM_MAX

from conftest import write_v1_weights

TINY_TEXT = """\
[users]
embb = 2
urllc = 1
embb_mean_snr_db = 8.0
urllc_mean_snr_db = 8.0
[grid]
num_rbs = 4
rb_bandwidth_hz = 1000000
[channel]
fading = rayleigh
[traffic]
urllc_lambda = 2.0
[features]
reference_snr_db = 8.0
reference_lambda = 2.0
[run]
seed = 3
horizon_slots = 80
outage_window = 20
[train]
hidden_sizes = 32,16
epochs = 3
learning_rate = 0.2
batch_size = 16
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_TEXT)
    return str(p)


def test_run_succeeds_and_writes_outputs(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["run", "--scenario", tiny_cfg, "--policy", "orthogonal", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert (out / "orthogonal_lamschedule.csv").exists()
    assert "orthogonal" in capsys.readouterr().out


def test_run_rejects_multiple_policies(tiny_cfg, tmp_path):
    code = main(
        [
            "run", "--scenario", tiny_cfg, "--out", str(tmp_path / "o"),
            "--policy", "orthogonal,oracle",
        ]
    )
    assert code == EXIT_CONFIG


def test_bad_scenario_file_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[qos]\nurllc_outage_threshold = 1.5\n")
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "urllc_outage_threshold" in capsys.readouterr().err


def test_missing_scenario_file_is_a_config_error(tmp_path):
    code = main(["run", "--scenario", str(tmp_path / "nope.cfg"), "--out", "o"])
    assert code == EXIT_CONFIG


def test_scenario_directory_is_a_config_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert f"scenario file {tmp_path}" in capsys.readouterr().err


def test_non_utf8_scenario_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(TINY_TEXT.replace("[run]", "# caf\xe9\n[run]").encode("latin-1"))
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert f"scenario file {bad}" in capsys.readouterr().err


def test_weights_directory_is_a_config_error(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(
        ["eval", "--scenario", tiny_cfg, "--weights", str(tmp_path), "--out", str(out)]
    )
    assert code == EXIT_CONFIG
    assert f"weights file {tmp_path}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_policy_flag_is_a_config_error(tiny_cfg, tmp_path):
    code = main(
        ["run", "--scenario", tiny_cfg, "--policy", "genie", "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG


def test_dnn_without_weights_is_a_config_error(tiny_cfg, tmp_path, capsys):
    code = main(
        ["eval", "--scenario", tiny_cfg, "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_CONFIG
    assert "--weights" in capsys.readouterr().err


def test_train_then_eval_roundtrip(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["train", "--scenario", tiny_cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "weights.bin").exists()
    assert (out / "loss_curve.csv").exists()

    out2 = tmp_path / "eval"
    code = main(
        [
            "eval", "--scenario", tiny_cfg, "--weights", str(out / "weights.bin"),
            "--out", str(out2),
        ]
    )
    assert code == EXIT_OK
    assert (out2 / "dnn_repair_lamschedule.csv").exists()


def test_compare_and_sweep_shapes(tiny_cfg, tmp_path):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare", "--scenario", tiny_cfg, "--out", str(out),
            "--policy", "orthogonal", "--policy", "oracle",
        ]
    )
    assert code == EXIT_OK
    assert (out / "comparison.csv").read_text().count("\n") == 3  # header + 2

    out2 = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--scenario", tiny_cfg, "--out", str(out2),
            "--policy", "orthogonal", "--lambdas", "1,2",
        ]
    )
    assert code == EXIT_OK
    table = (out2 / "comparison.csv").read_text().splitlines()
    assert len(table) == 3


@pytest.mark.parametrize(
    "policy,lambdas",
    [("orthogonal", "1,1.0,2"), ("orthogonal,orthogonal", "1"), ("orthogonal", "1,1.0000001")],
)
def test_runs_that_would_share_a_file_are_a_config_error(
    tiny_cfg, tmp_path, capsys, policy, lambdas
):
    out = tmp_path / "o"
    code = main(
        [
            "sweep", "--scenario", tiny_cfg, "--out", str(out),
            "--policy", policy, "--lambdas", lambdas,
        ]
    )
    assert code == EXIT_CONFIG
    assert "orthogonal_lam1.csv" in capsys.readouterr().err
    assert not out.exists()


def test_empty_lambdas_is_a_config_error(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(
        [
            "sweep", "--scenario", tiny_cfg, "--out", str(out),
            "--policy", "orthogonal", "--lambdas", "",
        ]
    )
    assert code == EXIT_CONFIG
    assert "--lambdas" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "via_env,verb,out",
    [  # an empty path, an existing file, and a path under that file
        pytest.param(via_env, verb, out, id="-".join([str(via_env), verb, *tag]))
        for out, tag in (("", ()), ("afile", ("file",)), ("afile/sub", ("under-file",)))
        for via_env in (False, True)
        for verb in ("run", "train")
    ],
)
def test_empty_output_dir_is_a_config_error_before_any_work(
    tiny_cfg, tmp_path, monkeypatch, capsys, verb, via_env, out
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output directory was checked")

    monkeypatch.setattr(runner, "_simulate", no_work)
    monkeypatch.setattr(runner, "collect_training_data", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept\n")
    argv = [verb, "--scenario", tiny_cfg]
    if via_env:
        monkeypatch.setenv("TWINSLICE_OUT", out)
    else:
        argv += ["--out", out]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--out" in err and "TWINSLICE_OUT" in err
    assert not out or repr(out) in err
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_dump_twin_flag_writes_the_side_log(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "run", "--scenario", tiny_cfg, "--policy", "orthogonal",
            "--out", str(out), "--dump-twin",
        ]
    )
    assert code == EXIT_OK
    assert (out / "orthogonal_lamschedule.twin.csv").exists()


def test_env_var_overrides_output_dir(tiny_cfg, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("TWINSLICE_OUT", str(target))
    code = main(
        ["run", "--scenario", tiny_cfg, "--policy", "orthogonal", "--out", "ignored"]
    )
    assert code == EXIT_OK
    assert target.exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_flag_overrides_scenario_seed(tiny_cfg, tmp_path):
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    main(["run", "--scenario", tiny_cfg, "--policy", "orthogonal", "--seed", "5", "--out", str(a)])
    main(["run", "--scenario", tiny_cfg, "--policy", "orthogonal", "--seed", "5", "--out", str(b)])
    main(["run", "--scenario", tiny_cfg, "--policy", "orthogonal", "--seed", "6", "--out", str(c)])
    fa = (a / "orthogonal_lamschedule.csv").read_bytes()
    fb = (b / "orthogonal_lamschedule.csv").read_bytes()
    fc = (c / "orthogonal_lamschedule.csv").read_bytes()
    assert fa == fb
    assert fa != fc


def test_bad_flags_exit_with_argparse_code(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def _with_key(section, key, value):
    """TINY_TEXT with ``[section] key = value`` in place of any earlier value."""
    text = "".join(
        line + "\n"
        for line in TINY_TEXT.splitlines()
        if line.partition("=")[0].strip() != key
    )
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    return text + f"[{section}]\n{key} = {value}\n"


NON_FINITE = [
    ("grid", "slot_duration_s", "inf"),
    ("grid", "slot_duration_s", "nan"),
    ("grid", "rb_bandwidth_hz", "inf"),
    ("qos", "embb_min_rate_bps", "inf"),
    ("traffic", "urllc_lambda", "inf"),
    ("channel", "rician_k", "nan"),
    ("features", "reference_snr_db", "nan"),
    # finite in the file, but not over the grid or in linear units
    ("grid", "rb_bandwidth_hz", "1e308"),
    ("users", "embb_mean_snr_db", "4000"),
    ("users", "urllc_mean_snr_db", "4000"),
    ("features", "reference_snr_db", "4000"),
    ("features", "reference_snr_db", "-4000"),  # the encoder divides by 0.0
    ("features", "reference_snr_db", "-3200"),  # SNR / reference overflows
    ("features", "reference_snr_db", "-3000"),  # float32 features overflow
]


@pytest.mark.parametrize(
    "section,key,value",
    NON_FINITE,
    ids=[v if k == "slot_duration_s" else f"{k}-{v}" for _, k, v in NON_FINITE],
)
def test_non_finite_slot_duration_is_a_config_error(
    tmp_path, capsys, section, key, value
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with_key(section, key, value))
    out = tmp_path / "o"
    command = "train" if key == "reference_snr_db" else "run"
    code = main([command, "--scenario", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,argv,named",
    [
        (("run", "seed"), ["run"], "[run] seed"),
        (("train", "seed"), ["train"], "[train] seed"),
        (None, ["train", "--seed", "-1"], "--seed"),
    ],
    ids=["run-seed", "train-seed", "seed-flag"],
)
def test_negative_seed_is_a_config_error(tmp_path, capsys, key, argv, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with_key(*key, "-1") if key else TINY_TEXT)
    out = tmp_path / "o"
    assert main([*argv, "--scenario", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


#: Files whose runs would overflow a float: a mean SNR whose fading peak is
#: not finite, and slots so long that a horizon's bits, or the objective's
#: penalty on the largest deficit, are not.
OVERFLOWING = [
    ("users", "embb_mean_snr_db", "3080"),
    ("users", "urllc_mean_snr_db", "3080"),
    ("grid", "slot_duration_s", "1e300"),
    ("grid", "slot_duration_s", "1e298"),
]


@pytest.mark.parametrize("verb", ["run", "compare", "train"])
@pytest.mark.parametrize(
    "section,key,value", OVERFLOWING, ids=[f"{k}-{v}" for _, k, v in OVERFLOWING]
)
def test_a_run_that_would_overflow_is_a_load_error(
    tmp_path, monkeypatch, capsys, verb, section, key, value
):
    """Load rejects the file, naming the key, before any work starts."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the derived bounds were checked")

    monkeypatch.setattr(runner, "_simulate", no_work)
    monkeypatch.setattr(runner, "collect_training_data", no_work)
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(_with_key(section, key, value))
    out = tmp_path / "o"
    argv = [verb, "--scenario", str(cfg), "--out", str(out)]
    if verb == "compare":
        argv += ["--policy", "oracle,orthogonal"]
    assert main(argv) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,column",
    [
        ("embb_mean_snr_db", "spectral_efficiency"),
        # URLLC delivery is backlog-limited, so only the rate column is inf
        ("urllc_mean_snr_db", "sum_rate_urllc"),
    ],
)
def test_run_with_non_finite_rates_fails_and_writes_no_csv(
    tmp_path, monkeypatch, capsys, key, column
):
    """The runtime guard. No file that loads gives a run non-finite rates, so
    the channel draw is patched to give the key's users an infinite mean SNR."""
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(_with_key("users", key, "9.5"))
    linear = envsim.db_to_linear
    monkeypatch.setattr(envsim, "db_to_linear", lambda x: math.inf if x == 9.5 else linear(x))
    out = tmp_path / "o"
    code = main(["run", "--scenario", str(cfg), "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert f"{column}=inf" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_failing_experiment_writes_nothing(tiny_cfg, tmp_path, monkeypatch, capsys):
    """A run that fails leaves no output directory and no file of the runs
    that succeeded; an output directory that existed is left as it was. The
    orthogonal run's summary is given an infinite spectral efficiency."""
    summarize = metrics.summarize_run

    def injected(records, policy_id, *args):
        if policy_id == "orthogonal":
            records = records._replace(spectral_efficiency=np.full_like(records.t, np.inf, float))
        return summarize(records, policy_id, *args)

    monkeypatch.setattr(metrics, "summarize_run", injected)
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine\n")
    for out in (fresh, kept):
        code = main(
            [
                "compare", "--scenario", tiny_cfg, "--out", str(out),
                "--policy", "oracle,orthogonal",
            ]
        )
        assert code == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err
    assert not fresh.exists()
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]
    assert (kept / "notes.txt").read_text() == "mine\n"


def test_short_history_depth_is_a_config_error(tmp_path, capsys):
    # The twin sizes its history itself; the former key, short or not, is unknown.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_TEXT + "[twin]\ndelay = moderate\nhistory_depth = 2\n")
    out = tmp_path / "o"
    code = main(["run", "--scenario", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "unknown key 'history_depth' in section [twin]" in capsys.readouterr().err
    assert not out.exists()


def _garbage_header(path):
    path.write_bytes(b"\x89 not a header\n" + bytes(64))


def _truncated(path):
    save_weights(MLP.zeros([21, 8, 12], (4, 3)), path, seed=0)
    path.write_bytes(path.read_bytes()[:-20])


def _wrong_input(path):
    save_weights(MLP.zeros([20, 8, 12], (4, 3)), path, seed=0)


def _wrong_output(path):
    save_weights(MLP.zeros([21, 8, 12], (3, 4)), path, seed=0)


def _header_only(path, layer_sizes):
    header = {"dtype": "<f4", "format_version": 2, "layer_sizes": layer_sizes,
              "output_shape": [4, 3], "seed": 0}
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n")


def _no_layer_sizes(path):
    _header_only(path, [])


def _huge_layer_sizes(path):
    # 48 TB of float32 parameters: rejected before any block is read.
    _header_only(path, [1000000000000, 12])


@pytest.mark.parametrize(
    "write",
    [_garbage_header, _truncated, _wrong_input, _wrong_output, _no_layer_sizes,
     _huge_layer_sizes],
)
def test_bad_weights_are_a_config_error(tiny_cfg, tmp_path, capsys, write):
    # TINY_TEXT has 3 users on 4 blocks: 21 features, output (4, 3).
    weights = tmp_path / "weights.bin"
    write(weights)
    out = tmp_path / "o"
    code = main(
        ["eval", "--scenario", tiny_cfg, "--weights", str(weights), "--out", str(out)]
    )
    assert code == EXIT_CONFIG
    assert str(weights) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "snr_db",
    [-10, pytest.param(-30, marks=pytest.mark.xfail(
        strict=True, reason="training diverges: non-finite layer 2 pre-activation, exit 3"
    ))],
)
def test_train_at_a_low_reference_snr(repo_root_scenarios, tmp_path, snr_db):
    """Training on tiny.cfg at a reference SNR that load accepts exits 0."""
    text = (repo_root_scenarios / "tiny.cfg").read_text()
    for key, old, new in (("horizon_slots", 2500, 200), ("reference_snr_db", 8.0, snr_db)):
        assert f"{key} = {old}\n" in text
        text = text.replace(f"{key} = {old}\n", f"{key} = {new}\n")
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["train", "--scenario", str(cfg), "--epochs", "3", "--out", str(out)]) == EXIT_OK


#: Just over the Poisson rate numpy draws at, for tiny's one URLLC user.
OVER_POISSON_LIMIT = repr(math.nextafter(POISSON_LAM_MAX, math.inf))


@pytest.mark.parametrize("verb", ["run", "train"])
@pytest.mark.parametrize("lam", ["1e300", "9.3e18", OVER_POISSON_LIMIT])
def test_an_undrawable_lambda_is_a_config_error(tiny_cfg, tmp_path, capsys, verb, lam):
    """Each URLLC user draws Poisson(lambda / n_urllc) arrivals, which numpy
    refuses over POISSON_LAM_MAX: load rejects such a lambda, naming it."""
    cfg = tmp_path / "big.cfg"
    cfg.write_text(TINY_TEXT.replace("urllc_lambda = 2.0", f"urllc_lambda = {lam}"))
    out = tmp_path / "o"
    assert main([verb, "--scenario", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "urllc_lambda" in err and f"{float(lam):g}" in err
    assert not out.exists()


def test_an_undrawable_sweep_value_is_a_config_error(tmp_path, capsys):
    """A sweep value over numpy's Poisson limit, and one under it whose load
    entry, λ / 1e-14, is over the float32 net's headroom, exit 2 naming it."""
    for reference, lam, bound in (("2.0", OVER_POISSON_LIMIT, "Poisson"),
                                  ("1e-14", "9e18", "float32")):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(_with_key("features", "reference_lambda", reference))
        out = tmp_path / "o"
        code = main(
            ["sweep", "--scenario", str(cfg), "--policy", "orthogonal",
             "--lambdas", f"2,{lam}", "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{float(lam):g}" in err and bound in err
        assert not out.exists()


def test_the_largest_drawable_lambda_runs(tiny_cfg, tmp_path, capsys):
    """numpy draws at POISSON_LAM_MAX itself, as a scenario's rate and as a
    sweep value. Without URLLC users nothing is drawn, but the encoder's load
    entry, 256 λ / (256 · 2) on tiny, still bounds λ: its largest value runs,
    and the next float exits 2 at load, naming the key."""
    limit = repr(POISSON_LAM_MAX)
    cfg = tmp_path / "limit.cfg"
    cfg.write_text(TINY_TEXT.replace("urllc_lambda = 2.0", f"urllc_lambda = {limit}"))
    assert main(["run", "--scenario", str(cfg), "--policy", "orthogonal",
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    assert main(["sweep", "--scenario", tiny_cfg, "--policy", "orthogonal",
                 "--lambdas", limit, "--out", str(tmp_path / "sweep")]) == EXIT_OK
    largest = 2 * FEATURE_ENTRY_MAX  # the packet bits and the factor 2 are exact
    for lam, code in ((largest, EXIT_OK), (math.nextafter(largest, math.inf), EXIT_CONFIG)):
        cfg.write_text(
            TINY_TEXT.replace("urllc_lambda = 2.0", f"urllc_lambda = {lam!r}")
            .replace("urllc = 1\n", "urllc = 0\n")
        )
        out = tmp_path / f"none{code}"
        assert main(["run", "--scenario", str(cfg), "--policy", "oracle",
                     "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "urllc_lambda" in err and "load entry" in err and "float32" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "section,key,value",
    [("features", "reference_lambda", "1e-300"), ("qos", "embb_min_rate_bps", "1e308")],
)
def test_a_feature_entry_over_the_float32_headroom_is_a_config_error(
    tmp_path, monkeypatch, capsys, section, key, value
):
    """The encoder's constant entries are finite in float64 but overflow the
    float32 net's first layer: load rejects the file, naming the key, before
    the slot loop starts, for an orthogonal run, which reads no features, too."""

    def no_work(*args, **kwargs):
        raise AssertionError("labelling started before the feature entries were checked")

    monkeypatch.setattr(runner, "_simulate", no_work)
    monkeypatch.setattr(runner, "_slots", no_work)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(_with_key(section, key, value))
    out = tmp_path / "o"
    for argv in (["run", "--policy", "orthogonal"], ["train"]):
        assert main([*argv, "--scenario", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err and "float32" in err
        assert not out.exists()


def test_a_run_too_large_for_the_memory_exits_3_in_one_line(
    tiny_cfg, tmp_path, monkeypatch, capsys
):
    """An allocation that numpy refuses is a runtime error, reported in one
    line. The refusal is simulated: nothing of that size is allocated."""
    cfg = tmp_path / "long.cfg"
    cfg.write_text(_with_key("run", "horizon_slots", str(10**12)))
    empty = np.empty

    def refused(shape, *args, **kwargs):
        if 10**12 in np.atleast_1d(shape):
            raise MemoryError(f"Unable to allocate 29.1 TiB for an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refused)
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("runtime error: out of memory: Unable to allocate 29.1 TiB")
    assert err.count("\n") == 1
    assert not out.exists()


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(_cpus() < 2, reason="OpenBLAS runs one thread on one CPU")
@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="default-shape products round differently on 1 and 2 OpenBLAS threads",
)
def test_default_scale_artifacts_do_not_depend_on_the_blas_thread_count(
    repo_root_scenarios, tmp_path
):
    """README "Determinism": a run is the scenario bytes and the seed. Train
    a default-shape net for one step on 64 slots, then run dnn+repair on it,
    once with one OpenBLAS thread and once with two, and compare every file."""
    text = (repo_root_scenarios / "default.cfg").read_text()
    assert "horizon_slots = 5000\n" in text
    cfg = tmp_path / "short.cfg"
    cfg.write_text(text.replace("horizon_slots = 5000\n", "horizon_slots = 64\n"))
    src = Path(__file__).resolve().parent.parent / "src"
    cli = "import sys; from twinslice.cli import main; sys.exit(main(sys.argv[1:]))"
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        for argv in (
            ["train", "--scenario", str(cfg), "--epochs", "1", "--out", str(out)],
            ["run", "--scenario", str(cfg), "--policy", "dnn+repair",
             "--weights", str(out / "weights.bin"), "--out", str(out / "run")],
        ):
            subprocess.run([sys.executable, "-c", cli, *argv], env=env, check=True,
                           capture_output=True)
        files.append({p.relative_to(out).as_posix(): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert files[0].keys() == files[1].keys()
    differ = [name for name in files[0] if files[0][name] != files[1][name]]
    assert not differ, f"files that differ between 1 and 2 threads: {differ}"


def test_run_with_version_1_weights_is_a_config_error(tiny_cfg, tmp_path, capsys):
    # A version-1 file of the right shape: only its format is out of date.
    weights = tmp_path / "weights.bin"
    write_v1_weights(weights, MLP.zeros([21, 8, 12], (4, 3)), seed=0)
    out = tmp_path / "o"
    code = main(
        ["run", "--scenario", tiny_cfg, "--policy", "dnn+repair",
         "--weights", str(weights), "--out", str(out)]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(weights) in err and "format_version" in err
    assert not out.exists()


def test_lambda_dwell_without_values_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    text = TINY_TEXT.replace("[features]", "urllc_lambda_dwell = 7\n[features]")
    cfg.write_text(text)
    out = tmp_path / "o"
    code = main(["run", "--scenario", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "urllc_lambda_dwell" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["urllc", "embb"])
def test_orthogonal_partition_without_users_is_a_config_error(tmp_path, capsys, key):
    # The default urllc_fraction = 0.5 gives both partitions 2 of 4 blocks.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with_key("users", key, "0"))
    out = tmp_path / "o"
    code = main(["run", "--scenario", str(cfg), "--policy", "orthogonal", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "urllc_fraction" in err and "has 0" in err
    assert not out.exists()
