import hashlib
import io
import math
import re
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple, replace
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinslice import nn, runner
from twinslice.cli import EXIT_CONFIG, EXIT_OK, main
from twinslice.domain import ConfigError
from twinslice.scenario import (
    _KEYS,
    ExperimentSpec,
    LambdaSchedule,
    Scenario,
    ScenarioParseError,
    ScenarioSemanticError,
    load_scenario,
    parse_scenario_text,
)
from twinslice.twin import DelayClass


def test_minimal_file_gets_documented_defaults(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text("# nothing but a comment\n")
    s = load_scenario(p)
    assert s.urllc_fraction == 0.5
    assert s.twin_delay is DelayClass.MINIMAL
    assert s.outage_window == 100
    assert s.n_embb == 10 and s.n_urllc == 10
    assert s.qos.urllc_packet_bits == 256
    assert s.qos.urllc_outage_threshold == 0.07
    assert s == Scenario()


def test_out_of_range_threshold_names_the_invariant():
    with pytest.raises(ScenarioSemanticError, match="urllc_outage_threshold out of range"):
        parse_scenario_text("[qos]\nurllc_outage_threshold = 1.5\n")


def test_duplicate_key_is_a_parse_error():
    text = "[run]\nseed = 1\nseed = 2\n"
    with pytest.raises(ScenarioParseError, match="duplicate key") as exc:
        parse_scenario_text(text)
    assert exc.value.line == 3


def test_duplicate_section_is_a_parse_error():
    with pytest.raises(ScenarioParseError, match="duplicate section"):
        parse_scenario_text("[run]\nseed = 1\n[run]\n")


def test_unknown_key_is_rejected_with_position():
    with pytest.raises(ScenarioParseError, match="unknown key") as exc:
        parse_scenario_text("[run]\nbogus = 1\n")
    assert exc.value.line == 2
    assert exc.value.col == 1


def test_unknown_section_is_rejected():
    with pytest.raises(ScenarioParseError, match="unknown section"):
        parse_scenario_text("[nonsense]\n")


def test_key_outside_section_is_rejected():
    with pytest.raises(ScenarioParseError, match="outside"):
        parse_scenario_text("seed = 1\n")


def test_unparseable_value_reports_kind():
    with pytest.raises(ScenarioParseError, match="cannot parse int"):
        parse_scenario_text("[run]\nseed = banana\n")


def test_garbage_line_is_rejected():
    with pytest.raises(ScenarioParseError, match="key = value"):
        parse_scenario_text("[run]\nwhat even is this\n")


def test_lambda_constant_and_cycle_are_exclusive():
    text = "[traffic]\nurllc_lambda = 5\nurllc_lambda_values = 1,2\n"
    with pytest.raises(ScenarioSemanticError, match="not both"):
        parse_scenario_text(text)


def test_infinite_rician_k_is_the_no_fading_case():
    s = parse_scenario_text("[channel]\nrician_k = inf\n")
    assert s.fading.k_factor == math.inf


def test_lambda_schedule_cycles_with_dwell():
    sched = LambdaSchedule(values=(1.0, 2.0, 3.0), dwell=2)
    assert [sched.at(t) for t in range(8)] == [1, 1, 2, 2, 3, 3, 1, 1]


def test_load_is_pure_and_repeatable(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text("[users]\nembb = 3\nurllc = 2\n[run]\nseed = 9\n")
    a = load_scenario(p)
    b = load_scenario(p)
    assert a == b
    assert a.hash == b.hash


def test_hash_tracks_effective_configuration():
    a = Scenario()
    b = Scenario().with_lambda(125.0)
    c = Scenario().with_seed(2)
    assert a.hash != b.hash
    assert a.hash != c.hash
    assert a.hash == Scenario().hash


def test_snr_list_must_match_user_count():
    with pytest.raises(ScenarioSemanticError, match="per user"):
        parse_scenario_text("[users]\nembb = 3\nembb_mean_snr_db = 1.0,2.0\n")


def test_scalar_snr_is_broadcast():
    s = parse_scenario_text("[users]\nembb = 3\nembb_mean_snr_db = 9.0\n")
    assert s.embb_snrs() == (9.0, 9.0, 9.0)


def test_default_snrs_are_staggered_spans():
    s = Scenario()
    embb = s.embb_snrs()
    urllc = s.urllc_snrs()
    assert len(embb) == 10 and len(urllc) == 10
    assert embb[0] == 8.0 and embb[-1] == 13.0
    assert urllc[0] == 0.0 and urllc[-1] == 4.0
    assert all(b > a for a, b in zip(embb, embb[1:]))


def test_users_are_ordered_embb_then_urllc():
    s = Scenario(n_embb=2, n_urllc=2)
    users = s.users()
    assert [u.id for u in users] == [0, 1, 2, 3]
    assert [u.service.value for u in users] == ["embb", "embb", "urllc", "urllc"]


def test_semantic_errors_from_run_section():
    with pytest.raises(ScenarioSemanticError, match="horizon"):
        parse_scenario_text("[run]\nhorizon_slots = 0\n")
    with pytest.raises(ScenarioSemanticError, match="urllc_fraction"):
        parse_scenario_text("[run]\nurllc_fraction = 1.5\n")


@pytest.mark.parametrize(
    "text,key",
    [
        ("cadence = 0\n", "cadence"),
        ("moderate_slots = 5\nsignificant_slots = 2\n", "moderate_slots"),
        ("moderate_slots = -1\n", "moderate_slots"),
    ],
)
def test_twin_section_errors_name_the_key(text, key):
    with pytest.raises(ScenarioSemanticError, match=key):
        parse_scenario_text("[twin]\n" + text)


def test_an_empty_sweep_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="lambdas is empty"):
        ExperimentSpec(Scenario(), ("orthogonal",), str(tmp_path), lambdas=())


def test_bad_enum_values_report_choices():
    with pytest.raises(ScenarioSemanticError, match="rayleigh|rician"):
        parse_scenario_text("[channel]\nfading = nakagami\n")
    with pytest.raises(ScenarioSemanticError, match="minimal"):
        parse_scenario_text("[twin]\ndelay = huge\n")


def test_shipped_scenarios_load(repo_root_scenarios):
    default = load_scenario(repo_root_scenarios / "default.cfg")
    assert default.horizon_slots == 5000
    assert default.lambda_schedule.values == (100.0, 125.0, 150.0, 175.0, 200.0)
    tiny = load_scenario(repo_root_scenarios / "tiny.cfg")
    assert tiny.n_embb + tiny.n_urllc == 3
    assert tiny.num_rbs == 4


def test_scenario_hashes_are_pinned(repo_root_scenarios):
    # Every run's .summary carries the hash; a change here re-keys old runs.
    assert Scenario().hash == "b050120a0ef80f14"
    assert load_scenario(repo_root_scenarios / "default.cfg").hash == "fcadeb4b09332cb2"
    assert load_scenario(repo_root_scenarios / "tiny.cfg").hash == "a1d340804298e4c1"


#: Every key set away from its default.
FULL_TEXT = """\
[users]
embb = 3
urllc = 2
embb_mean_snr_db = 9.5,11,12.25
urllc_mean_snr_db = 1.5
[channel]
fading = rayleigh
rician_k = 3.5
[grid]
num_rbs = 12
rb_bandwidth_hz = 180000
slot_duration_s = 0.0005
[traffic]
urllc_lambda_values = 80,140.5
urllc_lambda_dwell = 50
[qos]
embb_min_rate_bps = 2e6
urllc_packet_bits = 512
urllc_outage_threshold = 0.05
[twin]
delay = moderate
moderate_slots = 3
significant_slots = 25
cadence = 2
[run]
seed = 7
horizon_slots = 300
outage_window = 50
urllc_fraction = 0.25
[features]
reference_snr_db = 12
reference_lambda = 150
[train]
epochs = 4
learning_rate = 0.1
batch_size = 16
hidden_sizes = 32,16
seed = 3
"""


def test_canonical_text_dumps_every_key():
    # Changing any line re-keys every run of a scenario that sets the key.
    assert parse_scenario_text(FULL_TEXT).canonical_text() == """\
users.embb=3
users.urllc=2
users.embb_mean_snr_db=9.5,11,12.25
users.urllc_mean_snr_db=1.5,1.5
channel.fading=rayleigh
channel.rician_k=3.5
grid.num_rbs=12
grid.rb_bandwidth_hz=180000
grid.slot_duration_s=0.0005
traffic.lambda_values=80,140.5
traffic.lambda_dwell=50
qos.embb_min_rate_bps=2e+06
qos.urllc_packet_bits=512
qos.urllc_outage_threshold=0.05
twin.delay=moderate
twin.moderate_slots=3
twin.significant_slots=25
twin.cadence=2
run.seed=7
run.horizon_slots=300
run.outage_window=50
run.urllc_fraction=0.25
features.reference_snr_db=12
features.reference_lambda=150
train.epochs=4
train.learning_rate=0.1
train.batch_size=16
train.hidden_sizes=32,16
train.seed=3
"""
    constant = parse_scenario_text("[traffic]\nurllc_lambda = 130\n").canonical_text()
    assert "traffic.lambda_values=130\ntraffic.lambda_dwell=1\n" in constant
    # a float field prints by its kind, whatever type it was given
    assert "grid.rb_bandwidth_hz=1e+06\n" in replace(Scenario(), rb_bandwidth=1000000).canonical_text()


def test_readme_key_table_names_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("Sections and keys", 1)[1].split("```")[1]
    named: dict[str, set[str]] = {}
    section = None
    for line in table.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        if header:
            section = header.group(1)
        named.setdefault(section, set()).update(re.findall(r"\w+", line))
    assert [key for key in _KEYS if key[1] not in named.get(key[0], ())] == []


#: One other value for every key of ``_KEYS``, and the keys it acts under:
#: (section, key) -> (value, {(section, key): value, or None to drop it}).
OTHER_VALUES = {
    ("users", "embb"): ("3", {}),
    ("users", "urllc"): ("2", {}),
    ("users", "embb_mean_snr_db"): ("10", {}),
    ("users", "urllc_mean_snr_db"): ("6", {}),
    ("channel", "fading"): ("rician", {}),
    ("channel", "rician_k"): ("1", {("channel", "fading"): "rician"}),
    ("grid", "num_rbs"): ("5", {}),
    ("grid", "rb_bandwidth_hz"): ("500000", {}),
    ("grid", "slot_duration_s"): ("0.0005", {}),
    ("traffic", "urllc_lambda"): ("4", {}),
    ("traffic", "urllc_lambda_values"): ("2,8", {("traffic", "urllc_lambda"): None}),
    ("traffic", "urllc_lambda_dwell"): (
        "10", {("traffic", "urllc_lambda"): None, ("traffic", "urllc_lambda_values"): "2,8"}
    ),
    ("qos", "embb_min_rate_bps"): ("1e6", {}),
    ("qos", "urllc_packet_bits"): ("512", {}),
    ("qos", "urllc_outage_threshold"): ("0.2", {}),
    ("twin", "delay"): ("moderate", {}),
    ("twin", "moderate_slots"): ("3", {("twin", "delay"): "moderate"}),
    ("twin", "significant_slots"): ("9", {("twin", "delay"): "significant"}),
    ("twin", "cadence"): ("2", {}),
    ("run", "seed"): ("4", {}),
    ("run", "horizon_slots"): ("30", {}),
    ("run", "outage_window"): ("10", {}),
    ("run", "urllc_fraction"): ("0.25", {}),
    ("features", "reference_snr_db"): ("10", {}),
    ("features", "reference_lambda"): ("4", {}),
    ("train", "epochs"): ("2", {}),
    ("train", "learning_rate"): ("0.1", {}),
    ("train", "batch_size"): ("16", {}),
    ("train", "hidden_sizes"): ("16", {}),
    ("train", "seed"): ("1", {}),
}


def _tiny_values(scenarios: Path) -> dict:
    """tiny.cfg's keys, (section, key) -> value, at 40 slots and 1 epoch."""
    tiny, section = {}, None
    for line in (scenarios / "tiny.cfg").read_text().splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            key, _, value = line.partition("=")
            tiny[section, key.strip()] = value.strip()
    tiny[("run", "horizon_slots")], tiny[("train", "epochs")] = "40", "1"
    return tiny


def _scenario_text(values: dict) -> str:
    """A scenario file setting ``values``, (section, key) -> value."""
    sections = dict.fromkeys(section for section, _ in values)
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for (s, k), v in values.items() if s == section)
        for section in sections
    )


def _result_digest(values: dict) -> str:
    """Load the scenario file of ``values``, then digest its oracle labels,
    the net trained on them (weights and loss curve) and a run of every
    policy with it: records, twin log and every summary field but the
    scenario hash."""
    scen = parse_scenario_text(_scenario_text(values))
    X, labels = runner.collect_training_data(scen)
    trained = nn.train(runner.build_net(scen, scen.train), X, labels, scen.train)
    digest = hashlib.sha256(labels.tobytes())
    for array in trained.net.weights + trained.net.biases:
        digest.update(array.tobytes())
    digest.update(repr(trained.loss_curve).encode())
    runs = [(policy_id, None, None) for policy_id in runner.POLICY_IDS]
    for run in runner._simulate(scen, runs, trained.net):
        for column in run.records + (run.twin_log,):
            digest.update(column.tobytes())
        digest.update(repr(astuple(replace(run.summary, scenario_hash=""))).encode())
    return digest.hexdigest()


def test_every_key_changes_a_result(repo_root_scenarios):
    """Each key, set to another value on tiny.cfg (40 slots, 1 epoch), changes
    the labels, the trained net or a run of some policy: no key is inert."""
    assert OTHER_VALUES.keys() == _KEYS.keys()
    tiny = _tiny_values(repo_root_scenarios)
    inert = []
    for key, (value, context) in OTHER_VALUES.items():
        base = {k: v for k, v in (tiny | context).items() if v is not None}
        if _result_digest(base | {key: value}) == _result_digest(base):
            inert.append(key)
    assert inert == []


#: The edge values drawn for every key: zero, one, negatives, the smallest
#: (subnormal and normal) and largest finite floats, huge ints, a long list.
EDGES = ["0", "1", "-1", "5e-324", "2.2250738585072014e-308", repr(sys.float_info.max),
         repr(-sys.float_info.max), str(2**64), str(10**400), ",".join(["1"] * 1000)]
#: Keys that size the run's arrays or loops: judged at load only, since one
#: that loads may still be too large for the memory (exit 3, out of scope).
SIZE_KEYS = {("users", "embb"), ("users", "urllc"), ("grid", "num_rbs"), ("run", "horizon_slots"),
             ("train", "epochs"), ("train", "batch_size"), ("train", "hidden_sizes"),
             ("twin", "moderate_slots"), ("twin", "significant_slots"), ("twin", "cadence")}
#: Cases no load bound can be derived for: training diverges and exits 3.
DIVERGES = {
    (("qos", "embb_min_rate_bps"), str(2**64)):
        "the eMBB entry, 3.6e13, fits the float32 net's first pass, but training "
        "diverges: non-finite layer 1 pre-activation, exit 3",
    (("train", "learning_rate"), str(2**64)):
        "a step of 1.8e19 diverges: non-finite layer 2 pre-activation, exit 3",
}


def _non_finite(out: Path) -> list[str]:
    """Every output cell (CSV or summary) or weight that is not finite."""
    bad = [str(path) for path in out.glob("weights.bin")
           if not all(np.isfinite(a).all() for a in nn.load_weights(path)[0].weights)]
    for path in [*out.glob("*.csv"), *out.glob("*.summary")]:
        for cell in re.split(r"[,=\n]", path.read_text()):
            try:  # an int, such as a seed or a window, is exact at any size
                if not (re.fullmatch(r"-?\d+", cell) or math.isfinite(float(cell))):
                    bad.append(f"{path.name}: {cell}")
            except ValueError:
                pass  # a word, such as a policy id
    return bad


def _breach(scenarios: Path, key: tuple, value: str) -> Optional[str]:
    """How ``key = value`` on tiny.cfg (40 slots) breaks the load contract, or
    None. The contract: exit 2 naming the key before any work, or exit 0 with
    finite outputs (``run`` and ``train --epochs 1``); RuntimeWarnings raise.
    A size key is judged by loading alone, which must allocate nothing."""
    values = {k: v for k, v in (_tiny_values(scenarios) | OTHER_VALUES[key][1]).items()
              if v is not None}
    text = _scenario_text(values | {key: value})
    if key in SIZE_KEYS:
        tracemalloc.start()
        try:
            parse_scenario_text(text)
        except ConfigError as exc:
            if key[1] not in str(exc):
                return f"load error names no {key[1]}: {exc}"
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return f"load allocated {peak} bytes" if peak > 2**20 else None
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "edge.cfg")
        cfg.write_text(text)
        for argv in (["run"], ["train", "--epochs", "1"]):
            out, err = Path(tmp, argv[0]), io.StringIO()
            with mock.patch.object(runner, "_simulate", wraps=runner._simulate) as sim, \
                    mock.patch.object(runner, "collect_training_data",
                                      wraps=runner.collect_training_data) as label, \
                    redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main([*argv, "--scenario", str(cfg), "--out", str(out)])
            if code == EXIT_CONFIG and (sim.called or label.called):
                return f"{argv[0]} exits 2 after work started: {err.getvalue()}"
            if code == EXIT_CONFIG and key[1] not in err.getvalue():
                return f"{argv[0]}'s load error names no {key[1]}: {err.getvalue()}"
            if code not in (EXIT_CONFIG, EXIT_OK):
                return f"{argv[0]} exits {code}: {err.getvalue()}"
            if code == EXIT_OK and _non_finite(out):
                return f"{argv[0]} writes non-finite values: {_non_finite(out)[:3]}"
    return None


@pytest.mark.parametrize("key", list(OTHER_VALUES), ids=lambda key: key[1])
@given(value=st.sampled_from(EDGES))
def test_every_file_that_loads_runs_to_a_finite_result(repo_root_scenarios, key, value):
    """ROADMAP item 7: each key at each edge value, on tiny.cfg, exits 2 at
    load naming the key, or runs to finite outputs; the cases of DIVERGES
    are pinned below as strict xfails."""
    breach = _breach(repo_root_scenarios, key, value)
    assert breach is None or (key, value) in DIVERGES, f"{key[1]} = {value[:40]}: {breach}"


@pytest.mark.parametrize("key,value", [
    pytest.param(key, value, id=f"{key[1]}={value}",
                 marks=pytest.mark.xfail(strict=True, reason=why))
    for (key, value), why in DIVERGES.items()
])
def test_a_diverging_training_has_no_load_bound(repo_root_scenarios, key, value):
    assert _breach(repo_root_scenarios, key, value) is None
