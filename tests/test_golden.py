"""Golden digests: every file a short experiment writes, pinned by sha256.

Speed-ups must leave all of them unchanged. A change that alters the
channel or arrival draw order, the rate arithmetic or training re-baselines
them on purpose: print the new table with
``PYTHONPATH=src python tests/test_golden.py``, which marks each entry that
differs from ``GOLDEN`` (or is not in it, or is missing), and say why in
CHANGES.md.
"""
import hashlib
from dataclasses import replace
from pathlib import Path

from twinslice import runner
from twinslice.scenario import ExperimentSpec, TrainSettings, load_scenario
from twinslice.twin import DelayClass

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "cadence/comparison.csv": "196b9eddccab07ffa33da9009bdc6e560ea6e979338680e46d7c525956585580",
    "cadence/oracle_lam2.csv": "a1f0916eac534e162cb0f95eef6c329e578b8ae2baa1d2d6ac89e5d436e4bd13",
    "cadence/oracle_lam2.csv.summary": "b126575934f213351ceb0acd1b7bf2f6cdbf728d6c239f2b6196c7122a9e864d",
    "cadence/oracle_lam2.twin.csv": "c710d0144d626c2472e2433088ec37f66562d3a4cc261f675d2df9e67beb6721",
    "cadence/oracle_lam8.csv": "062853d644deb86ae4c3d2ef6beabebc5fee960f3a68aadb0a4fe30dcee6afa8",
    "cadence/oracle_lam8.csv.summary": "48b65f78e6cad4e8363f78e34bbdbff2ce46a794606de32159eb1f83fad448ea",
    "cadence/oracle_lam8.twin.csv": "c710d0144d626c2472e2433088ec37f66562d3a4cc261f675d2df9e67beb6721",
    "cadence/orthogonal_lam2.csv": "bb97005fee03b845fb466fdc8432ae9d95803cde267ffd6143061840a84096ff",
    "cadence/orthogonal_lam2.csv.summary": "a5b6b5826df4da1d6637d45e9ae85a810e3938856a260a43dd917020b8211ae7",
    "cadence/orthogonal_lam2.twin.csv": "c710d0144d626c2472e2433088ec37f66562d3a4cc261f675d2df9e67beb6721",
    "cadence/orthogonal_lam8.csv": "129f1d1b471c912d49ea5d9f02fb6c3f81b569df194e10fec622cf8ad5a1f91d",
    "cadence/orthogonal_lam8.csv.summary": "189e43d4d5f33eecb7a20cbd5d829699e1fc5d2c7d2e2b5dacfe49150d74bf25",
    "cadence/orthogonal_lam8.twin.csv": "c710d0144d626c2472e2433088ec37f66562d3a4cc261f675d2df9e67beb6721",
    "default/comparison.csv": "05a4bc6faa4bb9ead1ab7e568b2aed89e1c76ce74d5d63d29b6c073384c2a383",
    "default/dnn_repair_lam100.csv": "61cf794dd846d5f6d1e5f1214be4918dc8115b1cb4299e6c99481728b487b477",
    "default/dnn_repair_lam100.csv.summary": "5e2751ca27171dbdb03fcd97670ef87bc2e610fb28e1aa1e05af0fc961ba3fd1",
    "default/dnn_repair_lam100.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "default/dnn_repair_lam200.csv": "63a6b5973ccc950fbca47c6b8029d8193254e1a45d5826568f413b7fbf8cccc2",
    "default/dnn_repair_lam200.csv.summary": "fe5ffebd160998f01007b20e265ca10fa2c93540ee640aa7fca40202f1037090",
    "default/dnn_repair_lam200.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "default/oracle_lam100.csv": "99f2cd0c8d94777a39182f39da67f39a891cb4d8ad167a0ca393253c1b490405",
    "default/oracle_lam100.csv.summary": "9ea616ca0e7123d326db102e89b104e6938e022cb624b250a342eb60c87f8b39",
    "default/oracle_lam100.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "default/oracle_lam200.csv": "c6f2d22f84ca70d6aeb28ca9310b4cbabd6b1fbd8c1dbed1d14cbbf20a2a14a4",
    "default/oracle_lam200.csv.summary": "5fdf08c52904ece3c7e4b58f662a92efbb662c4a899874103a6c8109ebe141c9",
    "default/oracle_lam200.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "default/orthogonal_lam100.csv": "b82110e6059b7069e7dbaf2062388ac271503dadf5de6dba9e1c2012a063cdd7",
    "default/orthogonal_lam100.csv.summary": "7b8e61eef4a36c7b4e556214e1a1c301939872c8897e7af098253433af390375",
    "default/orthogonal_lam100.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "default/orthogonal_lam200.csv": "d599644018ffb9ae3e712de346d948fbc187b980c2f397d03133baa4f5fadfcc",
    "default/orthogonal_lam200.csv.summary": "1ce0bf17199940644538c47377be18fd26e512ff42335f1f7ea9ae32f44b1259",
    "default/orthogonal_lam200.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "overload/comparison.csv": "16db678ddac57e3cef5084711637d6da17d974578431867d9a52cbb4338734e7",
    "overload/oracle_lam400.csv": "9cd94f68522b830a812c9292e48fb3e4e709cee5332156a0ec1150decebd8638",
    "overload/oracle_lam400.csv.summary": "41adc7592133f8cab30799bcb7fc0a9b0831c12bcff4868d6d921514c658f8ec",
    "overload/oracle_lam600.csv": "3543ca578a7db1111175cfa40a40767c812073276b12151e278c481548306755",
    "overload/oracle_lam600.csv.summary": "1ab27f7ea935f1fcb10982455f5d495ddda4f15b89d079f1c35500c2989eaf91",
    "schedule/comparison.csv": "a4bb9f0c40acd0e48c2b01b79fddd6f5bc5846a2be6f6a7c7c1a25591577405e",
    "schedule/dnn_lamschedule.csv": "2474b97e79a8a0b0002c36e50b61810110cca4713e53afffc19e9a605c117445",
    "schedule/dnn_lamschedule.csv.summary": "b14d5ce01cb0036ac11c2399adf00f66cae47b823b23e4908e83d891da7d3b6f",
    "schedule/dnn_lamschedule.twin.csv": "6fe58b1ed6c31c3ed87d35efd98af657046de71a96f628e34002a98a0dbb0953",
    "schedule/oracle_lamschedule.csv": "7f52c337a26feb052729022374d987375ded061f1ec513017425d865fb2b351c",
    "schedule/oracle_lamschedule.csv.summary": "12cd2d90565938286f000d3e181885856ae3571b24b1e82c6806c42bc5c25b94",
    "schedule/oracle_lamschedule.twin.csv": "6fe58b1ed6c31c3ed87d35efd98af657046de71a96f628e34002a98a0dbb0953",
    "schedule/orthogonal_lamschedule.csv": "97c1eda38acd3a090d2725c396d16d99778b2fbfb19b1330711a38bf5154af98",
    "schedule/orthogonal_lamschedule.csv.summary": "f81bfeb5aa5851ff2ef03b363233d7bdc75bc7092b6648d3500a4ded97c8eca2",
    "schedule/orthogonal_lamschedule.twin.csv": "6fe58b1ed6c31c3ed87d35efd98af657046de71a96f628e34002a98a0dbb0953",
    "tiny/comparison.csv": "85ecf7b5fcff7563ee6183b7547b415d3381d03519d548aca0a0dd57278474fe",
    "tiny/oracle_lam16.csv": "c607ccd224b6114e684c02427a0ac7fcf64a903fdd3976947e74f17177709316",
    "tiny/oracle_lam16.csv.summary": "ba86f4cffe6ef7faab524befb327e6b561737380bd3b437d1de46bf9e7f3cc8c",
    "tiny/oracle_lam16.twin.csv": "d5dc118af9a076a6f0937a75b61c8e8a85caf2e93586d41490f95541e506edcf",
    "tiny/oracle_lam2.csv": "0a3a1aeb52963779f1c31396219e3a6cb9c212ac22e9da2497a2bf65b2bed040",
    "tiny/oracle_lam2.csv.summary": "ba4490dd7db008e14211efd5a2d1e89ab7358de07b15c5d1eff693210ca96c3f",
    "tiny/oracle_lam2.twin.csv": "d5dc118af9a076a6f0937a75b61c8e8a85caf2e93586d41490f95541e506edcf",
    "train/loss_curve.csv": "6f4708186142f3b370d36297fe2e1fb011ace458fe213e84c73d101e9d642ebd",
    "train/weights.bin": "60ffccf90f7be0f3d1fa626e30cab204a4f53be3659823d5b8dbffcbbe160c9f",
}


def _digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def golden_run(root: Path) -> dict[str, str]:
    """Train a tiny net on default.cfg, sweep three policies there, run three
    on its lambda schedule behind a moderate delay delivered every second
    slot, run the greedy oracle there under heavy load, and run the
    exhaustive oracle on
    tiny.cfg behind a significant twin delay, then it and orthogonal behind
    a moderate delay delivered every third slot."""
    default = replace(
        load_scenario(SCENARIOS / "default.cfg"),
        horizon_slots=100,
        outage_window=40,
        train=TrainSettings(
            epochs=2, learning_rate=0.02, batch_size=16, hidden_sizes=(16,), seed=0
        ),
    )
    artifacts = runner.train_command(default, out_dir=str(root / "train"))
    runner.run_experiment(
        ExperimentSpec(
            scenario=default,
            policies=("orthogonal", "oracle", "dnn+repair"),
            out_dir=str(root / "default"),
            lambdas=(100.0, 200.0),
            weights_path=artifacts.weights_path,
            dump_twin=True,
        )
    )
    tiny = replace(
        load_scenario(SCENARIOS / "tiny.cfg"),
        horizon_slots=60,
        outage_window=20,
        twin_delay=DelayClass.SIGNIFICANT,
    )
    runner.run_experiment(
        ExperimentSpec(
            scenario=tiny,
            policies=("oracle",),
            out_dir=str(root / "tiny"),
            lambdas=(2.0, 16.0),
            dump_twin=True,
        )
    )
    # A 2-slot delay delivered every third slot from a history of exactly
    # delay + 1 states: a snapshot is served for two slots after the slot it
    # was captured at has left the kept history.
    runner.run_experiment(
        ExperimentSpec(
            scenario=replace(
                tiny,
                twin_delay=DelayClass.MODERATE,
                twin_cadence=3,
                history_depth=3,
            ),
            policies=("orthogonal", "oracle"),
            out_dir=str(root / "cadence"),
            lambdas=(2.0, 8.0),
            dump_twin=True,
        )
    )
    # Plain dnn, the scenario's own lambda schedule and a snapshot served for
    # two slots, all on default.cfg in one experiment.
    runner.run_experiment(
        ExperimentSpec(
            scenario=replace(
                default,
                horizon_slots=60,
                outage_window=20,
                twin_delay=DelayClass.MODERATE,
                twin_cadence=2,
            ),
            policies=("dnn", "orthogonal", "oracle"),
            out_dir=str(root / "schedule"),
            lambdas=None,
            weights_path=artifacts.weights_path,
            dump_twin=True,
        )
    )
    # Overload for the greedy oracle: at lambda = 400 the URLLC deficit
    # closes only in the last one to six picks of a slot; at 600 it never
    # closes, so the picks never reach the all-deficits-closed finish.
    runner.run_experiment(
        ExperimentSpec(
            scenario=replace(default, horizon_slots=60, outage_window=20),
            policies=("oracle",),
            out_dir=str(root / "overload"),
            lambdas=(400.0, 600.0),
        )
    )
    return _digests(root)


def test_outputs_match_golden_digests(tmp_path):
    assert golden_run(tmp_path) == GOLDEN


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        digests = golden_run(Path(d))
    for name, digest in digests.items():
        mark = ""
        if name not in GOLDEN:
            mark = "  # new"
        elif GOLDEN[name] != digest:
            mark = "  # changed"
        print(f'    "{name}": "{digest}",{mark}')
    for name in sorted(GOLDEN.keys() - digests.keys()):
        print(f'    # missing: "{name}"')
