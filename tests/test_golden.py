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
from twinslice.nn import TrainConfig
from twinslice.scenario import ExperimentSpec, load_scenario
from twinslice.twin import DelayClass

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "cadence/comparison.csv": "196b9eddccab07ffa33da9009bdc6e560ea6e979338680e46d7c525956585580",
    "cadence/oracle_lam2.csv": "a1f0916eac534e162cb0f95eef6c329e578b8ae2baa1d2d6ac89e5d436e4bd13",
    "cadence/oracle_lam2.csv.summary": "b6c6f71598001f00b9c4e742c17409f7eb9dfe46651a7377f83ab0f08cc695bf",
    "cadence/oracle_lam2.twin.csv": "c710d0144d626c2472e2433088ec37f66562d3a4cc261f675d2df9e67beb6721",
    "cadence/oracle_lam8.csv": "062853d644deb86ae4c3d2ef6beabebc5fee960f3a68aadb0a4fe30dcee6afa8",
    "cadence/oracle_lam8.csv.summary": "3f9e74db2888d0daeb35924fcc4ce432a3423ef96924c3c0e72eadb538da64a7",
    "cadence/oracle_lam8.twin.csv": "c710d0144d626c2472e2433088ec37f66562d3a4cc261f675d2df9e67beb6721",
    "cadence/orthogonal_lam2.csv": "bb97005fee03b845fb466fdc8432ae9d95803cde267ffd6143061840a84096ff",
    "cadence/orthogonal_lam2.csv.summary": "023cf9ac0172324b6ad955be7d9288a06dc006fffb053915d38ae163cb7e0bf7",
    "cadence/orthogonal_lam2.twin.csv": "c710d0144d626c2472e2433088ec37f66562d3a4cc261f675d2df9e67beb6721",
    "cadence/orthogonal_lam8.csv": "129f1d1b471c912d49ea5d9f02fb6c3f81b569df194e10fec622cf8ad5a1f91d",
    "cadence/orthogonal_lam8.csv.summary": "0b5cff5aaf0eb131b1848d7aa2f8ec3e25d091e6c07fdbfa0f7b6b02a70d1794",
    "cadence/orthogonal_lam8.twin.csv": "c710d0144d626c2472e2433088ec37f66562d3a4cc261f675d2df9e67beb6721",
    "default/comparison.csv": "05a4bc6faa4bb9ead1ab7e568b2aed89e1c76ce74d5d63d29b6c073384c2a383",
    "default/dnn_repair_lam100.csv": "61cf794dd846d5f6d1e5f1214be4918dc8115b1cb4299e6c99481728b487b477",
    "default/dnn_repair_lam100.csv.summary": "8fe757f0795133597f54f4f4f278f85d7642f72ef1a44cd9534c30b1f0a7614b",
    "default/dnn_repair_lam100.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "default/dnn_repair_lam200.csv": "63a6b5973ccc950fbca47c6b8029d8193254e1a45d5826568f413b7fbf8cccc2",
    "default/dnn_repair_lam200.csv.summary": "be21c32adacac73f1b4e2f09dd38e67df645d0cafb1c23d3c2d408fd80948134",
    "default/dnn_repair_lam200.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "default/oracle_lam100.csv": "99f2cd0c8d94777a39182f39da67f39a891cb4d8ad167a0ca393253c1b490405",
    "default/oracle_lam100.csv.summary": "87628af65b7586f5cfc1f083a34884af8e00df1da464a89fcfe7819c9b742a69",
    "default/oracle_lam100.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "default/oracle_lam200.csv": "c6f2d22f84ca70d6aeb28ca9310b4cbabd6b1fbd8c1dbed1d14cbbf20a2a14a4",
    "default/oracle_lam200.csv.summary": "18d3e065a1124d096266c6ad0ab85064987fa99dfd638ee66341b6fe510e846e",
    "default/oracle_lam200.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "default/orthogonal_lam100.csv": "b82110e6059b7069e7dbaf2062388ac271503dadf5de6dba9e1c2012a063cdd7",
    "default/orthogonal_lam100.csv.summary": "b86f6708b8570a98b0084804f21f15f011703ec92f6c6184a7b3fd8dfcf9e36e",
    "default/orthogonal_lam100.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "default/orthogonal_lam200.csv": "d599644018ffb9ae3e712de346d948fbc187b980c2f397d03133baa4f5fadfcc",
    "default/orthogonal_lam200.csv.summary": "b99cec47d2d5ff03c977e10e90b808c5e4829bef9d5b7238141e4350090fe54e",
    "default/orthogonal_lam200.twin.csv": "814fc0cf7acecc49e6d1ddceacf16c83981f25121c1a4454b5038748a7facff6",
    "overload/comparison.csv": "16db678ddac57e3cef5084711637d6da17d974578431867d9a52cbb4338734e7",
    "overload/oracle_lam400.csv": "9cd94f68522b830a812c9292e48fb3e4e709cee5332156a0ec1150decebd8638",
    "overload/oracle_lam400.csv.summary": "3e4717cbe560f70afd2fe1ac7a4c1c3d66bade6808446d7b417a666e4fac0bd0",
    "overload/oracle_lam600.csv": "3543ca578a7db1111175cfa40a40767c812073276b12151e278c481548306755",
    "overload/oracle_lam600.csv.summary": "7f2ef4cc04d95d988d7bbdf54b665c970f14030b6bb280d3cb277edcdb050da6",
    "schedule/comparison.csv": "a4bb9f0c40acd0e48c2b01b79fddd6f5bc5846a2be6f6a7c7c1a25591577405e",
    "schedule/dnn_lamschedule.csv": "2474b97e79a8a0b0002c36e50b61810110cca4713e53afffc19e9a605c117445",
    "schedule/dnn_lamschedule.csv.summary": "6059f2f5ce28865fc0c433f302d36c5c4545a5ab2e41d7097040cd14c869a271",
    "schedule/dnn_lamschedule.twin.csv": "6fe58b1ed6c31c3ed87d35efd98af657046de71a96f628e34002a98a0dbb0953",
    "schedule/oracle_lamschedule.csv": "7f52c337a26feb052729022374d987375ded061f1ec513017425d865fb2b351c",
    "schedule/oracle_lamschedule.csv.summary": "184ce3025b9760a2e1112487c62531aa1b485c161423b78968f096b162b48b7c",
    "schedule/oracle_lamschedule.twin.csv": "6fe58b1ed6c31c3ed87d35efd98af657046de71a96f628e34002a98a0dbb0953",
    "schedule/orthogonal_lamschedule.csv": "97c1eda38acd3a090d2725c396d16d99778b2fbfb19b1330711a38bf5154af98",
    "schedule/orthogonal_lamschedule.csv.summary": "3d5c38d5b285242fe90c3f6b6311c2d4254ebee6e7810c4927f3f3eef79c10be",
    "schedule/orthogonal_lamschedule.twin.csv": "6fe58b1ed6c31c3ed87d35efd98af657046de71a96f628e34002a98a0dbb0953",
    "tiny/comparison.csv": "85ecf7b5fcff7563ee6183b7547b415d3381d03519d548aca0a0dd57278474fe",
    "tiny/oracle_lam16.csv": "c607ccd224b6114e684c02427a0ac7fcf64a903fdd3976947e74f17177709316",
    "tiny/oracle_lam16.csv.summary": "733660420025d1c63c1bd87861784ef11907d44fc9f2562eb37a859fe23891d7",
    "tiny/oracle_lam16.twin.csv": "d5dc118af9a076a6f0937a75b61c8e8a85caf2e93586d41490f95541e506edcf",
    "tiny/oracle_lam2.csv": "0a3a1aeb52963779f1c31396219e3a6cb9c212ac22e9da2497a2bf65b2bed040",
    "tiny/oracle_lam2.csv.summary": "f3290cb0c9faf342a10bf1cca94408ecef11dce738cae4b8741f978948567d92",
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
        hidden_sizes=(16,),
        train=TrainConfig(epochs=2, learning_rate=0.02, batch_size=16, seed=0),
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
    # A 2-slot delay delivered every third slot: a snapshot is still served
    # two slots after the delay alone would let it go, from the cadence's
    # part of the twin's ring.
    runner.run_experiment(
        ExperimentSpec(
            scenario=replace(tiny, twin_delay=DelayClass.MODERATE, twin_cadence=3),
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
