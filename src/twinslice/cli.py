"""Command-line front end.

Verbs: run | train | eval | compare | sweep. The output directory can be
overridden with the TWINSLICE_OUT environment variable; nothing else is
read from the environment.

Exit codes:

* 0: success.
* 2: a configuration fault, found before any simulation or training work:
  bad flags or flag values, an unknown policy, a missing or invalid
  scenario file (parse error, unknown key, value out of range or not
  finite), a dnn policy without --weights, a weights file that is
  missing, malformed, truncated, of another format version or dtype, or
  shaped for another scenario, an
  orthogonal run whose urllc_fraction gives blocks to a class without users,
  or an output directory that is empty or is, or lies under, a file.
* 3: a runtime failure while simulating, training or writing outputs,
  such as a non-finite training loss, a run whose mean rates or spectral
  efficiency are not finite (it writes no files), or an output directory
  that cannot be written, for example for lack of permission.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import NamedTuple, Optional, Sequence

from . import runner
from .domain import ConfigError
from .runner import POLICY_IDS
from .scenario import ExperimentSpec, Scenario, lam_tag, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

DEFAULT_SWEEP = (100.0, 125.0, 150.0, 175.0, 200.0)


class _Verb(NamedTuple):
    help: str
    policies: tuple[str, ...]  # simulated when no --policy is given
    one_policy: bool = False
    sweep: bool = False  # takes --lambdas


#: The verbs that simulate policies; each one is handled by _cmd_simulate.
_SIMULATE = {
    "run": _Verb(
        "simulate one policy on the scenario", ("orthogonal",), one_policy=True
    ),
    "eval": _Verb("evaluate trained weights (dnn+repair)", ("dnn+repair",)),
    "compare": _Verb(
        "run several policies at the scenario load", ("orthogonal", "dnn+repair")
    ),
    "sweep": _Verb(
        "policy x lambda sweep with comparison table",
        ("orthogonal", "dnn+repair"),
        sweep=True,
    ),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scenario file; omit for built-in defaults")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", default="out", help="output directory (default: out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinslice",
        description="Twin-driven eMBB/URLLC slicing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, verb in _SIMULATE.items():
        p = sub.add_parser(name, help=verb.help)
        _add_common(p)
        p.add_argument(
            "--policy",
            action="append",
            help=f"policy id, repeatable or comma-separated ({'|'.join(POLICY_IDS)})",
        )
        p.add_argument("--weights", help="trained weights file for dnn policies")
        p.add_argument(
            "--dump-twin",
            action="store_true",
            help="also write a per-slot twin staleness log beside each run CSV",
        )
        if verb.sweep:
            p.add_argument(
                "--lambdas",
                help="comma-separated arrival rates (default: "
                + ",".join(f"{v:g}" for v in DEFAULT_SWEEP)
                + ")",
            )
        p.set_defaults(handler=_cmd_simulate)

    p_train = sub.add_parser("train", help="train the neural allocator")
    _add_common(p_train)
    p_train.add_argument("--epochs", type=int, help="override [train] epochs")
    p_train.add_argument("--lr", type=float, help="override [train] learning_rate")
    p_train.add_argument("--batch", type=int, help="override [train] batch_size")
    p_train.set_defaults(handler=_cmd_train)

    return parser


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario) if args.scenario else Scenario()
    if args.seed is not None:
        try:
            scenario = scenario.with_seed(args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed {args.seed}: {exc}") from exc
    return scenario


def _out_dir(args) -> str:
    out = os.environ.get("TWINSLICE_OUT", args.out)
    if not out:
        raise ConfigError("the output directory (--out or TWINSLICE_OUT) is empty")
    found = os.path.abspath(out)
    while not os.path.exists(found):  # the nearest existing path, maybe out itself
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise ConfigError(f"the output directory (--out or TWINSLICE_OUT) {out!r} "
                          f"is or lies under {found!r}, which is not a directory")
    return out


def _policies(args, default: tuple[str, ...]) -> tuple[str, ...]:
    if not args.policy:
        return default
    flat: list[str] = []
    for entry in args.policy:
        flat.extend(p.strip() for p in entry.split(",") if p.strip())
    for p in flat:
        if p not in POLICY_IDS:
            raise ConfigError(f"unknown policy {p!r}; known: {', '.join(POLICY_IDS)}")
    return tuple(flat)


def _cmd_simulate(args) -> int:
    verb = _SIMULATE[args.command]
    policies = _policies(args, verb.policies)
    if verb.one_policy and len(policies) != 1:
        raise ConfigError(
            f"{args.command} takes exactly one --policy; use compare for several"
        )
    lambdas = DEFAULT_SWEEP if verb.sweep else None
    if verb.sweep and args.lambdas is not None:
        try:
            lambdas = tuple(float(v) for v in args.lambdas.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse --lambdas {args.lambdas!r}") from None
    if any(p.startswith("dnn") for p in policies) and not args.weights:
        raise ConfigError("dnn policies need --weights pointing to weights.bin")
    spec = ExperimentSpec(
        scenario=_load(args),
        policies=policies,
        out_dir=_out_dir(args),
        lambdas=lambdas,
        weights_path=args.weights,
        dump_twin=args.dump_twin,
    )
    _print_results(runner.run_experiment(spec))
    return EXIT_OK


def _cmd_train(args) -> int:
    scenario = _load(args)
    flags = {"epochs": args.epochs, "learning_rate": args.lr, "batch_size": args.batch}
    try:
        train = replace(
            scenario.train, **{k: v for k, v in flags.items() if v is not None}
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    artifacts = runner.train_command(
        replace(scenario, train=train), out_dir=_out_dir(args)
    )
    first = artifacts.result.loss_curve[0][2]
    last = artifacts.result.loss_curve[-1][2]
    print(
        f"trained on {artifacts.dataset_size} snapshots: "
        f"loss {first:.4f} -> {last:.4f}"
    )
    print(f"weights: {artifacts.weights_path}")
    print(f"loss curve: {artifacts.loss_csv_path}")
    return EXIT_OK


def _print_results(results) -> None:
    print(f"{'policy':<12} {'lambda':>9} {'mean SE':>10} {'outage':>8} {'exceed':>8}")
    for policy_id, lam, summary in results:
        print(
            f"{policy_id:<12} {lam_tag(lam):>9} "
            f"{summary.mean_spectral_efficiency:>10.4f} "
            f"{summary.outage_probability:>8.4f} "
            f"{summary.cdf.exceedance_mass:>8.4f}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches our config-error code
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
