"""Scenario files: the documented key-value format, defaults and validation.

Grammar (also documented in the README):

* full-line comments start with ``#``; blank lines are ignored
* ``[section]`` headers group keys; a section may appear once
* ``key = value`` lines; a key may appear once within its section
* values are integers, floats, words, or comma-separated lists; floats
  must be finite, except ``rician_k = inf`` (no fading)

Loading is pure: the same bytes always produce the same Scenario, and the
scenario hash is a digest of the fully-resolved configuration (defaults
included), so it also identifies runs built with overrides.
"""
from __future__ import annotations

import enum
import hashlib
import itertools
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Callable, Optional, Sequence

from .domain import ConfigError, QoSRequirement, ResourceGrid, ServiceClass, UserTerminal
from .envsim import Environment, FadingModel, FadingParams, LinkBudget, db_to_linear
from .nn import FeatureScaling, TrainConfig
from .twin import DelayClass, DigitalTwin


#: The largest feature scale max(1, mean SNR) / reference: the float32 maximum
#: over 1e9, 1e3 for fading gains above the mean times 1e6 for the first layer.
FEATURE_SCALE_MAX = 3.4028234663852886e38 / 1e9
#: The largest Poisson rate numpy's ``Generator.poisson`` draws at.
POISSON_LAM_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


class ScenarioError(ConfigError):
    """Base class for scenario loading failures."""


class ScenarioParseError(ScenarioError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ScenarioSemanticError(ScenarioError):
    pass


@dataclass(frozen=True)
class LambdaSchedule:
    """Slot-indexed URLLC arrival rate: constant, or cycling held values."""

    values: tuple[float, ...]
    dwell: int = 100  # slots each value is held before moving on

    def __post_init__(self):
        if not self.values:
            raise ValueError("schedule needs at least one value")
        if any(v < 0 for v in self.values):
            raise ValueError("lambda values must be >= 0")
        if self.dwell < 1:
            raise ValueError("dwell must be >= 1")

    @classmethod
    def constant(cls, value: float) -> "LambdaSchedule":
        return cls(values=(float(value),), dwell=1)

    def at(self, t: int) -> float:
        return self.values[(t // self.dwell) % len(self.values)]


#: Default per-class link budget spans; users get evenly staggered means so
#: the scheduler faces a stable user ranking instead of pure fading noise.
EMBB_SNR_SPAN_DB = (8.0, 13.0)
URLLC_SNR_SPAN_DB = (0.0, 4.0)


def _class_snrs(
    given: tuple[float, ...], span: tuple[float, float], n: int
) -> tuple[float, ...]:
    """Mean SNRs of one class's users: as given, one value for every user,
    or, when none is given, staggered evenly across ``span``."""
    if len(given) == 1:
        return given * n
    if given:
        return given
    lo, hi = span
    if n <= 1:
        return ((lo + hi) / 2.0,) * n
    step = (hi - lo) / (n - 1)
    return tuple(lo + i * step for i in range(n))


@dataclass(frozen=True)
class Scenario:
    n_embb: int = 10
    n_urllc: int = 10
    # () means "stagger the defaults across the class's users"
    embb_mean_snr_db: tuple[float, ...] = ()
    urllc_mean_snr_db: tuple[float, ...] = ()
    fading: FadingParams = field(
        default_factory=lambda: FadingParams(FadingModel.RICIAN, k_factor=5.0)
    )
    num_rbs: int = 50
    rb_bandwidth: float = 1e6
    slot_duration: float = 1e-3
    lambda_schedule: LambdaSchedule = field(
        default_factory=lambda: LambdaSchedule.constant(100.0)
    )
    qos: QoSRequirement = field(default_factory=QoSRequirement)
    twin_delay: DelayClass = DelayClass.MINIMAL
    moderate_slots: int = 2
    significant_slots: int = 20
    twin_cadence: int = 1
    seed: int = 1
    horizon_slots: int = 5000
    outage_window: int = 100
    urllc_fraction: float = 0.5
    reference_snr_db: float = 10.0
    reference_lambda: float = 100.0
    hidden_sizes: tuple[int, ...] = (600, 300, 250)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.n_embb < 0 or self.n_urllc < 0 or self.n_embb + self.n_urllc < 1:
            raise ValueError("need at least one user")
        for name, count, snrs in (
            ("embb_mean_snr_db", self.n_embb, self.embb_mean_snr_db),
            ("urllc_mean_snr_db", self.n_urllc, self.urllc_mean_snr_db),
        ):
            if len(snrs) not in (0, 1, count):
                raise ValueError(
                    f"{name} must be a scalar or one value per user "
                    f"({count}), got {len(snrs)}"
                )
        if self.seed < 0:
            raise ValueError(f"[run] seed must be >= 0, got {self.seed}")
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")
        if self.outage_window < 1:
            raise ValueError("outage_window must be >= 1")
        if not 0.0 <= self.urllc_fraction <= 1.0:
            raise ValueError("urllc_fraction must be in [0, 1]")
        self.make_twin()  # checks the [twin] keys
        if not self.reference_lambda > 0:
            raise ValueError("reference_lambda must be > 0")
        n, lam = self.n_urllc, max(self.lambda_schedule.values)
        if n and not lam / n <= POISSON_LAM_MAX:  # each URLLC user's rate; none if n = 0
            raise ConfigError(f"urllc_lambda {lam:g} over {n} URLLC users gives each a "
                              f"Poisson rate over numpy's limit {POISSON_LAM_MAX:g}")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")
        # Exercise the constituent type invariants now, not at first use.
        ResourceGrid(self.num_rbs, self.rb_bandwidth)
        if not math.isfinite(self.num_rbs * self.rb_bandwidth):
            raise ValueError(
                f"rb_bandwidth_hz = {self.rb_bandwidth:g} gives a system "
                f"bandwidth over {self.num_rbs} blocks that is not finite"
            )
        for name, snrs in (
            ("embb_mean_snr_db", self.embb_snrs()),
            ("urllc_mean_snr_db", self.urllc_snrs()),
            ("reference_snr_db", (self.reference_snr_db,)),
        ):
            for snr_db in snrs:
                try:
                    db_to_linear(snr_db)
                except OverflowError:
                    raise ValueError(
                        f"{name} = {snr_db:g} dB has no finite linear value"
                    ) from None
        if not (math.isfinite(self.slot_duration) and self.slot_duration > 0):
            raise ValueError(
                f"slot_duration_s must be finite and > 0, got {self.slot_duration}"
            )

    # -- derived objects ---------------------------------------------------

    @property
    def grid(self) -> ResourceGrid:
        return ResourceGrid(self.num_rbs, self.rb_bandwidth)

    def embb_snrs(self) -> tuple[float, ...]:
        return _class_snrs(self.embb_mean_snr_db, EMBB_SNR_SPAN_DB, self.n_embb)

    def urllc_snrs(self) -> tuple[float, ...]:
        return _class_snrs(self.urllc_mean_snr_db, URLLC_SNR_SPAN_DB, self.n_urllc)

    def users(self) -> tuple[UserTerminal, ...]:
        """eMBB users take ids 0..n_embb-1, URLLC users follow."""
        classes = [(ServiceClass.EMBB, snr) for snr in self.embb_snrs()]
        classes += [(ServiceClass.URLLC, snr) for snr in self.urllc_snrs()]
        return tuple(
            UserTerminal(id=i, service=service, link=LinkBudget(snr, self.fading))
            for i, (service, snr) in enumerate(classes)
        )

    def scaling(self) -> FeatureScaling:
        """The feature encoder's references, checked before any labelling or
        simulation: the float32 net reads SNRs / reference (FEATURE_SCALE_MAX)."""
        ref = db_to_linear(self.reference_snr_db)
        peak = max(1.0, *map(db_to_linear, self.embb_snrs() + self.urllc_snrs()))
        if ref == 0.0 or not peak / ref <= FEATURE_SCALE_MAX:
            raise ConfigError(
                f"reference_snr_db = {self.reference_snr_db:g} dB is too small: the "
                f"float32 net reads SNRs up to {peak:g} divided by it, over "
                f"{FEATURE_SCALE_MAX:g}"
            )
        return FeatureScaling(
            reference_snr_db=self.reference_snr_db,
            reference_lambda=self.reference_lambda,
            slot_duration=self.slot_duration,
        )

    def environment(
        self,
        seed: Optional[int] = None,
        lam_override: Optional[float] = None,
    ) -> Environment:
        return self.environments([seed], [lam_override])

    def environments(
        self,
        seeds: Sequence[Optional[int]],
        lam_overrides: Sequence[Optional[float]],
    ) -> Environment:
        """Runs in lockstep, one per (seed, lambda override); None is the
        scenario's seed or schedule, and an override passes ``with_lambda``."""
        schedules = [
            self.lambda_schedule if lam is None else self.with_lambda(lam).lambda_schedule
            for lam in lam_overrides
        ]
        return Environment(
            users=self.users(),
            grid=self.grid,
            qos=self.qos,
            slot_duration=self.slot_duration,
            lambda_schedules=[schedule.at for schedule in schedules],
            seeds=[self.seed if seed is None else seed for seed in seeds],
            delay_slots=self.make_twin().delay_slots,
        )

    def make_twin(self) -> DigitalTwin:
        return DigitalTwin(
            delay=self.twin_delay,
            moderate_slots=self.moderate_slots,
            significant_slots=self.significant_slots,
            cadence=self.twin_cadence,
        )

    def with_lambda(self, lam: float) -> "Scenario":
        return replace(self, lambda_schedule=LambdaSchedule.constant(lam))

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)

    def canonical_text(self) -> str:
        """Fully-resolved key=value dump, one line per key of ``_KEYS`` with
        the SNRs resolved per user; the schedule's lines hold a constant
        ``urllc_lambda``. The basis of the scenario hash."""
        resolved = {"embb_mean_snr_db": self.embb_snrs(), "urllc_mean_snr_db": self.urllc_snrs()}
        lines = []
        for (section, key), (kind, name) in _KEYS.items():
            if key != "urllc_lambda":
                value = resolved[name] if name in resolved else attrgetter(name)(self)
                lines.append(f"{section}.{_DUMP_NAMES.get(key, key)}={_format(kind, value)}")
        return "\n".join(lines) + "\n"

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def lam_tag(lam: Optional[float]) -> str:
    """A run's lambda as its file names and the comparison table give it."""
    return "schedule" if lam is None else f"{lam:g}"


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: Scenario
    policies: tuple[str, ...]
    out_dir: str
    lambdas: Optional[tuple[float, ...]] = None  # None = scenario schedule
    weights_path: Optional[str] = None
    dump_twin: bool = False  # also write per-slot twin snapshot logs

    def __post_init__(self):
        if not self.policies:
            raise ConfigError("need at least one policy")
        if self.lambdas is not None and not self.lambdas:
            raise ConfigError(
                "lambdas is empty: give at least one sweep value, or None for "
                "the scenario schedule"
            )
        lambdas = self.lambdas or ()
        if not all(0 <= v < math.inf for v in lambdas):
            raise ConfigError(f"sweep values must be finite and >= 0, got {lambdas}")
        for lam in lambdas:
            self.scenario.with_lambda(lam)  # the run's scenario checks it
        stems = [stem for _, _, stem in self.runs()]
        clash = sorted({stem for stem in stems if stems.count(stem) > 1})
        if clash:
            raise ConfigError(
                f"runs would overwrite each other's {', '.join(c + '.csv' for c in clash)}:"
                " a policy is named twice, or two lambdas print the same with :g"
            )

    def runs(self) -> list[tuple[str, Optional[float], str]]:
        """Every (policy_id, lambda, file stem) run, in run order: each
        policy with each lambda, or with the scenario schedule (None)."""
        lambdas = self.lambdas if self.lambdas is not None else (None,)
        return [
            (policy_id, lam, f"{policy_id.replace('+', '_')}_lam{lam_tag(lam)}")
            for policy_id, lam in itertools.product(self.policies, lambdas)
        ]


# -- parsing -----------------------------------------------------------------


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _finite_floats(raw: str) -> tuple[float, ...]:
    return tuple(_finite_float(p) for p in raw.split(","))


def _float_or_inf(raw: str) -> float:
    """A finite float or +inf: a Rician K of inf is the no-fading case."""
    value = float(raw)
    if not (math.isfinite(value) or value == math.inf):
        raise ValueError(raw)
    return value


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(","))


#: (section, key) -> (value kind, the Scenario field it sets). A kind is the
#: converter whose name parse errors quote; a dotted field sets one attribute
#: of a nested object. Keys a file leaves out keep their dataclass defaults,
#: which are the only defaults there are. The order is the canonical dump's.
_KEYS: dict[tuple[str, str], tuple[Callable, str]] = {
    ("users", "embb"): (int, "n_embb"),
    ("users", "urllc"): (int, "n_urllc"),
    ("users", "embb_mean_snr_db"): (_finite_floats, "embb_mean_snr_db"),
    ("users", "urllc_mean_snr_db"): (_finite_floats, "urllc_mean_snr_db"),
    ("channel", "fading"): (FadingModel, "fading.model"),
    ("channel", "rician_k"): (_float_or_inf, "fading.k_factor"),
    ("grid", "num_rbs"): (int, "num_rbs"),
    ("grid", "rb_bandwidth_hz"): (_finite_float, "rb_bandwidth"),
    ("grid", "slot_duration_s"): (_finite_float, "slot_duration"),
    # a constant rate; the builder wraps it in LambdaSchedule.constant
    ("traffic", "urllc_lambda"): (_finite_float, "lambda_schedule"),
    ("traffic", "urllc_lambda_values"): (_finite_floats, "lambda_schedule.values"),
    ("traffic", "urllc_lambda_dwell"): (int, "lambda_schedule.dwell"),
    ("qos", "embb_min_rate_bps"): (_finite_float, "qos.embb_min_rate"),
    ("qos", "urllc_packet_bits"): (int, "qos.urllc_packet_bits"),
    ("qos", "urllc_outage_threshold"): (_finite_float, "qos.urllc_outage_threshold"),
    ("twin", "delay"): (DelayClass, "twin_delay"),
    ("twin", "moderate_slots"): (int, "moderate_slots"),
    ("twin", "significant_slots"): (int, "significant_slots"),
    ("twin", "cadence"): (int, "twin_cadence"),
    ("run", "seed"): (int, "seed"),
    ("run", "horizon_slots"): (int, "horizon_slots"),
    ("run", "outage_window"): (int, "outage_window"),
    ("run", "urllc_fraction"): (_finite_float, "urllc_fraction"),
    ("features", "reference_snr_db"): (_finite_float, "reference_snr_db"),
    ("features", "reference_lambda"): (_finite_float, "reference_lambda"),
    ("train", "epochs"): (int, "train.epochs"),
    ("train", "learning_rate"): (_finite_float, "train.learning_rate"),
    ("train", "batch_size"): (int, "train.batch_size"),
    ("train", "hidden_sizes"): (_ints, "hidden_sizes"),
    ("train", "seed"): (int, "train.seed"),
}
_SECTIONS = {section for section, _ in _KEYS}
#: The canonical dump's names of the keys it does not name as the file does.
_DUMP_NAMES = {"urllc_lambda_values": "lambda_values", "urllc_lambda_dwell": "lambda_dwell"}


def _format(kind: Callable, value) -> str:
    """A value as the canonical dump writes it, by its key's kind, so a
    float field given an int still prints as a float."""
    if isinstance(kind, enum.EnumMeta):
        return value.value
    if kind is int:
        return str(value)
    if kind is _ints:
        return ",".join(map(str, value))
    if kind is _finite_floats:
        return ",".join(f"{v:g}" for v in value)
    return f"{value:g}"


def _parse_value(key: str, kind: Callable, raw: str, line: int, col: int):
    if isinstance(kind, enum.EnumMeta):
        try:
            return kind(raw.lower())
        except ValueError:
            choices = "|".join(m.value for m in kind)
            raise ScenarioSemanticError(
                f"{key} must be one of {choices}, got {raw!r}"
            ) from None
    try:
        return kind(raw)
    except ValueError:
        name = kind.__name__.lstrip("_").replace("_", " ")
        raise ScenarioParseError(
            f"cannot parse {name} value {raw!r} for {key}", line, col
        ) from None


def parse_scenario_text(text: str) -> Scenario:
    """Parse and validate scenario text; see the module docstring for grammar."""
    values: dict[tuple[str, str], object] = {}
    section: Optional[str] = None
    seen_sections: set[str] = set()

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        col = rawline.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ScenarioParseError("unterminated section header", lineno, col)
            name = stripped[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ScenarioParseError(f"unknown section [{name}]", lineno, col)
            if name in seen_sections:
                raise ScenarioParseError(f"duplicate section [{name}]", lineno, col)
            seen_sections.add(name)
            section = name
            continue
        if "=" not in stripped:
            raise ScenarioParseError("expected 'key = value'", lineno, col)
        if section is None:
            raise ScenarioParseError("key outside any [section]", lineno, col)
        key, _, raw = stripped.partition("=")
        key = key.strip().lower()
        if (section, key) not in _KEYS:
            raise ScenarioParseError(
                f"unknown key {key!r} in section [{section}]", lineno, col
            )
        if (section, key) in values:
            raise ScenarioParseError(f"duplicate key {key!r}", lineno, col)
        values[(section, key)] = _parse_value(
            key, _KEYS[(section, key)][0], raw.strip(), lineno, col
        )

    return _build_scenario(values)


def _build_scenario(values: dict[tuple[str, str], object]) -> Scenario:
    """Set the fields the file names on the default Scenario."""
    has_values = ("traffic", "urllc_lambda_values") in values
    if ("traffic", "urllc_lambda") in values and has_values:
        raise ScenarioSemanticError(
            "give either urllc_lambda or urllc_lambda_values, not both"
        )
    if ("traffic", "urllc_lambda_dwell") in values and not has_values:
        raise ScenarioSemanticError(
            "urllc_lambda_dwell needs urllc_lambda_values to cycle through"
        )
    fields: dict[str, Any] = {}
    parts: dict[str, dict[str, Any]] = {}
    for key, value in values.items():
        part, _, name = _KEYS[key][1].rpartition(".")
        if part:
            parts.setdefault(part, {})[name] = value
        else:
            fields[name] = value
    defaults = Scenario()
    try:
        if "lambda_schedule" in fields:
            fields["lambda_schedule"] = LambdaSchedule.constant(fields["lambda_schedule"])
        for part, given in parts.items():
            # A cycle starts from LambdaSchedule's defaults, not the constant one.
            fields[part] = (
                LambdaSchedule(**given)
                if part == "lambda_schedule"
                else replace(getattr(defaults, part), **given)
            )
        return replace(defaults, **fields)
    except ValueError as exc:
        raise ScenarioSemanticError(str(exc)) from exc


def load_scenario(path) -> Scenario:
    """Read, parse and validate a scenario file. Pure: no side effects. A
    file that cannot be read as UTF-8 text raises ScenarioError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"scenario file {path}: {exc}") from exc
    return parse_scenario_text(text)
