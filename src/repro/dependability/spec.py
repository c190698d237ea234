"""Declarative sweep specifications and their deterministic cell grids.

A :class:`SweepSpec` names the axes of a dependability experiment — fault
rates, dropout/upset probabilities, guard modes, the paper's recovery
knobs (alpha, Vdda, Ta) and seeds — and :meth:`SweepSpec.expand` turns it
into a flat, ordered grid of :class:`SweepCell` configurations.  The
expansion is pure arithmetic: same spec, same grid, same per-cell seeds,
on every machine and every resume.

Static validation plugs into the RPR1xx descriptor pipeline:

==========  =========================================================
RPR105      sweep grid shape (axes non-empty, no duplicates, bounded)
RPR106      sweep value domains (probabilities, knobs, engine support)
==========  =========================================================
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field, fields

from repro.analysis.lint.findings import Finding, Severity
from repro.errors import ConfigurationError

_SPEC_PATH = "<sweep-spec>"

#: Axis expansion order for :meth:`SweepSpec.expand` — outermost first.
#: Part of the resume contract: cell indices (and hence cell ids and
#: per-cell seeds) never change for a fixed spec.
AXIS_ORDER = (
    "fault_rate",
    "dropout_prob",
    "upset_prob",
    "guard_mode",
    "alpha",
    "sleep_voltage",
    "sleep_temperature_c",
    "seed",
)

_GUARD_MODES = ("raise", "clamp", "off")
_ENGINES = ("table1", "fleet")

#: Refuse to expand absurd grids up front instead of melting the bench.
MAX_CELLS = 10_000

#: The chamber on the virtual bench (lab.thermal_chamber defaults).
_CHAMBER_MIN_C = -60.0
_CHAMBER_MAX_C = 150.0


def _finding(rule_id: str, message: str, suggestion: str = "") -> Finding:
    return Finding(
        rule_id=rule_id,
        severity=Severity.ERROR,
        path=_SPEC_PATH,
        line=0,
        message=message,
        suggestion=suggestion,
    )


@dataclass(frozen=True)
class LifetimeSettings:
    """How each cell projects lifetime for the Pareto axes.

    ``budget_fraction`` is the tolerable delay shift as a fraction of the
    fresh path delay (the timing guardband); ``horizon_hours`` bounds the
    projection in *active* hours; ``period_hours`` is the circadian cycle
    length handed to :class:`repro.core.policies.ProactivePolicy`.
    """

    enabled: bool = True
    budget_fraction: float = 0.005
    horizon_hours: float = 48.0
    period_hours: float = 2.5


@dataclass(frozen=True)
class SweepCell:
    """One fully-resolved campaign configuration in the grid.

    ``fault_seed`` decorrelates the fault plan from the campaign RNG and
    from neighbouring cells; both derive deterministically from the spec
    so a resumed sweep regenerates byte-identical cells.
    """

    index: int
    cell_id: str
    engine: str
    n_chips: int
    include_baseline: bool
    fault_rate: float
    dropout_prob: float
    upset_prob: float
    guard_mode: str
    guard_budget: int
    alpha: float
    sleep_voltage: float
    sleep_temperature_c: float
    seed: int
    fault_seed: int
    lifetime: LifetimeSettings

    @property
    def has_faults(self) -> bool:
        """True when any fault axis is non-zero for this cell."""
        return self.fault_rate > 0.0 or self.dropout_prob > 0.0 or self.upset_prob > 0.0

    @property
    def knob_key(self) -> tuple[float, float, float]:
        """The (alpha, Vdda, Ta) coordinate this cell contributes to."""
        return (self.alpha, self.sleep_voltage, self.sleep_temperature_c)

    def config_digest(self) -> str:
        """Short stable digest of everything that determines the result."""
        payload = asdict(self)
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a dependability sweep.

    Scalar fields apply to every cell; tuple fields are axes whose cross
    product (in :data:`AXIS_ORDER`) forms the grid.  ``retries`` and
    ``retry_backoff_s`` configure the *measurement* retry policy inside
    each campaign, not the runner's per-cell retries.
    """

    name: str = "sweep"
    engine: str = "table1"
    n_chips: int = 2
    include_baseline: bool = False
    retries: int = 3
    retry_backoff_s: float = 5.0
    guard_budget: int = 2
    fault_rates: tuple[float, ...] = (0.0,)
    dropout_probs: tuple[float, ...] = (0.0,)
    upset_probs: tuple[float, ...] = (0.0,)
    guard_modes: tuple[str, ...] = ("clamp",)
    alphas: tuple[float, ...] = (4.0,)
    sleep_voltages: tuple[float, ...] = (-0.3,)
    sleep_temperatures_c: tuple[float, ...] = (110.0,)
    seeds: tuple[int, ...] = (0,)
    lifetime: LifetimeSettings = field(default_factory=LifetimeSettings)

    _AXES = (
        ("fault_rates", "fault_rate"),
        ("dropout_probs", "dropout_prob"),
        ("upset_probs", "upset_prob"),
        ("guard_modes", "guard_mode"),
        ("alphas", "alpha"),
        ("sleep_voltages", "sleep_voltage"),
        ("sleep_temperatures_c", "sleep_temperature_c"),
        ("seeds", "seed"),
    )

    @classmethod
    def from_dict(cls, payload: dict) -> SweepSpec:
        """Build a spec from parsed JSON, rejecting unknown keys."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"sweep spec must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls) if not f.name.startswith("_")}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown sweep spec keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        kwargs = dict(payload)
        if "lifetime" in kwargs and isinstance(kwargs["lifetime"], dict):
            lifetime_known = {f.name for f in fields(LifetimeSettings)}
            lifetime_unknown = sorted(set(kwargs["lifetime"]) - lifetime_known)
            if lifetime_unknown:
                raise ConfigurationError(
                    f"unknown lifetime keys: {', '.join(lifetime_unknown)}"
                )
            kwargs["lifetime"] = LifetimeSettings(**kwargs["lifetime"])
        for axis_field, _ in cls._AXES:
            if axis_field in kwargs and isinstance(kwargs[axis_field], list):
                kwargs[axis_field] = tuple(kwargs[axis_field])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> SweepSpec:
        """Parse a spec from a JSON string."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"sweep spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def to_dict(self) -> dict:
        """JSON-serialisable form (tuples become lists)."""
        payload = asdict(self)
        for axis_field, _ in self._AXES:
            payload[axis_field] = list(payload[axis_field])
        return payload

    def digest(self) -> str:
        """Stable digest of the whole spec — the resume compatibility key."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @property
    def n_cells(self) -> int:
        """Number of cells the spec expands to."""
        count = 1
        for axis_field, _ in self._AXES:
            count *= len(getattr(self, axis_field))
        return count

    def expand(self) -> tuple[SweepCell, ...]:
        """Expand the axes into the deterministic, ordered cell grid."""
        require_valid(self)
        axes = [getattr(self, axis_field) for axis_field, _ in self._AXES]
        cells = []
        for index, values in enumerate(itertools.product(*axes)):
            point = dict(zip([cell_field for _, cell_field in self._AXES], values))
            seed = int(point["seed"])
            cells.append(
                SweepCell(
                    index=index,
                    cell_id=f"cell-{index:04d}",
                    engine=self.engine,
                    n_chips=self.n_chips,
                    include_baseline=self.include_baseline,
                    guard_budget=self.guard_budget,
                    fault_seed=1_000_003 * seed + 7 * index + 1,
                    lifetime=self.lifetime,
                    **point,
                )
            )
        return tuple(cells)


def validate_sweep_spec(spec: SweepSpec) -> list[Finding]:
    """Static RPR105/RPR106 validation of a sweep spec.

    RPR105 covers grid *shape* (axes present, no duplicate values, the
    expansion bounded); RPR106 covers value *domains* (probabilities in
    [0, 1], knobs the physics accepts, combinations the chosen engine
    actually supports).  Returns findings instead of raising so the lint
    CLI can aggregate them with the descriptor rules.
    """
    findings: list[Finding] = []

    if not spec.name or not spec.name.replace("-", "").replace("_", "").isalnum():
        findings.append(
            _finding(
                "RPR105",
                f"sweep name {spec.name!r} must be a non-empty slug",
                "use letters, digits, '-' and '_' only",
            )
        )
    if spec.engine not in _ENGINES:
        findings.append(
            _finding(
                "RPR105",
                f"unknown engine {spec.engine!r}",
                f"choose one of {', '.join(_ENGINES)}",
            )
        )
    if spec.n_chips < 1:
        findings.append(_finding("RPR105", f"n_chips must be >= 1, got {spec.n_chips}"))
    if spec.retries < 1:
        findings.append(_finding("RPR105", f"retries must be >= 1, got {spec.retries}"))
    if spec.retry_backoff_s < 0.0:
        findings.append(
            _finding("RPR105", f"retry_backoff_s must be >= 0, got {spec.retry_backoff_s}")
        )
    budget_valid = isinstance(spec.guard_budget, int) and spec.guard_budget >= 0
    if not budget_valid:
        findings.append(
            _finding(
                "RPR105",
                f"guard_budget must be an integer >= 0, got {spec.guard_budget!r}",
                "0 disables the per-chip violation budget",
            )
        )

    for axis_field, _ in SweepSpec._AXES:
        values = getattr(spec, axis_field)
        if not values:
            findings.append(
                _finding(
                    "RPR105",
                    f"axis {axis_field!r} is empty — the grid would have zero cells",
                    "list at least one value per axis",
                )
            )
        elif len(set(values)) != len(values):
            findings.append(
                _finding(
                    "RPR105",
                    f"axis {axis_field!r} has duplicate values {values!r}",
                    "duplicates multiply the grid without adding information",
                )
            )
    if 0 < MAX_CELLS < spec.n_cells:
        findings.append(
            _finding(
                "RPR105",
                f"grid expands to {spec.n_cells} cells, above the {MAX_CELLS} bound",
                "trim an axis or split the sweep",
            )
        )

    for rate in spec.fault_rates:
        if rate < 0.0:
            findings.append(
                _finding("RPR106", f"fault rate must be >= 0 per day, got {rate}")
            )
    for axis_field, low, high in (
        ("dropout_probs", 0.0, 1.0),
        ("upset_probs", 0.0, 1.0),
    ):
        for prob in getattr(spec, axis_field):
            if not low <= prob <= high:
                findings.append(
                    _finding(
                        "RPR106",
                        f"{axis_field} value {prob} outside [{low}, {high}]",
                    )
                )
    for mode in spec.guard_modes:
        if mode not in _GUARD_MODES:
            findings.append(
                _finding(
                    "RPR106",
                    f"unknown guard mode {mode!r}",
                    f"choose from {', '.join(_GUARD_MODES)}",
                )
            )
    for alpha in spec.alphas:
        if alpha <= 0.0:
            findings.append(_finding("RPR106", f"alpha must be positive, got {alpha}"))
    for voltage in spec.sleep_voltages:
        if voltage > 0.0:
            findings.append(
                _finding(
                    "RPR106",
                    f"sleep voltage must be non-positive, got {voltage}",
                    "0 V is passive sleep; negative actively reverses stress",
                )
            )
    for temp in spec.sleep_temperatures_c:
        if not _CHAMBER_MIN_C <= temp <= _CHAMBER_MAX_C:
            findings.append(
                _finding(
                    "RPR106",
                    f"sleep temperature {temp} degC outside the chamber range "
                    f"[{_CHAMBER_MIN_C}, {_CHAMBER_MAX_C}] degC",
                )
            )
    for seed in spec.seeds:
        if not isinstance(seed, int) or seed < 0:
            findings.append(
                _finding("RPR106", f"seeds must be non-negative integers, got {seed!r}")
            )

    lifetime = spec.lifetime
    if lifetime.enabled:
        if not 0.0 < lifetime.budget_fraction < 1.0:
            findings.append(
                _finding(
                    "RPR106",
                    f"lifetime budget_fraction must be in (0, 1), "
                    f"got {lifetime.budget_fraction}",
                )
            )
        if lifetime.horizon_hours <= 0.0:
            findings.append(
                _finding(
                    "RPR106",
                    f"lifetime horizon must be positive hours, got {lifetime.horizon_hours}",
                )
            )
        if lifetime.period_hours <= 0.0:
            findings.append(
                _finding(
                    "RPR106",
                    f"lifetime period must be positive hours, got {lifetime.period_hours}",
                )
            )

    if spec.engine == "fleet":
        # The fleet path supports only TRAP_UPSET faultloads and budget-less
        # guards — see run_fleet_campaign's docstring for the contract.
        if any(rate > 0.0 for rate in spec.fault_rates):
            findings.append(
                _finding(
                    "RPR106",
                    "engine 'fleet' does not support rate-driven fault kinds "
                    "(thermal drift, supply droop, relay chatter, readout faults)",
                    "set fault_rates to (0.0,) or use engine 'table1'",
                )
            )
        if any(prob > 0.0 for prob in spec.dropout_probs):
            findings.append(
                _finding(
                    "RPR106",
                    "engine 'fleet' does not support chip dropout faults",
                    "set dropout_probs to (0.0,) or use engine 'table1'",
                )
            )
        if budget_valid and spec.guard_budget > 0:
            findings.append(
                _finding(
                    "RPR106",
                    "engine 'fleet' does not support per-chip guard violation budgets",
                    "set guard_budget to 0 or use engine 'table1'",
                )
            )

    return findings


def require_valid(spec: SweepSpec) -> None:
    """Raise :class:`ConfigurationError` listing every finding, if any."""
    findings = validate_sweep_spec(spec)
    if findings:
        lines = "; ".join(f"{f.rule_id}: {f.message}" for f in findings)
        raise ConfigurationError(f"invalid sweep spec {spec.name!r}: {lines}")


def demo_spec() -> SweepSpec:
    """The DEPEND experiment's small demonstration sweep (12 cells).

    Two faultload levels x two guard modes x three recovery-knob settings
    — enough cells for Wilson intervals and a non-trivial Pareto frontier
    while staying under a minute on one core.
    """
    return SweepSpec(
        name="depend-demo",
        engine="table1",
        n_chips=2,
        include_baseline=False,
        fault_rates=(0.0, 24.0),
        dropout_probs=(0.0,),
        upset_probs=(0.25,),
        guard_modes=("clamp", "off"),
        alphas=(1.0, 2.0, 4.0),
        sleep_voltages=(-0.3,),
        sleep_temperatures_c=(110.0,),
        seeds=(7,),
        lifetime=LifetimeSettings(
            # 0.4% of the fresh path delay: tight enough that the default
            # CLI seed (0) and the demo seed (7) both cross the budget
            # inside the horizon, so the Pareto axis carries real numbers.
            enabled=True, budget_fraction=0.004, horizon_hours=24.0, period_hours=2.5
        ),
    )
