"""The built-in RPR0xx rules, grounded in this repo's conventions.

==========  ====================================================
RPR001      unit literal that must come from :mod:`repro.units`
RPR002      nondeterminism on a simulation path
RPR003      ``==``/``!=`` against a float literal
RPR004      Celsius-looking literal passed to a kelvin parameter
RPR005      ``tracer.span(...)`` opened outside a ``with`` block
RPR006      raw ``exp`` (or division by one) on a guarded physics path
RPR007      metric name that breaks the dotted-lowercase convention
==========  ====================================================

Suppress a deliberate violation with ``# repro: noqa[RPR00X]`` on the
offending line, or record it in the committed baseline (see
:mod:`repro.analysis.lint.baseline`).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.rules import Rule, RuleContext

#: Magic values RPR001 hunts for, mapped to the `repro.units` spelling.
UNIT_LITERALS: dict[float, str] = {
    3600.0: "units.SECONDS_PER_HOUR",
    86400.0: "units.SECONDS_PER_DAY",
    273.15: "units.ZERO_CELSIUS_K (or units.celsius/to_celsius)",
    8.617e-5: "units.BOLTZMANN_EV",
    8.617333262e-5: "units.BOLTZMANN_EV",
}

#: Legacy global-state numpy.random functions (forbidden everywhere).
_NP_RANDOM_GLOBALS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "uniform",
        "normal",
        "choice",
        "shuffle",
        "permutation",
    }
)

#: Wall-clock reads that make a simulation path nondeterministic.
_WALL_CLOCK_ATTRS = frozenset({"now", "utcnow", "today"})


def _dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of a call target ("np.random.default_rng")."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.append(_dotted_name(node.func) + "()")
    return ".".join(reversed(parts))


def _numeric_literal(node: ast.AST) -> float | None:
    """The value of a (possibly negated) int/float literal, else None."""
    sign = 1.0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        sign = -1.0
        node = node.operand
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return sign * float(node.value)
    return None


class UnitLiteralRule(Rule):
    """RPR001: a magic number that `repro.units` already names.

    ``3600`` in a duration or ``273.15`` in a conversion is a silent
    fork of the unit system; the constant keeps every conversion in one
    audited place.
    """

    rule_id = "RPR001"
    title = "unit-literal"
    severity = Severity.ERROR
    node_types = (ast.Constant,)

    def applies_to(self, path: str) -> bool:
        """`repro/units.py` defines these literals; the linter names them."""
        return not (path.endswith("repro/units.py") or "analysis/lint/" in path)

    def check(self, node: ast.Constant, ctx: RuleContext) -> Iterator[Finding]:
        """Flag int/float constants equal to a known unit literal."""
        if type(node.value) not in (int, float):
            return
        value = float(node.value)
        for magic, replacement in UNIT_LITERALS.items():
            if value == magic:
                yield self.finding(
                    node,
                    ctx,
                    f"magic unit literal {node.value!r}",
                    f"use {replacement} from repro.units",
                )
                return


class NondeterminismRule(Rule):
    """RPR002: wall clocks and unseeded RNGs on simulation paths.

    Every stochastic component threads an explicit
    ``np.random.Generator``; experiments are functions of a seed.  Wall
    clocks belong to the telemetry layer (`repro/obs/`), which is
    allowlisted.
    """

    rule_id = "RPR002"
    title = "nondeterminism"
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def applies_to(self, path: str) -> bool:
        """`repro/obs/` measures wall time by design."""
        return "/obs/" not in path

    def check(self, node: ast.Call, ctx: RuleContext) -> Iterator[Finding]:
        """Flag wall-clock reads, global RNG use, and seedless default_rng()."""
        name = _dotted_name(node.func)
        if not name:
            return
        head, _, tail = name.rpartition(".")
        if name == "time.time":
            yield self.finding(
                node,
                ctx,
                "wall-clock read time.time() on a simulation path",
                "thread simulated time explicitly (or move to repro.obs)",
            )
        elif tail in _WALL_CLOCK_ATTRS and (
            head.endswith("datetime") or head.endswith("date")
        ):
            yield self.finding(
                node,
                ctx,
                f"wall-clock read {name}() on a simulation path",
                "derive timestamps from the seed-driven simulation clock",
            )
        elif head == "random" or name.startswith("random."):
            yield self.finding(
                node,
                ctx,
                f"stdlib global RNG {name}()",
                "use a seeded np.random.Generator threaded from the caller",
            )
        elif tail in _NP_RANDOM_GLOBALS and head.endswith("random") and "." in head:
            yield self.finding(
                node,
                ctx,
                f"legacy numpy global RNG {name}()",
                "use a seeded np.random.Generator threaded from the caller",
            )
        elif tail == "default_rng" and not node.args and not node.keywords:
            yield self.finding(
                node,
                ctx,
                "default_rng() with no seed",
                "accept an rng/seed parameter and pass it through",
            )


class FloatEqualityRule(Rule):
    """RPR003: ``==``/``!=`` against a float literal.

    Computed floats rarely land exactly on a literal; use
    ``math.isclose``, an ordering, or suppress with a comment explaining
    why the value is an exact sentinel (e.g. survives a CSV round trip).
    """

    rule_id = "RPR003"
    title = "float-equality"
    severity = Severity.ERROR
    node_types = (ast.Compare,)

    def check(self, node: ast.Compare, ctx: RuleContext) -> Iterator[Finding]:
        """Flag Eq/NotEq comparisons where either side is a float literal."""
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                value = _numeric_literal(side)
                if value is not None and isinstance(
                    side.operand.value if isinstance(side, ast.UnaryOp) else side.value,
                    float,
                ):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        node,
                        ctx,
                        f"float equality `{symbol} {value}`",
                        "use math.isclose/an ordering, or document the exact "
                        "sentinel and add `# repro: noqa[RPR003]`",
                    )
                    break


class CelsiusKelvinRule(Rule):
    """RPR004: a Celsius-looking literal passed to a kelvin parameter.

    Kelvin-typed parameters in this repo are named ``temperature`` /
    ``*_temperature`` / ``temp_k`` (Celsius ones end in ``_c``).  Any
    literal below 200 K handed to one is almost certainly a Celsius slip
    — silicon is not tested at cryogenic temperatures here.
    """

    rule_id = "RPR004"
    title = "celsius-kelvin"
    severity = Severity.ERROR
    node_types = (ast.Call,)

    #: Below this many kelvin a literal is assumed to be Celsius.
    MIN_PLAUSIBLE_K = 200.0

    def check(self, node: ast.Call, ctx: RuleContext) -> Iterator[Finding]:
        """Flag suspiciously small literals bound to kelvin keywords."""
        for keyword in node.keywords:
            name = keyword.arg
            if name is None:
                continue
            if not (name == "temp_k" or name == "temperature"
                    or name.endswith("_temperature")):
                continue
            value = _numeric_literal(keyword.value)
            if value is not None and value < self.MIN_PLAUSIBLE_K:
                yield self.finding(
                    node,
                    ctx,
                    f"literal {value:g} passed to kelvin parameter {name!r} "
                    "looks like Celsius",
                    "wrap it in repro.units.celsius(...)",
                )


class SpanHygieneRule(Rule):
    """RPR005: ``tracer.span(...)`` opened outside a ``with`` block.

    A span only records its duration when its context manager exits; a
    bare call leaves it on the tracer's stack forever, corrupting the
    parentage of every later span.
    """

    rule_id = "RPR005"
    title = "span-hygiene"
    severity = Severity.ERROR
    node_types = (ast.Call,)

    @staticmethod
    def _receiver_name(func: ast.Attribute) -> str:
        """Terminal name of the object `.span` is called on."""
        value = func.value
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Attribute):
            return value.attr
        if isinstance(value, ast.Call):
            return _dotted_name(value.func).rpartition(".")[2]
        return ""

    def check(self, node: ast.Call, ctx: RuleContext) -> Iterator[Finding]:
        """Flag tracer span calls that are not a `with` context expression."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "span"):
            return
        receiver = self._receiver_name(func)
        if not receiver.endswith("tracer"):
            return
        parent = ctx.parent(node)
        if isinstance(parent, ast.withitem) and parent.context_expr is node:
            return
        yield self.finding(
            node,
            ctx,
            f"{receiver}.span(...) opened outside a `with` block",
            "use `with tracer.span(...):` so the span closes and unwinds",
        )


class UnguardedExpRule(Rule):
    """RPR006: raw ``exp`` on a guarded physics path.

    The model stack's hot modules (``bti``, ``device``, ``fpga``,
    ``multicore``) compute their rate factors through
    :func:`repro.guard.safe_exp` / ``safe_exp_array`` so extreme
    temperatures and fields saturate instead of overflowing to inf —
    which the runtime physics contracts would then trip on at a far less
    helpful distance from the cause.  An ``exp`` whose argument is
    already clamped (``min`` / ``np.minimum`` / ``np.clip``) passes;
    deliberate negative-exponent sites carry ``# repro: noqa[RPR006]``
    or live in the committed baseline.  Division *by* an exponential is
    flagged separately: the denominator underflowing to 0.0 turns a
    saturation into a ZeroDivisionError/inf — multiply by the negated
    exponent instead.
    """

    rule_id = "RPR006"
    title = "unguarded-exp"
    severity = Severity.ERROR
    node_types = (ast.Call, ast.BinOp)

    #: Module path segments whose physics is under runtime guard contracts.
    GUARDED_SEGMENTS = ("/bti/", "/device/", "/fpga/", "/multicore/")

    #: Call names that bound the exponent before the exp.
    _CLAMPING = frozenset({"min", "minimum", "clip"})

    #: Exponential spellings a denominator must never be.
    _EXP_NAMES = frozenset({"exp", "expm1", "exp2", "safe_exp", "safe_exp_array"})

    def applies_to(self, path: str) -> bool:
        """Only the guarded model modules; the guard package defines the helpers."""
        return any(segment in path for segment in self.GUARDED_SEGMENTS)

    @staticmethod
    def _call_tail(node: ast.AST) -> str:
        """Terminal attribute name of a call target, or empty."""
        if not isinstance(node, ast.Call):
            return ""
        return _dotted_name(node.func).rpartition(".")[2]

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        """Flag unclamped exp calls and divisions by an exponential."""
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div) and self._call_tail(node.right) in self._EXP_NAMES:
                yield self.finding(
                    node,
                    ctx,
                    "division by an exponential on a guarded physics path",
                    "an underflowing denominator turns into 0.0 -> inf; "
                    "multiply by the negated-exponent form instead",
                )
            return
        name = _dotted_name(node.func)
        head, _, tail = name.rpartition(".")
        if tail != "exp" or head not in ("math", "np", "numpy"):
            return
        if node.args and self._call_tail(node.args[0]) in self._CLAMPING:
            return
        yield self.finding(
            node,
            ctx,
            f"raw {name}() on a guarded physics path",
            "use repro.guard.safe_exp/safe_exp_array (or clamp the exponent) "
            "so extreme conditions saturate instead of overflowing",
        )


class MetricNameRule(Rule):
    """RPR007: counter/gauge names must follow the metric convention.

    Every metric is a dotted lowercase path —
    ``<subsystem>.<noun>[.<verb>]`` like ``bti.trap_updates`` or
    ``guard.violations.monotonic_occupancy`` — so the trace query
    engine's family rollups (``bti.rate_cache.*``) and the stats CLI
    sort stably.  A literal that breaks the pattern fragments the
    namespace; a *dynamic* name (f-string, variable) creates an
    unbounded metric family the rollups cannot pin — deliberate dynamic
    families (the guard's per-contract violation counters) live in the
    committed baseline.
    """

    rule_id = "RPR007"
    title = "metric-naming"
    severity = Severity.ERROR
    node_types = (ast.Call,)

    #: Registry/tracer factory methods whose first argument is the name.
    _FACTORIES = frozenset({"counter", "gauge"})

    #: dotted lowercase, at least two segments.
    _NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

    def applies_to(self, path: str) -> bool:
        """The obs layer itself forwards names it did not choose."""
        return "/obs/" not in path and "analysis/lint/" not in path

    def check(self, node: ast.Call, ctx: RuleContext) -> Iterator[Finding]:
        """Flag malformed literal names and dynamic name expressions."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in self._FACTORIES):
            return
        receiver = SpanHygieneRule._receiver_name(func)
        if not receiver.endswith(("tracer", "metrics", "registry")):
            return
        name_node: ast.AST | None = node.args[0] if node.args else None
        if name_node is None:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    name_node = keyword.value
                    break
        if name_node is None:
            return
        if isinstance(name_node, ast.Constant) and isinstance(name_node.value, str):
            if not self._NAME_PATTERN.match(name_node.value):
                yield self.finding(
                    node,
                    ctx,
                    f"metric name {name_node.value!r} breaks the "
                    "<subsystem>.<noun>[.<verb>] convention",
                    "use dotted lowercase with at least two segments, "
                    "e.g. 'bti.trap_updates'",
                )
        else:
            yield self.finding(
                node,
                ctx,
                f"dynamic metric name passed to {func.attr}()",
                "prefer a literal dotted name so family rollups stay "
                "bounded; a deliberate dynamic family belongs in the "
                "baseline with a comment at the call site",
            )


#: The default rule set `repro lint` runs.
BUILTIN_RULES: tuple[Rule, ...] = (
    UnitLiteralRule(),
    NondeterminismRule(),
    FloatEqualityRule(),
    CelsiusKelvinRule(),
    SpanHygieneRule(),
    UnguardedExpRule(),
    MetricNameRule(),
)
