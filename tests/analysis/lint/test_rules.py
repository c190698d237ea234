"""Each built-in rule against a known-bad and a known-good fixture."""

import textwrap

from repro.analysis.lint import lint_source


def _rule_ids(source: str, path: str = "src/repro/fake.py") -> list[str]:
    result = lint_source(textwrap.dedent(source), path)
    return [finding.rule_id for finding in result.findings]


class TestUnitLiteralRule:
    def test_seconds_per_hour_literal_flagged(self):
        assert _rule_ids("duration = 24 * 3600\n") == ["RPR001"]

    def test_zero_celsius_flagged_even_negated(self):
        assert _rule_ids("t_c = t_k - 273.15\n") == ["RPR001"]
        assert _rule_ids("offset = -273.15\n") == ["RPR001"]

    def test_boltzmann_both_spellings_flagged(self):
        assert _rule_ids("k = 8.617e-5\n") == ["RPR001"]
        assert _rule_ids("k = 8.617333262e-5\n") == ["RPR001"]

    def test_day_literal_flagged(self):
        assert _rule_ids("day = 86400.0\n") == ["RPR001"]

    def test_units_module_is_exempt(self):
        assert _rule_ids("HOUR = 3600.0\n", path="src/repro/units.py") == []

    def test_innocent_numbers_pass(self):
        assert _rule_ids("x = 3601\ny = 273.16\nz = 100.0\n") == []

    def test_suggestion_names_the_units_constant(self):
        result = lint_source("d = 3600.0\n", "src/repro/fake.py")
        assert "SECONDS_PER_HOUR" in result.findings[0].suggestion


class TestNondeterminismRule:
    def test_time_time_flagged(self):
        assert _rule_ids("import time\nstart = time.time()\n") == ["RPR002"]

    def test_datetime_now_flagged(self):
        source = "import datetime\nstamp = datetime.datetime.now()\n"
        assert _rule_ids(source) == ["RPR002"]

    def test_stdlib_random_flagged(self):
        assert _rule_ids("import random\nx = random.random()\n") == ["RPR002"]

    def test_numpy_legacy_global_flagged(self):
        assert _rule_ids("import numpy as np\nnp.random.seed(0)\n") == ["RPR002"]
        assert _rule_ids("import numpy as np\nx = np.random.normal()\n") == ["RPR002"]

    def test_seedless_default_rng_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert _rule_ids(source) == ["RPR002"]

    def test_seeded_default_rng_passes(self):
        ok = (
            "import numpy as np\n"
            "rng = np.random.default_rng(seed)\n"
            "rng2 = np.random.default_rng(0)\n"
        )
        assert _rule_ids(ok) == []

    def test_generator_methods_pass(self):
        assert _rule_ids("x = rng.normal(0.0, 1.0)\n") == []

    def test_perf_counter_passes(self):
        # perf_counter is the telemetry clock, not simulation state.
        assert _rule_ids("import time\nt = time.perf_counter()\n") == []

    def test_obs_package_is_allowlisted(self):
        source = "import time\nwall = time.time()\n"
        assert _rule_ids(source, path="src/repro/obs/tracer.py") == []


class TestFloatEqualityRule:
    def test_eq_against_float_literal_flagged(self):
        assert _rule_ids("if x == 0.0:\n    pass\n") == ["RPR003"]

    def test_noteq_against_float_literal_flagged(self):
        assert _rule_ids("ok = value != 1.0\n") == ["RPR003"]

    def test_negative_literal_flagged(self):
        assert _rule_ids("if v == -0.3:\n    pass\n") == ["RPR003"]

    def test_int_literal_passes(self):
        assert _rule_ids("if n == 0:\n    pass\n") == []

    def test_orderings_pass(self):
        assert _rule_ids("if x <= 0.0 or y >= 1.0:\n    pass\n") == []

    def test_chained_comparison_flags_float_leg(self):
        assert _rule_ids("ok = 0 < x == 1.0\n") == ["RPR003"]


class TestCelsiusKelvinRule:
    def test_small_literal_to_temperature_flagged(self):
        assert _rule_ids("pop.evolve(3600.0, 1.2, temperature=110.0)\n") == [
            "RPR001",
            "RPR004",
        ]

    def test_temp_k_keyword_flagged(self):
        assert _rule_ids("f(temp_k=25)\n") == ["RPR004"]

    def test_suffixed_temperature_flagged(self):
        assert _rule_ids("g(sleep_temperature=110.0)\n") == ["RPR004"]

    def test_kelvin_literal_passes(self):
        assert _rule_ids("pop.evolve(1.0, 1.2, temperature=383.15)\n") == []

    def test_celsius_named_parameters_pass(self):
        assert _rule_ids("f(temperature_c=110.0, sleep_temperature_c=20.0)\n") == []

    def test_computed_value_passes(self):
        assert _rule_ids("f(temperature=celsius(110.0))\n") == []


class TestSpanHygieneRule:
    def test_bare_span_call_flagged(self):
        assert _rule_ids("tracer.span('case')\n") == ["RPR005"]

    def test_assigned_span_flagged(self):
        assert _rule_ids("span = self.tracer.span('phase')\n") == ["RPR005"]

    def test_get_tracer_receiver_flagged(self):
        assert _rule_ids("get_tracer().span('x')\n") == ["RPR005"]

    def test_with_block_passes(self):
        source = "with tracer.span('case') as span:\n    span.set('k', 1)\n"
        assert _rule_ids(source) == []

    def test_with_block_on_attribute_receiver_passes(self):
        source = "with self.tracer.span('case'):\n    pass\n"
        assert _rule_ids(source) == []

    def test_unrelated_span_method_passes(self):
        # The JSONL exporter's span(dict) sink is not a context manager.
        assert _rule_ids("self.exporter.span({'type': 'span'})\n") == []


class TestUnguardedExpRule:
    GUARDED = "src/repro/bti/traps.py"

    def test_raw_exp_in_guarded_module_flagged(self):
        assert _rule_ids("y = np.exp(x)\n", path=self.GUARDED) == ["RPR006"]
        assert _rule_ids("y = math.exp(x)\n", path=self.GUARDED) == ["RPR006"]

    def test_all_guarded_trees_covered(self):
        for path in (
            "src/repro/bti/acceleration.py",
            "src/repro/device/delay.py",
            "src/repro/fpga/chip.py",
            "src/repro/multicore/thermal.py",
        ):
            assert _rule_ids("y = np.exp(x)\n", path=path) == ["RPR006"]

    def test_unguarded_modules_exempt(self):
        assert _rule_ids("y = np.exp(x)\n", path="src/repro/core/fitting.py") == []
        assert _rule_ids("y = np.exp(x)\n", path="src/repro/guard/contracts.py") == []

    def test_clamped_exponent_passes(self):
        assert _rule_ids("y = np.exp(np.minimum(x, 700.0))\n", path=self.GUARDED) == []
        assert _rule_ids("y = math.exp(min(x, 700.0))\n", path=self.GUARDED) == []
        assert _rule_ids("y = np.exp(np.clip(x, -700, 700))\n", path=self.GUARDED) == []

    def test_safe_exp_helper_passes(self):
        assert _rule_ids("y = safe_exp(x)\n", path=self.GUARDED) == []

    def test_division_by_exponential_flagged(self):
        findings = _rule_ids("y = 1.0 / np.exp(x)\n", path=self.GUARDED)
        assert findings.count("RPR006") == 2  # the division AND the raw exp

    def test_division_by_safe_exp_still_flagged(self):
        # safe_exp caps overflow, not underflow: 1/safe_exp(-1e6) -> 1/0.0.
        assert _rule_ids("y = 1.0 / safe_exp(x)\n", path=self.GUARDED) == ["RPR006"]

    def test_suggestion_names_the_helpers(self):
        result = lint_source("y = np.exp(x)\n", self.GUARDED)
        assert "safe_exp" in result.findings[0].suggestion


class TestMetricNameRule:
    def test_well_formed_literal_passes(self):
        assert _rule_ids('tracer.counter("bti.trap_updates", "updates")\n') == []
        assert _rule_ids('self.metrics.gauge("campaign.progress")\n') == []

    def test_single_segment_name_flagged(self):
        assert _rule_ids('tracer.counter("events")\n') == ["RPR007"]

    def test_uppercase_and_hyphen_flagged(self):
        assert _rule_ids('tracer.counter("Lab.Samples")\n') == ["RPR007"]
        assert _rule_ids('tracer.counter("lab.sample-count")\n') == ["RPR007"]

    def test_dynamic_name_flagged(self):
        assert _rule_ids(
            'tracer.counter(f"guard.violations.{contract}")\n'
        ) == ["RPR007"]
        assert _rule_ids("tracer.counter(name)\n") == ["RPR007"]

    def test_name_keyword_is_checked(self):
        assert _rule_ids('tracer.counter(name="BAD")\n') == ["RPR007"]

    def test_non_metric_receivers_ignored(self):
        assert _rule_ids('db.counter("whatever")\n') == []

    def test_obs_layer_is_exempt(self):
        assert _rule_ids(
            "tracer.counter(name)\n", path="src/repro/obs/tracer.py"
        ) == []
