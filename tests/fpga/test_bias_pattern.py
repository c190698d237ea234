"""``bias_pattern(owners=...)``: the selected columns of the full pattern.

The binned fleet asks only for its bias-class representatives' columns;
these tests pin that the selection is bit-identical to indexing the full
per-owner pattern and that validation does not depend on it.
"""

import numpy as np
import pytest

from repro.device.technology import TECH_40NM
from repro.errors import ConfigurationError
from repro.fpga.chip import bias_pattern
from repro.fpga.netlist import InverterChainNetlist
from repro.fpga.ring_oscillator import StressMode
from repro.units import celsius

NETLIST = InverterChainNetlist(n_stages=75)
#: Unsorted, with a repeat and both ends of the owner range.
OWNERS = np.array([NETLIST.n_owners - 1, 3, 0, 17, 3, 200])

BIASES = {
    "dc-0": dict(stress=True, mode=StressMode.DC, chain_input=0),
    "dc-1": dict(stress=True, mode=StressMode.DC, chain_input=1),
    "ac": dict(stress=True, mode=StressMode.AC),
    "recovery-0v": dict(stress=False, supply=0.0),
    "recovery-neg": dict(stress=False, supply=-0.3),
}


def pattern(k: int, bias: dict, owners=None):
    bias = dict(bias)
    stress = bias.pop("stress")
    supply = bias.pop("supply", None)
    if supply is None:
        supplies = np.linspace(1.0, 1.3, k)
    else:
        supplies = np.full(k, supply)
    temperatures = np.linspace(celsius(25.0), celsius(120.0), k)
    return bias_pattern(
        NETLIST, TECH_40NM, stress, supplies, temperatures, owners=owners, **bias
    )


@pytest.mark.parametrize("k", [1, 40])
@pytest.mark.parametrize("name", sorted(BIASES))
def test_owner_columns_match_the_full_pattern(k, name):
    full_v, full_duty, full_relax = pattern(k, BIASES[name])
    v, duty, relax = pattern(k, BIASES[name], owners=OWNERS)
    assert v.shape == (k, OWNERS.size)
    assert v.tobytes() == full_v[:, OWNERS].tobytes()
    assert duty == full_duty
    if full_relax is None:
        assert relax is None
    else:
        assert relax.tobytes() == full_relax[:, OWNERS].tobytes()


@pytest.mark.parametrize("k", [1, 40])
@pytest.mark.parametrize(
    "stress, supply, temperature, fragment",
    [
        (False, 0.2, celsius(110.0), "non-positive supply"),
        (False, -0.9, celsius(110.0), "breakdown limit"),
        (True, 1.2, celsius(140.0), "accelerated-test limit"),
    ],
)
def test_validation_does_not_depend_on_owners(k, stress, supply, temperature, fragment):
    args = (NETLIST, TECH_40NM, stress, np.full(k, supply), np.full(k, temperature))
    with pytest.raises(ConfigurationError, match=fragment) as full:
        bias_pattern(*args)
    with pytest.raises(ConfigurationError) as selected:
        bias_pattern(*args, owners=OWNERS)
    assert str(selected.value) == str(full.value)


def loop_validation(stress, supplies, temperatures):
    """The per-element checks ``bias_pattern`` ran before vectorising."""
    if not stress:
        for supply in supplies:
            if supply > 0.0:
                raise ConfigurationError("recovery needs a non-positive supply voltage")
            TECH_40NM.check_recovery_voltage(float(supply))
    for temperature in temperatures:
        TECH_40NM.check_temperature(float(temperature))


HOT_OK = celsius(110.0)


@pytest.mark.parametrize(
    "stress, supplies, temperatures, fragment",
    [
        # The breakdown violation comes before the positive supply.
        (False, [-0.1, -0.2, -0.9, 0.3], [HOT_OK] * 4, "-0.9 V is below"),
        # The positive supply comes before the breakdown violation.
        (False, [-0.1, 0.2, -0.9], [HOT_OK] * 3, "non-positive supply"),
        # A NaN supply passes, as it did element by element.
        (False, [np.nan, -0.7, -0.65], [HOT_OK] * 3, "-0.7 V is below"),
        # The first over-limit temperature is named, not the hottest.
        (True, [1.2, 1.2, 1.2, 1.2], [HOT_OK, celsius(130.0), celsius(150.0), HOT_OK],
         f"temperature {celsius(130.0)} K"),
        (False, [0.0, -0.3, -0.3], [HOT_OK, HOT_OK, celsius(126.0)],
         f"temperature {celsius(126.0)} K"),
    ],
)
def test_later_element_fails_with_the_loop_message(stress, supplies, temperatures, fragment):
    supplies, temperatures = np.array(supplies), np.array(temperatures)
    with pytest.raises(ConfigurationError) as expected:
        loop_validation(stress, supplies, temperatures)
    with pytest.raises(ConfigurationError, match=fragment) as raised:
        bias_pattern(NETLIST, TECH_40NM, stress, supplies, temperatures)
    assert str(raised.value) == str(expected.value)
