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
