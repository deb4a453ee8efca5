"""The input contract of the public array functions.

Each takes numbers or arrays: an in-range 0-d input gives a Python float,
an empty array gives an empty array, and a NaN anywhere is a ValueError
with the function's range message, as for any other out-of-range value.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from uavlink.channel import derive_constants, snr
from uavlink.config import load_preset
from uavlink.fbl_rate import FblConfig, achievable_rate, shannon_rate

CFG = load_preset("dense_urban")
CONSTS = derive_constants(CFG.scenario, CFG.link)
FBL = FblConfig(blocklength=200, epsilon=1e-9)
ELEVATION = "elevation angle must lie in [0, 90] degrees"
DISTANCE = "distance must be positive"

# name: (call on the array arguments, an in-range value of each, the message of each)
FUNCTIONS = {
    "snr": (lambda t, d: snr(CONSTS, t, d), (60.0, 300.0), (ELEVATION, DISTANCE)),
    "shannon_rate": (shannon_rate, (2.0,), ("SNR must be nonnegative",)),
    "achievable_rate": (lambda g: achievable_rate(g, FBL), (100.0,), ("SNR must be positive",)),
}


@pytest.mark.parametrize("name", FUNCTIONS)
def test_an_array_function_keeps_its_input_contract(name):
    call, values, messages = FUNCTIONS[name]
    for scalars in (values, [np.array(v) for v in values]):
        assert type(call(*scalars)) is float
    empty = call(*[np.empty(0)] * len(values))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    # A NaN in each argument: alone, first and last in an array, the others in range.
    for i, message in enumerate(messages):
        for nan_at in (None, 0, -1):
            args = [np.full(3, v) for v in values]
            if nan_at is None:
                args[i] = math.nan
            else:
                args[i][nan_at] = math.nan
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(*args)


def test_only_the_shared_check_converts_an_array_argument():
    # One helper, channel._checked_array, converts and range-checks the
    # array arguments of these modules.
    src = Path(__file__).resolve().parents[1] / "src" / "uavlink"
    owners = []
    for module in ("channel", "geometry", "fbl_rate", "bound"):
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        for top in tree.body:
            if any(isinstance(node, ast.Attribute) and node.attr == "asarray"
                   for node in ast.walk(top)):
                owners.append(f"{module}.{getattr(top, 'name', '?')}")
    assert owners == ["channel._checked_array"]
