import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import sicheck
from sicheck import (
    BootstrapConfig,
    ConfigError,
    GammaGrid,
    ModelKind,
    Scenario,
    SmootherConfig,
)


def test_all_names_resolve_once():
    # a stale entry would break `from sicheck import *`
    assert len(set(sicheck.__all__)) == len(sicheck.__all__)
    assert [name for name in sicheck.__all__ if not hasattr(sicheck, name)] == []
    assert not any(name.startswith("gen_") for name in sicheck.__all__)


def test_star_import_binds_exactly_all():
    # __all__ is read off the import block: the version, no submodule, no private helper
    namespace = {}
    exec("from sicheck import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sicheck.__all__)
    assert namespace["__version__"] == sicheck.__version__
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def test_import_leaves_numpy_random_unloaded():
    # omnibus defers numpy.random so that `import sicheck` stays quick and small
    src = os.path.dirname(os.path.dirname(sicheck.__file__))
    code = "import sys, sicheck; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


#: Each float setting of a settings class, built from one value, and a value it takes.
FLOAT_SETTINGS = {
    "h": (lambda v: SmootherConfig(h=v), 0.1),
    "alpha": (lambda v: BootstrapConfig(alpha=v), 0.05),
    "bound": (lambda v: GammaGrid(2, v), 3.0),
    "c": (lambda v: Scenario(ModelKind.CUBIC, 40, 2, c=v), 1.0),
    "sigma_eps": (lambda v: Scenario(ModelKind.CUBIC, 40, 2, sigma_eps=v), 2.0),
}


@pytest.mark.parametrize("field", list(FLOAT_SETTINGS))
def test_float_settings_refuse_a_non_number_by_name(field):
    # a NumPy float is read as a Python float; a string, a bool, None or a
    # complex number is refused with a ConfigError naming the setting
    build, valid = FLOAT_SETTINGS[field]
    value = getattr(build(np.float64(valid)), field)
    assert type(value) is float and value == valid
    for bad in (str(valid), True, None, 1j):
        message = f"^{field} must be a number, got {re.escape(repr(bad))}$"
        with pytest.raises(ConfigError, match=message):
            build(bad)


@pytest.mark.parametrize("field, value, message", [
    ("beta", (True, False), "beta[0] must be a number, got True"),
    ("beta", (0.6, "0.8"), "beta[1] must be a number, got '0.8'"),
    ("beta", ("1", 1.0), "beta[0] must be a number, got '1'"),
    ("beta", 1.0, "beta must be a sequence of numbers, got 1.0"),
    ("c_interaction", ("1", 0.0, 0.0), "c_interaction[0] must be a number, got '1'"),
    ("c_interaction", (True, 0, 0), "c_interaction[0] must be a number, got True"),
    ("c_interaction", (0.0, None, 0.0), "c_interaction[1] must be a number, got None"),
    ("c_interaction", 0.5, "c_interaction must be a sequence of numbers, got 0.5"),
])
def test_tuple_settings_refuse_a_non_number_entry_by_name(field, value, message):
    model = ModelKind.INTERACTION if field == "c_interaction" else ModelKind.CUBIC
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Scenario(model, 50, 3 if field == "c_interaction" else 2, **{field: value})


def test_tuple_settings_read_numpy_numbers_as_floats():
    scn = Scenario(ModelKind.CUBIC, 50, 2, beta=np.array([0.6, 0.8]))
    assert scn.beta == (0.6, 0.8) and all(type(b) is float for b in scn.beta)
    scn = Scenario(ModelKind.INTERACTION, 50, 3, c_interaction=(np.int64(3), 3, np.float64(0.5)))
    assert scn.c_interaction == (3.0, 3.0, 0.5)
    assert all(type(c) is float for c in scn.c_interaction)
