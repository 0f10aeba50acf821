import os
import subprocess
import sys
import types

import sicheck


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
