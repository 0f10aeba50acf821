import os
import subprocess
import sys

import sicheck


def test_all_names_resolve_once():
    # a stale entry would break `from sicheck import *`
    assert len(set(sicheck.__all__)) == len(sicheck.__all__)
    assert [name for name in sicheck.__all__ if not hasattr(sicheck, name)] == []
    assert not any(name.startswith("gen_") for name in sicheck.__all__)


def test_import_leaves_numpy_random_unloaded():
    # omnibus defers numpy.random so that `import sicheck` stays quick and small
    src = os.path.dirname(os.path.dirname(sicheck.__file__))
    code = "import sys, sicheck; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
