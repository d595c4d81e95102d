"""Purging and re-importing the package must free the old copy.

The check runs in a subprocess: purging ``sigma_product`` from this
process's ``sys.modules`` would break the ``isinstance`` checks of every
test that imported the package before.
"""

import os
import subprocess
import sys
from pathlib import Path

import sigma_product

SCRIPT = """
import gc, importlib, sys, weakref

MODULES = ("cli", "extreal", "finset", "integration", "lineset", "measures",
           "oracle", "product", "rectset", "sigma")


def load_and_purge():
    for name in MODULES:
        importlib.import_module("sigma_product." + name)
    classes = (
        sys.modules["sigma_product.finset"].FinSet,
        sys.modules["sigma_product.lineset"].RealSet,
        sys.modules["sigma_product.extreal"].ExtNonNeg,
    )
    refs = [weakref.ref(c) for c in classes]
    for name in list(sys.modules):
        if name == "sigma_product" or name.startswith("sigma_product."):
            del sys.modules[name]
    return refs


refs = load_and_purge() + load_and_purge()
gc.collect()
alive = [r().__name__ for r in refs if r() is not None]
print("alive:", alive)
sys.exit(1 if alive else 0)
"""


def test_purged_package_is_freed():
    src = str(Path(sigma_product.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
