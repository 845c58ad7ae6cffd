"""Re-importing fpw must release the previous generation of its modules.

Module-level typing aliases built from fpw classes (``typing.Union[...]``,
``typing.Callable[[Word], bool]``) are memoised by ``typing``'s internal
cache, which then keeps the old classes, and with them their modules, alive
after a fresh import.  A process that re-imports fpw, as the benchmark does
on every pass, would grow by one module generation each time.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import gc, importlib, sys, weakref
old = weakref.ref(importlib.import_module("fpw.words").Word)
importlib.import_module("fpw")
for name in [m for m in sys.modules if m == "fpw" or m.startswith("fpw.")]:
    del sys.modules[name]
importlib.import_module("fpw")
gc.collect()
sys.exit(0 if old() is None else 1)
"""


def test_reimport_releases_previous_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "the previous fpw.words.Word is still alive"
