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
importlib.import_module("fpw.cli")
for name in [m for m in sys.modules if m == "fpw" or m.startswith("fpw.")]:
    del sys.modules[name]
importlib.import_module("fpw.cli")
gc.collect()
sys.exit(0 if old() is None else 1)
"""


def test_reimport_releases_previous_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "the previous fpw.words.Word is still alive"


MEMORY_PROBE = """
import gc, importlib, sys, tracemalloc
def load():
    importlib.import_module("fpw")
    importlib.import_module("fpw.cli")
load()
for name in [m for m in sys.modules if m == "fpw" or m.startswith("fpw.")]:
    del sys.modules[name]
gc.collect()
tracemalloc.start()
load()
gc.collect()
stats = tracemalloc.take_snapshot().statistics("filename")
print(sum(s.size for s in stats), sum(s.size for s in stats if s.traceback[0].filename.endswith("dataclasses.py")))
"""

# What one re-import of fpw and fpw.cli holds once its garbage is collected:
# 508,700 bytes measured on Python 3.11.7 (most of three runs), plus about 16%.
MAX_REIMPORT_BYTES = 590_000


def test_reimport_holds_no_generated_dataclass_methods_and_stays_small():
    # a process that re-imports fpw keeps each dead generation until a full
    # collection, so what one generation holds bounds that growth
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    total, in_dataclasses = map(int, proc.stdout.split())
    assert in_dataclasses == 0
    if sys.version_info[:2] == (3, 11):
        assert total <= MAX_REIMPORT_BYTES


def test_package_import_loads_no_submodule():
    # every public name has one path, its module; the package re-exports nothing
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import fpw, sys; print(sorted(m for m in sys.modules if m.startswith('fpw.')))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
