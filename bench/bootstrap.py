"""Process set-up shared by the benchmark's entry points.

Import this module before numpy.  It pins BLAS to one thread, because the
thread pool's start-up and scheduling on a shared two-core machine widened
the spread of ``decouple_approx`` timings by half without changing a single
result bit.  It then puts the checkout's ``src`` first on ``sys.path`` and
refuses to run against any other copy of ``nlsid``.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def import_nlsid():
    """Import ``nlsid`` from the checkout's sources; exit 2 if it is missing."""
    if not (SRC / "nlsid" / "__init__.py").is_file():
        sys.exit(f"benchmark: no nlsid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import nlsid

    if Path(nlsid.__file__).resolve().parent != SRC / "nlsid":
        sys.exit(f"benchmark: imported nlsid from {nlsid.__file__}, not from {SRC}")
    return nlsid
