"""Pin numpy's BLAS to one thread, through ctypes, with no dependency.

Every rank of a process group is its own OS process; unpinned, each
spins a BLAS pool sized to the whole machine and the ranks fight over
the cores (a forked world of 2 ran 4-7x slower than pinned).  Ranks are
the unit of parallelism here, so BLAS gets one thread per rank.

The pin is skipped when the user has chosen a thread count through
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` or ``MKL_NUM_THREADS``,
and it is a no-op when no OpenBLAS control symbol resolves (another
BLAS, or a platform without ``/proc``).
"""

from __future__ import annotations

import ctypes
import os

#: Environment variables that already decide the BLAS thread count.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: (setter, getter) symbol pairs: plain OpenBLAS, then the 64-bit-index
#: build numpy's wheels bundle (``libscipy_openblas64_``), whose exports
#: carry a prefix and suffix.
_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
)


def _loaded_blas_paths() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process, once
    numpy has loaded its own (none where ``/proc`` is missing)."""
    import numpy  # noqa: F401 - loads the BLAS this module controls

    paths: list[str] = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path) and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def _controls() -> tuple | None:
    """The first ``(set, get)`` pair of ctypes functions that resolves."""
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            try:
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
            except AttributeError:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def blas_num_threads() -> int | None:
    """The BLAS pool's thread count, or ``None`` when it cannot be read."""
    controls = _controls()
    return None if controls is None else int(controls[1]())


def pin_blas_threads() -> bool:
    """Set BLAS to one thread unless a thread variable is set.

    Returns True when the pin was applied.
    """
    if any(os.environ.get(name) for name in THREAD_ENV):
        return False
    controls = _controls()
    if controls is None:
        return False
    controls[0](1)
    return True
