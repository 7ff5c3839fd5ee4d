"""Return freed heap memory to the OS, through ctypes, with no dependency.

glibc keeps the pages of freed ``malloc`` chunks resident: a table drawn
full width and dropped once its owner has kept its own columns would
still count in the rank's resident set until a later allocation happens
to reuse it.  :func:`trim_heap` hands those pages back (glibc's
``malloc_trim``); it is a no-op where the symbol does not resolve (musl,
macOS, Windows).
"""

from __future__ import annotations

import ctypes
import functools


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim`` from the symbols already loaded (no
    library search, which would spawn a process), or ``None``."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):  # no dlopen(NULL) / no glibc
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def trim_heap() -> bool:
    """Release free heap pages to the OS; True when glibc did so."""
    trim = _malloc_trim()
    return bool(trim(0)) if trim is not None else False
