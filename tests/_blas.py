"""The OpenBLAS core that numpy's BLAS picked in this process, read from the
loaded OpenBLAS through ctypes. Run as a script, it prints it:

    python tests/_blas.py

`numpy.show_runtime()` names the core only when `threadpoolctl` is
installed. OpenBLAS picks its core per CPU, or as `OPENBLAS_CORETYPE` says.
"""
import ctypes
from pathlib import Path

import numpy  # noqa: F401  (loads numpy's OpenBLAS into this process)

# numpy's bundled OpenBLAS (scipy-openblas), older 64-bit builds, a plain one
SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
           "openblas_get_corename")


def openblas_core():
    """The core's name, such as 'SkylakeX' or 'Haswell', or 'unknown' when
    no OpenBLAS mapped into this process exports one of `SYMBOLS`."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    paths = dict.fromkeys(line.split()[-1] for line in maps.splitlines()
                          if "openblas" in line.lower()
                          and line.split()[-1].startswith("/"))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in SYMBOLS:
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes = []
                get.restype = ctypes.c_char_p
                return get().decode()
    return "unknown"


if __name__ == "__main__":
    print("OpenBLAS core:", openblas_core())
