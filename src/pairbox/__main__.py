"""The entry point of ``python -m pairbox`` and of the ``pairbox`` script."""

import os
import sys


def main() -> int:
    # numpy's OpenBLAS starts a worker thread when it is imported, which
    # busy-waits for about 0.13 s of CPU; pairbox calls no BLAS routine, and
    # a process forked with one thread inherits no pool. A setting of the
    # user's own wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
