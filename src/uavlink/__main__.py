"""Command-line entry point: `uavlink ...` and `python -m uavlink ...`.

numpy's OpenBLAS starts its worker threads when numpy is first imported, and
uavlink's one BLAS call (the quadrature's matrix-vector product) is too small
to gain from them, so the CLI defaults to one thread before anything imports
numpy. An OPENBLAS_NUM_THREADS already set in the environment wins.
"""

import os
import sys


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
