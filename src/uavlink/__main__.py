"""Command-line entry point: `uavlink ...` and `python -m uavlink ...`.

numpy's OpenBLAS starts its worker threads when numpy is first imported, and
uavlink's one BLAS call (the quadrature's matrix-vector product) is too small
to gain from them, so the CLI defaults to one thread before anything imports
numpy. An OPENBLAS_NUM_THREADS already set in the environment wins.

A CLI process ends through run(): once main() has returned and stdout and
stderr are flushed, os._exit skips the interpreter's teardown of numpy's and
the standard library's modules and its final garbage collections, which no
output depends on (a paper-figure command took 197 ms as a process with the
teardown and takes 180 ms without it; see README). Output files
are closed before main() returns, and importing the CLI registers no atexit
handler that this would skip. `--help`, usage errors, uncaught exceptions and
a flush that fails (stdout on a full disk or a closed pipe) leave through the
ordinary interpreter exit, with its messages and exit status. main() itself
returns normally, for in-process callers.
"""

import os
import sys


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv)


def run() -> None:
    """Run main() on the command line and end the process without teardown."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        # A full disk, a closed pipe or a closed stdout (None): the interpreter's
        # exit reports it as it would without run(), and sets the status.
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
