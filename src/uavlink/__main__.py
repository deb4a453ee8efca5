"""Command-line entry point: `uavlink ...` and `python -m uavlink ...`.

numpy's OpenBLAS starts its worker threads when numpy is first imported, and
uavlink makes no BLAS call, so the CLI defaults to one thread before anything
imports numpy, which saves starting them. An OPENBLAS_NUM_THREADS already set
in the environment wins.

A CLI process does not load OpenSSL. numpy.random imports `secrets`, which
imports `hmac` and `hashlib`, and both import `_hashlib`, the binding to
OpenSSL's libcrypto: 3.4 MB of peak RSS, for hashes no command computes.
Only a sweep that draws more than montecarlo._ARRAY_PHILOX_MAX samples
(2**16) imports numpy.random; the default 10,000 are drawn without it. For
those larger draws, run() puts None under `_hashlib` in sys.modules before
main(), so that import fails and both modules take their documented stdlib
fallbacks: `_operator._compare_digest` and the builtin md5, sha1, sha2, sha3
and blake2 constructors. setdefault keeps a `_hashlib` that is already
imported. main(), `import uavlink` and `import uavlink.cli` do not block it,
so library users and in-process callers keep OpenSSL's hashes.

A CLI process ends through run(): once main() has returned and stdout and
stderr are flushed, os._exit skips the interpreter's teardown of numpy's and
the standard library's modules and its final garbage collections, which no
output depends on (`import numpy` alone takes 167 ms as a process with the
teardown and 137 ms without it on a 2-core Xeon; see README). Output files
are closed before main() returns, and importing the CLI registers no atexit
handler that this would skip. `--help`, usage errors, uncaught exceptions and
a final flush that fails (stdout on a full disk, or closed) leave through the
ordinary interpreter exit, with its messages and exit status. When stdout's
reader has gone (`uavlink verify | head -1`, or `uavlink --help | head -1`),
the process ends quietly with status 1 instead, as the "Note on SIGPIPE" in
Python's `signal` docs does.
main() itself returns normally, for in-process callers.
"""

import os
import sys


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv)


def _flushed() -> bool:
    """Flush stdout and stderr; False if that fails other than on a closed pipe."""
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        raise
    except Exception:
        return False
    return True


def run() -> None:
    """Run main() on the command line and end the process without teardown."""
    # Keeps OpenSSL's libcrypto (3.4 MB of peak RSS) out of the process:
    # hashlib and hmac, imported through numpy.random by a draw above 2**16
    # samples, use their builtin fallbacks, and no command hashes anything
    # (see the module docstring).
    sys.modules.setdefault("_hashlib", None)
    try:
        try:
            code = main()
        except SystemExit:
            # --help and usage errors leave main() through sys.exit: flush
            # here, so that a closed stdout pipe ends them as it ends a command.
            _flushed()
            raise
        flushed = _flushed()
    except BrokenPipeError:
        # stdout's reader has gone. Point stdout at os.devnull, so the exit
        # writes nothing more to the pipe, and stop quietly with status 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    if not flushed:
        # A full disk or a closed stdout (None): the interpreter's exit reports
        # it as it would without run(), and sets the status.
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
