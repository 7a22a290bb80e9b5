# _signal is the C module behind signal, whose import builds enum classes:
# about 1 ms of each command's start (python -X importtime, CPython 3.11).
import _signal
import os
import sys

# OpenBLAS starts a thread per core as numpy loads, a large share of each
# command's start, and no qtoric kernel uses them: the only BLAS calls are
# level 1 on at most 2^12 entries. A value the caller set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import cli  # noqa: E402


def main(argv=None) -> int:
    """The ``qtoric`` command: run :func:`qtoric.cli.main` and end the process.

    A closed output pipe ends the command quietly, as it ends ``cat``, and
    not with a traceback. Once stdout and stderr are flushed the process
    ends with ``os._exit``, without the interpreter's teardown, which frees
    every module and object and takes 15-50 ms of a command; ``-o`` files
    are closed by then. If a flush raises, the output is still buffered, so
    the code is returned instead: the interpreter's own exit flushes again
    and reports the failure. Callers in process use :func:`qtoric.cli.main`,
    which returns.
    """
    if hasattr(_signal, "SIGPIPE"):
        _signal.signal(_signal.SIGPIPE, _signal.SIG_DFL)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: --help, --version and usage errors
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no stdout, a failed write, a closed file
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
