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
    """The ``qtoric`` command: :func:`qtoric.cli.main`, which a closed output
    pipe ends quietly, as it ends ``cat``, and not with a traceback."""
    if hasattr(_signal, "SIGPIPE"):
        _signal.signal(_signal.SIGPIPE, _signal.SIG_DFL)
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
