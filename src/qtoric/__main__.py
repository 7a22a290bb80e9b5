import os
import sys

# OpenBLAS starts a thread per core as numpy loads, a large share of each
# command's start, and no qtoric kernel uses them: the only BLAS calls are
# level 1 on at most 2^12 entries. A value the caller set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
