"""Starts the benchmark's CLI children from a small process.

Linux reports a child's peak resident memory as at least the memory of the
process that forked it, since the child begins as a copy of it. The
benchmark holds its inputs and checked outputs in memory, so its CLI
children are started from this process instead, which stays small.

Reads one JSON request per line on stdin, ``{"argv": [...], "out": PATH,
"err": PATH}``, runs it between runs of the reference loop of ``speed.py``,
and answers with one JSON line ``{"wall_s": s, "factor": f, "rss_mb": peak,
"code": exit}``. Stops at end of input.
"""

import json
import os
import subprocess
import sys
import time

import speed


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            with speed.Scaled() as scale:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err
                )
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall_s": wall,
            "factor": scale.factor,
            "rss_mb": usage.ru_maxrss / 1024,
            "code": proc.returncode,
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
