"""Runs the benchmark's CLI children one at a time and reports their cost.

A child's max-RSS counts the memory of the process it was forked from, so
the benchmark does not fork CLI children itself once it holds a corpus.
It starts this small process instead, which imports only the standard
library, and sends it one request per line on standard input:

    {"argv": [...], "stdout": "<file>", "stderr": "<file>"}

For each request it runs the command to completion and answers with one
line, ``{"wall_s": ..., "exit": ..., "maxrss_kib": ...}``, read from the
child's own ``os.wait4`` rusage.  It exits when its standard input closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        # reaped above; tell Popen so it does not wait for the pid again
        child.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "exit": child.returncode, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
