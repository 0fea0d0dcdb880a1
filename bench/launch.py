"""Run one command and print its wall time and the rusage of its process tree.

    python3 bench/launch.py STDIN STDOUT STDERR TIMEOUT_S -- COMMAND...

A child's peak RSS on Linux includes the RSS of the process that forked it,
kept across exec.  The benchmark grows as it holds and checks outputs, so it
starts each invocation through this small process instead of directly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main() -> int:
    stdin, stdout, stderr, timeout, dashes, *command = sys.argv[1:]
    if dashes != "--" or not command:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(stdin, "rb") as inp, open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdin=inp, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(float(timeout), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    print(json.dumps({
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
