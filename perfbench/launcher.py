"""Starts the benchmark's CLI commands from a process that stays small.

Linux carries a process's peak resident set size over fork and exec into
the ru_maxrss of the program it runs. A command started straight from the
benchmark, which holds the inputs and the check data in memory, would
report the benchmark's own peak whenever that is the larger. This process
is started before the benchmark loads anything large and loads nothing
itself, so the max-RSS it reads from os.wait4 is each command's own.

It reads one JSON request per line on standard input:
``{"argv": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": s}``,
runs the command to completion, killing it after ``timeout`` seconds, and
answers with one line ``{"wall": s, "code": n, "maxrss_kb": n}``. It exits
at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
