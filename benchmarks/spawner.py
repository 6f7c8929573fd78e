"""Start the benchmark's child processes from a small, long-lived process.

A child's ru_maxrss includes the peak resident size of the process that
started it: the kernel carries the parent's high-water mark across fork and
exec. Children started straight from run.py would report run.py's own peak
once it has parsed a large report, so run.py starts this process first,
while it is still small, and has it start every child.

Protocol: one JSON request per line on stdin, {"argv": [...], "cwd": "..."};
one JSON reply per line on stdout, {"code": int, "wall_s": float, "rss_mb": float}.
The child's stdout and stderr go to stdout.txt and stderr.txt in cwd. The
wall time runs from spawn to exit. Ends at end of input, or on SIGTERM after
killing and reaping the running child.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(argv: list[str], cwd: str) -> dict:
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["cwd"])), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
