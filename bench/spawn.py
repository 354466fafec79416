"""Start CLI children on behalf of run.py and report on each.

    python3 bench/spawn.py

Reads one JSON list of command words per stdin line, runs it as a child
with stdout captured, and answers with one JSON line: [seconds, exit code,
stdout sha256, the child's peak RSS in KiB].  It exits at the end of stdin.

A child's ru_maxrss counts the memory of the process that started it (exec
keeps the old address space's high-water mark), so children started by
run.py itself, whose memory grows with its records, would report run.py's
size rather than their own.  This process stays a bare interpreter, below
the size of any posetkit CLI child.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        argv = json.loads(line)
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        dt = time.perf_counter() - t0
        print(json.dumps([dt, proc.returncode, hashlib.sha256(out).hexdigest(), usage.ru_maxrss]),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
