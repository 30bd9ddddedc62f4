"""Run one command; report its wall time, peak RSS and exit code on a pipe.

A child's peak RSS, as wait4 reports it, is never below the RSS of the
process that spawned it: the child starts as a copy of that process (or
shares its memory until exec).  The benchmark's own process holds numpy and
the package, so it spawns every measured command through this small
interpreter instead.

    python3 -I -S spawn.py FD COMMAND [ARG...]

writes "WALL_S MAXRSS_KB EXIT_CODE" to file descriptor FD once COMMAND has
ended.  COMMAND's standard streams are this process's own.
"""

import os
import sys
import time


def main() -> None:
    fd = int(sys.argv[1])
    command = sys.argv[2:]
    os.set_inheritable(fd, False)
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with os.fdopen(fd, "w") as report:
        report.write(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n")


if __name__ == "__main__":
    main()
