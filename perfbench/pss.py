"""Peak proportional set size of a process tree, sampled from outside.

Run by ``run.py`` as a child process (a sampling thread inside the
benchmark would be live while the sweep engine forks its pool)::

    python3 pss.py <pid> <interval_s>

Every ``interval_s`` it sums ``Pss`` from ``/proc/<pid>/smaps_rollup``
over ``<pid>`` and all its descendants except itself.  Commands on stdin,
one per line: ``reset`` starts a new peak, ``peak`` prints the peak since
the last reset in kB; end of input stops it.
"""

from __future__ import annotations

import os
import select
import sys


def _children(pid: int) -> list:
    kids = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids.extend(int(token) for token in handle.read().split())
        except OSError:
            continue
    return kids


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_kb(root: int, exclude: int) -> int:
    total, pending = 0, [root]
    while pending:
        pid = pending.pop()
        if pid == exclude:
            continue
        total += _pss_kb(pid)
        pending.extend(_children(pid))
    return total


def main(argv) -> int:
    root, interval = int(argv[1]), float(argv[2])
    me = os.getpid()
    peak = 0
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], interval)
        if ready:
            line = sys.stdin.readline()
            if not line:
                return 0
            command = line.strip()
            if command == "reset":
                peak = 0
            elif command == "peak":
                peak = max(peak, tree_pss_kb(root, me))
                print(peak, flush=True)
        peak = max(peak, tree_pss_kb(root, me))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
