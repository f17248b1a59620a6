"""Host-speed reference bursts on one CPU, at idle priority.

    python3 perfbench/speedprobe.py CPU EVERY_S

Runs a reference burst (``benchlib.HostSpeed``) every ``EVERY_S``
seconds on ``CPU`` until it gets SIGTERM, then prints the CPU time of
every burst as one JSON list.  The ``serve`` workload runs it on the
hub's core while the load runs.  At idle priority the kernel preempts it
as soon as the hub has work, so it barely delays the hub, and a burst's
CPU time leaves out the time the hub ran in between; what remains moves
with how fast the core itself is running.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import benchlib


def main() -> int:
    cpu, every = int(sys.argv[1]), float(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    speed = benchlib.HostSpeed()
    samples = []
    print("ready", flush=True)
    while not stopped:
        speed._kernel()  # warm, as in HostSpeed.sample
        t0 = time.thread_time()
        speed._kernel()
        samples.append(time.thread_time() - t0)
        time.sleep(every)
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
