"""Host speed meter: times a fixed kernel on the CPU the worker runs on.

    meter.py <samples file> <seconds>

Started by run.py with the same single-CPU affinity as the worker, it runs
at nice 19 beside it and takes about 1% of that CPU.  Each line of the
samples file is "<CLOCK_MONOTONIC s> <kernel CPU s>".  The kernel's CPU
time rises and falls with the speed at which the CPU runs the worker's
instructions (other tenants of the host slow both alike), and run.py
divides the worker's times by it.  The meter stops after
<seconds>, or as soon as the process that started it has gone.
"""

import os
import sys
import time


def kernel():
    d, s = {}, 0
    for j in range(3000):
        d[j & 255] = j
        s += d[j & 127]
    return s


def main(path, seconds):
    os.nice(19)
    parent = os.getppid()
    stop = time.monotonic() + seconds
    with open(path, "w", encoding="utf-8", buffering=1) as out:
        while os.getppid() == parent and time.monotonic() < stop:
            c = time.process_time()
            kernel()
            out.write(f"{time.monotonic():.6f} {time.process_time() - c:.9f}\n")


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
