"""Run `python -m thames.cli ARGS...` and record the process's own peak RSS.

os.wait4 would report ru_maxrss, but a child started by vfork and exec
inherits the parent's high-water mark there, so a large benchmark
process would show up as a large child. VmHWM in /proc/self/status
belongs to the exec'd image alone; it is written at exit to the file
named by BENCH_HWM_FILE, in KiB.
"""

import atexit
import os
import runpy
import sys


def _record_peak():
    with open("/proc/self/status") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(os.environ["BENCH_HWM_FILE"], "w") as out:
        out.write(kib)


atexit.register(_record_peak)
sys.path.pop(0)  # this script's directory; the program is found on PYTHONPATH
sys.argv = ["thames", *sys.argv[1:]]
runpy.run_module("thames.cli", run_name="__main__", alter_sys=True)
