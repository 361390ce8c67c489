"""Run the cold CLI commands from a small process.

    python3 perfbench/spawn.py STDERR_PATH

Reads one JSON argv list per line on stdin; for each, runs the command
and writes one JSON line: {"code", "out", "err", "rss_mb"}. A process's
peak RSS (ru_maxrss) starts from the RSS of the process that forked it, so
commands forked from the benchmark process, which holds numpy, scipy and
mpmath, would all report its footprint instead of their own. This process
imports nothing heavy. It exits when stdin closes.
"""

import json
import os
import subprocess
import sys

if __name__ == "__main__":
    for line in sys.stdin:
        # stderr goes to a file, so reading stdout to its end cannot stall a
        # child that fills the stderr pipe; wait4 gives the child's own rusage
        with open(sys.argv[1], "w+b") as errf:
            proc = subprocess.Popen(json.loads(line), stdout=subprocess.PIPE, stderr=errf)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            errf.seek(0)
            err = errf.read()
        print(json.dumps({"code": proc.returncode, "out": out.decode(),
                          "err": err.decode(errors="replace"),
                          "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)
