"""Run one `ksets` command, as the console script would, and time it.

Usage: python3 perfbench/cli_stub.py TRACE ARGS...  (with PYTHONPATH=src)

Takes perf_counter timestamps at interpreter start, after `import ksets.cli`
and after ksets.cli.main returns.  With TRACE=1 the calls inside main are
traced as in the in-process workloads.  The last stderr line is
"PERFBENCH <json>" with the timestamps, this process's peak RSS and the
trace; stdout and the exit code are those of the command.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import ksets.cli  # noqa: E402

T_IMPORT = time.perf_counter()

if sys.argv[1] == "1":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        code = ksets.cli.main(sys.argv[2:])
    trace = {"raw": tracer.raw(), "spans": tracer.spans}
else:
    code = ksets.cli.main(sys.argv[2:])
    trace = {"raw": None, "spans": None}
T_MAIN = time.perf_counter()

sys.stdout.flush()
record = {"t_start": T_START, "t_import": T_IMPORT, "t_main": T_MAIN,
          "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, **trace}
sys.stderr.write("PERFBENCH " + json.dumps(record) + "\n")
sys.exit(code)
