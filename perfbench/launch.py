"""Start the hiddenpartition CLI as its console script does, and record
the monotonic time at which ``main`` became callable.

    python launch.py READY_FILE SPANS_FILE|- CLI_ARG...

With a SPANS_FILE, the package is imported through tracer.py and the
spans are written there when ``main`` returns.
"""

import sys
import time

ready_path, spans_path, *cli_args = sys.argv[1:]
if spans_path == "-":
    from hiddenpartition.cli import main
else:
    from tracer import Tracer

    spans = Tracer()
    main = spans.install()
with open(ready_path, "w") as handle:
    handle.write(str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)))
sys.argv = ["hiddenpartition", *cli_args]
try:
    code = main()
finally:
    if spans_path != "-":
        spans.dump(spans_path)
sys.exit(code)
