"""One CLI call in a fresh interpreter, timed the way a user meets it.

    python child.py SRC T_SPAWN RESULT_JSON setup
    python child.py SRC T_SPAWN RESULT_JSON sweep|trace -- <quditcat arguments>

SRC is the directory holding the `quditcat` package, T_SPAWN the parent's
`time.monotonic()` just before it started this process (CLOCK_MONOTONIC is
system-wide on Linux), and RESULT_JSON the file the timings are written
to.  `setup` stops once `quditcat.cli` is imported.  `sweep` then runs
`quditcat.cli.main` and records its wall time, the process's user plus
system CPU time during it, and the peak resident set size; `trace` does
the same with the layer spans of `tracer.py` installed.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    src, t_spawn, result_path, mode = sys.argv[1:5]
    sys.path.insert(0, src)
    import quditcat.cli as cli

    result = {"setup_s": time.monotonic() - float(t_spawn)}
    if mode != "setup":
        argv = sys.argv[sys.argv.index("--") + 1 :]
        tracer = None
        if mode == "trace":
            import tracer as tracing  # child.py's directory is sys.path[1]

            tracer = tracing.Tracer()
            tracing.install(tracer)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        rc = cli.main(argv) if tracer is None else tracer.root(cli.main, argv)
        w1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            sweep_s=w1 - w0,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss * 1024 / 1e6,
            trace=None if tracer is None else tracer.totals(),
        )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
