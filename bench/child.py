"""One benchmark phase in a fresh interpreter.

    python3 bench/child.py <job.json>

The job names the quallm source directory, the CLI argument lists to
run (in the job's working directory, through ``quallm.cli.main``, as a
user would type them), whether to trace, and where to write the result:
per-command exit code, seconds and stdout, the process's peak RSS, and
the spans when traced. A command that exits non-zero stops the phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer(job["trace_id"], anchors=tracing.STAGE_SPANS,
                                first_id=job["first_span_id"])
        tracing.install(tracer)
    import quallm
    from quallm import cli

    if not Path(quallm.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"quallm imported from {quallm.__file__}, not from {src}")

    commands = []
    for argv in job["commands"]:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        commands.append({"argv": argv, "code": code,
                         "seconds": time.perf_counter() - start, "stdout": out.getvalue()})
        if code != 0:
            break
    result = {
        "commands": commands,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.export() if tracer else [],
    }
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
