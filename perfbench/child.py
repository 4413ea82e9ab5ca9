"""Run one vsl command in a fresh interpreter and record how it went.

    python3 perfbench/child.py SIDECAR MODE RUN_ID [VSL ARGS...]

MODE is `probe` (import vsl and stop: one set-up sample), `plain` (run the
command untraced) or `trace` (run it with every layer wrapped).  The
sidecar JSON holds the monotonic time at which `import vsl.cli` finished,
the command's start and end times and CPU (its own plus reaped pool
workers), its exit code, the stats of each Engine it built and its spans.
The parent process reads the sidecar and the command's `--out` report.
"""

import json
import resource
import sys
import time
import traceback


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    sidecar, mode, run_id, *argv = sys.argv[1:]
    import vsl.cli

    t_ready = time.monotonic()
    if mode == "probe":
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump({"t_ready": t_ready, "vsl": vsl.cli.__file__}, fh)
        return 0

    import spans

    recorder = spans.Recorder(run_id)
    if mode == "trace":
        spans.install(recorder, spans.TRACED)
        spans.install_pool_probe(recorder)
    elif "--certify" in argv:
        spans.install(recorder, spans.CERTIFY_AUDIT)
    engines = []
    build = vsl.cli._build_engine

    def build_and_keep(opts):
        engine = build(opts)
        engines.append(engine)
        return engine

    vsl.cli._build_engine = build_and_keep

    error = None
    cpu0 = _cpu()
    t_start = time.monotonic()
    try:
        code = vsl.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        error = f"SystemExit: {exc.code}"
    except Exception:  # the command raised: record it as a failed run
        code = 1
        error = traceback.format_exc()
    t_done = time.monotonic()
    cpu = _cpu() - cpu0

    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "t_ready": t_ready,
                "t_start": t_start,
                "t_done": t_done,
                "cpu_s": cpu,
                "exit_code": code,
                "error": error,
                "vsl": vsl.cli.__file__,
                "engines": [
                    {"stats": e.stats, "rational_cap": e.rational_cap} for e in engines
                ],
                "spans": recorder.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
