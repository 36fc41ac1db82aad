"""Run one claimcheck CLI command for the benchmark.

    python3 perfbench/launch.py REPORT MODE -- <claimcheck arguments>

MODE is "plain", "probe" or "trace". In every mode the time at which the
first claim's work begins is written to the JSON file REPORT, so the
benchmark can take set-up time as that moment minus the moment it started
this process (both on the system-wide monotonic clock). The first claim's
work is the first knowledge-store load (verify, retrieve); evaluate
records none. "probe" exits right there; "trace" wraps every layer (see
tracing.py) and writes the spans to REPORT + ".spans.json".
"""

import json
import os
import sys
import time


def _on_first_call(module, attr: str, report: dict, probe: bool) -> None:
    original = getattr(module, attr)

    def first(*args, **kwargs):
        report["first_work"] = time.monotonic()
        setattr(module, attr, original)
        if probe:
            _write(report)
            os._exit(0)
        return original(*args, **kwargs)

    setattr(module, attr, first)


def _write(report: dict) -> None:
    with open(report["path"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def main() -> int:
    report_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "probe", "trace"):
        print("usage: launch.py REPORT plain|probe|trace -- ARGS...", file=sys.stderr)
        return 2
    import claimcheck.cli as cli

    report = {"path": report_path, "first_work": None}
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if argv[0] != "evaluate":
        _on_first_call(cli, "load_knowledge_store", report, mode == "probe")

    if tracer is None:
        code = cli.main(argv)
    else:
        idx = tracer.begin("cli.command")
        try:
            code = cli.main(argv)
        finally:
            tracer.end(idx)
            tracer.dump(report_path + ".spans.json")
    _write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
