"""Run one ``setfuse`` CLI command with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py TRACE_JSON <setfuse CLI arguments>

The span summary, counters and the in-process duration of ``cli.main``
go to TRACE_JSON when the command ends; the spans themselves go next to
it as a .tsv file. The exit code is the command's own.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer, instrument


def main() -> int:
    trace_path = Path(sys.argv[1])
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    instrument(tracer)
    from setfuse import cli

    code = cli.main(sys.argv[2:])
    tracer.write(trace_path.with_suffix(".tsv"))
    trace_path.write_text(json.dumps({"spans": tracer.summary(), "counts": dict(tracer.counts)}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
