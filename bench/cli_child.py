"""Run one hermsymp CLI command with the tracer installed.

Usage: python bench/cli_child.py SUMMARY_JSON [hermsymp arguments...]

Used by the traced run of the ``cli`` workload in place of
``python -m hermsymp.cli``.  Writes the tracer's summary to SUMMARY_JSON and
exits with the command's exit code.
"""
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    import hermsymp.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = hermsymp.cli.main(sys.argv[2:])
    finally:
        tracer.active = False
        Path(sys.argv[1]).write_text(json.dumps(tracer.summary()), encoding="utf-8")
    sys.exit(code)
