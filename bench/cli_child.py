"""Traced CLI child: ``python bench/cli_child.py SUMMARY_JSON <cli args...>``.

Installs the benchmark's span wrappers, runs ``gaborzak.cli.main`` on the
arguments, writes the span summary to SUMMARY_JSON when it ends and exits
with main's return code.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Installation, Tracer  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    from gaborzak import cli

    tracer = Tracer()
    inst = Installation(tracer)
    inst.rebind_cli_imports()
    try:
        rc = tracer.call("cli.main", cli.main, (argv,), {})
    finally:
        inst.restore()
        with open(summary_path, "w") as fh:
            json.dump(tracer.summarize(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
