"""``python -m lienorm.cli ARGS`` with the benchmark's tracer installed.

    python3 perfbench/cli_child.py SUBCOMMAND [ARGS...]

Same stdout and exit code as the CLI; afterwards one more stderr line,
spans.SPANS_MARK followed by the JSON [spans, counts, maxes] of the run.
Needs lienorm importable (run.py puts src/ on PYTHONPATH).
"""

import json
import sys

import lienorm.cli

import spans

tracer = spans.Tracer()
spans.install(tracer, lienorm)
code = lienorm.cli.run(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write("\n" + spans.SPANS_MARK + json.dumps(tracer.export()) + "\n")
sys.exit(code)
