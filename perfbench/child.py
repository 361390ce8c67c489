"""Run one bslab CLI command with the span recorder installed.

    python3 perfbench/child.py SPANS.json <bslab cli arguments...>

The traced counterpart of `python -m bslab.cli <arguments>`: the report
goes to stdout as usual, the exit code is the CLI's, and the spans (with
`cli.main` as the root) are written to SPANS.json.
"""

import sys

import spans

if __name__ == "__main__":
    import bslab.cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.start()
    code = tracer.call("cli.main", bslab.cli.main, sys.argv[2:])
    tracer.stop()
    tracer.dump(sys.argv[1])
    sys.exit(code)
