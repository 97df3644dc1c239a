"""Traced qgame process: ``python -X importtime child.py SPANS_OUT ARGS...``.

Installs the span wrappers, runs ``qgame.cli.main(ARGS)`` and writes the
spans and their summary to SPANS_OUT when the run ends, even when it raises.
The benchmark starts one of these per operation in traced runs of the
workloads that spawn a process per operation.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    # A plain import statement, so -X importtime shows qgame.cli as one
    # top-level entry, as it does for ``python -c "import qgame.cli"``.
    import qgame.cli

    tracer = Tracer()
    tracer.install()

    try:
        return qgame.cli.main(argv)
    finally:
        with open(spans_out, "w") as handle:
            json.dump({"spans": tracer.spans, **tracer.summary()}, handle)


if __name__ == "__main__":
    sys.exit(main())
