"""Run the job service with ``MaxWE.initialize`` traced.

    python perfbench/serve.py --trace-out SPANS.jsonl [service flags ...]

Takes the flags of ``python -m repro.service``.  The service's spans are
written to ``SPANS.jsonl`` when it exits, after a SIGTERM drain.  The
traced service run starts its server this way; untraced runs start
``python -m repro.service`` itself.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: serve.py --trace-out PATH [service flags ...]", file=sys.stderr)
        return 2
    from repro.core.maxwe import MaxWE
    from repro.service.__main__ import main as serve

    tracer = Tracer()
    tracer.wrap(MaxWE, "initialize", "MaxWE.initialize")
    try:
        return serve(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
