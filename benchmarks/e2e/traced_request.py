"""Run one ``python -m repro`` request with the layer wrappers installed.

Usage::

    python traced_request.py OUT.json ITEM -- <repro arguments>

Writes the layer statistics, the spans, and the time spent inside
``repro.__main__.main`` to OUT.json; exits with main's status.  The
caller times the whole process, so request wall time minus ``main_s``
is the interpreter start-up and import time of the request.
"""

import json
import os
import sys
import time

from layers import Tracer, chrome_events, install


def main(argv) -> int:
    out, item, separator, *args = argv
    if separator != "--":
        raise SystemExit("usage: traced_request.py OUT.json ITEM -- ARGS")
    tracer = Tracer(keep_spans=True)
    install(tracer)
    from repro.__main__ import main as repro_main
    start = time.perf_counter()
    status = 1
    try:
        with tracer.item(item):
            status = repro_main(args)
    finally:
        payload = tracer.payload()
        payload["main_s"] = time.perf_counter() - start
        payload["events"] = chrome_events(tracer.spans, os.getpid())
        with open(out, "w") as handle:
            json.dump(payload, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
