"""Run the analysis service with span wrappers installed.

The server side of a traced service-mixed run: the same
``AnalysisService`` that ``repro serve`` runs, with the layer wrappers
of :mod:`spans` and one more around the service's admission path, so
each request's handler span links to the client span (``parent``) and
request ID (``rid``) the client put in the request body.  On SIGTERM it
stops the service and writes its spans and queue waits as JSON.

    python pipebench/serve_traced.py --spans-out FILE --cache-dir DIR
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal

from plan import CATALOG
from spans import Recorder, Tracer, clock


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--cache-dir", required=True)
    args = parser.parse_args()

    from repro.service import AnalysisService, ServiceConfig

    # Server span ids start far above the client's so the two sets merge.
    recorder = Recorder(id_base=10**9)
    tracer = Tracer(recorder, CATALOG)
    tracer.install()
    queue_waits = []
    blocking = AnalysisService._blocking

    async def traced_blocking(self, endpoint, handler, body):
        admitted = clock()
        try:
            request = json.loads(body) if body else {}
        except ValueError:
            request = {}
        if not isinstance(request, dict):
            request = {}

        def timed(parsed):
            queue_waits.append((request.get("rid"), clock() - admitted))
            with recorder.span("service.handler", rid=request.get("rid"), parent=request.get("parent")):
                return handler(parsed)

        return await blocking(self, endpoint, timed, body)

    AnalysisService._blocking = traced_blocking
    service = AnalysisService(
        ServiceConfig(cache_dir=args.cache_dir, store_backend="sqlite")
    )

    async def serve() -> None:
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        await service.start()
        print("repro service on http://127.0.0.1:%d (traced)" % service.port, flush=True)
        try:
            await stop.wait()
        finally:
            await service.stop()

    try:
        asyncio.run(serve())
    finally:
        AnalysisService._blocking = blocking
        tracer.uninstall()
        with open(args.spans_out, "w") as handle:
            json.dump({"spans": recorder.spans, "queue_waits": queue_waits}, handle)


if __name__ == "__main__":
    main()
