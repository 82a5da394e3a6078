"""A stdlib JSON-over-HTTP front end for :class:`PredictionEngine`.

No web framework — ``http.server`` with a threading server keeps the
dependency surface at zero while still overlapping request parsing with
scoring.  Routes:

* ``POST /predict`` — body ``{"queries": [...]}`` (or a single query
  object); answers ``{"results": [...]}``;
* ``GET /healthz`` — liveness probe with uptime, the snapshot summary
  and the cache eviction/entry counters;
* ``GET /stats`` — engine/cache counters (the cache block is always
  present, zeroed when the cache is disabled);
* ``GET /metrics`` — the engine's registry in Prometheus text exposition
  format (version 0.0.4); ``/metrics?format=json`` returns the same
  instruments as JSON.

``HEAD`` is supported on every GET route (load balancers probe with it):
same status and headers, no body.  Malformed JSON or queries answer 400
with ``{"error": ...}``; unknown routes answer 404.

Every request — error paths included — is recorded through
:meth:`~repro.serve.engine.PredictionEngine.observe_request`, so
``/metrics`` exports ``http_requests_total{route,status}`` and a
per-route latency histogram.  Requests slower than the handler's
``slow_request_seconds`` are logged to stderr.  When the engine carries a
:class:`~repro.obs.trace.Tracer`, each request gets a ``request`` span
(category ``serve``) enclosing the engine's parse/cache/score spans.
"""

from __future__ import annotations

import json
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.serve.engine import PredictionEngine

__all__ = ["make_server", "run_server", "serve_forever"]

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest accepted request body; a batch of queries is tiny, so anything
#: bigger is a mistake or abuse.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Routes the server knows; anything else is labelled ``other`` in the
#: request metrics so unknown-path probes cannot explode label cardinality.
KNOWN_ROUTES = frozenset(("/predict", "/healthz", "/stats", "/metrics"))

#: Default slow-request threshold (seconds).
DEFAULT_SLOW_REQUEST_SECONDS = 1.0


def _route_label(path: str) -> str:
    route = urlsplit(path).path
    return route if route in KNOWN_ROUTES else "other"


def make_handler(
    engine: PredictionEngine,
    *,
    slow_request_seconds: float = DEFAULT_SLOW_REQUEST_SECONDS,
) -> type[BaseHTTPRequestHandler]:
    """A request-handler class bound to ``engine``."""

    class PredictionHandler(BaseHTTPRequestHandler):
        server_version = "repro-serve/1.0"
        protocol_version = "HTTP/1.1"
        # Without TCP_NODELAY, Nagle + delayed ACK adds ~40ms to every
        # keep-alive request — catastrophic for small JSON bodies.
        disable_nagle_algorithm = True

        # -- routing --------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            self._dispatch("GET")

        def do_HEAD(self) -> None:  # noqa: N802
            self._dispatch("HEAD")

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("POST")

        def _dispatch(self, method: str) -> None:
            """Route one request, then record it whatever happened.

            :meth:`_send` records the request just before the reply's
            headers go out, so a client that has its response can already
            see it in ``/metrics``.  The ``finally`` records any request
            that never replied, so 400/404/500 paths (and even a handler
            bug that re-raises) still hit the counters, the latency
            histogram, the slow-request log and — when tracing is on —
            the request span.
            """
            self._body_read = False
            self._head_only = method == "HEAD"
            self._status = 500  # overwritten by _send; a crash before it counts as 500
            self._method = method
            self._route = _route_label(self.path)
            tracer = engine.tracer
            self._span = (
                tracer.start_span(
                    "request", "serve", args={"route": self._route, "method": method}
                )
                if tracer is not None
                else None
            )
            self._accounted = False
            self._started = time.perf_counter()
            try:
                if method == "POST":
                    self._handle_post()
                else:
                    self._handle_get()
            finally:
                self._account()

        def _account(self) -> None:
            """Record the current request once, with its status so far."""
            if self._accounted:
                return
            self._accounted = True
            elapsed = time.perf_counter() - self._started
            slow = elapsed >= slow_request_seconds
            if slow:
                print(
                    f"slow request: {self._method} {self.path} -> {self._status} "
                    f"in {elapsed * 1000.0:.1f} ms",
                    file=sys.stderr,
                )
            engine.observe_request(self._route, self._status, elapsed, slow=slow)
            span = self._span
            if span is not None:
                if span.args is not None:
                    span.args["status"] = self._status
                span.end()

        def _handle_get(self) -> None:
            url = urlsplit(self.path)
            if url.path == "/healthz":
                self._reply(200, engine.health())
            elif url.path == "/stats":
                self._reply(200, engine.stats())
            elif url.path == "/metrics":
                registry = engine.sync_metrics()
                formats = parse_qs(url.query).get("format", [])
                if formats and formats[-1] == "json":
                    self._reply(200, registry.as_json())
                else:
                    self._reply_text(200, registry.to_prometheus())
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}"})

        def _handle_post(self) -> None:
            if self.path != "/predict":
                self._reply(404, {"error": f"unknown path {self.path!r}"})
                return
            try:
                payload = self._read_json()
                queries = self._queries_of(payload)
                results = engine.predict(queries)
            except ValueError as exc:
                self._reply(400, {"error": str(exc)})
                return
            except Exception:  # noqa: BLE001 - a bug must not drop the socket
                self._reply(500, {"error": "internal server error"})
                raise  # still reaches handle_error for the operator's log
            self._reply(200, {"results": results})

        # -- plumbing -------------------------------------------------------
        def _read_json(self) -> Any:
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                raise ValueError("bad Content-Length header") from None
            if length <= 0:
                raise ValueError("empty request body")
            if length > MAX_BODY_BYTES:
                raise ValueError(f"request body over {MAX_BODY_BYTES} bytes")
            data = self.rfile.read(length)
            self._body_read = True
            try:
                return json.loads(data.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValueError(f"invalid JSON body: {exc}") from None

        @staticmethod
        def _queries_of(payload: Any) -> list[dict[str, Any]]:
            if isinstance(payload, dict) and "queries" in payload:
                queries = payload["queries"]
                if not isinstance(queries, list) or not queries:
                    raise ValueError("'queries' must be a non-empty list")
                return queries
            if isinstance(payload, dict):
                return [payload]  # single bare query object
            raise ValueError("body must be a query object or {'queries': [...]}")

        def _reply(self, status: int, body: dict[str, Any]) -> None:
            self._send(status, json.dumps(body).encode("utf-8"), "application/json")

        def _reply_text(self, status: int, body: str) -> None:
            self._send(status, body.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)

        def _send(self, status: int, data: bytes, content_type: str) -> None:
            self._status = status
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            # HEAD keeps the Content-Length the GET would have sent (RFC
            # 9110 §9.3.2) but omits the body bytes themselves.
            self.send_header("Content-Length", str(len(data)))
            # Replying with the request body still unread would leave its
            # bytes on a keep-alive socket, where they would be parsed as
            # the *next* request line — close the connection instead.
            try:
                pending = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                pending = 1
            if pending > 0 and not getattr(self, "_body_read", False):
                self.send_header("Connection", "close")
                self.close_connection = True
            self._account()
            self.end_headers()
            if not getattr(self, "_head_only", False):
                self.wfile.write(data)

        def log_message(self, format: str, *args: Any) -> None:
            """Quiet by default; the CLI prints its own line per request."""

    return PredictionHandler


def make_server(
    engine: PredictionEngine,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    slow_request_seconds: float = DEFAULT_SLOW_REQUEST_SECONDS,
) -> ThreadingHTTPServer:
    """A ready-to-run threading HTTP server (``port=0`` picks a free port)."""
    return ThreadingHTTPServer(
        (host, port),
        make_handler(engine, slow_request_seconds=slow_request_seconds),
    )


def run_server(server: ThreadingHTTPServer) -> None:
    """Blocking serve loop; returns cleanly on KeyboardInterrupt."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def serve_forever(
    engine: PredictionEngine,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    slow_request_seconds: float = DEFAULT_SLOW_REQUEST_SECONDS,
) -> None:
    """Bind and serve ``engine`` until interrupted (one-call convenience)."""
    run_server(
        make_server(engine, host, port, slow_request_seconds=slow_request_seconds)
    )
