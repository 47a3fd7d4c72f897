"""Shared asyncio HTTP/1.1 core of the serve front ends.

The repair server (:mod:`repro.serve.server`) and the shard router
(:mod:`repro.serve.router`) speak the same deliberately tiny dialect:
``Connection: close``, JSON bodies, explicit ``Content-Length``.  This
module is the one copy of the reader/writer code, the async client side
the router forwards with, and the service core both run on: the
:class:`Service` accept loop, :func:`run_service` (the ``lif serve``
main loop) and :class:`ServiceThread` (the in-process embedding tests
and benchmarks use).
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from typing import Callable, Optional

from repro.knobs import knob, knob_values
from repro.obs import OBS
from repro.serve.protocol import ProtocolError, encode_json

#: Largest accepted request body (submissions are capped far below this).
MAX_BODY_BYTES = 2 << 20

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable",
}


async def read_request(reader) -> Optional[tuple]:
    """``(method, target, body)`` of one request, or None on EOF."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise ProtocolError("malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers = await read_headers(reader)
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ProtocolError("request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, target, body


async def read_headers(reader) -> dict:
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def respond(writer, status: int, payload: dict,
                  extra_headers=()) -> None:
    await respond_raw(writer, status, encode_json(payload), extra_headers)


async def respond_raw(writer, status: int, body: bytes,
                      extra_headers=()) -> None:
    reason = _REASONS.get(status, "OK")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()


def parse_query(query: str) -> dict:
    params = {}
    for pair in query.split("&"):
        if not pair:
            continue
        name, _, value = pair.partition("=")
        params[name] = value
    return params


async def fetch(host: str, port: int, method: str, target: str,
                body: bytes = b"", timeout: float = 60.0) -> tuple:
    """One ``Connection: close`` request; returns ``(status, body bytes)``.

    The router's forwarding primitive.  Raises ``OSError`` /
    ``asyncio.TimeoutError`` on transport failure — the caller decides
    whether that demotes a shard.
    """

    async def _exchange() -> tuple:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            head = (
                f"{method} {target} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Content-Type: application/json\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + body)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed status line from {host}:{port}: "
                    f"{status_line!r}"
                )
            status = int(parts[1])
            headers = await read_headers(reader)
            length = headers.get("content-length")
            if length is not None:
                blob = await reader.readexactly(int(length))
            else:
                blob = await reader.read()
            return status, blob
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                pass

    return await asyncio.wait_for(_exchange(), timeout)


def config_from_env(cls, overrides: dict):
    """A ``cls`` config read from the knobs its ``FIELD_KNOBS`` map
    (field -> knob) names, then every override that is not None: flags
    beat the environment."""
    values = {
        name: knob(variable) for name, variable in cls.FIELD_KNOBS.items()
    }
    values.update(
        (name, value) for name, value in overrides.items()
        if value is not None
    )
    return cls(**values)


class Service:
    """The accept loop and lifecycle the repair server and router share.

    Each connection carries one request, handed to :meth:`_route`.  A
    protocol error answers 400; any other exception answers 500 and
    bumps the :attr:`INTERNAL_ERRORS` counter, so a handler bug never
    kills the accept loop.  Subclasses implement ``_route``, ``start``
    (which calls :meth:`listen`), ``drain`` and ``wait_closed``.
    """

    INTERNAL_ERRORS = "serve.internal_errors"

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.draining = False
        self.started = time.monotonic()
        self._active_connections = 0
        self._drained = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> tuple:
        return self._server.sockets[0].getsockname()[:2]

    async def listen(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )

    async def stop_listening(self) -> None:
        self._server.close()
        await self._server.wait_closed()

    def config_view(self) -> dict:
        """The resolved value of every serve knob: the table's reading of
        the environment, overridden by the ``config`` fields this service
        runs with (a flag beats the environment)."""
        view = knob_values("REPRO_SERVE_")
        for name, variable in self.config.FIELD_KNOBS.items():
            view[variable] = getattr(self.config, name)
        return view

    def _count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        if OBS.enabled:
            OBS.counter(name, value)

    async def _route(self, method: str, target: str, body: bytes,
                     writer) -> None:
        raise NotImplementedError

    async def _handle_connection(self, reader, writer) -> None:
        self._active_connections += 1
        try:
            request = await read_request(reader)
            if request is not None:
                await self._route(*request, writer)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except ProtocolError as exc:
            await respond(writer, 400, {"error": "bad_request",
                                        "detail": str(exc)})
        except Exception as exc:  # never kill the accept loop
            self._count(self.INTERNAL_ERRORS)
            try:
                await respond(
                    writer, 500,
                    {"error": "internal",
                     "detail": f"{type(exc).__name__}: {exc}"},
                )
            except OSError:
                pass
        finally:
            self._active_connections -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass


async def _serve(make: Callable[[], Service], on_ready) -> None:
    """Build and start a service, report it ready, block until drained."""
    service = make()
    await service.start()
    loop = asyncio.get_running_loop()
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(service.drain())
            )
    except (NotImplementedError, RuntimeError):
        pass  # off the main thread (ServiceThread) or no signal support
    on_ready(service)
    await service.wait_closed()


def run_service(make: Callable[[], Service], announce=None) -> int:
    """Run ``make()`` until drained; SIGINT/SIGTERM start the drain.

    ``announce(service, host, port)`` is called once it listens.
    """

    def ready(service: Service) -> None:
        if announce is not None:
            announce(service, *service.address)

    asyncio.run(_serve(make, ready))
    return 0


class ServiceThread:
    """A service on a background thread (tests, benchmarks).

    Context-manager use drains the service on exit, so in-flight jobs
    finish before the ``with`` block returns.
    """

    def __init__(self, make: Callable[[], Service], name: str) -> None:
        self._make = make
        self.service: Optional[Service] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name=name, daemon=True
        )

    def _main(self) -> None:
        try:
            asyncio.run(_serve(self._make, self._on_ready))
        except BaseException as exc:  # surfaced by start()
            self.error = exc
            self._ready.set()

    def _on_ready(self, service: Service) -> None:
        self.service = service
        self.loop = asyncio.get_running_loop()
        self.host, self.port = service.address
        self._ready.set()

    def start(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(timeout=60)
        name = self._thread.name
        if self.error is not None:
            raise RuntimeError(f"{name} failed to start") from self.error
        if self.port is None:
            raise RuntimeError(f"{name} did not come up within 60s")
        return self

    def request_drain(self) -> None:
        if self.loop is not None and self._thread.is_alive():
            try:
                self.loop.call_soon_threadsafe(self._drain)
            except RuntimeError:
                # The loop closed after the liveness check: the service
                # stopped on its own (say, drained by the router).
                pass

    def _drain(self) -> None:
        # A service already draining (say, a shard the router shut down)
        # may finish before a second drain task would ever start.
        if not self.service.draining:
            asyncio.ensure_future(self.service.drain())

    def join(self, timeout: float = 120.0) -> None:
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.request_drain()
        self.join()
