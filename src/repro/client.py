"""Thin synchronous client for the compile-and-simulate daemon.

Speaks the NDJSON protocol of :mod:`repro.service.protocol` over a unix or
TCP socket: one connection per job, streamed records surfaced through a
callback as they arrive, the final typed :class:`~repro.api.Response`
returned with the streamed records re-attached. This is what the
``repro submit`` verb uses; it is deliberately dependency-free (stdlib
``socket`` only) so external tooling can lift it verbatim.
"""

import socket
import time

from .api.requests import ApiError, Response
from .errors import PhloemError
from .service import protocol


class ServiceError(PhloemError):
    """A connection or protocol failure talking to the daemon."""


class ServiceClient:
    """One daemon endpoint (unix socket path, or TCP host/port).

    ``client_id`` is the identity the daemon rate-limits and quotas on;
    every caller sharing an id shares its budget.
    """

    def __init__(self, socket_path=None, host=None, port=0, client_id="cli", timeout=300.0):
        if socket_path is None and host is None:
            raise ServiceError("give a unix socket path or a TCP host/port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout

    # -- plumbing -----------------------------------------------------------

    def _connect(self):
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.settimeout(self.timeout)
                    sock.connect(self.socket_path)
                except OSError:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        except OSError as exc:
            raise ServiceError(
                "cannot reach daemon at %s: %s"
                % (self.socket_path or "%s:%d" % (self.host, self.port), exc)
            ) from exc
        return sock

    def _roundtrip(self, envelope, on_message):
        """Send one envelope, feed every reply line to ``on_message``."""
        sock = self._connect()
        try:
            sock.sendall(protocol.encode(envelope))
            reader = sock.makefile("rb")
            try:
                for line in reader:
                    message = protocol.decode(line)
                    if on_message(message):
                        return
            finally:
                reader.close()
        except OSError as exc:
            raise ServiceError("connection to daemon lost: %s" % exc) from exc
        finally:
            sock.close()
        raise ServiceError("daemon closed the connection without a final response")

    # -- API ----------------------------------------------------------------

    def submit(self, request, on_record=None):
        """Run one API request on the daemon; returns its :class:`Response`.

        ``on_record`` observes each streamed record dict as it arrives;
        the returned response carries the full record list either way.
        """
        records = []
        final = []

        def on_message(message):
            kind = message.get("kind")
            if kind == "record":
                payload = message.get("payload")
                records.append(payload)
                if on_record is not None:
                    on_record(payload)
                return False
            if kind == "response":
                final.append(message.get("payload"))
                return True
            raise ApiError("unexpected message kind %r" % (kind,))

        self._roundtrip(protocol.request_envelope(request, client=self.client_id), on_message)
        response = Response.from_wire(final[0])
        if not response.records:
            response.records = records
        return response

    def control(self, action):
        """Run one control action (``ping``/``stats``/``shutdown``)."""
        reply = []

        def on_message(message):
            if message.get("kind") == "control-reply":
                reply.append(message.get("payload"))
                return True
            if message.get("kind") == "response":
                payload = (message.get("payload") or {}).get("payload") or {}
                error = payload.get("error") or {"message": "request rejected"}
                raise ServiceError("control failed: %s" % error.get("message"))
            raise ApiError("unexpected message kind %r" % (message.get("kind"),))

        self._roundtrip(protocol.control_envelope(action, client=self.client_id), on_message)
        return reply[0]

    def ping(self):
        """Liveness probe; returns the daemon's identity payload."""
        return self.control("ping")

    def server_stats(self):
        """The daemon's counters, governor snapshot, and cache stats."""
        return self.control("stats")

    def telemetry(self):
        """Prometheus text exposition of the daemon's telemetry.

        Returns the text payload directly — pipe it to a file and any
        Prometheus scraper (or :func:`repro.service.telemetry.parse_prometheus`)
        can read it.
        """
        return self.control("telemetry")["text"]

    def shutdown(self):
        """Ask the daemon to stop (it answers, then exits)."""
        return self.control("shutdown")

    def wait_ready(self, timeout=30.0, interval=0.1):
        """Poll :meth:`ping` until the daemon answers or ``timeout`` passes."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.ping()
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)
