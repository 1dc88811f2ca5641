"""Shared network helpers for the socket-fabric test suites.

The pattern everywhere is "bind port 0, read back the real port": the
kernel picks a free ephemeral port, so parallel test runs never race
over a hard-coded number.  :func:`free_port` reserves one for tests
that need to know the port *before* a listener exists (e.g. a manager
restart that must come back on the same endpoint), and
:func:`endpoint` formats it the way ``SocketFabric`` expects.

:class:`Peer` is a hand-rolled node for protocol tests: the data plane
interns strings and report bodies per connection, so a peer that wants
to read a second work frame or send a second report frame has to hold
the connection's :class:`~repro.cluster.wire.WireSession` as a real
node does.
"""

from __future__ import annotations

import socket

from repro.cluster.wire import (
    PROTOCOL_VERSION,
    WireSession,
    encode_report_frame,
    recv_frame,
    send_frame,
)

__all__ = ["Peer", "endpoint", "free_port"]


class Peer:
    """One registered connection to a manager, driven frame by frame."""

    def __init__(self, net, name: str, capacity: int = 1,
                 identity: str | None = None, welcome: bool = True) -> None:
        """``identity`` is what the hello announces (None: none);
        ``welcome=False`` expects to be refused, the reply then being
        :attr:`answer`."""
        self.sock = socket.create_connection((net.host, net.port), timeout=5)
        self.session = WireSession()
        hello = {"type": "hello", "version": PROTOCOL_VERSION,
                 "node": name, "capacity": capacity}
        if identity is not None:
            hello["identity"] = identity
        self.send(hello)
        self.answer = self.recv()
        assert self.answer["type"] == ("welcome" if welcome else "error")

    def send(self, message: dict) -> None:
        send_frame(self.sock, message)

    def recv(self) -> dict | None:
        return recv_frame(self.sock, session=self.session)

    def pull_work(self, slots: int = 1) -> list:
        """Declare ``slots`` free and return the chunk the manager sends."""
        while True:
            self.send({"type": "ready", "slots": slots})
            frame = self.recv()
            if frame["type"] == "work":
                return frame["requests"]

    def report(self, reports: list, slots: int) -> None:
        self.sock.sendall(encode_report_frame(reports, slots, self.session))

    def close(self) -> None:
        self.sock.close()


def free_port(host: str = "127.0.0.1") -> int:
    """Reserve an ephemeral port and return its number.

    The probe socket is closed before returning, so there is a window
    in which another process could grab the port — fine for tests on a
    loopback interface, where the only competitors are our own
    fixtures.  ``SO_REUSEADDR`` keeps a lingering TIME_WAIT entry from
    a previous test from failing the re-bind.
    """
    with socket.socket() as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


def endpoint(port: int = 0, host: str = "127.0.0.1") -> str:
    """Format ``host:port`` the way ``SocketFabric`` parses it."""
    return f"{host}:{port}"
