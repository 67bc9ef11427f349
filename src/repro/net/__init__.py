"""Network service layer: ``bullfrogd`` and its client library.

::

    # server side
    from repro import Database
    from repro.net import BullfrogServer, ServerConfig
    server = BullfrogServer(db, ServerConfig(port=5433)).start()

    # client side
    from repro.net import connect
    with connect("127.0.0.1", 5433) as conn:
        conn.execute("SELECT 1")

``python -m repro.net --port 5433`` runs a standalone server.
"""

from .addr import parse_hostport, parse_hostport_list
from .client import (
    Connection,
    ConnectionPool,
    Pipeline,
    PreparedStatement,
    connect,
    decorrelated_jitter,
)
from .driver import NetworkTpccClient
from .protocol import PROTOCOL_VERSION
from .server import BullfrogServer, ServerConfig

__all__ = [
    "BullfrogServer",
    "Connection",
    "ConnectionPool",
    "NetworkTpccClient",
    "PROTOCOL_VERSION",
    "Pipeline",
    "PreparedStatement",
    "ServerConfig",
    "connect",
    "decorrelated_jitter",
    "parse_hostport",
    "parse_hostport_list",
]
