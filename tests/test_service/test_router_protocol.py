"""Protocol-robustness fuzz for the client listeners: node and router.

Both listeners share one framing loop, and the router fronts the whole
cluster, so that framing discipline is the fabric's blast door:
malformed lines, oversized lines, unknown ops, and mid-frame disconnects
must each produce a clean, structured error (or a clean hangup) on the
offending connection — and must never disturb a *different* client's
connection.  Every framing case runs against a node and the router.
"""

import json
import socket

import pytest

from repro.common.rng import make_rng
from repro.service.protocol import MAX_LINE_BYTES

from tests.test_cluster.conftest import ClusterHarness


@pytest.fixture(scope="module")
def router_cluster(tmp_path_factory):
    root = tmp_path_factory.mktemp("router-fuzz")
    harness = ClusterHarness(
        node_count=2,
        per_node_kwargs={
            name: {"cache_dir": str(root / f"cache-{name}")}
            for name in ("node0", "node1")
        },
    )
    harness.start()
    yield harness
    harness.stop()


@pytest.fixture(params=["node", "router"])
def port(request, router_cluster):
    """The listener under test: a service node's, or the router's."""
    if request.param == "node":
        return router_cluster.services["node0"].port
    return router_cluster.router_port


class RawConnection:
    """A bare socket speaking raw bytes at a listener."""

    def __init__(self, port, timeout=10.0):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=timeout
        )
        self.file = self.sock.makefile("rb")

    def send(self, raw: bytes):
        self.sock.sendall(raw)

    def readline(self):
        return self.file.readline(MAX_LINE_BYTES + 1)

    def response(self):
        line = self.readline()
        assert line, "listener closed the connection without a response"
        return json.loads(line)

    def close(self):
        try:
            self.file.close()
            self.sock.close()
        except OSError:
            pass


@pytest.fixture
def conn(port):
    connection = RawConnection(port)
    yield connection
    connection.close()


def assert_alive(connection):
    """The connection still speaks protocol after whatever came before."""
    connection.send(b'{"op": "ping"}\n')
    assert connection.response()["status"] == "pong"


class TestMalformedLines:
    def test_garbage_bytes_get_structured_error(self, conn):
        conn.send(b"\x00\xff\xfe not json at all\n")
        response = conn.response()
        assert response["status"] == "error"
        assert response["error"]["type"] == "ServiceError"
        assert_alive(conn)

    def test_non_object_json_gets_error(self, conn):
        conn.send(b"[1, 2, 3]\n")
        assert conn.response()["status"] == "error"
        assert_alive(conn)

    def test_empty_line_gets_error(self, conn):
        conn.send(b"\n")
        assert conn.response()["status"] == "error"
        assert_alive(conn)

    def test_unknown_op_gets_error(self, conn):
        conn.send(b'{"op": "transmogrify"}\n')
        response = conn.response()
        assert response["status"] == "error"
        assert "transmogrify" in response["error"]["message"]
        assert_alive(conn)

    def test_invalid_field_types_get_error(self, conn):
        conn.send(b'{"op": "run", "experiment_id": 7}\n')
        assert conn.response()["status"] == "error"
        conn.send(b'{"op": "run", "experiment_id": "x", "forwarded": "y"}\n')
        assert conn.response()["status"] == "error"
        assert_alive(conn)

    def test_seeded_fuzz_lines_never_break_the_connection(self, conn):
        rng = make_rng(1234)
        for _ in range(60):
            length = rng.randrange(1, 80)
            raw = bytes(rng.randrange(1, 256) for _ in range(length))
            raw = raw.replace(b"\n", b"?")
            conn.send(raw + b"\n")
            response = conn.response()
            assert response["status"] in ("error", "pong", "stats")
        assert_alive(conn)


class TestOversizedLines:
    def test_oversized_line_errors_then_hangs_up(self, port):
        victim = RawConnection(port)
        bystander = RawConnection(port)
        try:
            victim.send(b"x" * (MAX_LINE_BYTES + 100) + b"\n")
            response = victim.response()
            assert response["status"] == "error"
            assert str(MAX_LINE_BYTES) in response["error"]["message"]
            # The listener hangs up on the flooding connection...
            assert victim.readline() == b""
            # ...and the bystander's connection is untouched.
            assert_alive(bystander)
        finally:
            victim.close()
            bystander.close()


class TestMidFrameDisconnect:
    def test_partial_frame_then_disconnect_is_harmless(self, port):
        ghost = RawConnection(port)
        ghost.send(b'{"op": "run", "experiment_id": "al')  # no newline
        ghost.close()
        survivor = RawConnection(port)
        try:
            assert_alive(survivor)
        finally:
            survivor.close()

    def test_disconnect_with_request_in_flight_is_harmless(self, port):
        ghost = RawConnection(port)
        ghost.send(b'{"op": "run", "experiment_id": "alpha"}\n')
        ghost.close()  # never reads the response
        survivor = RawConnection(port)
        try:
            survivor.send(b'{"op": "run", "experiment_id": "alpha"}\n')
            assert survivor.response()["status"] == "ok"
        finally:
            survivor.close()


class TestInternalOps:
    @pytest.fixture
    def conn(self, router_cluster):
        connection = RawConnection(router_cluster.router_port)
        yield connection
        connection.close()

    def test_backfill_from_a_client_is_refused_cleanly(self, conn):
        payload = {
            "op": "backfill",
            "cache_key": "ab" * 32,
            "result": {"x": 1},
            "checksum": "sha256:00",
        }
        conn.send((json.dumps(payload) + "\n").encode())
        response = conn.response()
        assert response["status"] == "error"
        assert "node-internal" in response["error"]["message"]
        assert_alive(conn)
