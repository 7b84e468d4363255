"""End-to-end serving: a live in-process HTTP server vs the CLI's artifacts.

The serving tentpole's acceptance test: start the real asyncio server on a
free port, fire concurrent identical *and* distinct spec requests at it from
client threads, and assert

* every served payload is **bit-identical** to the artifact that
  ``python -m repro run`` (the in-process CLI ``main``) writes for the same
  spec,
* identical concurrent requests share one engine execution (the service
  dedup counter) and same-plan work coalesces (the collator counter),
* the introspection routes and error mapping behave.
"""

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import pytest

from repro.cli import main as cli_main
from repro.runner import ArtifactStore
from repro.scenarios import get_scenario, register_scenario
from repro.scenarios.registry import _SCENARIOS
from repro.scenarios.spec import ComparisonCase, ComparisonScenario, spec_dict
from repro.serve import FusionServer, FusionService
from repro.serve import http as http_module

CASES = (ComparisonCase(label="case", lengths=(2.0, 3.0, 4.0), fa=1),)

SPEC_A = ComparisonScenario(
    name="serve-e2e-a", cases=CASES, samples=120, shard_samples=40, engine="batch"
)
SPEC_B = ComparisonScenario(
    name="serve-e2e-b", cases=CASES, samples=90, shard_samples=30, engine="batch", seed=7
)


class ServerThread:
    """Run a FusionServer on its own event loop in a daemon thread."""

    def __init__(self, service: FusionService) -> None:
        self.service = service
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.server: FusionServer | None = None

    async def _start(self) -> FusionServer:
        server = FusionServer(self.service, port=0)
        await server.start()
        return server

    def __enter__(self) -> "ServerThread":
        self.thread.start()
        self.server = asyncio.run_coroutine_threadsafe(self._start(), self.loop).result(10)
        return self

    def __exit__(self, *exc_info) -> None:
        asyncio.run_coroutine_threadsafe(self.server.aclose(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()
        self.service.close()

    @property
    def port(self) -> int:
        return self.server.port

    def request(self, method: str, path: str, body: dict | None = None):
        conn = HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, payload, {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def request_raw(self, method: str, path: str):
        """Like :meth:`request`, but returns the raw body + content type."""
        conn = HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.getheader("Content-Type"), response.read()
        finally:
            conn.close()


@pytest.fixture
def registered_specs():
    for spec in (SPEC_A, SPEC_B):
        register_scenario(spec, replace=True)
    try:
        yield
    finally:
        for spec in (SPEC_A, SPEC_B):
            _SCENARIOS.pop(spec.name, None)


def cli_artifact_payload(spec, store_dir):
    """What ``python -m repro run NAME`` stores for ``spec`` (the reference)."""
    code = cli_main(["run", spec.name, "--store", str(store_dir), "--json"])
    assert code == 0
    store = ArtifactStore(root=store_dir)
    document = store.load(spec)
    assert document is not None
    return document["payload"]


def test_served_payloads_bit_identical_to_cli_artifacts(
    tmp_path, registered_specs, capsys
):
    cli_store = tmp_path / "cli-store"
    reference_a = cli_artifact_payload(SPEC_A, cli_store)
    reference_b = cli_artifact_payload(SPEC_B, cli_store)
    capsys.readouterr()  # swallow the CLI's table output

    service = FusionService(store=ArtifactStore(root=tmp_path / "serve-store"), max_batch=32)
    with ServerThread(service) as server:
        requests = (
            [("POST", "/v1/run", {"spec": spec_dict(SPEC_A)})] * 6
            + [("POST", "/v1/run", {"scenario": SPEC_B.name})] * 3
        )
        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            outcomes = list(pool.map(lambda req: server.request(*req), requests))

        statuses = [status for status, _ in outcomes]
        assert statuses == [200] * len(requests)
        bodies = [body for _, body in outcomes]
        for body in bodies[:6]:
            assert json.dumps(body["payload"], sort_keys=True) == json.dumps(
                reference_a, sort_keys=True
            )
        for body in bodies[6:]:
            assert json.dumps(body["payload"], sort_keys=True) == json.dumps(
                reference_b, sort_keys=True
            )

        # Identical concurrent requests shared one engine execution each:
        # at most 2 computations happened (one per distinct spec); everyone
        # else deduplicated or hit the artifact the first writer stored.
        _, metrics = server.request("GET", "/v1/metrics?format=json")
        computed = metrics["served"] - metrics["cache_hits"] - metrics["deduplicated"]
        assert computed == 2
        assert metrics["deduplicated"] + metrics["cache_hits"] == len(requests) - 2
        # ... and the engine passes themselves coalesced across shards:
        # 2 computed specs never cost more batches than submissions.
        assert metrics["collator"]["requests"] == 3 * 2 + 3 * 2
        assert metrics["collator"]["batches"] < metrics["collator"]["requests"]
        # Every request under concurrent load landed in the latency histogram.
        assert metrics["latency"]["count"] == len(requests)
        assert metrics["latency"]["p50_ms"] <= metrics["latency"]["p99_ms"]

        # The default exposition is Prometheus text carrying the same counts.
        status, content_type, raw = server.request_raw("GET", "/v1/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        text = raw.decode("utf-8")
        assert "# TYPE repro_served_requests_total counter" in text
        assert "# TYPE repro_request_seconds histogram" in text
        served_line = next(
            line for line in text.splitlines() if line.startswith("repro_served_requests_total")
        )
        # Metrics scrapes are not run requests; the counter is exactly the load.
        assert float(served_line.split()[-1]) == len(requests)
        bucket_counts = [
            float(line.split()[-1])
            for line in text.splitlines()
            if line.startswith("repro_request_seconds_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)  # cumulative buckets
        assert bucket_counts[-1] >= len(requests)  # +Inf sees every request

        # Served results were persisted: a rerun of the CLI against the
        # *serve* store is a cache hit with the same bytes.
        serve_store = ArtifactStore(root=tmp_path / "serve-store")
        document = serve_store.load(SPEC_A)
        assert document is not None
        assert json.dumps(document["payload"], sort_keys=True) == json.dumps(
            reference_a, sort_keys=True
        )


def test_introspection_and_error_mapping(tmp_path, registered_specs):
    service = FusionService(store=None)
    with ServerThread(service) as server:
        status, health = server.request("GET", "/v1/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["default_engine"] == "scalar"
        assert health["engines"] == ["batch", "scalar"]

        status, catalogue = server.request("GET", "/v1/scenarios")
        assert status == 200
        assert SPEC_A.name in {entry["name"] for entry in catalogue["scenarios"]}

        status, body = server.request("POST", "/v1/run", {"scenario": "no-such"})
        assert status == 400 and "unknown scenario" in body["error"]

        status, body = server.request("POST", "/v1/run", {"spec": {"kind": "nope"}})
        assert status == 400 and "kind" in body["error"]

        # A plan of 10^12 shards is refused before anything is planned.
        huge = dict(spec_dict(SPEC_A), samples=10**12, shard_samples=1)
        started = time.perf_counter()
        status, body = server.request("POST", "/v1/run", {"spec": huge})
        assert status == 400 and "shards" in body["error"]
        assert time.perf_counter() - started < 5.0

        # So is a single shard of 10^12 samples.
        huge = dict(spec_dict(SPEC_A), samples=10**12, shard_samples=10**12)
        started = time.perf_counter()
        status, body = server.request("POST", "/v1/run", {"spec": huge})
        assert status == 400 and "per shard" in body["error"]
        assert time.perf_counter() - started < 5.0

        # And a case-study shard of 8 replicas x 10^6 vehicles x 10^9 steps.
        huge = dict(
            spec_dict(get_scenario("table2-proxy")), n_vehicles=10**6, n_steps=10**9, shard_replicas=8
        )
        started = time.perf_counter()
        status, body = server.request("POST", "/v1/run", {"spec": huge})
        assert status == 400 and "rounds; at most" in body["error"]
        assert time.perf_counter() - started < 5.0

        status, _ = server.request("GET", "/v1/run")
        assert status == 405
        status, _ = server.request("GET", "/v1/missing")
        assert status == 404

        conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/v1/run", "{not json", {"Content-Type": "application/json"})
            assert conn.getresponse().status == 400
        finally:
            conn.close()


@pytest.mark.parametrize("engine", [5, ["batch"], ""])
def test_malformed_engine_answers_400(engine):
    # Both an engine override and an inline spec carrying a non-name engine
    # are request errors, not 500s from inside the runner.
    service = FusionService(store=None)
    with ServerThread(service) as server:
        for request in (
            {"scenario": "table1-smoke", "engine": engine},
            {"spec": dict(spec_dict(SPEC_A), engine=engine)},
        ):
            status, body = server.request("POST", "/v1/run", request)
            assert status == 400 and "engine must be" in body["error"]


#: Invalid field values for the ``table1-smoke`` wire spec: top-level
#: fields of the scenario, or fields of its single comparison case.
INVALID_SMOKE_FIELDS = [
    {"seed": -1},
    {"seed": 1.5},
    {"seed": True},
    {"samples": 150.5},
    {"schedules": ["fixed:a"]},
    {"attacked_indices": [5]},
    {"fault_probability": 2.0},
    {"lengths": ["NaN", 1, 2]},
]


@pytest.mark.parametrize("fields", INVALID_SMOKE_FIELDS)
def test_invalid_wire_spec_answers_400(fields):
    # Every malformed field is a request error raised while the spec is
    # built, never a 500 from inside the runner.
    spec = spec_dict(get_scenario("table1-smoke"))
    for name, value in fields.items():
        (spec if name in spec else spec["cases"][0])[name] = value
    server = FusionServer(FusionService(store=None))
    try:
        status, body = asyncio.run(
            server._dispatch("POST", "/v1/run", "", json.dumps({"spec": spec}).encode())
        )
    finally:
        server.service.close()
    assert status == 400, body


@pytest.mark.parametrize(
    "body",
    [b"[" * 100_000 + b"]" * 100_000, b'{"scenario": ' + b"1" * 5_000 + b"}"],
    ids=["deep-nesting", "huge-integer"],
)
def test_hostile_json_answers_400_and_server_keeps_serving(body):
    # Both bodies are far below MAX_BODY_BYTES, yet json.loads raised
    # RecursionError (deep nesting) or ValueError (an integer literal past
    # the int-to-str digit limit), which used to surface as a 500.
    service = FusionService(store=None)
    with ServerThread(service) as server:
        conn = HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request("POST", "/v1/run", body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            status, payload = response.status, json.loads(response.read())
        finally:
            conn.close()
        assert status == 400, payload
        assert "error" in payload
        status, health = server.request("GET", "/v1/health")
        assert status == 200 and health["status"] == "ok"


@pytest.mark.parametrize("name", ["numba", "fused"])
def test_removed_engine_name_answers_400(name):
    # The former JIT backend's name and the former alias of the batch engine
    # are ordinary unknown engine names: a 400 naming the registered engines,
    # from the override and from an inline spec alike.
    service = FusionService(store=None)
    with ServerThread(service) as server:
        for request in (
            {"scenario": "table1-smoke", "engine": name},
            {"spec": dict(spec_dict(SPEC_A), engine=name)},
        ):
            status, body = server.request("POST", "/v1/run", request)
            assert status == 400
            assert f"unknown engine '{name}'" in body["error"]
            assert "available engines: batch, scalar" in body["error"]


def test_keep_alive_serves_sequential_requests_on_one_connection(registered_specs):
    service = FusionService(store=None)
    with ServerThread(service) as server:
        conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            for _ in range(3):
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


@pytest.mark.parametrize("length", ["-5", "abc"])
def test_invalid_content_length_answers_400(length):
    # A negative length used to pass the size check and crash readexactly,
    # dropping the socket without an answer.
    service = FusionService(store=None)
    with ServerThread(service) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                f"POST /v1/run HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode("latin-1")
            )
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert f"invalid Content-Length '{length}'" in json.loads(body)["error"]


@pytest.mark.parametrize(
    "request_head",
    [
        "GET /v1/health?pad=" + "x" * 70_000 + " HTTP/1.1\r\n\r\n",
        "GET /v1/health HTTP/1.1\r\nX-Pad: " + "x" * 70_000 + "\r\n\r\n",
    ],
    ids=["request-line", "header-line"],
)
def test_overlong_line_answers_400(request_head):
    # A line past the stream reader's 64 KiB limit used to raise an uncaught
    # ValueError, dropping the socket without an answer.
    service = FusionService(store=None)
    with ServerThread(service) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(request_head.encode("latin-1"))
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "line too long" in json.loads(body)["error"]


@pytest.mark.parametrize(
    "sent",
    [b"", b"GET /v1/health HTTP/1.1\r\nHost: x"],
    ids=["idle", "half-sent-request"],
)
def test_stalled_connection_is_closed_after_read_timeout(monkeypatch, sent):
    # Without a read deadline an idle keep-alive client, or one that stops
    # halfway through its request, held a server coroutine forever.
    monkeypatch.setattr(http_module, "_REQUEST_READ_TIMEOUT_S", 0.2)
    service = FusionService(store=None)
    with ServerThread(service) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            # A complete request first: the deadline then restarts per request.
            sock.sendall(b"GET /v1/health HTTP/1.1\r\n\r\n")
            response = b""
            while b"\r\n\r\n" not in response:
                response += sock.recv(4096)
            assert response.startswith(b"HTTP/1.1 200 ")
            sock.sendall(sent)
            start = time.monotonic()
            while sock.recv(4096):  # the rest of the health body, then EOF
                pass
            assert time.monotonic() - start < 5.0
