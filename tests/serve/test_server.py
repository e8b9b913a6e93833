"""The daemon end to end: caching, bit-identity, transports, shutdown."""

import http.client
import json
import threading
import time

import pytest

from repro.cli import main
from repro.obs.recorder import Recorder, reset_recorder, set_recorder
from repro.serve.cache import TtlLruCache
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ReproServer
from repro.serve.state import ServeState

QUERY = {"gate": "inv", "load": "100f", "edges": ["a:fall:500ps"]}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One warm daemon (HTTP + unix listener) shared by the module."""
    recorder = Recorder()
    set_recorder(recorder)
    sock = str(tmp_path_factory.mktemp("serve") / "repro.sock")
    server = ReproServer(port=0, socket_path=sock,
                         state=ServeState(ttl=300.0, cache_max=128))
    server.start()
    yield server
    server.stop()
    reset_recorder()


@pytest.fixture
def client(server):
    with ServeClient(server.http_endpoint) as client:
        yield client


def test_healthz_reports_warm_state(client):
    health = client.healthz()
    assert health["ok"] is True
    assert health["status"] == "serving"
    assert health["coalescing"] is True
    assert health["in_flight"] >= 1  # this very request
    assert set(health["cache"]) >= {"entries", "hits", "misses"}


def test_repeat_queries_replay_identical_bytes(client):
    s1, h1, b1 = client.delay_raw(QUERY)
    s2, h2, b2 = client.delay_raw(QUERY)
    assert s1 == s2 == 200
    assert h2["x-repro-cache"] == "hit"
    assert b1 == b2  # byte-for-byte, not just equal documents
    document = json.loads(b1)
    assert document["ok"] is True
    assert document["result"]["delay"] > 0
    assert document["result"]["reference"] == "a"


def test_served_report_bit_matches_the_cli(client, capsys):
    """The ``report`` field is exactly what ``repro delay`` prints."""
    document = client.delay(QUERY)
    assert main(["delay", "--gate", "inv", "--load", "100f",
                 "--edge", "a:fall:500ps"]) == 0
    assert document["report"] + "\n" == capsys.readouterr().out


def test_unix_socket_serves_identical_bytes(server, client):
    _, _, via_http = client.delay_raw(QUERY)
    with ServeClient(server.unix_endpoint) as unix_client:
        _, headers, via_unix = unix_client.delay_raw(QUERY)
    assert headers["x-repro-cache"] == "hit"
    assert via_unix == via_http


def test_concurrent_clients_get_identical_bytes(server):
    """Many clients, same query, all in flight together: every response
    is the same bytes (single-flight context build + cached encoding)."""
    query = {"gate": "inv", "load": "100f", "edges": ["a:rise:640ps"]}
    bodies = {}

    def fetch(i):
        with ServeClient(server.http_endpoint) as c:
            bodies[i] = c.delay_raw(query)[2]

    threads = [threading.Thread(target=fetch, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert len(bodies) == 6
    assert len(set(bodies.values())) == 1


def test_multi_query_batch_fans_out(client):
    taus = ["410ps", "520ps", "630ps"]
    batch = {"queries": [
        {"gate": "inv", "load": "100f", "edges": [f"a:fall:{tau}"]}
        for tau in taus
    ]}
    status, headers, body = client.request("POST", "/delay", batch)
    assert status == 200
    document = json.loads(body)
    assert len(document["results"]) == 3
    delays = [r["result"]["delay"] for r in document["results"]]
    assert delays == sorted(delays)  # slower ramps arrive later
    # A second round trip is all cache hits with identical per-query docs.
    status, headers, body2 = client.request("POST", "/delay", batch)
    assert headers["x-repro-cache"] == "hit"
    assert body2 == body


class TestMalformedRequests:
    def test_invalid_json_body_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request("POST", "/delay", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert b"not valid JSON" in response.read()
        finally:
            conn.close()

    def test_missing_content_length_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.putrequest("POST", "/delay")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
        finally:
            conn.close()

    @pytest.mark.parametrize("query,fragment", [
        ({"gate": "xor9", "edges": ["a:fall:500ps"]}, "unknown gate"),
        ({"gate": "inv", "edges": ["z:fall:500ps"]}, "not an input"),
        ({"gate": "inv", "edges": []}, "edges"),
        ({"queries": []}, "non-empty"),
    ])
    def test_bad_schema_is_400(self, client, query, fragment):
        with pytest.raises(ServeError) as excinfo:
            client.delay(query)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("edge", [
        {"input": "a", "direction": "fall", "tau": float("nan")},
        {"input": "a", "direction": "fall", "tau": "500ps",
         "at": float("nan")},
        {"input": "a", "direction": "fall", "tau": float("inf")},
    ])
    def test_non_finite_edge_is_400(self, client, edge):
        # Python's json writes (and the server's json reads) NaN and
        # Infinity; such an edge must be refused, not answered with NaN.
        with pytest.raises(ServeError) as excinfo:
            client.delay({"gate": "nand3", "edges": [edge]})
        assert excinfo.value.status == 400
        assert "finite" in str(excinfo.value)

    def test_unknown_endpoint_is_404(self, client):
        status, _, _ = client.request("GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, client):
        status, _, _ = client.request("GET", "/delay")
        assert status == 405


def test_metrics_scrape_is_openmetrics(client):
    client.delay(QUERY)  # ensure at least one request is on the books
    text = client.metrics()
    assert text.endswith("# EOF\n")
    assert "# TYPE repro_serve_requests counter" in text
    assert "# TYPE repro_serve_request_latency histogram" in text
    assert 'endpoint="delay"' in text
    assert "repro_serve_cache_hits" in text
    assert "repro_serve_coalesce_lane_fill" in text


def test_ttl_expiry_recomputes_identical_bytes():
    """At the state layer: an expired entry recomputes, and because the
    solver is deterministic the recomputed bytes match the originals."""
    state = ServeState()
    clock_now = [1000.0]
    state.responses = TtlLruCache(max_entries=4, ttl=10.0,
                                  clock=lambda: clock_now[0])
    calls = []

    def compute():
        calls.append(1)
        return {"ok": True, "n": "stable"}

    body1, hit1 = state.cached_or_compute("sig", compute)
    body2, hit2 = state.cached_or_compute("sig", compute)
    assert (hit1, hit2) == (False, True)
    clock_now[0] += 11.0
    body3, hit3 = state.cached_or_compute("sig", compute)
    assert hit3 is False
    assert len(calls) == 2
    assert body1 == body2 == body3


def test_drain_completes_inflight_requests(tmp_path):
    """stop() during an in-flight request finishes it (drained=True) and
    then refuses new connections -- the SIGTERM contract."""
    server = ReproServer(port=0, state=ServeState(), coalesce=False)
    server.start()
    outcome = {}

    def slow_query():
        with ServeClient(server.http_endpoint) as c:
            outcome["document"] = c.delay(
                {"gate": "inv", "load": "100f", "edges": ["a:fall:777ps"]})

    thread = threading.Thread(target=slow_query)
    thread.start()
    # Let the request reach the handler before pulling the plug.
    deadline = time.monotonic() + 10.0
    while server.app.in_flight == 0 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert server.app.in_flight > 0
    drained = server.stop()
    thread.join(timeout=60)
    assert drained is True
    assert outcome["document"]["ok"] is True
    with pytest.raises(OSError):
        http.client.HTTPConnection(
            server.host, server.port, timeout=2).request("GET", "/healthz")
