"""Garbage on every fabric surface meets a typed answer, never a stall.

* a worker whose result does not decode fails its job (the broker must
  not strand it as "leased" with no lease);
* a client's or a worker's key that would name a file outside the
  result store touches nothing there;
* a broker that streams an undecodable point, a point without an
  index, or a nesting bomb is treated like a lost stream: the executor
  warns and finishes the sweep on its local pool;
* ``POST /sweep`` answers cold and cached sweeps with plain-JSON
  headline metrics and malformed bodies with a 400 and a JSON error.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.fabric.client import FabricClient
from repro.fabric.protocol import LineChannel
from repro.scenario import ScenarioConfig, SweepExecutor
from repro.scenario.executor import config_cache_key
from repro.scenario.io import config_to_dict
from repro.scenario.run import run_scenario
from repro.stats.metrics import HEADLINE_FIELDS

from .conftest import SMALL

CFG = ScenarioConfig(protocol="aodv", seed=3, **SMALL)

#: The ``metrics`` keys ``POST /sweep`` has always answered with.
LEGACY_METRICS = {
    "protocol", "duration", "data_sent", "data_received", "pdr",
    "avg_delay", "p95_delay", "avg_hops", "throughput_bps",
    "routing_overhead_packets", "normalized_routing_load",
    "normalized_mac_load", "drops_no_route", "drops_buffer",
    "drops_ifq", "drops_retry", "mac_collisions",
}


def _connect(address) -> LineChannel:
    host, port = address.rsplit(":", 1)
    return LineChannel(socket.create_connection((host, int(port)), timeout=5.0))


class TestBrokerRejectsBadResults:
    @pytest.mark.parametrize("summary", ["not-a-pickle", {"pdr": 0.9}, None])
    def test_undecodable_result_fails_the_job_promptly(
        self, tmp_path, broker_factory, summary
    ):
        broker = broker_factory(
            cache_dir=str(tmp_path / "fleet"), no_worker_grace=60.0
        )
        worker = _connect(broker.address)
        client = FabricClient(broker.address)
        try:
            worker.send({"type": "hello", "role": "worker", "worker": "liar"})
            client.connect()
            client.submit(
                [{"index": 0, "key": config_cache_key(CFG),
                  "config": config_to_dict(CFG)}],
                options={"max_retries": 0},
            )
            worker.send({"type": "request", "poll": 5.0})
            lease = worker.recv(timeout=10.0)
            assert lease["type"] == "lease"
            worker.send({
                "type": "result", "lease": lease["lease"], "key": lease["key"],
                "ok": True, "summary": summary,
            })
            # The liar stays connected: only the broker's verdict can
            # end this sweep, and it must come within seconds.
            deadline = time.monotonic() + 10.0
            failed = None
            for msg in client.events():
                if msg["type"] == "point_failed":
                    failed = msg
                    break
                assert msg["type"] == "progress", msg
                assert time.monotonic() < deadline, "job stranded as leased"
        finally:
            client.close()
            worker.close()
        assert failed["index"] == 0
        assert failed["kind"] == "exception"
        assert "undecodable result" in failed["error"]
        assert broker.jobs[config_cache_key(CFG)].state == "failed"


#: A key that, joined onto the store root unchecked, names
#: ``<cache_dir>/../outside/victim.json``.
ESCAPING_KEY = "../outside/victim"


def _plant_victim(tmp_path):
    """A file outside the broker's cache directory the escaping key names."""
    victim = tmp_path / "outside" / "victim.json"
    victim.parent.mkdir()
    victim.write_text("not yours")
    return victim


class TestHostileKeysStayInTheStore:
    def test_client_sweep_with_an_escaping_key(
        self, tmp_path, broker_factory, thread_worker
    ):
        victim = _plant_victim(tmp_path)
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        thread_worker(broker.address)
        client = FabricClient(broker.address)
        try:
            client.connect()
            client.submit([{"index": 0, "key": ESCAPING_KEY,
                            "config": config_to_dict(CFG)}])
            points = [m for m in client.events() if m["type"] == "point"]
        finally:
            client.close()
        assert [p["cached"] for p in points] == [False]
        assert victim.read_text() == "not yours"

    def test_worker_result_with_an_escaping_key(
        self, tmp_path, broker_factory, make_summary
    ):
        victim = _plant_victim(tmp_path)
        broker = broker_factory(
            cache_dir=str(tmp_path / "fleet"), no_worker_grace=60.0
        )
        worker = _connect(broker.address)
        client = FabricClient(broker.address)
        try:
            worker.send({"type": "hello", "role": "worker", "worker": "liar"})
            client.connect()
            client.submit([{"index": 0, "key": config_cache_key(CFG),
                            "config": config_to_dict(CFG)}])
            worker.send({"type": "request", "poll": 5.0})
            lease = worker.recv(timeout=10.0)
            assert lease["type"] == "lease"
            worker.send({
                "type": "result", "lease": lease["lease"], "key": ESCAPING_KEY,
                "ok": True, "summary": make_summary().to_dict(),
            })
            # The broker handles one connection's frames in order: its
            # answer to the next request means the result was handled.
            worker.send({"type": "request", "poll": 0.1})
            assert worker.recv(timeout=10.0)["type"] == "idle"
        finally:
            client.close()
            worker.close()
        assert victim.read_text() == "not yours"


class _FakeBroker:
    """Accepts one client, reads its sweep, answers with *reply* bytes,
    then holds the connection open until closed."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.server = socket.create_server(("127.0.0.1", 0))
        self.address = f"127.0.0.1:{self.server.getsockname()[1]}"
        self.conn = None
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        self.conn, _ = self.server.accept()
        self.conn.makefile("rb").readline()  # the sweep frame
        self.conn.sendall(self.reply)

    def close(self) -> None:
        self.thread.join(timeout=10.0)
        for sock in (self.conn, self.server):
            if sock is not None:
                sock.close()


class TestExecutorSurvivesBadFrames:
    @pytest.mark.parametrize("reply", [
        b'{"type": "point", "index": 0, "cached": false, "summary": "!!"}\n',
        b'{"type": "point", "index": 0, "summary": {"pdr": 0.9}}\n',
        b'{"type": "point", "cached": true, "summary": {}}\n',
        b'{"type": "point_failed", "index": "0", "kind": "exception"}\n',
        b"[" * 200000 + b"\n",
    ], ids=["garbage-summary", "partial-summary", "no-index", "str-index",
            "nesting-bomb"])
    def test_bad_point_frame_falls_back_to_local(
        self, tmp_path, monkeypatch, make_summary, reply
    ):
        import repro.scenario.executor as exmod

        monkeypatch.setattr(
            exmod, "run_scenario", lambda cfg: make_summary(cfg.seed)
        )
        fake = _FakeBroker(reply)
        ex = SweepExecutor(processes=1, use_cache=False)
        try:
            with pytest.warns(RuntimeWarning, match="local pool"):
                out = ex.run(
                    [CFG.with_(seed=s) for s in (1, 2)], fabric=fake.address
                )
        finally:
            ex.close()
            fake.close()
        assert out == [make_summary(1), make_summary(2)]
        assert ex.last_fabric["fallback_points"] == 2
        assert ex.last_fabric["points_executed"] == 0


def _post(broker, body: bytes):
    conn = http.client.HTTPConnection(broker.host, broker.port, timeout=60.0)
    try:
        conn.request("POST", "/sweep", body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class TestHttpSweep:
    def test_cold_then_cached_sweep(
        self, tmp_path, broker_factory, thread_worker
    ):
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        thread_worker(broker.address)
        body = json.dumps({"configs": [config_to_dict(CFG)]}).encode()
        want = run_scenario(CFG)
        for cached in (False, True):
            status, raw = _post(broker, body)
            assert status == 200
            lines = [json.loads(line) for line in raw.splitlines()]
            points = [m for m in lines if m["type"] == "point"]
            assert len(points) == 1 and points[0]["cached"] is cached
            metrics = points[0]["metrics"]
            assert "summary" not in points[0]
            assert set(metrics) == set(HEADLINE_FIELDS) >= LEGACY_METRICS
            assert metrics == {f: getattr(want, f) for f in HEADLINE_FIELDS}
            assert lines[-1]["type"] == "done"
        assert broker.counters["jobs_executed"] == 1
        assert broker.counters["results_from_peer_cache"] == 1

    @pytest.mark.parametrize("body, needle", [
        (b"{not json", "Expecting"),
        (b"[1, 2]", "JSON object"),
        (b'{"configs": [{"n_nodes": "50"}]}', "n_nodes"),
        (b'{"config": {"protocoll": "aodv"}}', "protocoll"),
        (b'{"nothing": 1}', "config"),
    ])
    def test_malformed_body_is_400_with_json_error(
        self, tmp_path, broker_factory, body, needle
    ):
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        status, raw = _post(broker, body)
        assert status == 400
        assert needle in json.loads(raw)["error"]
