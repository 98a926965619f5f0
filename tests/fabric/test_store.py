"""ResultStore: atomic publish, validated self-healing reads, concurrent writers."""

import json
import multiprocessing
import os
import time

import pytest

from repro.fabric.store import ResultStore

KEY = "ab" + "0" * 62  # shaped like a sha256 config key

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the race test forks writer processes"
)


def _entry(root):
    return root / "sweep" / KEY[:2] / (KEY + ".json")


class TestBasics:
    def test_round_trip(self, tmp_path, make_summary):
        store = ResultStore(tmp_path)
        assert store.get(KEY) is None
        assert KEY not in store
        summary = make_summary(3, normalized_routing_load=float("inf"))
        assert store.put(KEY, summary)
        assert KEY in store
        got = store.get(KEY)
        assert got == summary
        assert list(got.flows) == [3]  # flow ids come back as ints

    def test_sharded_layout_matches_legacy_cache(self, tmp_path, make_summary):
        store = ResultStore(tmp_path)
        store.put(KEY, make_summary())
        data = json.loads(_entry(tmp_path).read_text())  # plain JSON
        assert data["protocol"] == "aodv"
        assert data["flows"]["1"]["delays"] == [0.01]

    def test_unencodable_put_reports_failure_without_litter(
        self, tmp_path, make_summary
    ):
        store = ResultStore(tmp_path)
        assert store.put(KEY, make_summary(flight={"events": {1, 2}})) is False
        assert list(tmp_path.rglob("*.tmp")) == []
        assert store.get(KEY) is None

    @pytest.mark.parametrize("bad", ["summary", 1, None, {"pdr": 0.9}])
    def test_non_summary_put_is_refused(self, tmp_path, bad):
        store = ResultStore(tmp_path)
        assert store.put(KEY, bad) is False
        assert list(tmp_path.rglob("*.tmp")) == []
        assert KEY not in store


class TestHostileKeys:
    """Only a config key names a file; nothing else touches the disk."""

    def test_escaping_key_leaves_the_file_it_names_alone(
        self, tmp_path, make_summary
    ):
        store = ResultStore(tmp_path / "store")
        assert store.put(KEY, make_summary())  # <root>/sweep exists
        key = "../outside/victim"
        victim = tmp_path / "outside" / "victim.json"
        assert (store.root / key[:2] / (key + ".json")).resolve() == victim
        victim.parent.mkdir()
        victim.write_text("not yours")
        assert store.get(key) is None
        assert key not in store
        assert store.put(key, make_summary()) is False
        assert store.put_trace(key, "x\n") is False
        assert store.get_trace(key) is None
        assert victim.read_text() == "not yours"
        assert sorted(p.name for p in victim.parent.iterdir()) == ["victim.json"]

    @pytest.mark.parametrize("key", [
        "", "ab", KEY.upper(), KEY + "\n", KEY[:63], KEY + "0", "/" + KEY[1:],
        "ab/" + "0" * 61, "١" * 64, None, 12,
    ])
    def test_malformed_key_is_a_miss_and_refused(self, tmp_path, make_summary, key):
        store = ResultStore(tmp_path)
        assert store.get(key) is None
        assert key not in store
        assert store.put(key, make_summary()) is False
        assert store.put_trace(key, "x\n") is False
        assert store.get_trace(key) is None
        assert list(tmp_path.iterdir()) == []


class TestSelfHealing:
    def test_torn_entry_is_a_miss_and_unlinked(self, tmp_path, make_summary):
        store = ResultStore(tmp_path)
        store.put(KEY, make_summary())
        entry = _entry(tmp_path)
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) // 2])
        assert store.get(KEY) is None
        assert not entry.exists()  # healed: the corpse is gone

    @pytest.mark.parametrize("text", [
        '{"pdr": 0.9}',                                  # missing fields
        "[1, 2, 3]",                                     # not an object
        "[" * 100000,                                    # nesting bomb
    ])
    def test_schema_mismatch_is_a_miss_and_unlinked(self, tmp_path, text):
        store = ResultStore(tmp_path)
        entry = _entry(tmp_path)
        entry.parent.mkdir(parents=True)
        entry.write_text(text)
        assert store.get(KEY) is None
        assert not entry.exists()

    def test_wrong_field_type_is_a_miss(self, tmp_path, make_summary):
        store = ResultStore(tmp_path)
        store.put(KEY, make_summary())
        entry = _entry(tmp_path)
        data = json.loads(entry.read_text())
        data["data_sent"] = "10"
        entry.write_text(json.dumps(data))
        assert store.get(KEY) is None

    def test_heal_false_leaves_the_entry(self, tmp_path, make_summary):
        store = ResultStore(tmp_path)
        store.put(KEY, make_summary())
        entry = _entry(tmp_path)
        entry.write_bytes(b"\x80garbage")
        assert store.get(KEY, heal=False) is None
        assert entry.exists()

    def test_tmp_litter_reaped_only_when_stale(self, tmp_path, make_summary):
        store = ResultStore(tmp_path)
        store.put(KEY, make_summary())
        stale = tmp_path / "sweep" / KEY[:2] / (KEY + ".999.aa.0.tmp")
        stale.write_bytes(b"orphan")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = tmp_path / "sweep" / KEY[:2] / (KEY + ".998.bb.0.tmp")
        fresh.write_bytes(b"live writer")
        reaped = store.sweep_tmp_litter(max_age_s=3600.0)
        assert reaped == [stale]
        assert fresh.exists()
        assert store.get(KEY) == make_summary()  # live entries are never touched


def _hammer(root, key, writer_id, rounds, make_summary):
    """Writer process: publish distinct-but-valid summaries in a loop."""
    store = ResultStore(root)
    for i in range(rounds):
        store.put(key, make_summary(
            writer_id, data_sent=i, protocol="x" * 4096
        ))
    os._exit(0)


class TestConcurrentWriters:
    def test_two_processes_racing_one_key_never_tear(
        self, tmp_path, make_summary
    ):
        """Satellite regression: the pre-fabric cache named its tmp file
        ``<key>.tmp.<pid>`` with no fsync — two hosts sharing a pid on a
        network filesystem could interleave and publish a torn entry.
        Two forked writers now hammer the same key while the parent
        reads continuously: every read must be a complete summary from
        one writer or a clean miss, never an exception or a mix.
        """
        ctx = multiprocessing.get_context("fork")
        rounds = 200
        writers = [
            ctx.Process(
                target=_hammer, args=(tmp_path, KEY, w, rounds, make_summary)
            )
            for w in (1, 2)
        ]
        for p in writers:
            p.start()
        store = ResultStore(tmp_path)
        reads = 0
        hits = 0
        while any(p.is_alive() for p in writers):
            value = store.get(KEY)
            reads += 1
            if value is not None:
                hits += 1
                assert value.data_received in (1, 2)
                assert list(value.flows) == [value.data_received]
                assert len(value.protocol) == 4096
        for p in writers:
            p.join(timeout=30.0)
            assert p.exitcode == 0
        # The last publish always survives intact.
        final = store.get(KEY)
        assert final is not None and final.data_sent == rounds - 1
        assert hits > 0 and reads > 0
        # No torn reads triggered the healer mid-race, and no tmp
        # litter survived the stampede.
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_unique_tmp_names_across_processes(self, tmp_path):
        """The tmp name embeds pid + process token + counter; two
        same-pid processes (containers on shared storage) still diverge
        because the token is per-process entropy."""
        from repro.fabric import store as store_mod

        name_a = f"{KEY}.{os.getpid()}.{store_mod._PROCESS_TOKEN}.0.tmp"
        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()

        def child():
            queue.put(store_mod._PROCESS_TOKEN)
            os._exit(0)

        p = ctx.Process(target=child)
        p.start()
        # The forked child inherits the parent's token: the pid is what
        # disambiguates processes on one host...
        assert queue.get() == store_mod._PROCESS_TOKEN
        p.join()
        # ...while a *fresh* interpreter draws a fresh token, so equal
        # pids on different hosts cannot collide either.
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.fabric.store import _PROCESS_TOKEN; "
             "print(_PROCESS_TOKEN)"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert out.returncode == 0
        assert out.stdout.strip() != store_mod._PROCESS_TOKEN
        assert name_a.startswith(KEY)
