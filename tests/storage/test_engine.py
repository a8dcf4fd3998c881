"""Unit tests for the storage engine and record types."""

from repro import protocol
from repro.sim import ConstantLatency, Environment, Network
from repro.storage import DataSource, DataSourceConfig, Record, StorageEngine


def test_record_apply_write_bumps_version():
    record = Record(key="k", value=1)
    assert record.version == 0
    record.apply_write(2, writer="t1")
    assert record.value == 2
    assert record.version == 1
    assert record.last_writer == "t1"


def test_record_copy_is_independent():
    record = Record(key="k", value=1)
    clone = record.copy()
    record.apply_write(2, "t")
    assert clone.value == 1
    assert clone.version == 0


def test_engine_load_and_read():
    engine = StorageEngine()
    engine.load("usertable", "user1", {"balance": 100})
    snapshot = engine.read("t1", "usertable", "user1")
    assert snapshot.value == {"balance": 100}
    assert snapshot.version == 1


def test_engine_read_missing_key_returns_none():
    engine = StorageEngine()
    assert engine.read("t1", "usertable", "ghost") is None


def test_buffered_write_visible_only_to_writer():
    engine = StorageEngine()
    engine.load("t", "k", "old")
    engine.buffer_write("writer", "t", "k", "new")
    assert engine.read("writer", "t", "k").value == "new"
    assert engine.read("other", "t", "k").value == "old"


def test_commit_writes_installs_values_and_bumps_version():
    engine = StorageEngine()
    engine.load("t", "k", "old")
    engine.buffer_write("txn", "t", "k", "new")
    count = engine.commit_writes("txn")
    assert count == 1
    snapshot = engine.read("anyone", "t", "k")
    assert snapshot.value == "new"
    assert snapshot.version == 2
    assert not engine.has_pending_writes("txn")


def test_discard_writes_leaves_committed_state_untouched():
    engine = StorageEngine()
    engine.load("t", "k", "old")
    engine.buffer_write("txn", "t", "k", "new")
    dropped = engine.discard_writes("txn")
    assert dropped == 1
    assert engine.read("anyone", "t", "k").value == "old"


def test_commit_writes_for_unknown_txn_is_noop():
    engine = StorageEngine()
    assert engine.commit_writes("ghost") == 0


def test_table_names_and_record_count():
    engine = StorageEngine()
    engine.load("a", 1, "x")
    engine.load("a", 2, "y")
    engine.load("b", 1, "z")
    assert set(engine.table_names()) == {"a", "b"}
    assert engine.record_count() == 3


def test_write_set_snapshot():
    engine = StorageEngine()
    engine.buffer_write("t", "tab", "k1", 1)
    engine.buffer_write("t", "tab", "k2", 2)
    assert engine.write_set("t") == {("tab", "k1"): 1, ("tab", "k2"): 2}


def test_table_contains_and_len():
    engine = StorageEngine()
    table = engine.create_table("t")
    table.put("k", 5)
    assert "k" in table
    assert len(table) == 1
    assert list(table.keys()) == ["k"]


def test_write_count_counts_buffered_writes_without_copying():
    engine = StorageEngine()
    assert engine.write_count("t") == 0
    engine.buffer_write("t", "tab", "k1", 1)
    engine.buffer_write("t", "tab", "k2", 2)
    engine.buffer_write("t", "tab", "k1", 3)
    assert engine.write_count("t") == 2 == len(engine.write_set("t"))


# ------------------------------------------------- copy-on-write preloaded rows
def loaded_engine():
    engine = StorageEngine()
    engine.bulk_load("t", {"a": "va", "b": "vb", "c": "vc"})
    return engine, engine.table("t")


def test_untouched_row_reads_version_one_without_building_a_record():
    engine, table = loaded_engine()
    snapshot = engine.read("txn", "t", "a")
    assert (snapshot.key, snapshot.value, snapshot.version) == ("a", "va", 1)
    assert table._records == {}


def test_get_builds_the_loader_record_of_an_untouched_row():
    engine, table = loaded_engine()
    record = table.get("b")
    assert record == Record(key="b", value="vb", version=1, last_writer="loader")
    assert table.get("b") is record
    assert list(table._records) == ["b"]
    assert table.get("ghost") is None


def test_first_committed_write_gives_version_two():
    engine, table = loaded_engine()
    engine.buffer_write("txn", "t", "a", "new")
    engine.commit_writes("txn")
    record = table.get("a")
    assert (record.value, record.version, record.last_writer) == ("new", 2, "txn")
    assert engine.read("anyone", "t", "a").version == 2


def test_reload_bumps_version_once_for_untouched_and_touched_rows():
    engine, table = loaded_engine()
    table.get("b")  # touched; "a" stays untouched
    engine.bulk_load("t", {"a": "va2", "b": "vb2", "d": "vd"})
    for key, value in (("a", "va2"), ("b", "vb2")):
        snapshot = engine.read("txn", "t", key)
        assert (snapshot.value, snapshot.version) == (value, 2)
    assert engine.read("txn", "t", "d").version == 1
    assert "d" not in table._records


def test_size_and_membership_include_untouched_rows():
    engine, table = loaded_engine()
    table.get("a")
    engine.load("u", 1, "x")
    assert len(table) == 3
    assert all(key in table for key in ("a", "b", "c"))
    assert "ghost" not in table
    assert sorted(table.keys()) == ["a", "b", "c"]
    assert engine.record_count() == 4


def test_own_buffered_write_on_untouched_row_reports_version_one():
    engine, table = loaded_engine()
    engine.buffer_write("txn", "t", "c", "mine")
    snapshot = engine.read("txn", "t", "c")
    assert (snapshot.value, snapshot.version) == ("mine", 1)
    assert engine.read("other", "t", "c").value == "vc"
    engine.buffer_write("txn", "t", "fresh", "new")
    assert engine.read("txn", "t", "fresh").version == 0
    engine.buffer_write("txn", "nowhere", "k", "v")
    assert engine.read("txn", "nowhere", "k").version == 0
    assert table._records == {}


def test_kv_verbs_on_untouched_row_match_a_loaded_record():
    # The ScalarDB baseline reads a row's version with kv_get and writes it
    # back with kv_put_if_version(expected_version=version).
    env = Environment()
    net = Network(env)
    ds = DataSource(env, net, DataSourceConfig(name="ds1"))
    net.set_link("client", "ds1", ConstantLatency(1.0))
    client = net.interface("client")
    ds.load_table("kv", {"x": "v0", "y": "w0"})
    replies = {}

    def scalardb_like():
        replies["get"] = yield client.request(
            "ds1", protocol.MSG_KV_GET, {"table": "kv", "key": "x"})
        replies["stale"] = yield client.request(
            "ds1", protocol.MSG_KV_PUT_IF_VERSION,
            {"table": "kv", "key": "y", "value": "w1", "expected_version": 0})
        replies["put"] = yield client.request(
            "ds1", protocol.MSG_KV_PUT_IF_VERSION,
            {"table": "kv", "key": "y", "value": "w1", "expected_version": 1})

    env.process(scalardb_like())
    env.run()
    assert replies["get"] == {"found": True, "value": "v0", "version": 1}
    assert replies["stale"] == {"status": "conflict", "version": 1}
    assert replies["put"] == {"status": "ok", "version": 2}
    assert ds.engine.table("kv").get("y").value == "w1"
