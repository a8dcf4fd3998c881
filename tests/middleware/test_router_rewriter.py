"""Unit tests for partitioners and the statement rewriter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common import Operation, OpType
from repro.middleware import (
    ModuloPartitioner,
    Rewriter,
    Statement,
    TableAwarePartitioner,
    WarehousePartitioner,
)
from repro.storage import MySQLDialect, PostgreSQLDialect


NODES = ["ds0", "ds1", "ds2", "ds3"]


def test_modulo_partitioner_spreads_integer_keys():
    partitioner = ModuloPartitioner(NODES)
    assert partitioner.locate("usertable", 0) == "ds0"
    assert partitioner.locate("usertable", 5) == "ds1"
    assert partitioner.locate("usertable", 7) == "ds3"


def test_modulo_partitioner_key_for_node_round_trips():
    partitioner = ModuloPartitioner(NODES)
    for node_index in range(4):
        for seq in (0, 1, 17):
            key = partitioner.key_for_node(node_index, seq)
            assert partitioner.locate("usertable", key) == NODES[node_index]


def test_modulo_partitioner_hashes_non_integer_keys():
    partitioner = ModuloPartitioner(NODES)
    located = partitioner.locate("usertable", "user42")
    assert located in NODES


def test_modulo_partitioner_routes_non_integer_keys_alike_under_any_hash_seed():
    # str, bytes and tuples of them hash differently per PYTHONHASHSEED; the
    # partitioner must not, or one seed routes differently in two processes.
    code = ("from repro.middleware import ModuloPartitioner; "
            f"p = ModuloPartitioner({NODES!r}); "
            "print([p.locate('t', k) for k in "
            "('carol', b'carol', ('carol', 7), 2.5, True, False)])")
    src = str(Path(__file__).resolve().parents[2] / "src")
    routes = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        routes.append(proc.stdout)
    assert routes[0] == routes[1]
    located = ModuloPartitioner(NODES)
    assert routes[0].strip() == repr(
        [located.locate("t", k) for k in
         ("carol", b"carol", ("carol", 7), 2.5, True, False)])


def test_modulo_partitioner_routes_bools_as_their_integer_value():
    partitioner = ModuloPartitioner(NODES)
    assert partitioner.locate("t", True) == partitioner.locate("t", 1) == "ds1"
    assert partitioner.locate("t", False) == partitioner.locate("t", 0) == "ds0"


def test_modulo_partitioner_rejects_empty_nodes():
    with pytest.raises(ValueError):
        ModuloPartitioner([])


def test_warehouse_partitioner_maps_warehouses_to_nodes():
    partitioner = WarehousePartitioner(NODES, warehouses_per_node=4)
    assert partitioner.total_warehouses == 16
    assert partitioner.node_for_warehouse(1) == "ds0"
    assert partitioner.node_for_warehouse(4) == "ds0"
    assert partitioner.node_for_warehouse(5) == "ds1"
    assert partitioner.node_for_warehouse(16) == "ds3"
    assert partitioner.warehouses_on_node(2) == [9, 10, 11, 12]


def test_warehouse_partitioner_uses_tuple_keys_and_replicates_item():
    partitioner = WarehousePartitioner(NODES, warehouses_per_node=4)
    assert partitioner.locate("warehouse", (6,)) == "ds1"
    assert partitioner.locate("stock", (13, 77)) == "ds3"
    assert partitioner.locate("item", 500, home_hint="ds2") == "ds2"
    assert partitioner.locate("item", 500) == "ds0"


def test_warehouse_partitioner_rejects_bad_input():
    partitioner = WarehousePartitioner(NODES, warehouses_per_node=4)
    with pytest.raises(ValueError):
        partitioner.node_for_warehouse(0)
    with pytest.raises(ValueError):
        partitioner.node_for_warehouse(999)
    with pytest.raises(ValueError):
        partitioner.locate("stock", "not-a-tuple")
    with pytest.raises(ValueError):
        WarehousePartitioner(NODES, warehouses_per_node=0)


def test_table_aware_partitioner_delegates_per_table():
    modulo = ModuloPartitioner(NODES)
    warehouse = WarehousePartitioner(NODES, warehouses_per_node=4)
    combined = TableAwarePartitioner(
        NODES, per_table={"stock": warehouse}, default=modulo)
    assert combined.locate("stock", (5, 1)) == "ds1"
    assert combined.locate("usertable", 3) == "ds3"


def statements_for(keys, write=True):
    op_type = OpType.UPDATE if write else OpType.READ
    return [Statement(operation=Operation(op_type=op_type, table="usertable",
                                          key=key, value=key)) for key in keys]


def test_rewriter_groups_by_datasource_and_tracks_last():
    rewriter = Rewriter(ModuloPartitioner(NODES))
    statements = statements_for([0, 1, 4, 5])
    statements[-1].is_last = True
    plans = rewriter.plan_round(statements)
    assert set(plans) == {"ds0", "ds1"}
    assert [op.key for op in plans["ds0"].operations] == [0, 4]
    assert [op.key for op in plans["ds1"].operations] == [1, 5]
    assert plans["ds1"].contains_last
    assert not plans["ds0"].contains_last


def test_rewriter_participants_in_first_use_order():
    rewriter = Rewriter(ModuloPartitioner(NODES))
    statements = statements_for([2, 0, 6, 1])
    assert rewriter.participants(statements) == ["ds2", "ds0", "ds1"]


def test_rewriter_renders_dialect_specific_sql():
    rewriter = Rewriter(ModuloPartitioner(NODES))
    statements = statements_for([0], write=False) + statements_for([4])
    plan = rewriter.plan_round(statements)["ds0"]

    mysql_script = rewriter.render_subtransaction("x1", plan, MySQLDialect())
    assert mysql_script[0] == "XA START 'x1';"
    assert mysql_script[-1] == "XA PREPARE 'x1';"
    assert not any("FOR SHARE" in line for line in mysql_script)

    pg_script = rewriter.render_subtransaction("x1", plan, PostgreSQLDialect())
    assert pg_script[0] == "BEGIN;"
    assert pg_script[-1] == "PREPARE TRANSACTION 'x1';"
    assert any("FOR SHARE" in line for line in pg_script)
