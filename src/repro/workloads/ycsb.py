"""The YCSB transactional workload (§VII-A2).

Each transaction has a configurable number of operations (5 by default), each a
read or an update with 50/50 probability, over a single ``usertable`` whose
keys are striped across the data nodes.  Contention is controlled by the
Zipfian *skew factor* (0.3 = low, 0.9 = medium, 1.5 = high, as in the paper),
and the ratio of distributed transactions is controlled by generating keys that
live on one node (centralized) or on several nodes (distributed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common import Operation, OpType
from repro.middleware.router import ModuloPartitioner
from repro.middleware.statements import TransactionSpec
from repro.plugins import WorkloadPlugin, register_workload
from repro.sim.rng import ZipfianGenerator
from repro.workloads.base import Workload, WorkloadConfig

#: The paper's skew factors for low / medium / high contention.
CONTENTION_SKEW = {"low": 0.3, "medium": 0.9, "high": 1.5}

TABLE = "usertable"


@dataclass
class YCSBConfig(WorkloadConfig):
    """Configuration of the YCSB generator."""

    #: Records stored per data node.  The paper loads 1 M rows per node; the
    #: simulation defaults to a smaller key space (contention behaviour is
    #: governed by the skew, not the absolute table size).
    records_per_node: int = 100_000
    #: Rows bulk-loaded per node (the first ``preload_rows_per_node`` keys of
    #: each node).  The storage engine keeps them as plain values and builds a
    #: row's record only when a run first touches it.  Only the hottest keys
    #: matter for contention; keys past the preload are created on first write
    #: and read as missing before that, which keeps memory bounded without
    #: changing locking behaviour (locks are taken on keys, not on stored rows).
    preload_rows_per_node: int = 5_000
    #: Zipfian skew factor (theta).
    skew: float = 0.9
    #: Operations per transaction (the paper's "transaction length").
    operations_per_transaction: int = 5
    #: Probability that an operation is a read (the rest are updates).
    read_ratio: float = 0.5
    #: Number of data nodes a distributed transaction touches.
    nodes_per_distributed_txn: int = 2
    #: Payload stored in each record.
    value_size_bytes: int = 100
    #: When set, every transaction is homed on this node index: centralized
    #: transactions touch only it and distributed transactions always include
    #: it.  Used by the Figure 1b motivation experiment ("80 % centralized
    #: transactions accessing DS1, 20 % distributed accessing DS1 and DS2").
    home_node: Optional[int] = None


class YCSBWorkload(Workload):
    """Generator of YCSB transaction specs."""

    name = "ycsb"

    def __init__(self, datasource_names, config: YCSBConfig):
        super().__init__(datasource_names, config)
        self.config: YCSBConfig = config
        if config.records_per_node < 1:
            raise ValueError("records_per_node must be positive")
        if not 0 <= config.distributed_ratio <= 1:
            raise ValueError("distributed_ratio must be in [0, 1]")
        if config.nodes_per_distributed_txn < 2:
            raise ValueError("a distributed transaction needs at least 2 nodes")
        self._zipf = ZipfianGenerator(config.records_per_node, config.skew,
                                      rng=self.rng.spawn(9999))
        self._partitioner = ModuloPartitioner(self.datasource_names)

    # --------------------------------------------------------------- interface
    def make_partitioner(self) -> ModuloPartitioner:
        return self._partitioner

    def initial_data(self) -> Dict[str, Dict[str, Dict]]:
        payload = "x" * self.config.value_size_bytes
        preload = min(self.config.records_per_node, self.config.preload_rows_per_node)
        data: Dict[str, Dict[str, Dict]] = {}
        # Every preloaded row starts from the same synthetic value, and writes
        # replace record values wholesale (nothing mutates them in place), so
        # all rows can share a single dict instead of allocating one per key.
        row = {"field0": payload}
        # Node ``i`` holds keys ``key_for_node(i, s) = s * n + i``: the stride-n
        # range from ``i``, in the same order, built by one C-level call.
        n = len(self.datasource_names)
        for node_index, name in enumerate(self.datasource_names):
            data[name] = {TABLE: dict.fromkeys(
                range(node_index, preload * n, n), row)}
        return data

    def next_transaction(self, terminal_id: int = 0) -> TransactionSpec:
        node_count = len(self.datasource_names)
        if self.config.home_node is not None:
            home = self.config.home_node % node_count
        else:
            home = self.rng.randint(0, node_count - 1)
        is_distributed = (node_count > 1
                          and self.rng.bernoulli(self.config.distributed_ratio))
        if is_distributed:
            target_count = min(self.config.nodes_per_distributed_txn, node_count)
            others = [i for i in range(node_count) if i != home]
            targets = [home] + self.rng.sample(others, target_count - 1)
        else:
            targets = [home]

        operations = self._generate_operations(targets)
        spec = TransactionSpec.from_operations(
            operations, txn_type=self.name, rounds=self.config.rounds,
            metadata={"distributed": is_distributed, "home_node": home})
        return spec

    # ----------------------------------------------------------------- helpers
    def _generate_operations(self, target_nodes: List[int]) -> List[Operation]:
        count = self.config.operations_per_transaction
        operations: List[Operation] = []
        used_keys = set()
        for index in range(count):
            # Spread operations over the target nodes round-robin so that every
            # chosen node is actually touched (which is what makes the
            # transaction distributed).
            node = target_nodes[index % len(target_nodes)]
            key = self._draw_key(node, used_keys)
            used_keys.add(key)
            if self.rng.bernoulli(self.config.read_ratio):
                operations.append(Operation(op_type=OpType.READ, table=TABLE, key=key))
            else:
                operations.append(Operation(op_type=OpType.UPDATE, table=TABLE,
                                            key=key, value={"field0": "updated"}))
        return operations

    def _draw_key(self, node_index: int, used_keys) -> int:
        for _attempt in range(20):
            local = self._zipf.next()
            key = self._partitioner.key_for_node(node_index, local)
            if key not in used_keys:
                return key
        return self._partitioner.key_for_node(node_index, self._zipf.next())


# ------------------------------------------------------------------- plugin
register_workload(WorkloadPlugin(
    name="ycsb",
    description="YCSB key-value transactions with Zipfian contention and a "
                "distributed-ratio knob (\u00a7VII-A2)",
    factory=YCSBWorkload,
    config_factory=YCSBConfig,
    config_field="ycsb",
))
