"""Focused unit tests for the geo-agent's forwarding and peer-abort behaviour."""

import pytest

from repro import protocol
from repro.common import Operation, OpType
from repro.core import GeoAgent, GeoAgentConfig
from repro.sim import ConstantLatency, Environment, Network
from repro.storage import DataSource, DataSourceConfig, MySQLDialect


def build_agent_pair():
    """One data source with its geo-agent plus a fake coordinator endpoint."""
    env = Environment()
    net = Network(env)
    ds = DataSource(env, net, DataSourceConfig(name="ds0", dialect=MySQLDialect()))
    ds.load_table("usertable", {k: {"v": 0} for k in range(10)})
    agent = GeoAgent(env, net, GeoAgentConfig(name="agent-ds0", datasource="ds0"))
    net.set_link("agent-ds0", "ds0", ConstantLatency(0.5))
    net.set_link("dm", "agent-ds0", ConstantLatency(20))
    coordinator = net.interface("dm")
    return env, net, ds, agent, coordinator


def update(key, value=1):
    return Operation(op_type=OpType.UPDATE, table="usertable", key=key, value={"v": value})


def test_agent_forwards_plain_xa_verbs_transparently():
    env, net, ds, agent, dm = build_agent_pair()
    replies = {}

    def driver():
        replies["ping"] = yield dm.request("agent-ds0", protocol.MSG_PING, {})
        replies["state"] = yield dm.request("agent-ds0", protocol.MSG_TXN_STATE,
                                            {"xid": "nope"})

    env.process(driver())
    env.run()
    assert replies["ping"]["status"] == "ok"
    assert replies["state"]["state"] == "unknown"
    assert agent.stats.forwarded == 2


def test_agent_execute_with_last_statement_sends_async_prepared_vote():
    env, net, ds, agent, dm = build_agent_pair()
    votes = []

    def vote_listener():
        while True:
            message = yield dm.receive()
            if message.msg_type == protocol.MSG_AGENT_PREPARE_RESULT:
                votes.append(message.payload["state"])

    def driver():
        result = yield dm.request("agent-ds0", protocol.MSG_AGENT_EXECUTE, {
            "xid": "g1.1", "global_txn_id": "g1", "operations": [update(1)],
            "auto_start": True, "is_last": True, "decentralized_prepare": True,
            "peers": ["agent-ds1"], "coordinator": "dm"})
        assert result.success

    env.process(vote_listener())
    env.process(driver())
    env.run(until=500)
    assert votes == [protocol.STATE_PREPARED]
    assert agent.stats.decentralized_prepares == 1


def test_agent_centralized_transaction_reports_idle_instead_of_preparing():
    env, net, ds, agent, dm = build_agent_pair()
    votes = []

    def vote_listener():
        while True:
            message = yield dm.receive()
            votes.append(message.payload["state"])

    def driver():
        yield dm.request("agent-ds0", protocol.MSG_AGENT_EXECUTE, {
            "xid": "g2.1", "global_txn_id": "g2", "operations": [update(2)],
            "auto_start": True, "is_last": True, "decentralized_prepare": True,
            "peers": [], "coordinator": "dm"})

    env.process(vote_listener())
    env.process(driver())
    env.run(until=500)
    assert votes == [protocol.STATE_IDLE]
    assert agent.stats.decentralized_prepares == 0


def test_peer_rollback_before_execute_poisons_the_transaction():
    env, net, ds, agent, dm = build_agent_pair()
    net.set_link("peer", "agent-ds0", ConstantLatency(2))
    peer = net.interface("peer")
    outcomes = {}

    def driver():
        # The peer's early-abort notification arrives before the execute.
        peer.send("agent-ds0", protocol.MSG_PEER_ROLLBACK,
                  {"global_txn_id": "g3", "coordinator": "dm"})
        yield env.timeout(10)
        result = yield dm.request("agent-ds0", protocol.MSG_AGENT_EXECUTE, {
            "xid": "g3.1", "global_txn_id": "g3", "operations": [update(3)],
            "auto_start": True, "is_last": True, "decentralized_prepare": True,
            "peers": ["peer"], "coordinator": "dm"})
        outcomes["result"] = result

    env.process(driver())
    env.run(until=500)
    result = outcomes["result"]
    assert not result.success
    # The poisoned transaction never executed, so the record is untouched.
    assert ds.engine.read("p", "usertable", 3).value == {"v": 0}
    assert agent.stats.peer_rollbacks_handled == 1


def test_agent_bookkeeping_is_bounded_by_xid_retention():
    env, net, ds, agent, dm = build_agent_pair()
    agent.config.xid_retention = 16

    def driver():
        for i in range(100):
            yield dm.request("agent-ds0", protocol.MSG_AGENT_EXECUTE, {
                "xid": f"g{i}.1", "global_txn_id": f"g{i}",
                "operations": [update(i % 10)], "auto_start": True,
                "is_last": False, "peers": [], "coordinator": "dm"})
            yield dm.request("agent-ds0", protocol.MSG_COMMIT_ONE_PHASE,
                             {"xid": f"g{i}.1"})

    env.process(driver())
    env.run()
    # 100 transactions flowed through; only the newest ids are remembered.
    assert len(agent._local_xids) <= 16
    assert len(agent._xid_order) <= 16
    assert "g99" in agent._local_xids and "g0" not in agent._local_xids


def test_peer_rollback_for_forgotten_id_takes_the_poison_path():
    env, net, ds, agent, dm = build_agent_pair()
    agent.config.xid_retention = 16

    def driver():
        # A rollback for an id this agent has never seen (or long forgot).
        net.interface("peer").send("agent-ds0", protocol.MSG_PEER_ROLLBACK,
                                   {"global_txn_id": "ancient",
                                    "coordinator": "dm"})
        yield env.timeout(50)

    net.set_link("peer", "agent-ds0", ConstantLatency(1))
    env.process(driver())
    env.run()
    assert "ancient" in agent._poisoned
    assert agent.stats.peer_rollbacks_handled == 1


def test_forwarded_verb_reply_time_adds_the_forward_overhead_and_lan_round_trip():
    env, net, ds, agent, dm = build_agent_pair()
    timing = {}

    def driver():
        sent = env.now
        timing["reply"] = yield dm.request("agent-ds0", protocol.MSG_TXN_STATE,
                                           {"xid": "nope"})
        timing["elapsed"] = env.now - sent

    env.process(driver())
    env.run()
    # WAN round trip to the agent (20 ms) + forward overhead + LAN round trip
    # to the data source (0.5 ms) + the data source's request overhead.
    expected = (20.0 + agent.config.forward_overhead_ms + 0.5
                + ds.config.request_overhead_ms)
    assert timing["elapsed"] == pytest.approx(expected)
    assert timing["reply"] == {"state": "unknown"}
    assert agent.stats.forwarded == 1
