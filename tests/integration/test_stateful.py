"""Stateful property test: the cluster behaves as a linearizable dict.

Hypothesis drives random op sequences through the *full* protocol stack
(framing, RDMA writes/reads, leases, guardian words, shard loops) and
checks every response against a model dictionary; invariants over the
arena and index are asserted after every step.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro import HydraCluster
from repro.protocol import Status

pytestmark = pytest.mark.soak

KEYS = [f"key-{i}".encode() for i in range(12)]


class ClusterMachine(RuleBasedStateMachine):
    values = Bundle("values")

    @initialize()
    def build(self):
        self.cluster = HydraCluster(n_server_machines=1,
                                    shards_per_server=2)
        self.cluster.start()
        self.client = self.cluster.client()
        self.model: dict[bytes, bytes] = {}

    def _run(self, gen):
        return self.cluster.run(gen)

    @rule(target=values, v=st.binary(min_size=0, max_size=64))
    def make_value(self, v):
        return v

    @rule(key=st.sampled_from(KEYS), value=values)
    def put(self, key, value):
        def op():
            status = yield from self.client.put(key, value)
            assert status is Status.OK

        self._run(op())
        self.model[key] = value

    @rule(key=st.sampled_from(KEYS), value=values)
    def insert(self, key, value):
        def op():
            status = yield from self.client.insert(key, value)
            expected = (Status.EXISTS if key in self.model else Status.OK)
            assert status is expected

        self._run(op())
        self.model.setdefault(key, value)

    @rule(key=st.sampled_from(KEYS), value=values)
    def update(self, key, value):
        def op():
            status = yield from self.client.update(key, value)
            expected = (Status.OK if key in self.model
                        else Status.NOT_FOUND)
            assert status is expected

        self._run(op())
        if key in self.model:
            self.model[key] = value

    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        def op():
            value = yield from self.client.get(key)
            assert value == self.model.get(key)

        self._run(op())

    @rule(key=st.sampled_from(KEYS))
    def get_twice_exercises_fast_path(self, key):
        def op():
            v1 = yield from self.client.get(key)
            v2 = yield from self.client.get(key)
            assert v1 == v2 == self.model.get(key)

        self._run(op())

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        def op():
            status = yield from self.client.delete(key)
            expected = (Status.OK if key in self.model
                        else Status.NOT_FOUND)
            assert status is expected

        self._run(op())
        self.model.pop(key, None)

    @rule(key=st.sampled_from(KEYS))
    def lease_renew(self, key):
        def op():
            status = yield from self.client.lease_renew(key)
            expected = (Status.OK if key in self.model
                        else Status.NOT_FOUND)
            assert status is expected

        self._run(op())

    @invariant()
    def stores_match_model(self):
        if not hasattr(self, "cluster"):
            return
        combined = {}
        for shard in self.cluster.shards():
            combined.update(shard.store.dump())
        assert combined == self.model

    @invariant()
    def index_sizes_consistent(self):
        if not hasattr(self, "cluster"):
            return
        total = sum(len(s.store) for s in self.cluster.shards())
        assert total == len(self.model)
        for shard in self.cluster.shards():
            # Live extents = live items + retired-awaiting-lease.
            assert shard.store.alloc.live_extents >= len(shard.store)


TestClusterStateful = ClusterMachine.TestCase
TestClusterStateful.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None)
