"""Schedules do not depend on the process they run in.

Two inputs used to: the hash ring kept its members in a ``set`` of str
ids, so everything walking them (``HydraCluster.shards()``, a client's
``connect_all``, SWAT scale-out) went in PYTHONHASHSEED order; and
connection ids came from one process-global counter, so a pipelined
shard's I/O-thread partition (``conn_id % pipeline_io_threads``)
shifted with every connection made earlier in the process.  The
pipelined scenario depends on both, so it must reproduce its pinned
digest in fresh interpreters under different hash seeds, and after an
unrelated cluster has connected a client.
"""

import os
import subprocess
import sys

import pytest

from repro import HydraCluster
from repro.core import HashRing

from tests.core.test_schedule_digests import PINNED

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_SCENARIO = "pipelined-default"
_SCRIPT = """
import sys
from repro import HydraCluster
from tests.core.test_schedule_digests import run_scenario
if sys.argv[1] == "after_connect":
    HydraCluster(n_server_machines=1, shards_per_server=1).client()
(digest, events, wire), _ = run_scenario(sys.argv[2])
print(digest, events, wire)
"""


@pytest.mark.parametrize("hash_seed,prelude", [("0", "fresh"),
                                               ("1", "fresh"),
                                               ("2", "after_connect")])
def test_pipelined_digest_is_independent_of_the_process(hash_seed, prelude):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([os.path.join(_ROOT, "src"),
                                           _ROOT]))
    out = subprocess.run([sys.executable, "-c", _SCRIPT, prelude, _SCENARIO],
                         env=env, cwd=_ROOT, capture_output=True, text=True,
                         check=True)
    digest, events, wire = out.stdout.split()
    assert (digest, int(events), wire) == PINNED[_SCENARIO]


def test_connection_ids_are_numbered_per_cluster():
    ids = []
    for _ in range(2):
        cluster = HydraCluster(n_server_machines=1, shards_per_server=2)
        client = cluster.client()
        ids.append(sorted(c.conn_id for c in client.conns.values()))
    assert ids[0] == ids[1] == [1, 2]


def test_ring_members_keep_join_order():
    ring = HashRing()
    for sid in ("s1.0", "s0.1", "s0.0"):
        ring.add(sid)
    ring.remove("s0.1")
    ring.add("s0.1")
    assert ring.members == ("s1.0", "s0.0", "s0.1")
