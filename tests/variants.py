"""The three shard variants as a test parameter.

``@variants`` runs a test once per ingest loop — plain (``Shard``),
sub-sharded (``SubShardedShard``) and pipelined (``PipelinedShard``);
``VARIANTS[variant]`` is the ``hydra`` override that selects it.
"""

import pytest

VARIANTS = {
    "plain": {},
    "subshard": {"subshards": 2},
    "pipelined": {"pipelined_shards": True},
}
variants = pytest.mark.parametrize("variant", list(VARIANTS))
