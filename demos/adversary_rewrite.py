"""A corrupted zone rewrites history; hash-chain scanning catches it.

Run: python demos/adversary_rewrite.py
"""

import random

from zoned_ledger.adversary import rewrite_chain_suffix, rewrite_zone_block
from zoned_ledger.ledger import ChainConfig, ChainState
from zoned_ledger.recovery import recover_block

n, m, block_bytes = 24, 4, 32
seed = 11

state = ChainState(ChainConfig(n=n, m=m, block_bytes=block_bytes))
rng = random.Random(seed)
for _ in range(8):
    state.commit_block(rng.randbytes(block_bytes), rng)

# an adversary owning all 4 peers of one zone rewrites block 2 there
t = 2
rewrite_zone_block(state, t, 0, b"\x00" * block_bytes, rng)
report = recover_block(state, t)
print(f"zone rewrite of slot {t}:")
print(f"  recovered ground truth: {report.recovered == state.payloads[t]}")
print(f"  peers eliminated by hash scan: {sorted(report.eliminated_peers)}")
print(f"  slots scanned downstream: {report.slots_scanned}")

# only a fully consistent rewrite of the suffix at every peer survives,
# which is the zone-coded analogue of out-hashing the whole network
forged = b"\xff" * block_bytes
rewrite_chain_suffix(state, t, forged, rng)
report = recover_block(state, t)
print("full-network consistent rewrite:")
print(f"  recovery now returns the forged block: {report.recovered == forged}")
print(f"  and it looks unanimous: {report.unanimous}")
