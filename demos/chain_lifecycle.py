"""Commit blocks to a zone-coded chain, damage it, repair it, recover it.

Run: python demos/chain_lifecycle.py
"""

import random

from zoned_ledger.ledger import ChainConfig, ChainState
from zoned_ledger.recovery import recover_block

n, m, block_bytes, blocks = 24, 4, 48, 10
seed = 7

state = ChainState(ChainConfig(n=n, m=m, block_bytes=block_bytes))
rng = random.Random(seed)
for t in range(blocks):
    state.commit_block(rng.randbytes(block_bytes), rng)
print(f"committed {blocks} blocks across {n} peers in zones of {m}")
print(f"chain head hash: {state.hashes[-1]:#018x}")

# every slot recovers unanimously while the network is honest
for t in range(blocks):
    report = recover_block(state, t)
    assert report.recovered == state.payloads[t] and report.unanimous
print("honest recovery: every slot unanimous")

# knock one peer out of the first zone of slot 3 and watch repair kick in
t = 3
victim = state.allocation(t)[0][0]
state.erase_peer_record(t, victim)
print(f"erased peer {victim}'s record for slot {t}; "
      f"zone 0 decodes to {state.zone_candidate(t, 0)}")

state.repair_zone(t, 0, rng)
assert state.zone_candidate(t, 0) == state.payloads[t]
print("repair_zone re-encoded zone 0 from a healthy donor zone")

report = recover_block(state, t)
print(f"slot {t} recovery after repair: unanimous={report.unanimous}")
