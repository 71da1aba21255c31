"""Zone-coded distributed ledger storage simulator.

Library layout:

- ``field``       prime-field arithmetic and Lagrange interpolation
- ``shamir``      Shamir (k, n) secret sharing, including byte payloads
- ``tree_cipher`` rooted-tree XOR private-key encryption
- ``zones``       cyclic zone allocation (round-robin circle method)
- ``ledger``      hash chain, zone-coded commits, repair, storage costs
- ``recovery``    majority retrieval with hash-consistency elimination
- ``adversary``   corruption and availability experiments
- ``mining``      proof-of-work cost model and benchmarks
- ``cli``         batch experiment runner (``zoned-ledger`` command)
"""

from .field import Field, next_prime
from .ledger import ChainConfig, ChainState, hash_step, storage_cost_formula
from .recovery import RecoveryReport, recover_block
from .shamir import Share, reconstruct, reconstruct_bytes, split, split_bytes
from .tree_cipher import CipherKey, RootedTree, decrypt, encrypt, sample_key
from .zones import allocation_at, allocation_count, coverage_slots, layout

__all__ = [
    "Field", "next_prime",
    "ChainConfig", "ChainState", "hash_step", "storage_cost_formula",
    "RecoveryReport", "recover_block",
    "Share", "split", "reconstruct", "split_bytes", "reconstruct_bytes",
    "CipherKey", "RootedTree", "sample_key", "encrypt", "decrypt",
    "layout", "allocation_at", "allocation_count", "coverage_slots",
]

__version__ = "0.1.0"
