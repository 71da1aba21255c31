"""Ground-truth hash chain plus simulated per-peer zone storage.

Each committed block is, per zone, encrypted under a fresh tree-cipher
key; the fragments go one per peer, and one byte string, the serialized
key followed by the previous hash value, is (m, m) secret shared across
the zone at abscissas below 2^width, so a zone decode is one
interpolation. Recovery and repair read zones through
``ChainState.cached_decode``, which decodes a zone again only when its
records have changed, and then decodes the records it read to compare.
The simulator also keeps the plain ground truth so experiments can check
recovery against it.
"""

import hashlib
import json
import math
from collections import namedtuple

from . import shamir, tree_cipher, zones
from .errors import ConfigurationError, SlotError, SnapshotError, UnrepairableError
from .field import Field, prime_field

GENESIS_HASH = 0
SNAPSHOT_FORMAT = 1  # the config line's "format"; snapshot_load reads no other

hash_field = prime_field  # the prime field just above 2^width holds every width-bit hash


def hash_nbytes(width: int) -> int:
    """Bytes of a width-bit hash value, as hashed and as shared."""
    return (width + 7) // 8


def share_field(m: int, width: int) -> Field:
    """The sharing field of a zone's secret: its serialized key, then H_{t-1}."""
    return prime_field(8 * (tree_cipher.key_nbytes(m) + hash_nbytes(width)))


def hash_step(prev: int, payload: bytes, width: int) -> int:
    """SHA-256 of (prev hash bits || payload), truncated to width bits in [8, 256]."""
    if not 8 <= width <= 256:
        raise ConfigurationError(f"hash width must be in [8, 256], got {width}")
    try:
        prev_bytes = prev.to_bytes(hash_nbytes(width), "big")
    except OverflowError:  # negative, or past the hash's bytes
        raise ConfigurationError(
            f"prev hash {prev} does not fit in {hash_nbytes(width)} bytes") from None
    digest = hashlib.sha256(prev_bytes + payload).digest()
    return int.from_bytes(digest, "big") >> (256 - width)


class ChainConfig(namedtuple("ChainConfig", "n m block_bytes hash_width")):
    __slots__ = ()

    def __new__(cls, n: int, m: int, block_bytes: int, hash_width: int = 64):
        for name, value in zip(cls._fields, (n, m, block_bytes, hash_width)):
            if type(value) is not int:  # no bool, no float
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
        zones.layout(n, m)
        if block_bytes <= 0 or block_bytes % m != 0:
            raise ConfigurationError(
                f"block_bytes={block_bytes} must be a positive multiple of m={m}")
        if not 8 <= hash_width <= 256:
            raise ConfigurationError("hash_width must be in [8, 256]")
        if m >= 2**hash_width:  # each zone draws m distinct share abscissas below 2^width
            raise ConfigurationError(
                f"m={m} needs m distinct abscissas in [1, 2^{hash_width})")
        return super().__new__(cls, n, m, block_bytes, hash_width)


class PeerSlotRecord(namedtuple("PeerSlotRecord", "fragment share")):
    """What a peer stores for a slot: its fragment and its share of key ‖ H_{t-1}."""
    # no __slots__: perfbench's hash-out-of-range probe sets .hash_share on a record


class ChainState:
    """One simulated network: ground truth plus per-peer slot records.

    Zone membership is not stored: ``zones.zone_groups`` gives it in O(1).
    """

    def __init__(self, config: ChainConfig):
        self.config = config
        self.layout = zones.layout(config.n, config.m)
        self.payloads: list[bytes] = []
        # hashes[0] is the genesis hash; hashes[t + 1] = h(hashes[t], payloads[t]),
        # so block t is chained to hashes[t], the value its zones share
        self.hashes: list[int] = [GENESIS_HASH]
        self.records: list[dict[int, PeerSlotRecord]] = []
        # (t, z) -> (the zone's m records as decoded, None where missing; block, H_{t-1})
        self._decoded: dict[tuple[int, int], tuple] = {}

    @property
    def num_blocks(self) -> int:
        return len(self.payloads)

    def _slot(self, t: int) -> dict[int, PeerSlotRecord]:
        """The records of committed slot t; SlotError for any other t."""
        if not 0 <= t < self.num_blocks:
            raise SlotError(f"slot {t} is not in range({self.num_blocks})")
        return self.records[t]

    def _zone(self, t: int, z: int) -> tuple[int, ...]:
        """The peers of zone z at committed slot t; SlotError for any other (t, z)."""
        self._slot(t)
        n_zones = self.config.n // self.config.m
        if not 0 <= z < n_zones:
            raise SlotError(f"zone {z} is not in range({n_zones}) at slot {t}")
        a, b = zones.zone_groups(self.layout, t, z)
        return self.layout.group(a) + self.layout.group(b)

    def allocation(self, t: int) -> list[tuple[int, ...]]:
        """Zones of slot t, each a sorted tuple of peers: zones.allocation_at."""
        return zones.allocation_at(self.layout, t)

    def _read_zone(self, recs):
        """(key bytes, previous hash) shared by zone_records' result, or None if unreadable."""
        if recs is None:
            return None
        m, key_nbytes = self.config.m, tree_cipher.key_nbytes(self.config.m)
        try:
            secret = shamir.reconstruct_bytes([r.share for r in recs], m,
                                              key_nbytes + hash_nbytes(self.config.hash_width))
        except ValueError:
            return None
        return secret[:key_nbytes], int.from_bytes(secret[key_nbytes:], "big")

    def _store_zone(self, t: int, z: int, fragments, key_bytes: bytes, prev_hash: int,
                    rng) -> None:
        """Write zone z's records: its fragments, with shares of key_bytes ‖ prev_hash.

        The share abscissas are width-bit: below 2^width, as hard to guess as the hash.
        """
        width = self.config.hash_width
        members, nbytes = self._zone(t, z), hash_nbytes(width)
        if not 0 <= prev_hash < 256**nbytes:  # a forged hash >= 2^width may still fit
            raise ConfigurationError(f"prev_hash {prev_hash} does not fit in {nbytes} bytes")
        m = self.config.m
        shares = shamir.split_bytes(key_bytes + prev_hash.to_bytes(nbytes, "big"), m, m, rng,
                                    1 << width)
        for peer, fragment, share in zip(members, fragments, shares):
            self.records[t][peer] = PeerSlotRecord(fragment, share)
        self._decoded.pop((t, z), None)  # keep no replaced record alive

    def _check_payload(self, payload: bytes) -> None:
        if len(payload) != (size := self.config.block_bytes):
            raise ConfigurationError(f"payload must be {size} bytes, got {len(payload)}")

    def encode_zone(self, t: int, z: int, payload: bytes, prev_hash: int, rng) -> None:
        """Store payload as zone z's block t under a fresh key, chained to prev_hash."""
        self._check_payload(payload)
        key = tree_cipher.sample_key(self.config.m, rng)
        self._store_zone(t, z, tree_cipher.encrypt(payload, key),
                         tree_cipher.serialize_key(key), prev_hash, rng)

    def reshare_zone(self, t: int, z: int, prev_hash: int, rng) -> bool:
        """Re-share zone z's own key with prev_hash; False, writing nothing, if unreadable."""
        recs = self.zone_records(t, z)
        read = self._read_zone(recs)
        if read is not None:
            self._store_zone(t, z, [r.fragment for r in recs], read[0], prev_hash, rng)
        return read is not None

    def commit_block(self, payload: bytes, rng) -> None:
        self._check_payload(payload)  # before the slot is appended
        t = self.num_blocks
        self.payloads.append(payload)
        self.hashes.append(hash_step(self.hashes[t], payload, self.config.hash_width))
        self.records.append({})
        for z in range(self.config.n // self.config.m):
            self.encode_zone(t, z, payload, self.hashes[t], rng)

    def erase_peer_record(self, t: int, peer: int) -> None:
        """Drop peer's record of slot t, if it has one; SlotError for a bad t or peer."""
        if not 0 <= peer < self.config.n:
            raise SlotError(f"peer {peer} is not in range({self.config.n})")
        self._slot(t).pop(peer, None)
        group = peer // (self.config.m // 2)
        self._decoded.pop((t, zones.zone_of_group(self.layout, t, group)), None)

    def zone_records(self, t: int, z: int) -> list[PeerSlotRecord] | None:
        """Records of zone z at slot t in peer order, or None if any is missing."""
        recs = list(map(self._slot(t).get, self._zone(t, z)))
        return None if None in recs else recs

    def _decode(self, recs) -> tuple[bytes | None, int | None]:
        """(block, H_{t-1}) of a zone's records, zone_records' result; see zone_decode."""
        read = self._read_zone(recs)
        if read is None:
            return None, None
        key_bytes, prev_hash = read
        try:
            key = tree_cipher.deserialize_key(key_bytes, self.config.m)
            block = tree_cipher.decrypt([r.fragment for r in recs], key)
        except ValueError:
            block = None
        return block, None if prev_hash >> self.config.hash_width else prev_hash

    def zone_decode(self, t: int, z: int) -> tuple[bytes | None, int | None]:
        """(zone z's copy of block t, the H_{t-1} it shares), from one interpolation.

        Raises SlotError only for a (t, z) outside the committed slots and their
        zones. A missing record, bad shares or a secret past its byte width give
        (None, None); a bad key index no block, a hash part >= 2^width no hash.
        It decodes on every call; cached_decode keeps the result.
        """
        return self._decode(self.zone_records(t, z))

    def cached_decode(self, t: int, z: int) -> tuple[bytes | None, int | None]:
        """zone_decode(t, z), decoded again only when the zone's records have changed.

        The memo keeps one entry per (t, z): the zone's records it was decoded
        from (None when one was missing), then the result. A hit needs the
        current ones to compare equal, so every write is seen, a record replaced
        outside ChainState's writers included. A miss decodes the records it
        read for that comparison.
        """
        recs = self.zone_records(t, z)
        entry = self._decoded.get((t, z))
        if entry is not None and entry[0] == recs:
            return entry[1:]
        block, prev_hash = self._decode(recs)
        # held as the ground truth's objects, an honest block and hash take no memory
        if block == self.payloads[t]:
            block = self.payloads[t]
        if prev_hash == self.hashes[t]:
            prev_hash = self.hashes[t]
        self._decoded[t, z] = recs, block, prev_hash
        return block, prev_hash

    def zone_candidate(self, t: int, z: int) -> bytes | None:
        """Zone z's decrypted copy of block t, or None; see zone_decode."""
        return self.zone_decode(t, z)[0]

    def zone_prev_hash(self, t: int, z: int) -> int | None:
        """The H_{t-1} value shared across zone z at slot t, or None; see zone_decode."""
        return self.zone_decode(t, z)[1]

    def repair_zone(self, t: int, z: int, rng) -> None:
        """Recode zone z at slot t with a fresh key, using a donor zone."""
        self._zone(t, z)
        for donor in range(self.config.n // self.config.m):
            if donor == z:
                continue
            payload, prev_hash = self.cached_decode(t, donor)
            if payload is not None and prev_hash is not None:
                break
        else:
            raise UnrepairableError(f"no intact donor zone for slot {t}")
        self.encode_zone(t, z, payload, prev_hash, rng)

    def storage_cost_measured(self, peer: int, slot: int) -> float:
        """Bits actually stored by one peer for one slot; SlotError for a bad peer or slot."""
        if not 0 <= peer < self.config.n:
            raise SlotError(f"peer {peer} is not in range({self.config.n})")
        rec = self._slot(slot).get(peer)
        if rec is None:
            raise LookupError(f"no record for peer {peer} at slot {slot}")
        share_bits = share_field(self.config.m, self.config.hash_width).modulus.bit_length()
        # the fragment, then the share: a width-bit x and a y in the share field
        bits = 8 * len(rec.fragment) + self.config.hash_width + share_bits
        return float(bits + max(1, math.ceil(math.log2(self.config.m))))


def storage_cost_formula(q_bits: float, p_bits: float, m: int) -> tuple[float, float, float]:
    """(baseline, distributed, gain) storage bits per peer per block.

    Baseline is full replication: block plus hash. Distributed is the
    zone-coded cost: 1/m of the block, the tree-cipher key entropy of
    2m*log2(m) bits, two hash-width terms, plus the flip bit.
    """
    if not 1 <= m < math.inf:
        raise ConfigurationError(f"m must be finite and >= 1, got {m}")
    for name, bits in (("q_bits", q_bits), ("p_bits", p_bits)):
        if not 0 <= bits < math.inf:  # NaN fails both comparisons
            raise ConfigurationError(f"{name} must be finite and >= 0, got {bits}")
    baseline = q_bits + p_bits
    key_bits = 2 * m * math.log2(m) if m > 1 else 0.0
    distributed = q_bits / m + key_bits + 2 * p_bits + 1
    return baseline, distributed, baseline - distributed


def snapshot_save(state: ChainState, path) -> None:
    """Write the full chain as deterministic JSON lines."""
    cfg = state.config
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "type": "config", "format": SNAPSHOT_FORMAT, "n": cfg.n, "m": cfg.m,
            "block_bytes": cfg.block_bytes, "hash_width": cfg.hash_width,
        }, sort_keys=True) + "\n")
        for t, payload in enumerate(state.payloads):
            fh.write(json.dumps({
                "type": "slot", "t": t, "payload": payload.hex(),
                "hash": state.hashes[t + 1],
            }, sort_keys=True) + "\n")
            for peer in sorted(state.records[t]):
                r = state.records[t][peer]
                fh.write(json.dumps({
                    "type": "record", "t": t, "peer": peer,
                    "fragment": r.fragment.hex(),
                    "share": [r.share.x, r.share.y],
                }, sort_keys=True) + "\n")


def _parse(text: str) -> dict:
    try:
        line = json.loads(text)
    except ValueError as exc:
        raise SnapshotError(f"snapshot line is not JSON: {exc}") from None
    if not isinstance(line, dict):
        raise SnapshotError(f"snapshot line is not a JSON object: {text!r}")
    return line


def _required(line: dict, name: str, kind=object):
    if name not in line:
        raise SnapshotError(f"snapshot {line.get('type')!r} line lacks {name!r}")
    if kind is not object and type(line[name]) is not kind:  # for int: no bool, no float
        raise SnapshotError(f"{name} must be {kind.__name__}, got {line[name]!r}")
    return line[name]


def _share(line: dict, name: str, gf: Field, width: int) -> shamir.Share:
    value = _required(line, name)
    if not (isinstance(value, list) and len(value) == 2
            and all(type(v) is int for v in value)):
        raise SnapshotError(f"{name} must be an [x, y] pair of ints, got {value!r}")
    x, y = value
    if not (0 < x < 2**width and 0 <= y < gf.modulus):
        raise SnapshotError(f"{name} {value!r} is no share in {gf!r} with x below 2^{width}")
    return shamir.Share(x, y)


def _hex(line: dict, name: str) -> bytes:
    value = _required(line, name)
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise SnapshotError(f"{name} must be a hex string, got {value!r}") from None


def snapshot_load(path) -> ChainState:
    """Read a snapshot_save file of SNAPSHOT_FORMAT; other input raises SnapshotError."""
    with open(path, encoding="utf-8") as fh:
        header = _parse(fh.readline())
        if header.get("type") != "config":
            raise SnapshotError("snapshot must start with a config line")
        version = header.get("format")
        if type(version) is not int or version != SNAPSHOT_FORMAT:
            found = "no format (unversioned)" if version is None else f"format {version!r}"
            raise SnapshotError(f"snapshot has {found}; this version reads format "
                                f"{SNAPSHOT_FORMAT}")
        try:
            state = ChainState(ChainConfig(**{
                name: _required(header, name, int) for name in ChainConfig._fields}))
        except ConfigurationError as exc:
            raise SnapshotError(f"snapshot config is invalid: {exc}") from None
        cfg = state.config
        fragment_bytes = cfg.block_bytes // cfg.m
        gf = share_field(cfg.m, cfg.hash_width)
        for line in fh:
            rec = _parse(line)
            kind = rec.get("type")
            if kind == "slot":
                if _required(rec, "t", int) != state.num_blocks:
                    raise SnapshotError(f"slot line {rec['t']} at slot {state.num_blocks}")
                payload = _hex(rec, "payload")
                if len(payload) != cfg.block_bytes:
                    raise SnapshotError(f"payload of {len(payload)} bytes, not block_bytes")
                prev = state.hashes[-1]
                state.payloads.append(payload)
                state.hashes.append(hash_step(prev, payload, cfg.hash_width))
                if state.hashes[-1] != _required(rec, "hash"):
                    raise SnapshotError(f"hash mismatch at slot {rec['t']}")
                state.records.append({})
            elif kind == "record":
                t, peer = _required(rec, "t", int), _required(rec, "peer", int)
                if not 0 <= t < len(state.records):
                    raise SnapshotError(f"record for undeclared slot {t}")
                if not 0 <= peer < cfg.n:
                    raise SnapshotError(f"record for peer {peer} outside range(n)")
                fragment = _hex(rec, "fragment")
                if len(fragment) != fragment_bytes:
                    raise SnapshotError(f"fragment of {len(fragment)} bytes, expected "
                                        f"block_bytes / m = {fragment_bytes}")
                state.records[t][peer] = PeerSlotRecord(
                    fragment, _share(rec, "share", gf, cfg.hash_width))
            else:
                raise SnapshotError(f"unknown snapshot record type {kind!r}")
    return state
