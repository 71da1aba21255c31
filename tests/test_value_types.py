import random

import pytest

from zoned_ledger.adversary import zone_corruption_trial
from zoned_ledger.errors import ConfigurationError
from zoned_ledger.ledger import ChainConfig, ChainState
from zoned_ledger.mining import DifficultyTarget, mine
from zoned_ledger.recovery import RecoveryReport, recover_block
from zoned_ledger.shamir import Share
from zoned_ledger.tree_cipher import CipherKey, RootedTree
from zoned_ledger.zones import layout


def recovery_report():
    state, rng = ChainState(ChainConfig(8, 4, 16)), random.Random(0)
    for _ in range(3):
        state.commit_block(rng.randbytes(16), rng)
    return recover_block(state, 1)


VALUES = {
    "ChainConfig": lambda: ChainConfig(24, 4, 48),
    "DifficultyTarget": lambda: DifficultyTarget(64, 0.5),
    "RootedTree": lambda: RootedTree((0, 0, 1), 0),
    "CipherKey": lambda: CipherKey(RootedTree((0, 0, 1), 0), (0, 1, 0), (2, 0, 1)),
    "GroupLayout": lambda: layout(24, 4),
    "MiningResult": lambda: mine(b"prev", DifficultyTarget(64, 0.5), 16, random.Random(0)),
    "TrialSummary": lambda: zone_corruption_trial(4, 2, 10, 0),
    "Share": lambda: Share(3, 5),
    "RecoveryReport": recovery_report,
}


@pytest.mark.parametrize("make", VALUES.values(), ids=list(VALUES))
def test_value_types_are_immutable_and_equal_by_value(make):
    a, b = make(), make()
    assert a == b and a is not b
    # a RecoveryReport's candidates are a dict and its eliminated peers a set
    if not isinstance(a, RecoveryReport):
        assert hash(a) == hash(b) and len({a, b}) == 1
    name = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(a, name))
    with pytest.raises(AttributeError):
        a.unknown_field = 1


def test_value_type_repr_names_every_field():
    assert repr(ChainConfig(24, 4, 48)) == \
        "ChainConfig(n=24, m=4, block_bytes=48, hash_width=64)"


TREE = RootedTree((0, 0, 1), 0)


@pytest.mark.parametrize("make,error", [
    (lambda: ChainConfig(24, 3, 48), ConfigurationError),
    (lambda: ChainConfig(24, 4, 50), ConfigurationError),
    (lambda: ChainConfig(n=24, m=4, block_bytes=48, hash_width=4), ConfigurationError),
    (lambda: DifficultyTarget(64, 0.0), ConfigurationError),
    (lambda: DifficultyTarget(4, 0.5), ConfigurationError),
    (lambda: RootedTree((1, 0), 0), ConfigurationError),
    (lambda: RootedTree((0, 2, 1, 2), 0), ConfigurationError),
    (lambda: CipherKey(TREE, (0, 2, 0), (0, 1, 2)), ConfigurationError),
    (lambda: CipherKey(TREE, (0, 0, 0), (0, 0, 1)), ConfigurationError),
], ids=["config_m_odd", "config_block_bytes", "config_hash_width", "target_fraction",
        "target_width", "tree_root", "tree_cycle", "key_flips", "key_assignment"])
def test_value_types_reject_bad_arguments(make, error):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert excinfo.type is error
