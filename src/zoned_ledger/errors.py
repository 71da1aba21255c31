"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A structural parameter (field modulus, n, m, L, ...) or an argument's
    shape (a tree, key, block or fragment list) is invalid."""


class InsufficientSharesError(ValueError):
    """Fewer shares, or fewer distinct abscissas, than the threshold."""


class KeyDecodeError(ValueError):
    """Serialized cipher key bytes are malformed."""


class SnapshotError(ValueError):
    """A chain snapshot file is malformed or inconsistent."""


class SlotError(IndexError):
    """A slot outside the committed blocks, or a zone or peer index outside its range."""


class UnrecoverableError(RuntimeError):
    """No zone can produce a candidate block for the requested slot."""


class AmbiguousRecoveryError(RuntimeError):
    """Majority vote over candidate blocks ended in a tie."""


class UnrepairableError(RuntimeError):
    """No fully intact donor zone exists for the requested repair."""


class MiningExhaustedError(RuntimeError):
    """The nonce space was exhausted without satisfying the target."""
