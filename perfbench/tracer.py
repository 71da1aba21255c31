"""Per-layer spans recorded from outside the library.

The tracer replaces every binding through which a layer function can be
reached -- the defining module's attribute, each ``from ... import``
copy in another module, and class attributes for methods -- with a
wrapper that records a span. Spans nest per thread, so a layer's self
time is its span minus the spans of the wrapped calls it made. Spans are
kept only while ``recording`` is set, so library calls the benchmark
makes to check outputs are not counted. Nothing inside the library is
edited; ``uninstall`` puts every binding back.
"""

import contextlib
import importlib
import sys
import threading
import time
from collections import defaultdict

# metric prefix -> (module, attribute path) of the function to wrap
TARGETS = {
    "field.lagrange_interpolate": ("field", "Field.lagrange_interpolate"),
    "field.eval_poly": ("field", "Field.eval_poly"),
    "shamir.split": ("shamir", "split"),
    "shamir.split_bytes": ("shamir", "split_bytes"),
    "shamir.reconstruct": ("shamir", "reconstruct"),
    "shamir.reconstruct_bytes": ("shamir", "reconstruct_bytes"),
    "tree_cipher.sample_key": ("tree_cipher", "sample_key"),
    "tree_cipher.encrypt": ("tree_cipher", "encrypt"),
    "tree_cipher.decrypt": ("tree_cipher", "decrypt"),
    "tree_cipher.serialize_key": ("tree_cipher", "serialize_key"),
    "tree_cipher.deserialize_key": ("tree_cipher", "deserialize_key"),
    "tree_cipher.corruption_oracle": ("tree_cipher", "corruption_oracle"),
    "zones.allocation_at": ("zones", "allocation_at"),
    "zones.zone_of": ("zones", "zone_of"),
    "ledger.hash_step": ("ledger", "hash_step"),
    "ledger.commit_block": ("ledger", "ChainState.commit_block"),
    "ledger.zone_candidate": ("ledger", "ChainState.zone_candidate"),
    "ledger.zone_prev_hash": ("ledger", "ChainState.zone_prev_hash"),
    "ledger.repair_zone": ("ledger", "ChainState.repair_zone"),
    "recovery.recover_block": ("recovery", "recover_block"),
    "mining.mine": ("mining", "mine"),
    "adversary.zone_corruption_trial": ("adversary", "zone_corruption_trial"),
    "adversary.availability_trial": ("adversary", "availability_trial"),
}

_DECODES = ("ledger.zone_candidate", "ledger.zone_prev_hash")


class _Frame:
    __slots__ = ("name", "child_s", "decodes")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.decodes = [] if name == "recovery.recover_block" else None


class Tracer:
    """Span and count accumulators plus the binding patcher."""

    def __init__(self, package):
        self.package = package
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (owner, attribute, original)
        self._recording = False
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    @contextlib.contextmanager
    def recording(self):
        """Record the spans of wrapped calls made inside this block, from any thread."""
        self._recording = True
        try:
            yield
        finally:
            self._recording = False

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name):
        frame = _Frame(name)
        self._stack().append(frame)
        return frame

    def _exit(self, frame, elapsed):
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += elapsed
        with self._lock:
            self.calls[frame.name] += 1
            self.self_s[frame.name] += elapsed - frame.child_s
            if frame.decodes is not None:
                self.counts["decodes"] += len(frame.decodes)
                self.counts["distinct_decodes"] += len(set(frame.decodes))

    def _note_call(self, name, args):
        if name == "field.lagrange_interpolate":
            with self._lock:
                self.counts["interpolate_points"] += len(args[1])
        elif name in _DECODES:
            for frame in reversed(self._stack()):
                if frame.decodes is not None:
                    frame.decodes.append((name, args[1], args[2]))
                    break

    def _note_result(self, name, result):
        if name == "recovery.recover_block":
            with self._lock:
                self.counts["slots_scanned"] += result.slots_scanned
        elif name == "mining.mine":
            with self._lock:
                self.counts["tries"] += result.tries

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            tracer._note_call(name, args)
            frame = tracer._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, time.perf_counter() - start)
            tracer._note_result(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [mod for key, mod in sorted(sys.modules.items())
                if mod is not None and (key == prefix or key.startswith(prefix + "."))]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for name, (module, path) in TARGETS.items():
            owner = importlib.import_module(f"{self.package.__name__}.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            originals[name] = (owner, attr, owner.__dict__[attr])
        by_id = {id(fn): name for name, (_, _, fn) in originals.items()}
        wrappers = {name: self._wrap(name, fn) for name, (_, _, fn) in originals.items()}
        for name, (owner, attr, _) in originals.items():
            self._patch(owner, attr, wrappers[name])
        # every other binding of the same function object: from-imports
        # and package re-exports
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                name = by_id.get(id(value))
                if name is not None:
                    self._patch(mod, attr, wrappers[name])
        self._check_no_bare_bindings(originals)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _check_no_bare_bindings(self, originals):
        bare = set(id(fn) for _, _, fn in originals.values())
        owners = list(self._modules())
        owners += [v for mod in owners for v in vars(mod).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in vars(owner).items():
                if id(value) in bare:
                    raise RuntimeError(
                        f"{getattr(owner, '__name__', owner)}.{attr} still bypasses the tracer")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
