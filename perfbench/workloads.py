"""The three workloads. Each round runs a fixed set of operations.

A round's inputs come from one integer seed; the library sees only the
payloads, the rng and the CLI flags generated here. Only calls into the
library are timed; generating inputs and checking outputs are not.
The operation counts of a round never depend on the seed, so the share
of failed operations is the same in every run.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import time
from collections import defaultdict

import checks
from zoned_ledger import adversary, cli, ledger, recovery, shamir

HASH_WIDTH = 64
PROBE_SEED = 0  # the fault probes use fixed inputs, whatever --seed is


class Round:
    """Timings, operation counts and output checks of one round.

    With a tracer, the library calls timed here are also traced.
    """

    def __init__(self, tracer=None):
        self._tracer = tracer
        self.busy_s = 0.0
        self.times = defaultdict(list)
        self.ops = defaultdict(lambda: [0, 0])  # kind -> [attempted, failed]
        self.figures = defaultdict(float)
        self.work_scale = {}  # kind -> expected work / work the seed gave
        self.errors = []
        self.probes = {}
        self._digest = hashlib.sha256()

    def timed(self, kind, fn, *args):
        with self._tracer.recording() if self._tracer else contextlib.nullcontext():
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        self.times[kind].append(elapsed)
        self.ops[kind][0] += 1
        return result

    def expect(self, ok, message):
        if not ok:
            self.errors.append(message)

    def record(self, data):
        """Fold a program output into the round's output digest."""
        self._digest.update(data if isinstance(data, bytes) else repr(data).encode())

    @property
    def digest(self):
        return self._digest.hexdigest()


def _median_ms(rounds, kind):
    return 1e3 * statistics.median(t for r in rounds for t in r.times[kind])


def _mean_peer_bits(state, r):
    cfg = state.config
    bits = statistics.fmean(state.storage_cost_measured(peer, t)
                            for t in range(state.num_blocks) for peer in range(cfg.n))
    r.expect(bits >= 8 * cfg.block_bytes / cfg.m,
             f"peer bits {bits} below the fragment size 8*block_bytes/m")
    r.figures["peer_bits"] = bits


def _check_chain(state, payloads, r):
    """Hash chain recomputed with hashlib; every zone shares H_{t-1}."""
    expected = checks.hash_chain(payloads, state.config.hash_width)
    r.expect(state.hashes == expected, "state.hashes differs from the recomputed chain")
    r.record(state.hashes)
    for t in range(state.num_blocks):
        for z in range(len(state.allocation(t))):
            r.expect(state.zone_prev_hash(t, z) == expected[t],
                     f"zone {z} at slot {t} shares a wrong previous hash")
    return expected


def _commit_chain(state, payloads, rng, r):
    for payload in payloads:
        r.timed("commit", state.commit_block, payload, rng)


def _forged(rng, payload):
    forged = rng.randbytes(len(payload))
    return forged if forged != payload else bytes(b ^ 1 for b in payload)


class _ChainWorkload:
    vary_inputs = True
    SIZES = {}  # smoke -> (n, m, block_bytes, blocks per round)

    def __init__(self, smoke=False):
        self.n, self.m, self.block_bytes, self.blocks = self.SIZES[smoke]

    def config(self):
        return ledger.ChainConfig(n=self.n, m=self.m, block_bytes=self.block_bytes,
                                  hash_width=HASH_WIDTH)


class ChainWide(_ChainWorkload):
    """Commit, then clean recovery of every block, in large zones."""

    name = "chain-wide"
    SIZES = {False: (1024, 16, 4096, 4), True: (24, 4, 48, 3)}

    def run_round(self, seed, tracer=None):
        r = Round(tracer)
        rng = random.Random(seed)
        payloads = [rng.randbytes(self.block_bytes) for _ in range(self.blocks)]
        state = ledger.ChainState(self.config())
        _commit_chain(state, payloads, rng, r)
        _check_chain(state, payloads, r)
        _mean_peer_bits(state, r)
        for t, payload in enumerate(payloads):
            report = r.timed("recover_clean", recovery.recover_block, state, t)
            r.expect(report.recovered == payload, f"slot {t} recovered a wrong block")
            r.expect(report.unanimous and report.slots_scanned == 0,
                     f"clean recovery of slot {t} was contested")
            r.record(report.to_json())
        return r

    def expected_sample_keys(self):
        return self.n // self.m * self.blocks

    def metrics(self, rounds):
        return {
            "commit_ms": (_median_ms(rounds, "commit"), "ms"),
            "recover_clean_ms": (_median_ms(rounds, "recover_clean"), "ms"),
            "peer_bits_per_block": (rounds[0].figures["peer_bits"], "bit"),
        }


class ChurnContested(_ChainWorkload):
    """Churned chain, contested recoveries of rewritten zones, repairs.

    Every slot loses one record in each of ``churn`` random zones. The
    rewrites sit at fixed slots; at the "long" ones the rewritten zone is
    picked so that churn leaves one of its hash checks unanswered (the
    scan then runs the whole chain suffix), at the "short" ones so that
    every check is answered (the scan stops after one slot). Which zones
    and peers are hit is seeded; how much scanning a round does is not,
    so rounds of different seeds do the same work.
    """

    name = "churn-contested"
    SIZES = {False: (256, 8, 1024, 24), True: (24, 4, 48, 10)}
    # (slot as a fraction of the chain, whether churn leaves a check unanswered)
    REWRITES = ((0.0, True), (0.2, False), (0.4, True), (0.6, False), (0.8, True))

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.churn = max(1, round(0.02 * self.n))
        self.rewrites = [(round(f * self.blocks), long) for f, long in self.REWRITES]

    def _churn_plan(self, state, rng):
        """slot -> {zone: erased peer}, redrawn until every rewrite has a zone."""
        zones = len(state.allocation(0))

        def draw(t):
            alloc = state.allocation(t)
            return {z: rng.choice(alloc[z]) for z in rng.sample(range(zones), self.churn)}

        plan = {t: draw(t) for t in range(self.blocks)}
        targets = {}
        for t, long in self.rewrites:
            while True:
                options = self._rewrite_options(state, plan, t, long)
                if options:
                    targets[t] = rng.choice(options)
                    break
                plan[t + 1] = draw(t + 1)
        return plan, targets

    def _rewrite_options(self, state, plan, t, long):
        """Intact zones at t whose scan would run long (or stop at once)."""
        alloc_t, alloc_next = state.allocation(t), state.allocation(t + 1)
        next_zone = {p: z for z, members in enumerate(alloc_next) for p in members}
        out = []
        for z, members in enumerate(alloc_t):
            if z in plan[t]:
                continue
            unanswered = any(next_zone[p] in plan[t + 1] for p in members)
            if unanswered == long:
                out.append(z)
        return out

    def run_round(self, seed, tracer=None):
        r = Round(tracer)
        rng = random.Random(seed)
        payloads = [rng.randbytes(self.block_bytes) for _ in range(self.blocks)]
        state = ledger.ChainState(self.config())
        _commit_chain(state, payloads, rng, r)
        expected = _check_chain(state, payloads, r)
        _mean_peer_bits(state, r)

        plan, targets = self._churn_plan(state, rng)
        for t, erased in plan.items():
            for peer in erased.values():
                state.erase_peer_record(t, peer)

        for t, z in targets.items():
            members = set(state.allocation(t)[z])
            adversary.rewrite_zone_block(state, t, z, _forged(rng, payloads[t]), rng)
            report = r.timed("recover_contested", recovery.recover_block, state, t)
            r.figures["slots_scanned"] += report.slots_scanned
            r.expect(report.recovered == payloads[t], f"contested slot {t}: wrong block")
            r.expect(report.eliminated_peers <= members,
                     f"contested slot {t}: eliminated peers outside the rewritten zone")
            r.record(report.to_json())
            adversary.rewrite_zone_block(state, t, z, payloads[t], rng)

        for t, erased in plan.items():
            if t in targets:
                continue
            for z in erased:
                r.timed("repair", state.repair_zone, t, z, rng)
                r.expect(state.zone_candidate(t, z) == payloads[t]
                         and state.zone_prev_hash(t, z) == expected[t],
                         f"repair of zone {z} at slot {t} stored a wrong block or hash")
        return r

    def run_probes(self, r):
        """The two fault probes; each counts as one failed operation today."""
        for name, probe in (("probe_hash_out_of_range", self._probe_hash_out_of_range),
                            ("probe_repair_after_rewrite", self._probe_repair_after_rewrite)):
            rng = random.Random(PROBE_SEED)
            state = ledger.ChainState(ledger.ChainConfig(n=24, m=4, block_bytes=48,
                                                         hash_width=HASH_WIDTH))
            payloads = [rng.randbytes(48) for _ in range(6)]
            for payload in payloads:
                state.commit_block(payload, rng)
            r.ops[name][0] += 1
            try:
                ok = probe(state, payloads, rng)
                outcome = "ok" if ok else "wrong_block"
            except Exception as exc:  # the probe reports whatever recovery raised
                ok, outcome = False, type(exc).__name__
            if not ok:
                r.ops[name][1] += 1
            r.probes[name] = outcome

    @staticmethod
    def _probe_hash_out_of_range(state, payloads, rng):
        """Zone 0 of slot 0 rewritten; its H_{-1} shares decode to >= 2^width."""
        cfg = state.config
        shares = shamir.split(ledger.hash_field(cfg.hash_width), 2**cfg.hash_width + 1,
                              cfg.m, cfg.m, rng)
        for share, peer in zip(shares, sorted(state.allocation(0)[0])):
            state.records[0][peer].hash_share = share
        adversary.rewrite_zone_block(state, 0, 0, _forged(rng, payloads[0]), rng)
        return recovery.recover_block(state, 0).recovered == payloads[0]

    @staticmethod
    def _probe_repair_after_rewrite(state, payloads, rng):
        """Newest slot: zone 0 rewritten, then most other zones lose a peer and are repaired."""
        t = state.num_blocks - 1
        alloc = state.allocation(t)
        adversary.rewrite_zone_block(state, t, 0, _forged(rng, payloads[t]), rng)
        for z in range(1, 1 + (len(alloc) - 1) // 2 + 1):
            state.erase_peer_record(t, alloc[z][0])
            state.repair_zone(t, z, rng)
        return recovery.recover_block(state, t).recovered == payloads[t]

    def expected_sample_keys(self):
        repairs = self.churn * (self.blocks - len(self.rewrites))
        return self.n // self.m * self.blocks + repairs

    def metrics(self, rounds):
        return {
            "commit_ms": (_median_ms(rounds, "commit"), "ms"),
            "recover_contested_ms": (_median_ms(rounds, "recover_contested"), "ms"),
            "scan_slots_s": (sum(r.figures["slots_scanned"] for r in rounds)
                             / sum(sum(r.times["recover_contested"]) for r in rounds), "1/s"),
            "repair_ms": (_median_ms(rounds, "repair"), "ms"),
            "peer_bits_per_block": (rounds[0].figures["peer_bits"], "bit"),
        }


class Sweeps:
    """The CLI subcommands, as a user runs them, with one worker thread.

    The default pool (one thread per core) runs pure-Python trials whose
    threads take turns at the GIL; on a shared 2-core host that made the
    sweep's time spread by 23% between runs against 2% with one thread.
    """

    name = "sweeps"
    vary_inputs = False  # every round repeats the run's flags; outputs must match

    def __init__(self, smoke=False):
        if smoke:
            self.attack_m, self.attack_trials, self.mining_trials = 4, 300, 20
            self.avail, self.sim_blocks = (16, 4, 0.5, 2000), 10
        else:
            self.attack_m, self.attack_trials, self.mining_trials = 6, 2500, 50
            self.avail, self.sim_blocks = (16, 4, 0.5, 100000), 100

    def commands(self):
        n, m, rho, trials = self.avail
        return [
            ("attack", ["--m", str(self.attack_m), "--trials", str(self.attack_trials)]),
            ("mining", ["--trials", str(self.mining_trials)]),
            ("availability", ["--n", str(n), "--m", str(m), "--rho", str(rho),
                              "--trials", str(trials)]),
            ("simulate", ["--n", "24", "--m", "4", "--blocks", str(self.sim_blocks)]),
        ]

    def run_round(self, seed, tracer=None):
        os.environ["ZONED_LEDGER_THREADS"] = "1"
        r = Round(tracer)
        for name, flags in self.commands():
            out = io.StringIO()
            argv = [name, *flags, "--seed", str(seed)]
            with contextlib.redirect_stdout(out):
                code = r.timed(f"cli.{name}", cli.main, argv)
            text = out.getvalue()
            r.record(text.encode())
            r.expect(code == 0, f"{' '.join(argv)} exited with {code}")
            records = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
            r.errors += self._check(name, records)
            if name == "mining":
                r.figures["tries"] = sum(round(x["mean_tries"] * x["runs"]) for x in records)
                r.work_scale["cli.mining"] = self._expected_tries() / max(r.figures["tries"], 1)
        return r

    def _check(self, name, records):
        if name == "attack":
            return checks.check_attack(records, self.attack_m, self.attack_trials)
        if name == "mining":
            return checks.check_mining(records, cli.DEFAULT_FRACTIONS, self.mining_trials,
                                       nonce_bits=32)
        if name == "availability":
            return checks.check_availability(records, *self.avail)
        return checks.check_simulate(records, self.sim_blocks)

    def _expected_tries(self):
        """Tries the mining sweep makes on average, by the urn law."""
        return self.mining_trials * float(sum(checks.urn_law(f, 32)
                                              for f in cli.DEFAULT_FRACTIONS))

    def expected_sample_keys(self):
        return self.attack_m * self.attack_trials + 24 // 4 * self.sim_blocks

    def metrics(self, rounds):
        def rate(kind, work):
            return statistics.median(work(r) / r.times[f"cli.{kind}"][0] for r in rounds)

        trials = self.avail[3]
        return {
            "attack_trials_s": (rate("attack", lambda r: self.attack_m * self.attack_trials),
                                "1/s"),
            "mining_mhash_s": (rate("mining", lambda r: r.figures["tries"] / 1e6), "Mhash/s"),
            "availability_trials_s": (rate("availability", lambda r: trials), "1/s"),
            "simulate_blocks_s": (rate("simulate", lambda r: self.sim_blocks), "1/s"),
            "sweep_s": (statistics.median(r.busy_s for r in rounds), "s"),
        }


WORKLOADS = {w.name: w for w in (ChainWide, ChurnContested, Sweeps)}


def setup(name, smoke=False):
    """Build a workload's initial objects; the set-up probe times this."""
    wl = WORKLOADS[name](smoke)
    if isinstance(wl, _ChainWorkload):
        ledger.ChainState(wl.config())
        ledger.hash_field(HASH_WIDTH)
    else:
        cli.build_parser()
