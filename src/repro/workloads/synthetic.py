"""Synthetic access streams calibrated to the paper's Table 3.

The paper drives its simulator with traces of 42 real applications; we
cannot (Python-only reproduction, no proprietary traces), so each core
instead consumes a stochastic stream whose first-order statistics match
the paper's own per-application characterisation:

* memory operations every ``1/mem_op_rate`` instructions,
* an L1 miss probability matching ``l1mpki``,
* a write(-back) share of L2 traffic matching ``l2wpki / l1mpki``,
* an L2 miss share of L2 reads matching ``l2mpki / l2rpki``,
* "High"-burstiness applications emit misses in same-bank bursts
  (the Figure 3 behaviour the mechanism exploits), and
* a working set sized relative to the *SRAM* L2 capacity so that the
  4x-denser STT-RAM configuration naturally enjoys a lower L2 miss
  rate -- the capacity effect of simply swapping SRAM for STT-RAM.

Address-space layout: each core owns a private block range; threads of
shared-memory applications additionally sample a common shared pool,
which exercises the MESI directory (invalidations and forwards).
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Optional

from repro.cpu.trace import AccessStream
from repro.sim.config import SystemConfig
from repro.workloads.benchmarks import BenchmarkSpec

#: Memory operations per instruction (Table 1: at most 1 of 2 commits).
MEM_OP_RATE = 0.30
#: Private address-space stride between cores, in blocks.
PRIVATE_SPACE_BLOCKS = 1 << 26
#: Fraction of misses a shared-memory thread directs at the shared pool.
SHARED_POOL_FRACTION = 0.10
#: Mean burst length (accesses) for bursty applications.
MEAN_BURST_LENGTH = 5


class SyntheticStream(AccessStream):
    """One core's calibrated random access stream.

    Args:
        spec: Table 3 characterisation of the application.
        core_id: The consuming core (selects the private address range).
        config: System configuration (sizes the working set).
        seed: RNG seed; streams are deterministic given (spec, core, seed).
        shared_pool_blocks: Size of the process-shared hot pool (only for
            ``spec.shared`` applications).
    """

    def __init__(
        self,
        spec: BenchmarkSpec,
        core_id: int,
        config: SystemConfig,
        seed: int = 1,
        shared_pool_blocks: Optional[int] = None,
    ):
        self.spec = spec
        self.core_id = core_id
        self.config = config
        self._rng = random.Random((seed * 1_000_003) ^ (core_id * 7919))

        self.n_banks = config.n_banks
        block_bytes = config.block_bytes

        # Probabilities derived from Table 3.
        self.miss_prob = min(0.9, spec.l1mpki / 1000.0 / MEM_OP_RATE)
        self.store_prob = spec.write_fraction
        #: probability an L1-miss block is brand new (and so misses L2):
        #: l2mpki of every l1mpki L2 accesses miss the big L2.
        self.l2_miss_prob = (
            min(1.0, spec.l2mpki / spec.l1mpki) if spec.l1mpki > 0 else 0.0
        )

        # Gap between memory operations so that mem-op rate ~ MEM_OP_RATE:
        # each access costs 1 instruction plus `gap` non-memory ones.
        self._mean_gap = max(0.0, 1.0 / MEM_OP_RATE - 1.0)

        # Address-space layout (block numbers).
        self._private_base = (core_id + 1) * PRIVATE_SPACE_BLOCKS
        l1_blocks = config.l1_effective_bytes // block_bytes
        self._hot_set = [
            self._private_base + i for i in range(max(4, l1_blocks // 8))
        ]
        self._hot_ptr = 0

        # L2-resident reuse pool: 1.5x the per-core share of an SRAM L2,
        # so the STT-RAM's 4x capacity turns pool accesses into hits.
        sram_share_blocks = config.sram_equivalent_bank_bytes // block_bytes
        self._pool_capacity = max(64, int(1.5 * sram_share_blocks))
        self._pool: deque = deque(maxlen=self._pool_capacity)
        self._skip_newest = max(8, l1_blocks)
        #: per-bank recent blocks, oldest first and at most
        #: ``_bank_pool_depth`` of them, for same-bank L2-hit bursts
        self._bank_pools = {}
        self._bank_pool_depth = max(16, self._pool_capacity // 8)

        # Decorrelate cores: a shared starting index and stride would
        # march every core through the same bank sequence in lockstep,
        # hot-spotting a rolling subset of banks.
        self._stream_counter = self._rng.randrange(1 << 20)
        self._stride = 2 * self._rng.randrange(1, 512) + 1  # odd: co-prime
        # with any power-of-two bank count

        self.shared = spec.shared and shared_pool_blocks
        self._shared_pool_blocks = shared_pool_blocks or 0

        # Burst state.
        self.bursty = spec.bursty
        self._burst_remaining = 0
        self._burst_bank = 0
        #: bursty applications still issue a share of isolated misses
        #: (shared-pool and scattered reads).
        self._solo_miss_fraction = 0.3
        burst_share = 1.0 - self._solo_miss_fraction
        self._burst_enter_prob = (
            self.miss_prob * burst_share / MEAN_BURST_LENGTH
            if self.bursty else 0.0
        )

        # instrumentation
        self.generated_misses = 0
        self.generated_stores = 0

    # ------------------------------------------------------------------
    # Address selection helpers
    # ------------------------------------------------------------------

    def _fresh_blocks(self, count: int,
                      bank: Optional[int] = None) -> List[int]:
        """The next ``count`` never-seen streaming blocks, optionally
        pinned to a bank, appended to the reuse pools in stream order.

        The stream's one place for fresh-block address arithmetic:
        :meth:`_fresh_block` is its one-block case and the prewarm pool
        its bulk case."""
        start = self._stream_counter + 1
        self._stream_counter += count
        indices = range(start, start + count)
        base = self._private_base
        if bank is None:
            # Wrap within the private space; the modulus is a multiple of
            # any power-of-two bank count, preserving the uniform spread.
            stride = self._stride
            span = PRIVATE_SPACE_BLOCKS // 2
            blocks = [base + (index * stride) % span for index in indices]
        else:
            n_banks = self.n_banks
            wrap = PRIVATE_SPACE_BLOCKS // (2 * n_banks)
            blocks = [base + (index % wrap) * n_banks + bank
                      for index in indices]
            depth = self._bank_pool_depth
            pool = self._bank_pools.get(bank)
            if pool is None:
                # A copy: the caller owns the returned list.
                self._bank_pools[bank] = blocks[-depth:]
            else:
                pool.extend(blocks)
                over = len(pool) - depth
                if over > 0:
                    del pool[:over]
        self._pool.extend(blocks)
        return blocks

    def _fresh_block(self, bank: Optional[int] = None) -> int:
        """A never-seen streaming block, optionally pinned to a bank."""
        return self._fresh_blocks(1, bank)[0]

    def _burst_block(self, bank: int) -> int:
        """Block for a mid-burst access: usually an L2-resident reuse of
        the burst bank, an L2 miss with the calibrated probability."""
        pool = self._bank_pools.get(bank)
        usable = (len(pool) - 2) if pool else 0
        if usable <= 0 or self._rng.random() < self.l2_miss_prob:
            return self._fresh_block(bank=bank)
        return pool[self._rng.randrange(usable)]

    def _pool_block(self) -> int:
        """An older streamed block: misses L1, usually hits a big L2."""
        usable = len(self._pool) - self._skip_newest
        if usable <= 0:
            return self._fresh_block()
        idx = self._rng.randrange(usable)
        return self._pool[idx]

    def _shared_block(self) -> int:
        return self._rng.randrange(self._shared_pool_blocks)

    def _hot_block(self) -> int:
        self._hot_ptr = (self._hot_ptr + 1) % len(self._hot_set)
        return self._hot_set[self._hot_ptr]

    # ------------------------------------------------------------------

    def _gap(self, small: bool = False) -> int:
        if small:
            # Mid-burst inter-access gap: close enough that successive
            # same-bank accesses land within one 33-cycle write service
            # (the Figure 3 pattern), loose enough not to flood the NI
            # in a single cycle.
            return self._rng.randrange(2, 9)
        # Geometric-ish gap with the calibrated mean.
        mean = self._mean_gap
        return max(0, int(self._rng.expovariate(1.0 / mean))) if mean else 0

    def _miss_block(self) -> int:
        """Choose the block for a (non-burst) L1 miss."""
        if self.shared and self._rng.random() < SHARED_POOL_FRACTION:
            return self._shared_block()
        if self._rng.random() < self.l2_miss_prob:
            return self._fresh_block()
        return self._pool_block()

    def prewarm_blocks(self):
        """Blocks to install in the L2 before measurement.

        Generates the reuse pool analytically so short measurement
        windows start from the steady state a long warm-up would reach:
        bursty applications pre-pin part of the pool to per-bank lists,
        the rest is scattered.  Returns the block list (home banks are
        implied by ``block % n_banks``).
        """
        blocks = []
        if self.bursty:
            per_bank = max(8, self._pool_capacity // (2 * self.n_banks))
            for bank in range(self.n_banks):
                blocks += self._fresh_blocks(per_bank, bank)
        missing = self._pool_capacity - len(self._pool)
        if missing > 0:
            blocks += self._fresh_blocks(missing)
        return blocks

    def hot_blocks(self):
        """The L1-resident hot set (pre-installed in L1 and L2)."""
        return list(self._hot_set)

    def shared_blocks(self):
        """The shared pool range, or empty for private applications."""
        return range(self._shared_pool_blocks) if self.shared else range(0)

    def next_access(self):
        rng = self._rng

        if self._burst_remaining > 0:
            # Mid-burst: back-to-back misses pinned to the burst bank.
            self._burst_remaining -= 1
            self.generated_misses += 1
            is_store = rng.random() < self.store_prob
            if is_store:
                self.generated_stores += 1
            return (self._gap(small=True),
                    self._burst_block(self._burst_bank), is_store)

        if self.bursty:
            if rng.random() < self._burst_enter_prob:
                self._burst_bank = rng.randrange(self.n_banks)
                self._burst_remaining = max(
                    1, int(rng.expovariate(1.0 / MEAN_BURST_LENGTH)))
                self._burst_remaining -= 1
                self.generated_misses += 1
                is_store = rng.random() < self.store_prob
                if is_store:
                    self.generated_stores += 1
                return (self._gap(),
                        self._burst_block(self._burst_bank), is_store)
            if rng.random() < self.miss_prob * self._solo_miss_fraction:
                self.generated_misses += 1
                is_store = rng.random() < self.store_prob
                if is_store:
                    self.generated_stores += 1
                return (self._gap(), self._miss_block(), is_store)
            return (self._gap(), self._hot_block(), False)

        if rng.random() < self.miss_prob:
            self.generated_misses += 1
            is_store = rng.random() < self.store_prob
            if is_store:
                self.generated_stores += 1
            return (self._gap(), self._miss_block(), is_store)
        return (self._gap(), self._hot_block(), False)
