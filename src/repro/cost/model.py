"""Device and algorithm constants of the cost model.

The defaults follow the paper's experimental setup (Section 6) where it is
explicit — 2048-byte pages, 512-byte records, 64 pages of expected memory,
128-byte plan nodes, 2 MB/s module-read bandwidth, 0.1 s activation
overhead — and early-1990s disk/CPU characteristics elsewhere.  Absolute
numbers only shift curves; the reproduction targets their *shapes*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog.statistics import RelationStats


@dataclass(frozen=True)
class CostModel:
    """All knobs of the analytic cost model, in seconds and bytes."""

    # --- storage device -------------------------------------------------
    page_bytes: int = 2048
    sequential_page_io: float = 0.005
    random_page_io: float = 0.020

    # --- CPU ------------------------------------------------------------
    cpu_per_tuple: float = 20e-6  # produce/copy one output tuple
    cpu_per_predicate: float = 5e-6  # evaluate one predicate
    cpu_per_compare: float = 2e-6  # one comparison (sort / merge)
    cpu_per_hash: float = 4e-6  # hash one tuple

    # --- B-tree indexes ---------------------------------------------------
    btree_key_bytes: int = 16  # key + record pointer in a leaf entry
    btree_root_cached: bool = True  # non-leaf levels assumed resident
    # Mackert/Lohman-style buffer-aware fetch accounting ([MaL89], cited by
    # the paper's footnote 2): when enabled, unclustered fetches are capped
    # by the expected number of DISTINCT heap pages touched (Cardenas'
    # formula) instead of one random I/O per matching record.  Off by
    # default to keep the paper-calibrated experiment numbers.
    buffer_aware_fetches: bool = False

    # --- parallel execution (Volcano exchange) ----------------------------
    # Starting one worker and moving one tuple across an exchange
    # boundary, as a Volcano system with real worker processes pays them.
    # The startup term makes parallel plans strictly worse than serial
    # ones at DOP=1, so the start-up decision procedure activates the
    # serial alternative when no parallelism is actually available.
    exchange_startup_seconds: float = 0.02  # per worker
    exchange_tuple_seconds: float = 5e-6  # per tuple crossing the exchange

    # --- dynamic plans ----------------------------------------------------
    choose_plan_overhead: float = 0.01  # per choose-plan decision (Section 5)
    plan_node_bytes: int = 128  # access-module bytes per operator node
    module_read_bandwidth: float = 2_000_000.0  # bytes/second
    activation_base: float = 0.1  # catalog validation + one seek (z)

    # --- counted-work CPU accounting ---------------------------------------
    # Model-time per unit of optimizer/decision work, calibrated to the
    # paper's DECstation measurements (27.1 s for static query-5
    # optimization; 5.8 s for 14,090 start-up cost evaluations).  Used where
    # CPU effort must be combined with modeled I/O and execution times —
    # deterministic and machine-independent, unlike wall-clock.
    optimizer_candidate_seconds: float = 0.06  # per plan candidate costed
    startup_eval_seconds: float = 4.1e-4  # per cost evaluation at start-up

    # --- memory -----------------------------------------------------------
    default_memory_pages: int = 64

    # ------------------------------------------------------------------
    # Derived storage quantities
    # ------------------------------------------------------------------
    def records_per_page(self, stats: RelationStats) -> int:
        """Data records per page (at least one)."""
        return max(1, self.page_bytes // stats.record_bytes)

    def data_pages(self, stats: RelationStats) -> int:
        """Heap-file pages of a relation."""
        return stats.pages(self.page_bytes)

    def leaf_pages(self, stats: RelationStats) -> int:
        """Leaf pages of a B-tree index over the relation."""
        entries_per_leaf = max(1, self.page_bytes // self.btree_key_bytes)
        return max(1, -(-stats.cardinality // entries_per_leaf))

    def btree_height(self, stats: RelationStats) -> int:
        """Number of non-leaf levels traversed for a single index probe.

        With :attr:`btree_root_cached` the non-leaf levels are assumed
        buffer-resident, so a probe costs one leaf I/O.
        """
        if self.btree_root_cached:
            return 1
        leaves = self.leaf_pages(stats)
        fanout = max(2, self.page_bytes // self.btree_key_bytes)
        return 1 + max(1, math.ceil(math.log(max(leaves, 2), fanout)))

    # ------------------------------------------------------------------
    # Access-module time model (Section 6)
    # ------------------------------------------------------------------
    def module_read_time(self, node_count: int) -> float:
        """Seconds to read an access module of ``node_count`` plan nodes."""
        return node_count * self.plan_node_bytes / self.module_read_bandwidth

    def activation_time(self, node_count: int) -> float:
        """Full activation I/O: validation/seek plus module transfer."""
        return self.activation_base + self.module_read_time(node_count)
