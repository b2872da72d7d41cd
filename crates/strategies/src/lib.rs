//! The paper's three parallel strategies for local sequence alignment on
//! the DSM substrate, plus phase 2 and modern shared-memory ports.
//!
//! | Strategy | Paper | Module | Character |
//! |----------|-------|--------|-----------|
//! | `heuristic` | §4.2 | [`heuristic_dsm`] | wavefront, column partition, **per-cell** border handoff via lock-free cv protocol — approximate (Martins heuristic), slow on synchronization |
//! | `heuristic_block` | §4.3 | [`blocked`] | bands × blocks with a blocking multiplier; border rows cross in **chunks** — approximate, much faster |
//! | `pre_process` | §5 | [`preprocess`] | exact SW scores, no candidate tracking; result matrix of threshold hits + selected columns saved to disk |
//! | phase 2 | §4.4 | [`phase2`] | scattered-mapping global alignment of the phase-1 regions, no locks/cvs |
//! | shared-memory port | (baseline) | [`rayon_port`] | the same blocked wavefront on plain threads — quantifies the DSM protocol overhead |
//!
//! All strategies drive the *same* [`genomedsm_core::RowKernel`] (or plain
//! SW recurrence for `pre_process`) that the serial reference uses, so
//! parallel and serial results are identical cell-for-cell; the
//! integration tests assert exactly that.
//!
//! **One compute loop per strategy, two border endpoints.** Each
//! strategy's wavefront is written once, generic over a crate-private
//! border-endpoint trait: the plain path moves borders through
//! [`ring::ChunkRing`]s and nothing else; with supervision on,
//! the tolerant path moves them through the ledger-backed
//! [`checkpoint::FlowChannel`]s, ticks a fail-stop/heartbeat hook per
//! work unit, and runs the same loop under
//! [`checkpoint::run_with_takeover`], the one takeover driver. Strategy 3
//! keeps two band loops (its plain path replays from band checkpoints)
//! around one shared band-chunk routine.

#![warn(missing_docs)]
// Index-based loops are the clearest way to write DP stencils.
#![allow(clippy::needless_range_loop)]

pub mod blocked;
pub mod checkpoint;
pub mod costs;
pub mod hcell_data;
pub mod heuristic_dsm;
pub mod phase2;
pub mod preprocess;
pub mod rayon_port;
pub mod reverse_parallel;
pub mod ring;
pub mod wire;

pub use blocked::{heuristic_block_align, BlockedConfig, GridPlan};
pub use checkpoint::{KillPlan, StrategyError, StrategyResult};
pub use heuristic_dsm::{
    heuristic_align_dsm, heuristic_campaign, CampaignOutcome, CampaignRound, HeuristicDsmConfig,
};
pub use phase2::{phase2_scattered, phase2_scattered_pool, phase2_scattered_with};
pub use preprocess::{
    preprocess_align, BandScheme, ChunkPlan, IoMode, PreprocessConfig, PreprocessOutcome,
};
pub use rayon_port::heuristic_block_align_shm;
pub use reverse_parallel::reverse_align_all_parallel;
pub use wire::{WireIndexed, WireRegions};

use genomedsm_core::LocalRegion;
use genomedsm_dsm::NodeStats;
use std::time::Duration;

/// Result of a phase-1 strategy run: the finalized queue of candidate
/// alignments plus execution measurements.
#[derive(Debug, Clone)]
pub struct Phase1Outcome {
    /// Candidate local alignments, sorted by size and deduplicated.
    pub regions: Vec<LocalRegion>,
    /// Per-node DSM statistics (index = node id).
    pub per_node: Vec<NodeStats>,
    /// Total execution time of the simulated cluster: the maximum node
    /// virtual clock (computation at the calibrated per-cell cost plus
    /// protocol waits). The paper's speed-ups are computed on this.
    pub wall: Duration,
    /// Real time the simulation took on the host (diagnostic only).
    pub host_wall: Duration,
}

impl Phase1Outcome {
    /// Aggregated statistics over all nodes.
    pub fn aggregate(&self) -> NodeStats {
        let mut agg = NodeStats::default();
        for s in &self.per_node {
            agg.merge(s);
        }
        agg
    }

    /// The Fig. 10 execution-time breakdown over all nodes.
    pub fn breakdown(&self) -> genomedsm_dsm::StatsBreakdown {
        genomedsm_dsm::breakdown_many(&self.per_node)
    }
}
