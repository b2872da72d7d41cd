//! Strategy 2 (§4.3): parallel heuristic alignment **with** blocking
//! factors.
//!
//! The similarity matrix is divided into `bands` row groups × `blocks`
//! column groups (Fig. 11). Bands are assigned to processors cyclically
//! (band `b` → processor `b mod P`). A processor computes its band block
//! by block, left to right; when it finishes a block it sends the block's
//! **last row** to the owner of the band below in one chunk — "grouping
//! many values from the border column into one single communication".
//! Chunk transfer uses the same cv-synchronized shared-memory protocol as
//! strategy 1, but the ring holds a whole band of blocks so producers can
//! run ahead (the pipelining Fig. 11 illustrates: P0 starts block (1,4)
//! while P1 is at (2,1)).
//!
//! Table 3's *blocking multiplier* `a × h` maps to `blocks = a·P` and
//! `bands = h·P`.

use crate::checkpoint::{run_elastic, run_with_takeover, Ledger, LedgerEndpoint, Units};
use crate::hcell_data::HCellData;
use crate::ring::{BorderEndpoint, ChunkRing};
use crate::Phase1Outcome;
use genomedsm_core::{finalize_queue, HCell, HeuristicParams, LocalRegion, RowKernel, Scoring};
use genomedsm_dsm::{DsmConfig, DsmSystem, Node};
use std::time::{Duration, Instant};

/// How the matrix is cut into bands and blocks.
///
/// §4.3: "the similar array can be divided into bands and blocks of
/// different heights and widths. Small chunks can be used at the
/// beginning of computation in order to allow the processors to start
/// computing earlier. In the same way, small chunks can also be used at
/// the end of the computation in order to make processors finish
/// calculating later."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridPlan {
    /// Equal-sized bands and blocks.
    Uniform,
    /// The first and last `edge_splits` bands/blocks are each halved, so
    /// the pipeline fills and drains on small chunks.
    Ramped {
        /// How many edge bands/blocks to halve on each side.
        edge_splits: usize,
    },
}

impl GridPlan {
    /// Cuts `total` items into `parts` ranges (1-based inclusive bounds),
    /// applying the plan's edge refinement.
    pub fn bounds(&self, total: usize, parts: usize) -> Vec<(usize, usize)> {
        let uniform: Vec<(usize, usize)> =
            (0..parts).map(|k| slice_bounds(total, parts, k)).collect();
        match *self {
            GridPlan::Uniform => uniform,
            GridPlan::Ramped { edge_splits } => {
                let n = uniform.len();
                let mut out = Vec::with_capacity(n + 2 * edge_splits);
                for (k, &(lo, hi)) in uniform.iter().enumerate() {
                    let len = (hi + 1).saturating_sub(lo);
                    let split = (k < edge_splits || k >= n.saturating_sub(edge_splits)) && len >= 2;
                    if split {
                        let mid = lo + len / 2 - 1;
                        out.push((lo, mid));
                        out.push((mid + 1, hi));
                    } else {
                        out.push((lo, hi));
                    }
                }
                out
            }
        }
    }
}

/// Configuration of the blocked heuristic strategy.
#[derive(Debug, Clone)]
pub struct BlockedConfig {
    /// Number of row bands (the paper's best 50 kBP run uses 40).
    pub bands: usize,
    /// Number of column blocks per band.
    pub blocks: usize,
    /// Band/block sizing plan (uniform, or ramped edges per §4.3).
    pub plan: GridPlan,
    /// DSM cluster configuration.
    pub dsm: DsmConfig,
    /// Virtual cost of one heuristic cell update (era-calibrated default,
    /// see [`crate::costs`]).
    pub cell_cost: Duration,
}

impl BlockedConfig {
    /// `nprocs` nodes, an explicit `bands × blocks` grid, paper-era
    /// network and kernel cost model.
    pub fn new(nprocs: usize, bands: usize, blocks: usize) -> Self {
        assert!(bands >= 1 && blocks >= 1, "need at least one band/block");
        Self {
            bands,
            blocks,
            plan: GridPlan::Uniform,
            dsm: DsmConfig::new(nprocs).network(genomedsm_dsm::NetworkModel::paper_cluster()),
            cell_cost: crate::costs::HCELL_CELL,
        }
    }

    /// Enables §4.3's small-edge-chunks refinement.
    pub fn ramped(mut self, edge_splits: usize) -> Self {
        self.plan = GridPlan::Ramped { edge_splits };
        self
    }

    /// Table 3 semantics: a blocking multiplier `a × h` divides the matrix
    /// into `h·P` bands, each containing `a·P` blocks.
    pub fn from_multiplier(nprocs: usize, a: usize, h: usize) -> Self {
        Self::new(nprocs, h * nprocs, a * nprocs)
    }
}

/// 1-based inclusive bounds of slice `k` of `total` items cut into
/// `parts`.
pub(crate) fn slice_bounds(total: usize, parts: usize, k: usize) -> (usize, usize) {
    (k * total / parts + 1, (k + 1) * total / parts)
}

/// Computes one block of one band. `top` is the passage row above the
/// block (`width + 1` cells, index 0 = diagonal corner); `left_col[r]`
/// holds the block's left-border cell for band row `r` (updated in place
/// to this block's right column). Returns the block's bottom row
/// (`width + 1` cells) to pass to the band below.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_block(
    kernel: &RowKernel,
    s: &[u8],
    t: &[u8],
    i0: usize,
    i1: usize,
    c_lo: usize,
    width: usize,
    top: Vec<HCell>,
    left_col: &mut [HCell],
    queue: &mut Vec<LocalRegion>,
) -> Vec<HCell> {
    let h = (i1 + 1).saturating_sub(i0);
    if h == 0 {
        return top; // empty band: the passage row flows through
    }
    if width == 0 {
        // Empty block: its "bottom row" is the single border cell of the
        // band's last row, already computed by the previous block.
        return vec![left_col[h]];
    }
    debug_assert_eq!(top.len(), width + 1);
    let mut prev = top;
    let mut cur = vec![HCell::fresh(); width + 1];
    for r in 1..=h {
        let i = i0 + r - 1;
        cur[0] = left_col[r];
        kernel.process_row_segment(i, s[i - 1], t, c_lo, &prev, &mut cur, queue);
        left_col[r] = cur[width];
        std::mem::swap(&mut prev, &mut cur);
    }
    prev
}

/// The read-only inputs of strategy 2's wavefront.
struct BandWave<'a> {
    kernel: RowKernel,
    s: &'a [u8],
    t: &'a [u8],
    band_bounds: Vec<(usize, usize)>,
    block_bounds: Vec<(usize, usize)>,
    /// Longest border chunk: the widest block plus its corner.
    max_chunk: usize,
    nprocs: usize,
    cell_cost: Duration,
}

impl BandWave<'_> {
    /// Executes every band whose role is in `roles`, in ascending band
    /// order — the wavefront order: band `b` consumes only band `b-1`'s
    /// chunks. Band `b` belongs to role `b mod P`, which pops its top
    /// border from ring `role - 1` (mod P) and pushes its bottom row on
    /// ring `role`. A role's pops and pushes are dense: every band but
    /// the first pops and every band but the last pushes, one chunk per
    /// block.
    fn run_bands<E: BorderEndpoint<HCellData> + ?Sized>(
        &self,
        node: &mut Node,
        ends: &mut E,
        roles: &[usize],
        queue: &mut Vec<LocalRegion>,
    ) -> Result<(), E::Error> {
        let (m, n) = (self.s.len(), self.t.len());
        let nprocs = self.nprocs;
        let bands = self.band_bounds.len();
        let blocks = self.block_bounds.len();
        let mut pops = vec![0u64; nprocs];
        let mut pushes = vec![0u64; nprocs];
        for band in 0..bands {
            let role = band % nprocs;
            if !roles.contains(&role) {
                continue;
            }
            let (i0, i1) = self.band_bounds[band];
            let h = (i1 + 1).saturating_sub(i0);
            let mut left_col = vec![HCell::fresh(); h + 1];
            for k in 0..blocks {
                let (c_lo, c_hi) = self.block_bounds[k];
                let width = (c_hi + 1).saturating_sub(c_lo);
                let top: Vec<HCell> = if band == 0 {
                    vec![HCell::fresh(); width + 1]
                } else {
                    let (ring, ord) = ((role + nprocs - 1) % nprocs, pops[role]);
                    pops[role] += 1;
                    ends.pop(node, ring, ord, width + 1)?
                        .into_iter()
                        .map(HCell::from)
                        .collect()
                };
                let bottom = process_block(
                    &self.kernel,
                    self.s,
                    self.t,
                    i0,
                    i1,
                    c_lo,
                    width,
                    top,
                    &mut left_col,
                    queue,
                );
                node.advance(crate::costs::cells(self.cell_cost, h * width));
                ends.unit_done(node)?;
                // Right edge of the matrix: flush open candidates row by
                // row (mirrors the serial driver's per-row flush).
                if k + 1 == blocks {
                    for r in 1..=h {
                        self.kernel.flush_open(&left_col[r], i0 + r - 1, n, queue);
                    }
                }
                if band + 1 < bands {
                    let chunk: Vec<HCellData> = bottom.iter().copied().map(HCellData).collect();
                    let ord = pushes[role];
                    pushes[role] += 1;
                    ends.push(node, role, ord, &chunk)?;
                } else {
                    // Bottom row of the matrix: flush (column n excluded,
                    // the right-edge rule above already covered it).
                    for (idx, cell) in bottom.iter().enumerate().skip(1) {
                        let j = c_lo - 1 + idx;
                        if j < n {
                            self.kernel.flush_open(cell, m, j, queue);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Runs strategy 2 on a simulated cluster.
pub fn heuristic_block_align(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    params: &HeuristicParams,
    config: &BlockedConfig,
) -> Phase1Outcome {
    let t0 = Instant::now();
    let block_bounds = config.plan.bounds(t.len(), config.blocks);
    let max_chunk = block_bounds
        .iter()
        .map(|&(lo, hi)| (hi + 1).saturating_sub(lo) + 1)
        .max()
        .unwrap_or(1);
    let wave = BandWave {
        kernel: RowKernel::new(*scoring, *params),
        s,
        t,
        band_bounds: config.plan.bounds(s.len(), config.bands),
        block_bounds,
        max_chunk,
        nprocs: config.dsm.nprocs,
        cell_cost: config.cell_cost,
    };
    let nprocs = wave.nprocs;

    let run = DsmSystem::run_wire(config.dsm.clone(), |node: &mut Node| {
        if node.supervised() {
            return crate::wire::WireRegions(tolerant_worker(node, &wave));
        }
        // One ring per ordered neighbour pair (q -> q+1 mod P); ring `q`
        // is produced by q. Capacity = one band of blocks, so a producer
        // can finish a whole band before its consumer starts.
        let mut rings: Vec<ChunkRing<HCellData>> = (0..nprocs)
            .map(|q| {
                let cv = (2 * q) as u32;
                ChunkRing::new(node, wave.block_bounds.len(), max_chunk, q, cv, cv + 1)
            })
            .collect();
        node.barrier();
        let mut queue: Vec<LocalRegion> = Vec::new();
        let Ok(()) = wave.run_bands(node, rings.as_mut_slice(), &[node.id()], &mut queue);
        node.barrier();
        crate::wire::WireRegions(queue)
    });

    let all: Vec<LocalRegion> = run.results.into_iter().flat_map(|w| w.0).collect();
    let wall = run.stats.iter().map(|s| s.total).max().unwrap_or_default();
    Phase1Outcome {
        regions: finalize_queue(all),
        per_node: run.stats,
        wall,
        host_wall: t0.elapsed(),
    }
}

/// Strategy 2 worker in tolerant mode (supervision enabled): border
/// chunks flow through a per-role [`Ledger`] log instead of ring slots.
/// A role here is a node's cyclic band set; a surviving node adopts a
/// dead role and re-executes its bands, replaying recorded chunks. The
/// band loop is the plain path's; only the endpoint differs.
fn tolerant_worker(node: &mut Node, wave: &BandWave<'_>) -> Vec<LocalRegion> {
    let nprocs = wave.nprocs;
    let bands = wave.band_bounds.len();
    let blocks = wave.block_bounds.len();
    // Role r pushes at most one chunk per block of each of its bands.
    let log_entries = bands.div_ceil(nprocs) * blocks;
    let ledger = Ledger::<HCellData>::new(node, nprocs, log_entries, wave.max_chunk);
    node.barrier();
    let mut units = Units::new(node);

    // One work unit is one band×block tile; a scheduled rejoin's virtual
    // downtime is priced at that granularity.
    let tile_cells = (wave.s.len() / bands.max(1)).max(1) * (wave.t.len() / blocks.max(1)).max(1);
    let unit_time = wave
        .cell_cost
        .saturating_mul(tile_cells.min(u32::MAX as usize) as u32);
    // A single workload wrapped in the elastic driver: a victim with a
    // scheduled rejoin is re-admitted at the closing boundary, so the run
    // always ends with full membership.
    let mut rounds = run_elastic(node, 1, nprocs.max(1) + 2, unit_time, |node, _| {
        run_with_takeover(node, nprocs, |node, execute, resume, queue| {
            let mut ends = LedgerEndpoint::new(
                node,
                &ledger,
                0..nprocs,
                0,
                blocks as u64,
                execute,
                resume,
                &mut units,
            );
            wave.run_bands(node, &mut ends, execute, queue)
        })
    });
    match rounds.pop().flatten() {
        Some(qs) => qs.into_iter().flatten().collect(),
        None => Vec::new(), // this worker fail-stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::heuristic_align;
    use genomedsm_seq::{planted_pair, HomologyPlan, MutationProfile};

    const SC: Scoring = Scoring::paper();

    fn params() -> HeuristicParams {
        HeuristicParams {
            open_threshold: 8,
            close_threshold: 8,
            min_score: 15,
        }
    }

    fn workload(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
        let (s, t, _) = planted_pair(
            len,
            len,
            &HomologyPlan {
                region_count: 4,
                region_len_mean: 60,
                region_len_jitter: 20,
                profile: MutationProfile::similar(),
            },
            seed,
        );
        (s.into_bytes(), t.into_bytes())
    }

    #[test]
    fn multiplier_matches_paper_example() {
        // "a 3 × 5 blocking multiplier for 8 processors divides the matrix
        // into 40 bands, each one containing 24 blocks".
        let c = BlockedConfig::from_multiplier(8, 3, 5);
        assert_eq!(c.bands, 40);
        assert_eq!(c.blocks, 24);
    }

    #[test]
    fn matches_serial_reference_across_grids() {
        let (s, t) = workload(320, 11);
        let serial = heuristic_align(&s, &t, &SC, &params());
        for (nprocs, bands, blocks) in [
            (1, 4, 4),
            (2, 4, 4),
            (2, 8, 3),
            (4, 8, 8),
            (3, 7, 5),
            (4, 16, 2),
        ] {
            let out = heuristic_block_align(
                &s,
                &t,
                &SC,
                &params(),
                &BlockedConfig::new(nprocs, bands, blocks),
            );
            assert_eq!(
                out.regions, serial,
                "nprocs={nprocs} bands={bands} blocks={blocks}"
            );
        }
    }

    #[test]
    fn degenerate_grids_match_serial() {
        let (s, t) = workload(90, 12);
        let serial = heuristic_align(&s, &t, &SC, &params());
        // More bands than rows, more blocks than columns.
        for (nprocs, bands, blocks) in [(2, 120, 7), (2, 5, 100), (4, 100, 100)] {
            let out = heuristic_block_align(
                &s,
                &t,
                &SC,
                &params(),
                &BlockedConfig::new(nprocs, bands, blocks),
            );
            assert_eq!(out.regions, serial, "bands={bands} blocks={blocks}");
        }
    }

    #[test]
    fn single_band_single_block_is_serial() {
        let (s, t) = workload(120, 13);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let out = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(1, 1, 1));
        assert_eq!(out.regions, serial);
    }

    #[test]
    fn fewer_messages_than_unblocked() {
        let (s, t) = workload(400, 14);
        let blocked = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(4, 8, 8));
        let unblocked =
            crate::heuristic_align_dsm(&s, &t, &SC, &params(), &crate::HeuristicDsmConfig::new(4));
        let mb = blocked.aggregate().msgs_sent;
        let mu = unblocked.aggregate().msgs_sent;
        assert!(mb * 2 < mu, "blocked should message far less: {mb} vs {mu}");
        assert_eq!(blocked.regions, unblocked.regions);
    }

    #[test]
    #[should_panic(expected = "at least one band")]
    fn zero_bands_rejected() {
        let _ = BlockedConfig::new(2, 0, 4);
    }

    fn tolerant(nprocs: usize, bands: usize, blocks: usize) -> BlockedConfig {
        let mut c = BlockedConfig::new(nprocs, bands, blocks);
        c.dsm = c.dsm.supervise(genomedsm_dsm::SupervisionConfig {
            enabled: true,
            detect_after: std::time::Duration::from_millis(40),
            watchdog: std::time::Duration::from_millis(400),
        });
        c
    }

    #[test]
    fn tolerant_mode_without_failures_matches_serial() {
        let (s, t) = workload(300, 21);
        let serial = heuristic_align(&s, &t, &SC, &params());
        for (nprocs, bands, blocks) in [(1, 4, 4), (2, 8, 3), (4, 8, 8), (3, 7, 5)] {
            let out =
                heuristic_block_align(&s, &t, &SC, &params(), &tolerant(nprocs, bands, blocks));
            assert_eq!(out.regions, serial, "nprocs={nprocs}");
        }
    }

    #[test]
    fn single_death_mid_run_recovers_bit_identical() {
        let (s, t) = workload(300, 22);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(3, 9, 6);
        cfg.dsm = cfg
            .dsm
            .faults(std::sync::Arc::new(crate::KillPlan::new().kill(1, 8)));
        let out = heuristic_block_align(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
        assert!(out.aggregate().takeovers >= 1);
    }

    #[test]
    fn death_of_final_band_owner_is_swept() {
        // The owner of the last band pushes nothing, so its death is
        // only discovered at the barrier and recovered by the sweep.
        let (s, t) = workload(260, 23);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(3, 6, 4);
        // Node 2 owns bands 2 and 5 (the last): 8 blocks total, die on
        // its very last block.
        cfg.dsm = cfg
            .dsm
            .faults(std::sync::Arc::new(crate::KillPlan::new().kill(2, 8)));
        let out = heuristic_block_align(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
    }

    #[test]
    fn double_death_with_ramped_grid_recovers() {
        let (s, t) = workload(280, 24);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(4, 8, 8).ramped(1);
        cfg.dsm = cfg.dsm.faults(std::sync::Arc::new(
            crate::KillPlan::new().kill(1, 11).kill(2, 23),
        ));
        let out = heuristic_block_align(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
    }
}

#[cfg(test)]
mod grid_tests {
    use super::*;
    use genomedsm_core::heuristic_align;
    use genomedsm_seq::{planted_pair, HomologyPlan, MutationProfile};

    const SC: Scoring = Scoring::paper();

    fn params() -> HeuristicParams {
        HeuristicParams {
            open_threshold: 8,
            close_threshold: 8,
            min_score: 15,
        }
    }

    #[test]
    fn uniform_plan_matches_slice_bounds() {
        let b = GridPlan::Uniform.bounds(103, 8);
        assert_eq!(b.len(), 8);
        assert_eq!(b[0].0, 1);
        assert_eq!(b[7].1, 103);
    }

    #[test]
    fn ramped_plan_halves_edges_and_covers_everything() {
        let b = GridPlan::Ramped { edge_splits: 2 }.bounds(160, 8);
        assert_eq!(b.len(), 12); // 8 + 2 splits on each side
        assert_eq!(b[0].0, 1);
        assert_eq!(b.last().unwrap().1, 160);
        for w in b.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0, "bounds must be contiguous");
        }
        // Edge chunks are half the size of middle ones.
        let width = |r: (usize, usize)| r.1 + 1 - r.0;
        assert_eq!(width(b[0]), 10);
        assert_eq!(width(b[5]), 20);
        assert_eq!(width(*b.last().unwrap()), 10);
    }

    #[test]
    fn ramped_plan_degenerate_sizes() {
        // Single-row ranges cannot be split.
        let b = GridPlan::Ramped { edge_splits: 3 }.bounds(4, 4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.last().unwrap().1, 4);
        // Zero total yields empty-ish bounds without panicking.
        let b = GridPlan::Ramped { edge_splits: 1 }.bounds(0, 3);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn ramped_strategy_matches_serial() {
        let (s, t, _) = planted_pair(
            300,
            300,
            &HomologyPlan {
                region_count: 3,
                region_len_mean: 60,
                region_len_jitter: 10,
                profile: MutationProfile::similar(),
            },
            51,
        );
        let serial = heuristic_align(&s, &t, &SC, &params());
        for nprocs in [1, 2, 4] {
            let out = heuristic_block_align(
                &s,
                &t,
                &SC,
                &params(),
                &BlockedConfig::new(nprocs, 6, 6).ramped(2),
            );
            assert_eq!(out.regions, serial, "nprocs={nprocs}");
        }
    }

    #[test]
    fn ramped_reduces_pipeline_fill_time() {
        // With few, huge blocks the fill dominates; halving the edge
        // blocks lets downstream processors start earlier. Compare
        // simulated cluster times at 4 procs, 4x4 grid.
        let (s, t, _) = planted_pair(1200, 1200, &HomologyPlan::paper_density(1200), 52);
        let uniform = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(4, 4, 4));
        let ramped = heuristic_block_align(
            &s,
            &t,
            &SC,
            &params(),
            &BlockedConfig::new(4, 4, 4).ramped(1),
        );
        assert_eq!(uniform.regions, ramped.regions);
        assert!(
            ramped.wall < uniform.wall,
            "ramped {is:?} should beat uniform {was:?}",
            is = ramped.wall,
            was = uniform.wall
        );
    }
}

#[cfg(test)]
mod feature_interplay_tests {
    use super::*;
    use genomedsm_core::heuristic_align;
    use genomedsm_seq::{planted_pair, HomologyPlan};

    const SC: Scoring = Scoring::paper();

    fn params() -> HeuristicParams {
        HeuristicParams {
            open_threshold: 8,
            close_threshold: 8,
            min_score: 15,
        }
    }

    /// JIAJIA's home migration must be invisible to results.
    #[test]
    fn migration_does_not_change_results() {
        let (s, t, _) = planted_pair(400, 400, &HomologyPlan::paper_density(2_500), 81);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut config = BlockedConfig::new(4, 8, 8);
        config.dsm = config.dsm.home_migration(true);
        let out = heuristic_block_align(&s, &t, &SC, &params(), &config);
        assert_eq!(out.regions, serial);
    }

    /// Heterogeneous node speeds slow the clock but not the answers.
    #[test]
    fn heterogeneity_does_not_change_results() {
        let (s, t, _) = planted_pair(400, 400, &HomologyPlan::paper_density(2_500), 82);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let homogeneous =
            heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(4, 8, 8));
        let mut config = BlockedConfig::new(4, 8, 8);
        config.dsm = config.dsm.speeds(vec![1.0, 0.5, 1.0, 0.25]);
        let hetero = heuristic_block_align(&s, &t, &SC, &params(), &config);
        assert_eq!(hetero.regions, serial);
        assert!(
            hetero.wall > homogeneous.wall,
            "slow nodes must lengthen the simulated run: {:?} vs {:?}",
            hetero.wall,
            homogeneous.wall
        );
    }

    /// All features at once: ramped grid + migration + heterogeneity.
    #[test]
    fn all_features_together_stay_correct() {
        let (s, t, _) = planted_pair(350, 350, &HomologyPlan::paper_density(2_000), 83);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut config = BlockedConfig::new(3, 6, 6).ramped(1);
        config.dsm = config.dsm.home_migration(true).speeds(vec![1.0, 0.7, 0.9]);
        let out = heuristic_block_align(&s, &t, &SC, &params(), &config);
        assert_eq!(out.regions, serial);
    }
}
