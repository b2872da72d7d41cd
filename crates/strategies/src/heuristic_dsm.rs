//! Strategy 1 (§4.2): parallel heuristic alignment **without** blocking
//! factors.
//!
//! Work is assigned on a column basis: processor `p` computes columns
//! `p·n/P+1 ..= (p+1)·n/P` of every row (Fig. 8), keeping only two local
//! row slices. The wave-front evolves row by row: when processor `p`
//! finishes its slice of row `i`, it writes the border cell (its last
//! column) to shared memory and signals processor `p+1` through a
//! condition variable; `p+1` reads the value, acknowledges, and computes
//! its slice. "Each value of the border column is passed individually
//! between processors Pi and Pi+1. Thus, no blocking factors are used to
//! group any values" — this is exactly why the strategy synchronizes
//! heavily, the effect Table 1/Fig. 9 quantify.
//!
//! Barriers are used only at the beginning and end of the computation.

use crate::checkpoint::{run_elastic, run_with_takeover, Ledger, LedgerEndpoint, Units};
use crate::hcell_data::HCellData;
use crate::ring::{BorderEndpoint, ChunkRing};
use crate::Phase1Outcome;
use genomedsm_core::{finalize_queue, HCell, HeuristicParams, LocalRegion, RowKernel, Scoring};
use genomedsm_dsm::{DsmConfig, DsmSystem, Node};
use std::time::{Duration, Instant};

/// Configuration of the non-blocked heuristic strategy.
#[derive(Debug, Clone)]
pub struct HeuristicDsmConfig {
    /// DSM cluster configuration (node count, page size, network model).
    pub dsm: DsmConfig,
    /// Virtual cost of one heuristic cell update (era-calibrated default,
    /// see [`crate::costs`]).
    pub cell_cost: Duration,
}

impl HeuristicDsmConfig {
    /// A cluster of `nprocs` nodes with the paper-era network and kernel
    /// cost model.
    pub fn new(nprocs: usize) -> Self {
        Self {
            dsm: DsmConfig::new(nprocs).network(genomedsm_dsm::NetworkModel::paper_cluster()),
            cell_cost: crate::costs::HCELL_CELL,
        }
    }
}

/// Column range of processor `p` (1-based matrix columns, inclusive).
fn column_slice(n: usize, nprocs: usize, p: usize) -> (usize, usize) {
    let lo = p * n / nprocs + 1;
    let hi = (p + 1) * n / nprocs;
    (lo, hi)
}

/// The read-only inputs of strategy 1's wavefront.
struct RowWave<'a> {
    kernel: RowKernel,
    s: &'a [u8],
    t: &'a [u8],
    nprocs: usize,
    cell_cost: Duration,
}

impl<'a> RowWave<'a> {
    fn new(
        s: &'a [u8],
        t: &'a [u8],
        scoring: &Scoring,
        params: &HeuristicParams,
        config: &HeuristicDsmConfig,
    ) -> Self {
        Self {
            kernel: RowKernel::new(*scoring, *params),
            s,
            t,
            nprocs: config.dsm.nprocs,
            cell_cost: config.cell_cost,
        }
    }

    /// Virtual time of one work unit (one row of a column slice), the
    /// price of a scheduled rejoin's downtime.
    fn unit_time(&self) -> Duration {
        self.cell_cost
            .saturating_mul((self.t.len() / self.nprocs.max(1)).max(1) as u32)
    }

    /// Role `r`'s complete row loop. Per row: receive the left-border
    /// cell from role `r - 1` (role 0 uses the zero column), compute the
    /// slice, and hand the slice's last cell to role `r + 1` — one value
    /// per row, the strategy's signature. The last role instead flushes
    /// candidates running off the matrix's right edge.
    fn run_role<E: BorderEndpoint<HCellData> + ?Sized>(
        &self,
        node: &mut Node,
        ends: &mut E,
        r: usize,
        queue: &mut Vec<LocalRegion>,
    ) -> Result<(), E::Error> {
        let (m, n) = (self.s.len(), self.t.len());
        let (j_lo, j_hi) = column_slice(n, self.nprocs, r);
        // A slice can be empty when nprocs > n; such a role still relays
        // border cells so the pipeline stays connected.
        let width = (j_hi + 1).saturating_sub(j_lo);
        let mut prev = vec![HCell::fresh(); width + 1];
        let mut cur = vec![HCell::fresh(); width + 1];
        for i in 1..=m {
            let row = (i - 1) as u64;
            cur[0] = match r {
                0 => HCell::fresh(),
                _ => ends.pop(node, r - 1, row, 1)?[0].into(),
            };
            if width > 0 {
                self.kernel.process_row_segment(
                    i,
                    self.s[i - 1],
                    self.t,
                    j_lo,
                    &prev,
                    &mut cur,
                    queue,
                );
                node.advance(crate::costs::cells(self.cell_cost, width));
            }
            ends.unit_done(node)?;
            if r + 1 < self.nprocs {
                ends.push(node, r, row, &[HCellData(cur[width])])?;
            } else {
                self.kernel.flush_open(&cur[width], i, n, queue);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        // Bottom row: flush open candidates. Column n is excluded — the
        // right-edge rule above already flushed it on the last role.
        for (k, cell) in prev.iter().enumerate().skip(1) {
            let j = j_lo - 1 + k;
            if j < n {
                self.kernel.flush_open(cell, m, j, queue);
            }
        }
        Ok(())
    }

    /// One takeover-capable pass over `ledger`: the node's merged roles
    /// run in ascending order (role r's input producer is r-1, so earlier
    /// merged roles fully feed later ones through the log) and
    /// [`run_with_takeover`] re-executes roles whose node died. `cv_base`
    /// offsets the flow cv ids so campaign rounds sharing a node never
    /// alias a prior round's leftover signal surplus. Empty when this
    /// node fail-stopped.
    fn takeover_pass(
        &self,
        node: &mut Node,
        ledger: &Ledger<HCellData>,
        cv_base: u32,
        units: &mut Units,
    ) -> Vec<LocalRegion> {
        let nprocs = self.nprocs;
        let pieces = run_with_takeover(node, nprocs, |node, execute, resume, queue| {
            for &r in execute {
                let rings = r
                    .checked_sub(1)
                    .into_iter()
                    .chain((r + 1 < nprocs).then_some(r));
                let mut ends =
                    LedgerEndpoint::new(node, ledger, rings, cv_base, 1, execute, resume, units);
                self.run_role(node, &mut ends, r, queue)?;
            }
            Ok(())
        });
        pieces
            .map(|qs| qs.into_iter().flatten().collect())
            .unwrap_or_default()
    }
}

/// Runs strategy 1 on a simulated cluster and returns the finalized queue
/// of candidate alignments plus execution statistics.
pub fn heuristic_align_dsm(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    params: &HeuristicParams,
    config: &HeuristicDsmConfig,
) -> Phase1Outcome {
    let t0 = Instant::now();
    let wave = RowWave::new(s, t, scoring, params, config);
    let nprocs = wave.nprocs;

    let run = DsmSystem::run_wire(config.dsm.clone(), |node| {
        if node.supervised() {
            return crate::wire::WireRegions(tolerant_worker(node, &wave));
        }
        // Border rings: ring `b` moves cells from processor b to b+1.
        // Collective allocation: every node builds every ring handle.
        let mut rings: Vec<ChunkRing<HCellData>> = (0..nprocs.saturating_sub(1))
            .map(|b| ChunkRing::new(node, 1, 1, b, (2 * b) as u32, (2 * b + 1) as u32))
            .collect();
        node.barrier();
        let mut queue: Vec<LocalRegion> = Vec::new();
        let Ok(()) = wave.run_role(node, rings.as_mut_slice(), node.id(), &mut queue);
        node.barrier();
        crate::wire::WireRegions(queue)
    });

    let mut all: Vec<LocalRegion> = run.results.into_iter().flat_map(|w| w.0).collect();
    all = finalize_queue(all);
    let wall = run.stats.iter().map(|s| s.total).max().unwrap_or_default();
    Phase1Outcome {
        regions: all,
        per_node: run.stats,
        wall,
        host_wall: t0.elapsed(),
    }
}

/// Per-round result of an elastic campaign (see [`heuristic_campaign`]).
#[derive(Debug)]
pub struct CampaignRound {
    /// Finalized candidate regions of this round's workload.
    pub regions: Vec<LocalRegion>,
    /// Virtual wall of the round: the slowest node's elapsed virtual
    /// time across the workload, its boundary padding, and any rejoin
    /// downtime charged at the following boundary.
    pub wall: Duration,
}

/// Outcome of [`heuristic_campaign`].
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One entry per workload round, in execution order.
    pub rounds: Vec<CampaignRound>,
    /// Final per-node DSM statistics (cumulative over the campaign).
    pub per_node: Vec<genomedsm_dsm::NodeStats>,
    /// Real host time of the whole campaign.
    pub host_wall: Duration,
}

/// Runs `rounds` back-to-back strategy-1 workloads on one supervised
/// cluster — the elastic-membership campaign behind the `paper rejoin`
/// sweep (summary claim 20). A rank killed by the fault plan sits out
/// the rest of its workload (survivors adopt its role via the push
/// ledgers); if the plan also schedules a rejoin it is re-admitted at
/// the next workload boundary and later rounds run at full strength,
/// while without one the cluster stays degraded at N−k for the rest of
/// the campaign. Every round recomputes the same alignment, so each
/// round's regions must equal a fault-free run's — the bench asserts
/// exactly that bit-identity.
pub fn heuristic_campaign(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    params: &HeuristicParams,
    config: &HeuristicDsmConfig,
    rounds: usize,
) -> CampaignOutcome {
    let t0 = Instant::now();
    let wave = RowWave::new(s, t, scoring, params, config);
    let nprocs = wave.nprocs;
    // Per-round barrier budget: 1 for the ledger barrier plus the
    // takeover sweep's worst case of 1 + (nprocs − 1) rounds.
    let budget = nprocs.max(1) + 2;

    let run = DsmSystem::run(config.dsm.clone(), |node| {
        assert!(node.supervised(), "elastic campaigns require supervision");
        let mut units = Units::new(node);
        let mut marks: Vec<Duration> = Vec::with_capacity(rounds + 1);
        let per_round = run_elastic(node, rounds, budget, wave.unit_time(), |node, w| {
            marks.push(node.now());
            // Fresh ledger and cv range per round: a prior round's push
            // log or leftover ack-signal surplus must not leak forward.
            let ledger = Ledger::<HCellData>::new(node, nprocs, s.len().max(1), 1);
            node.barrier();
            wave.takeover_pass(node, &ledger, (2 * nprocs * w) as u32, &mut units)
        });
        marks.push(node.now());
        (per_round, marks)
    });

    let mut results = run.results;
    let mut out = Vec::with_capacity(rounds);
    for w in 0..rounds {
        let regions: Vec<LocalRegion> = results
            .iter_mut()
            .flat_map(|(r, _)| std::mem::take(&mut r[w]))
            .collect();
        let wall = results
            .iter()
            .map(|(_, marks)| marks[w + 1].saturating_sub(marks[w]))
            .max()
            .unwrap_or_default();
        out.push(CampaignRound {
            regions: finalize_queue(regions),
            wall,
        });
    }
    CampaignOutcome {
        rounds: out,
        per_node: run.stats,
        host_wall: t0.elapsed(),
    }
}

/// Strategy 1 worker in tolerant mode (supervision enabled): border
/// cells flow through a per-role [`Ledger`] log instead of ring slots,
/// so a surviving node can adopt a dead neighbour's column slice and
/// re-execute it, replaying the corpse's recorded input/output chunks
/// bit-for-bit. The row loop is the plain path's; only the endpoint
/// differs.
fn tolerant_worker(node: &mut Node, wave: &RowWave<'_>) -> Vec<LocalRegion> {
    // Role r's push log holds its border cell for every row.
    let ledger = Ledger::<HCellData>::new(node, wave.nprocs, wave.s.len().max(1), 1);
    node.barrier();
    let mut units = Units::new(node);
    // A single workload wrapped in the elastic driver: a victim with a
    // scheduled rejoin is re-admitted at the closing boundary, so the run
    // always ends with full membership. Budget: the takeover sweep costs
    // at most 1 + deaths barrier rounds.
    let budget = wave.nprocs.max(1) + 2;
    let mut rounds = run_elastic(node, 1, budget, wave.unit_time(), |node, _| {
        wave.takeover_pass(node, &ledger, 0, &mut units)
    });
    rounds.pop().unwrap_or_default()
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn column_slices_partition_the_matrix() {
        let n = 103;
        let mut covered = 0;
        for p in 0..8 {
            let (lo, hi) = column_slice(n, 8, p);
            covered += hi + 1 - lo;
            if p > 0 {
                assert_eq!(lo, column_slice(n, 8, p - 1).1 + 1);
            }
        }
        assert_eq!(covered, n);
        assert_eq!(column_slice(n, 8, 7).1, n);
    }

    #[test]
    fn matches_serial_reference_small() {
        let (s, t, _) = planted_pair(
            300,
            300,
            &HomologyPlan {
                region_count: 3,
                region_len_mean: 60,
                region_len_jitter: 10,
                profile: genomedsm_seq::MutationProfile::similar(),
            },
            5,
        );
        let serial = heuristic_align(&s, &t, &SC, &params());
        for nprocs in [1, 2, 3, 4] {
            let out = heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(nprocs));
            assert_eq!(out.regions, serial, "nprocs = {nprocs}");
        }
    }

    #[test]
    fn empty_sequences_return_empty() {
        let out = heuristic_align_dsm(b"", b"ACGT", &SC, &params(), &HeuristicDsmConfig::new(2));
        assert!(out.regions.is_empty());
    }

    #[test]
    fn more_processors_than_columns_degenerates_gracefully() {
        // 3 columns, 8 processors: some slices are empty.
        let out = heuristic_align_dsm(
            b"ACGTACGT",
            b"ACG",
            &SC,
            &params(),
            &HeuristicDsmConfig::new(8),
        );
        let serial = heuristic_align(b"ACGTACGT", b"ACG", &SC, &params());
        assert_eq!(out.regions, serial);
    }

    fn tolerant(nprocs: usize) -> HeuristicDsmConfig {
        let mut c = HeuristicDsmConfig::new(nprocs);
        c.dsm = c.dsm.supervise(genomedsm_dsm::SupervisionConfig {
            enabled: true,
            detect_after: std::time::Duration::from_millis(40),
            watchdog: std::time::Duration::from_millis(400),
        });
        c
    }

    fn test_pair() -> (genomedsm_seq::DnaSeq, genomedsm_seq::DnaSeq) {
        let (s, t, _) = planted_pair(
            260,
            260,
            &HomologyPlan {
                region_count: 3,
                region_len_mean: 50,
                region_len_jitter: 10,
                profile: genomedsm_seq::MutationProfile::similar(),
            },
            11,
        );
        (s, t)
    }

    #[test]
    fn tolerant_mode_without_failures_matches_serial() {
        let (s, t) = test_pair();
        let serial = heuristic_align(&s, &t, &SC, &params());
        for nprocs in [1, 2, 4] {
            let out = heuristic_align_dsm(&s, &t, &SC, &params(), &tolerant(nprocs));
            assert_eq!(out.regions, serial, "nprocs = {nprocs}");
        }
    }

    #[test]
    fn single_death_mid_run_recovers_bit_identical() {
        let (s, t) = test_pair();
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(3);
        cfg.dsm = cfg
            .dsm
            .faults(std::sync::Arc::new(crate::KillPlan::new().kill(1, 97)));
        let out = heuristic_align_dsm(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
        let agg = out.aggregate();
        assert!(agg.takeovers >= 1, "takeovers {}", agg.takeovers);
    }

    #[test]
    fn last_node_death_is_recovered_by_the_barrier_sweep() {
        // The last role's border feeds no one, so its death goes
        // unnoticed until the final barrier; the sweep re-executes it
        // (adoption wraps to node 0).
        let (s, t) = test_pair();
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(3);
        cfg.dsm = cfg
            .dsm
            .faults(std::sync::Arc::new(crate::KillPlan::new().kill(2, 150)));
        let out = heuristic_align_dsm(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
    }

    #[test]
    fn contiguous_double_death_folds_onto_one_adopter() {
        let (s, t) = test_pair();
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(4);
        cfg.dsm = cfg.dsm.faults(std::sync::Arc::new(
            crate::KillPlan::new().kill(1, 60).kill(2, 120),
        ));
        let out = heuristic_align_dsm(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
    }

    #[test]
    fn stats_reflect_heavy_synchronization() {
        let (s, t, _) = planted_pair(400, 400, &HomologyPlan::paper_density(400), 6);
        let out = heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(4));
        let agg = out.aggregate();
        // 400 rows x 3 boundaries x (data + ack) = at least 2400 cv ops.
        assert!(agg.msgs_sent > 2000, "msgs {}", agg.msgs_sent);
    }
}
