//! The blocked strategy on plain shared memory.
//!
//! The calibration question for this reproduction is how the paper's DSM
//! strategy maps onto today's shared-memory stacks.
//! [`heuristic_block_align_shm`] runs the *same* band × block wavefront,
//! block by block through [`crate::blocked`]'s block kernel, with plain
//! scoped threads and channels — no pages, no diffs, no write notices —
//! so the pipeline test and the criterion bench can separate the
//! algorithmic cost of the wavefront from the DSM protocol overhead.

use crate::blocked::{process_block, slice_bounds};
use crate::Phase1Outcome;
use genomedsm_core::{finalize_queue, HCell, HeuristicParams, LocalRegion, RowKernel, Scoring};
use genomedsm_dsm::NodeStats;
use std::time::Instant;

/// The blocked wavefront on plain threads + channels (no DSM). Identical
/// results to [`crate::heuristic_block_align`], minus the protocol.
#[allow(clippy::too_many_arguments)]
pub fn heuristic_block_align_shm(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    params: &HeuristicParams,
    nprocs: usize,
    bands: usize,
    blocks: usize,
) -> Phase1Outcome {
    assert!(nprocs >= 1 && bands >= 1 && blocks >= 1);
    let t0 = Instant::now();
    let kernel = RowKernel::new(*scoring, *params);
    let m = s.len();
    let n = t.len();

    // Channel q carries bottom-row chunks from processor q to q+1 mod P.
    // Unbounded: the ring flow control is unnecessary off-DSM because
    // memory is shared and chunks are owned Vecs.
    let mut senders = Vec::with_capacity(nprocs);
    let mut receivers = Vec::with_capacity(nprocs);
    for _ in 0..nprocs {
        let (tx, rx) = crossbeam::channel::unbounded::<Vec<HCell>>();
        senders.push(tx);
        receivers.push(rx);
    }

    // Processor p receives from channel (p-1) mod P and produces on
    // channel p (consumed by p+1 mod P): rotate the receivers by one.
    receivers.rotate_right(1);

    let queues: Vec<Vec<LocalRegion>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nprocs);
        for (p, from_rx) in receivers.into_iter().enumerate() {
            let to_tx = senders[p].clone();
            handles.push(scope.spawn(move || {
                let mut queue: Vec<LocalRegion> = Vec::new();
                let mut band = p;
                while band < bands {
                    let (i0, i1) = slice_bounds(m, bands, band);
                    let h = (i1 + 1).saturating_sub(i0);
                    let mut left_col = vec![HCell::fresh(); h + 1];
                    for k in 0..blocks {
                        let (c_lo, c_hi) = slice_bounds(n, blocks, k);
                        let width = (c_hi + 1).saturating_sub(c_lo);
                        let top: Vec<HCell> = if band == 0 {
                            vec![HCell::fresh(); width + 1]
                        } else {
                            match from_rx.recv() {
                                Ok(top) => top,
                                Err(_) => {
                                    panic!("band {band}: upstream worker hung up mid-wavefront")
                                }
                            }
                        };
                        let bottom = process_block(
                            &kernel,
                            s,
                            t,
                            i0,
                            i1,
                            c_lo,
                            width,
                            top,
                            &mut left_col,
                            &mut queue,
                        );
                        if k + 1 == blocks {
                            for r in 1..=h {
                                kernel.flush_open(&left_col[r], i0 + r - 1, n, &mut queue);
                            }
                        }
                        if band + 1 < bands {
                            if to_tx.send(bottom).is_err() {
                                panic!("band {band}: downstream worker hung up mid-wavefront");
                            }
                        } else {
                            for (idx, cell) in bottom.iter().enumerate().skip(1) {
                                let j = c_lo - 1 + idx;
                                if j < n {
                                    kernel.flush_open(cell, m, j, &mut queue);
                                }
                            }
                        }
                    }
                    band += nprocs;
                }
                queue
            }));
        }
        drop(senders);
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    Phase1Outcome {
        regions: finalize_queue(queues.into_iter().flatten().collect()),
        per_node: vec![NodeStats::default(); nprocs],
        // No virtual clock off-DSM: report the host's real wall for both.
        wall: t0.elapsed(),
        host_wall: t0.elapsed(),
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

    #[test]
    fn shm_port_matches_serial_and_dsm() {
        let (s, t, _) = planted_pair(
            350,
            350,
            &HomologyPlan {
                region_count: 4,
                region_len_mean: 70,
                region_len_jitter: 10,
                profile: MutationProfile::similar(),
            },
            41,
        );
        let serial = heuristic_align(&s, &t, &SC, &params());
        for nprocs in [1, 2, 4] {
            let shm = heuristic_block_align_shm(&s, &t, &SC, &params(), nprocs, 8, 8);
            assert_eq!(shm.regions, serial, "nprocs={nprocs}");
        }
        let dsm = crate::heuristic_block_align(
            &s,
            &t,
            &SC,
            &params(),
            &crate::BlockedConfig::new(2, 8, 8),
        );
        assert_eq!(dsm.regions, serial);
    }

    #[test]
    fn degenerate_sizes() {
        let serial = heuristic_align(b"ACGTACGTAC", b"ACGT", &SC, &params());
        let shm = heuristic_block_align_shm(b"ACGTACGTAC", b"ACGT", &SC, &params(), 4, 6, 6);
        assert_eq!(shm.regions, serial);
    }
}
