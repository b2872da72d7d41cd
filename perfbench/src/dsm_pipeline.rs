//! `dsm_pipeline`: the paper's own workload. A planted-homology DNA pair
//! goes through the per-cell heuristic, the blocked heuristic, the exact
//! pre-process (no I/O) and phase-2 scattered global alignment, on two
//! in-process DSM nodes over the channel transport with no faults — the
//! pipeline `cluster::run_workload` runs, with each call timed on its own.
//!
//! This is the only workload that touches `dsm` and `strategies`; batch,
//! serve and the prefilter do nothing here. The UDP transport is left out:
//! on a two-core host its retransmit timers make loopback runs measure
//! the scheduler. DSM cost-model ("era") times are virtual and appear only
//! under `dsm.era_*`, never next to host wall time.

use crate::host::peak_rss_mib;
use crate::report::{LayerValue, Outcome};
use crate::trace::{per_request, Recorder};
use crate::{
    fill_e2e, fill_trace_cost, gen, latencies, op_rates, setup_between, time, timed_loop, Ctx,
    MIN_OPS,
};
use genomedsm_core::{sw_score_linear, HeuristicParams, LocalRegion, Scoring};
use genomedsm_dsm::{DsmConfig, NetworkModel, NodeStats};
use genomedsm_kernels::{BandScorer, KernelChoice};
use genomedsm_seq::fasta::read_fasta_file;
use genomedsm_strategies::{
    heuristic_align_dsm, heuristic_block_align, phase2_scattered_with, preprocess_align,
    BandScheme, BlockedConfig, ChunkPlan, HeuristicDsmConfig, PreprocessConfig,
};
use std::time::Instant;

const NODES: usize = 2;
/// Row band and column chunk of the pre-process strategy (as in
/// `cluster::run_workload`) and of the stand-alone band-kernel figure.
const BAND: usize = 256;

/// Everything one pipeline produces that must not depend on node count.
#[derive(Debug, PartialEq)]
struct Answers {
    heuristic: Vec<LocalRegion>,
    blocked: Vec<LocalRegion>,
    preprocess: (Vec<Vec<i64>>, i32),
    phase2: Vec<genomedsm_core::nw::RegionAlignment>,
}

fn params() -> HeuristicParams {
    HeuristicParams {
        open_threshold: 8,
        close_threshold: 8,
        min_score: 15,
    }
}

/// Runs the four calls on `nodes` nodes, each inside a span when traced.
/// Returns the answers, the DP cells (3·m·n plus the phase-2 region
/// areas) and the DSM statistics summed over nodes and calls.
fn pipeline(
    s: &[u8],
    t: &[u8],
    nodes: usize,
    rec: Option<(&Recorder, u64)>,
) -> (Answers, u64, NodeStats) {
    fn call<R>(rec: Option<(&Recorder, u64)>, name: &'static str, f: impl FnOnce() -> R) -> R {
        match rec {
            Some((rec, req)) => rec.span("strategies", name, None, req, |_| f()),
            None => f(),
        }
    }
    let sc = Scoring::paper();
    let p = params();
    let h = call(rec, "heuristic", || {
        heuristic_align_dsm(s, t, &sc, &p, &HeuristicDsmConfig::new(nodes))
    });
    let b = call(rec, "blocked", || {
        heuristic_block_align(s, t, &sc, &p, &BlockedConfig::new(nodes, 8, 8))
    });
    let mut config = PreprocessConfig::new(nodes);
    config.band = BandScheme::Balanced(BAND);
    config.chunk = ChunkPlan::Fixed(BAND);
    config.threshold = p.min_score;
    config.kernel = KernelChoice::Auto;
    let pre = call(rec, "preprocess", || preprocess_align(s, t, &sc, &config))
        .expect("pre-process without I/O cannot fail");
    let dsm = DsmConfig::new(nodes).network(NetworkModel::paper_cluster());
    let p2 = call(rec, "phase2", || {
        phase2_scattered_with(s, t, &b.regions, &sc, &dsm)
    })
    .expect("phase 2 on live nodes cannot fail");

    let area: u64 = b
        .regions
        .iter()
        .map(|r| ((r.s_end - r.s_begin) * (r.t_end - r.t_begin)) as u64)
        .sum();
    let cells = 3 * (s.len() * t.len()) as u64 + area;
    let mut stats = NodeStats::default();
    for n in h
        .per_node
        .iter()
        .chain(&b.per_node)
        .chain(&pre.per_node)
        .chain(&p2.per_node)
    {
        stats.merge(n);
    }
    let answers = Answers {
        heuristic: h.regions,
        blocked: b.regions,
        preprocess: (pre.result, pre.best_score),
        phase2: p2.alignments,
    };
    (answers, cells, stats)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let path = ctx.work.join("pair.fa");
    std::fs::write(&path, gen::dsm_pair(ctx.seed)).expect("write the pair FASTA");
    let mut o = Outcome::default();
    let read = || read_fasta_file(&path).expect("generated FASTA loads");
    let (pair, first) = time(read);
    let mut setup = vec![first];
    let (s, t) = (pair[0].seq.as_bytes(), pair[1].seq.as_bytes());
    o.fact("len", format!("{}x{}", s.len(), t.len()));
    o.fact("nodes", NODES);
    o.fact("transport", "channel");

    // The 1-node answers every 2-node pipeline must reproduce (this also
    // warms up).
    let (serial, _, _) = pipeline(s, t, 1, None);
    let mut failed = 0u64;
    let loop_seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let ops = timed_loop(
        loop_seconds,
        MIN_OPS,
        |_| {
            let (answers, cells, _) = pipeline(s, t, NODES, None);
            failed += u64::from(answers != serial);
            cells
        },
        setup_between(&mut setup, || drop(read())),
    );
    o.attempted = ops.len() as u64;
    let peak_rss_mb = peak_rss_mib();

    if ctx.traced {
        let rec = Recorder::new();
        let from = rec.now();
        let mut dsm: Vec<NodeStats> = Vec::new();
        let traced = timed_loop(
            loop_seconds,
            MIN_OPS,
            |i| {
                let (answers, _, stats) = rec.span("bench", "pipeline", None, i as u64, |_| {
                    pipeline(s, t, NODES, Some((&rec, i as u64)))
                });
                failed += u64::from(answers != serial);
                dsm.push(stats);
                0
            },
            |_| {},
        );
        let to = rec.now();
        o.attempted += traced.len() as u64;
        let spans = rec.spans();
        for (metric, name) in [
            ("strategies.heuristic_s", "heuristic"),
            ("strategies.blocked_s", "blocked"),
            ("strategies.preprocess_s", "preprocess"),
            ("strategies.phase2_s", "phase2"),
        ] {
            let v: Vec<f64> = per_request(&spans, name).into_values().collect();
            o.layer(metric, LayerValue::of(&v));
        }
        let col = |f: &dyn Fn(&NodeStats) -> f64| -> LayerValue {
            LayerValue::of(&dsm.iter().map(f).collect::<Vec<_>>())
        };
        o.layer("dsm.msgs_sent", col(&|n| n.msgs_sent as f64));
        o.layer("dsm.bytes_sent", col(&|n| n.bytes_sent as f64));
        o.layer("dsm.page_fetches", col(&|n| n.page_fetches as f64));
        o.layer("dsm.diffs_sent", col(&|n| n.diffs_sent as f64));
        o.layer("dsm.invalidations", col(&|n| n.invalidations as f64));
        o.layer("dsm.era_lock_cv_s", col(&|n| n.lock_cv.as_secs_f64()));
        o.layer("dsm.era_barrier_s", col(&|n| n.barrier.as_secs_f64()));
        o.layer("dsm.era_comm_s", col(&|n| n.communication.as_secs_f64()));
        o.layer("db.load_s", LayerValue::of(&setup));
        // Hosts without a SIMD engine have no band kernel; the figure then
        // reads 0 as for any bypassed layer.
        if let Some((gcups, best)) = band_kernel(s, t) {
            let want = sw_score_linear(s, t, &Scoring::paper(), 0).best_score;
            o.check("band kernel finds the scalar best score", best == want);
            o.layer("kernels.band_gcups", LayerValue::single(gcups));
        }
        fill_trace_cost(
            &mut o,
            &latencies(&ops),
            &latencies(&traced),
            &spans,
            (from, to),
        );
    } else {
        fill_e2e(
            &mut o,
            &setup,
            &latencies(&ops),
            &op_rates(&ops, 1),
            peak_rss_mb,
        );
    }
    o.failed = failed;
    o.check(
        "every 2-node pipeline equals the 1-node pipeline",
        failed == 0,
    );
    o
}

/// The striped band kernel alone on one thread: the whole matrix as
/// bands of `BAND` rows, each streamed in `BAND`-column chunks with the
/// band above's bottom row as its top border. Returns GCUPS and the best
/// score over all bands, or `None` when the host has no striped engine.
fn band_kernel(s: &[u8], t: &[u8]) -> Option<(f64, i32)> {
    let sc = Scoring::paper();
    let start = Instant::now();
    // `above[j]` = H[last row of the band above][j], j = 0..=n.
    let mut above = vec![0i32; t.len() + 1];
    let mut best = 0;
    for band in s.chunks(BAND) {
        let mut scorer =
            BandScorer::new(KernelChoice::Auto, band, (s.len(), t.len()), &sc, 0, None)?;
        let mut below = vec![0i32];
        let (mut hits, mut saved) = (Vec::new(), Vec::new());
        for (k, chunk) in t.chunks(BAND).enumerate() {
            let first = k * BAND + 1;
            scorer.advance(
                chunk,
                &above[first - 1..first + chunk.len()],
                first,
                &mut below,
                &mut hits,
                &mut saved,
            );
        }
        best = best.max(scorer.best_score());
        above = below;
    }
    let cells = (s.len() * t.len()) as f64;
    Some((cells / start.elapsed().as_secs_f64() / 1e9, best))
}
