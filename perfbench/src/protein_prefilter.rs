//! `protein_prefilter`: protein queries through `prefiltered_search`
//! (BLOSUM62, gap open −11, extend −1).
//!
//! Half the queries have a planted family in the database, half face only
//! random background, so the composition bound prunes some DP launches
//! but not most. This is the only workload that drives the `index` crate,
//! the prefiltered search and the affine kernels; its survivors are scored
//! one pair at a time on one thread, which the unfiltered engine figure
//! (`prefilter.unfiltered_gcups`) puts in context.

use crate::host::peak_rss_mib;
use crate::report::{LayerValue, Outcome};
use crate::trace::{per_request, Recorder};
use crate::{
    fill_e2e, fill_trace_cost, gen, latencies, offer, op_rates, setup_between, time, timed_loop,
    Ctx,
};
use crate::{MIN_OPS, TOP_K};
use genomedsm_batch::{
    build_index, oracle_search_mode, plan_lane_groups_fitting, prefiltered_search, BatchConfig,
    BatchEngine, Hit, SchedulerConfig, ScoreMode, SeqDatabase, TopK,
};
use genomedsm_core::{MatrixScoring, Scoring};
use genomedsm_index::{PrefilterStats, ProteinIndex, QueryBound};
use genomedsm_kernels::{
    effective_lanes, fits_i16_affine_query, kernel_for, score_batch_packed_affine, Isa,
    KernelChoice, PackedAffineProfile,
};
use std::time::Instant;

pub fn run(ctx: &Ctx) -> Outcome {
    let inputs = gen::protein(ctx.seed);
    let db_path = ctx.work.join("protein_db.fa");
    std::fs::write(&db_path, &inputs.db_fasta).expect("write the database FASTA");
    let mut o = Outcome::default();
    // Set-up is the database load plus the index build; each part is
    // also kept on its own for the traced run.
    let (mut load_s, mut index_s) = (Vec::new(), Vec::new());
    let mut set_up = || {
        let (db, load) =
            time(|| SeqDatabase::load_protein_fasta_file(&db_path).expect("generated FASTA loads"));
        let (index, build) = time(|| build_index(&db));
        load_s.push(load);
        index_s.push(build);
        (db, index)
    };
    let ((db, index), first) = time(&mut set_up);
    let mut setup = vec![first];
    let batches: Vec<Vec<&[u8]>> = inputs
        .batches
        .iter()
        .map(|b| b.iter().map(Vec::as_slice).collect())
        .collect();
    let ms = MatrixScoring::blosum62();
    o.fact("records", db.len());
    o.fact("arena_bytes", db.total_bases());
    o.fact("batches", batches.len());
    o.fact("queries_per_batch", gen::protein::QUERIES_PER_BATCH);
    o.fact("query_len", format!("{:?}", gen::protein::QUERY_LEN));
    o.fact("family_size", gen::protein::FAMILY_SIZE);

    // Warm-up, and the reference answer and pruning counters per batch.
    let reference: Vec<(Vec<Vec<Hit>>, PrefilterStats)> = batches
        .iter()
        .map(|b| prefiltered_search(&db, &index, b, &ms, KernelChoice::Auto, TOP_K))
        .collect();
    let cells_of =
        |b: &[&[u8]]| b.iter().map(|q| q.len() as u64).sum::<u64>() * db.total_bases() as u64;

    let mut failed = 0u64;
    let loop_seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let ops = timed_loop(
        loop_seconds,
        MIN_OPS,
        |i| {
            let b = i % batches.len();
            let (hits, _) =
                prefiltered_search(&db, &index, &batches[b], &ms, KernelChoice::Auto, TOP_K);
            failed += u64::from(hits != reference[b].0);
            cells_of(&batches[b])
        },
        setup_between(&mut setup, || drop(set_up())),
    );
    o.attempted = ops.len() as u64;
    let peak_rss_mb = peak_rss_mib();

    // The unfiltered engine on the same inputs: the answer the prefilter
    // must reproduce in full, and the speed it must beat.
    let all: Vec<&[u8]> = batches.iter().flatten().copied().collect();
    let engine = BatchEngine::new(BatchConfig {
        mode: ScoreMode::Protein(ms),
        top_k: TOP_K,
        scheduler: SchedulerConfig {
            workers: ctx.workers,
            window: 0,
        },
        ..BatchConfig::default()
    });
    let t = Instant::now();
    let unfiltered = engine.search(&db, &all);
    let unfiltered_s = t.elapsed().as_secs_f64();
    let prefiltered: Vec<Vec<Hit>> = reference.iter().flat_map(|r| r.0.clone()).collect();
    o.check(
        "prefiltered answer equals the unfiltered BatchEngine answer",
        prefiltered == unfiltered.hits,
    );

    if ctx.traced {
        let rec = Recorder::new();
        let from = rec.now();
        let mut diverged = 0u64;
        let mut survivor_cells = 0u64;
        let traced = timed_loop(
            loop_seconds,
            MIN_OPS,
            |i| {
                let b = i % batches.len();
                let (hits, stats, dp_cells) =
                    traced_search(&rec, i as u64, &db, &index, &batches[b], &ms);
                diverged += u64::from(hits != reference[b].0 || stats != reference[b].1);
                survivor_cells += dp_cells;
                0
            },
            |_| {},
        );
        let to = rec.now();
        o.attempted += traced.len() as u64;
        failed += diverged;
        o.check(
            "rebuilt prefiltered search matches prefiltered_search",
            diverged == 0,
        );
        let spans = rec.spans();
        let per_op = |name: &str| -> Vec<f64> { per_request(&spans, name).into_values().collect() };
        let dp = per_op("score_affine");
        o.layer("db.load_s", LayerValue::of(&load_s));
        o.layer("index.build_s", LayerValue::of(&index_s));
        o.layer("index.bound_s", LayerValue::of(&per_op("bound")));
        o.layer("prefilter.dp_s", LayerValue::of(&dp));
        o.layer(
            "kernels.striped_affine_gcups",
            LayerValue::single(survivor_cells as f64 / dp.iter().sum::<f64>() / 1e9),
        );
        let evaluated: usize = reference.iter().map(|r| r.1.evaluated).sum();
        let pruned: usize = reference.iter().map(|r| r.1.pruned).sum();
        let scored: Vec<f64> = reference.iter().map(|r| r.1.scored as f64).collect();
        o.layer(
            "prefilter.pruned_frac",
            LayerValue::single(pruned as f64 / evaluated as f64),
        );
        o.layer("prefilter.dp_launches", LayerValue::of(&scored));
        o.layer(
            "prefilter.unfiltered_gcups",
            LayerValue::single(unfiltered.stats.cells as f64 / unfiltered_s / 1e9),
        );
        o.layer(
            "kernels.packed_affine_gcups",
            LayerValue::single(packed_affine_gcups(&db, &all, &ms)),
        );
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
            &op_rates(&ops, batches.len()),
            peak_rss_mb,
        );
    }
    o.failed = failed;

    // Off the clock: a planted-family query and a background query
    // against the scalar Gotoh oracle.
    let sample = &batches[0][..2];
    let want = oracle_search_mode(
        &db,
        sample,
        &ScoreMode::Protein(ms),
        &Scoring::paper(),
        TOP_K,
    );
    o.check(
        "sampled queries match the scalar oracle",
        want[..] == reference[0].0[..2],
    );
    o.check(
        "every repeated search returned the reference hits",
        failed == 0,
    );
    o
}

/// `prefiltered_search` rebuilt from the index and kernel crates' public
/// functions with a span around each bound computation and each DP
/// launch. Returns the hits, the pruning counters and the DP cells of
/// the survivors.
fn traced_search(
    rec: &Recorder,
    req: u64,
    db: &SeqDatabase,
    index: &ProteinIndex,
    queries: &[&[u8]],
    ms: &MatrixScoring,
) -> (Vec<Vec<Hit>>, PrefilterStats, u64) {
    let kernel = kernel_for(KernelChoice::Auto);
    let mut stats = PrefilterStats::default();
    let mut cells = 0u64;
    let hits = rec.span("bench", "prefiltered_search", None, req, |root| {
        queries
            .iter()
            .map(|q| {
                let scan = rec.span("index", "bound", Some(root), req, |_| {
                    index.scan_order(&QueryBound::new(q, ms))
                });
                let mut tk = TopK::new(TOP_K);
                for (t, bound) in scan {
                    let full =
                        tk.len() == TOP_K && tk.worst().is_some_and(|w| bound < i64::from(w.score));
                    if bound < 1 || full {
                        break;
                    }
                    stats.scored += 1;
                    cells += (q.len() * db.seq(t).len()) as u64;
                    let r = rec.span("kernels", "score_affine", Some(root), req, |_| {
                        kernel.score_affine(q, db.seq(t), ms, 0)
                    });
                    offer(&mut tk, t, &r);
                }
                tk.into_sorted()
            })
            .collect()
    });
    stats.evaluated = queries.len() * db.len();
    stats.pruned = stats.evaluated - stats.scored;
    (hits, stats, cells)
}

/// Lane-packed affine scoring of every query against every record on one
/// thread: what survivors would run at if they were packed.
fn packed_affine_gcups(db: &SeqDatabase, queries: &[&[u8]], ms: &MatrixScoring) -> f64 {
    let plan = plan_lane_groups_fitting(queries, effective_lanes(KernelChoice::Auto), |len| {
        fits_i16_affine_query(len, ms)
    });
    let t = Instant::now();
    let mut cells = 0u64;
    for group in &plan.groups {
        let qs: Vec<&[u8]> = group.iter().map(|&q| queries[q]).collect();
        if let Some(mut prof) = PackedAffineProfile::new(&qs, ms, Isa::best_available()) {
            for r in 0..db.len() {
                std::hint::black_box(score_batch_packed_affine(&mut prof, db.seq(r), 0));
            }
            cells += qs.iter().map(|q| q.len() as u64).sum::<u64>() * db.total_bases() as u64;
        }
    }
    cells as f64 / t.elapsed().as_secs_f64() / 1e9
}
