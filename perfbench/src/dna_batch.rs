//! `dna_batch`: ragged short DNA queries against a few thousand records
//! through `BatchEngine::search`, top-10, two scheduler workers.
//!
//! Nearly all the work is the packed linear kernel, the lane planner and
//! the work-stealing scheduler; prefilter, serve and DSM do nothing. A
//! kernel or scheduler change shows here; a prefilter or codec change
//! should read as "no change".

use crate::host::peak_rss_mib;
use crate::report::{LayerValue, Outcome};
use crate::trace::{per_request, Recorder};
use crate::{
    fill_e2e, fill_trace_cost, gen, latencies, offer, op_rates, setup_between, time, timed_loop,
    Ctx,
};
use crate::{MIN_OPS, TOP_K};
use genomedsm_batch::{
    oracle_search_mode, plan_lane_groups_fitting, run_jobs, BatchConfig, BatchEngine, Hit,
    SchedulerConfig, ScoreMode, SeqDatabase, TopK,
};
use genomedsm_core::{sw_score_linear, Scoring};
use genomedsm_kernels::{
    effective_lanes, fits_i16_query, score_batch_packed, Isa, KernelChoice, PackedProfile,
};
use std::ops::Range;
use std::time::Instant;

pub fn run(ctx: &Ctx) -> Outcome {
    let inputs = gen::dna_batch(ctx.seed);
    let db_path = ctx.work.join("dna_db.fa");
    std::fs::write(&db_path, &inputs.db_fasta).expect("write the database FASTA");
    let mut o = Outcome::default();
    let load = || SeqDatabase::load_fasta_file(&db_path).expect("generated FASTA loads");
    let (db, first) = time(load);
    let mut setup = vec![first];
    let batches: Vec<Vec<&[u8]>> = inputs
        .batches
        .iter()
        .map(|b| b.iter().map(Vec::as_slice).collect())
        .collect();
    o.fact("records", db.len());
    o.fact("arena_bytes", db.total_bases());
    o.fact("l2_bytes", ctx.host.l2_bytes);
    o.fact("batches", batches.len());
    o.fact("queries_per_batch", gen::dna_batch::QUERIES_PER_BATCH);
    o.fact("query_len", format!("{:?}", gen::dna_batch::QUERY_LEN));
    o.fact("workers", ctx.workers);

    let config = BatchConfig {
        top_k: TOP_K,
        scheduler: SchedulerConfig {
            workers: ctx.workers,
            window: 0,
        },
        ..BatchConfig::default()
    };
    let engine = BatchEngine::new(config);
    // Warm-up, and the reference answer of every batch.
    let reference: Vec<Vec<Vec<Hit>>> =
        batches.iter().map(|b| engine.search(&db, b).hits).collect();

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
            let out = engine.search(&db, &batches[b]);
            failed += u64::from(out.hits != reference[b]);
            out.stats.cells
        },
        setup_between(&mut setup, || drop(load())),
    );
    o.attempted = ops.len() as u64;
    let peak_rss_mb = peak_rss_mib();

    if ctx.traced {
        let rec = Recorder::new();
        let from = rec.now();
        let mut shapes: Vec<OpShape> = Vec::new();
        let mut diverged = 0u64;
        let traced = timed_loop(
            loop_seconds,
            MIN_OPS,
            |i| {
                let b = i % batches.len();
                let (hits, shape) = traced_search(&rec, i as u64, &db, &batches[b], &config);
                diverged += u64::from(hits != reference[b]);
                shapes.push(shape);
                0
            },
            |_| {},
        );
        let to = rec.now();
        o.attempted += traced.len() as u64;
        failed += diverged;
        o.check(
            "rebuilt batch search returns exactly BatchEngine::search's hits",
            diverged == 0,
        );
        o.layer("db.load_s", LayerValue::of(&setup));
        layer_metrics(&mut o, &rec, &shapes, ctx, &db, &batches);
        fill_trace_cost(
            &mut o,
            &latencies(&ops),
            &latencies(&traced),
            &rec.spans(),
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

    // Off the clock: a homolog query and a background query against the
    // scalar oracle.
    let sample = &batches[0][..2];
    let want = oracle_search_mode(&db, sample, &ScoreMode::Dna, &Scoring::paper(), TOP_K);
    o.check(
        "sampled queries match the scalar oracle",
        want[..] == reference[0][..2],
    );
    o.check(
        "every repeated search returned the reference hits",
        failed == 0,
    );
    o
}

/// Shape counters of one rebuilt search.
struct OpShape {
    lane_groups: usize,
    padding_rows: usize,
    packed_rows: usize,
    jobs: usize,
    wall: f64,
}

/// One scheduler job of the rebuilt search.
struct Job {
    queries: Vec<usize>,
    targets: Range<usize>,
    packed: bool,
}

/// `BatchEngine::search` rebuilt from the batch crate's public pieces —
/// planner, packed kernel, top-k and scheduler — with a span around each
/// call, so layer times describe exactly the work the engine does. The
/// caller asserts the hits equal the engine's.
fn traced_search(
    rec: &Recorder,
    req: u64,
    db: &SeqDatabase,
    queries: &[&[u8]],
    config: &BatchConfig,
) -> (Vec<Vec<Hit>>, OpShape) {
    let t0 = Instant::now();
    let (hits, mut shape) = rec.span("bench", "search", None, req, |root| {
        let plan = rec.span("planner", "plan", Some(root), req, |_| {
            plan_lane_groups_fitting(queries, effective_lanes(config.kernel), |len| {
                fits_i16_query(len, &config.scoring)
            })
        });
        // The engine's slab rule: a few jobs per worker per unit.
        let units: Vec<(Vec<usize>, bool)> = plan
            .groups
            .iter()
            .map(|g| (g.clone(), true))
            .chain(plan.scalar.iter().map(|&q| (vec![q], false)))
            .collect();
        let (workers, _) = config.scheduler.resolved(usize::MAX);
        let target_jobs = (workers * 4).div_ceil(units.len().max(1)).max(2);
        let slab = db.len().div_ceil(target_jobs).max(1);
        let mut jobs = Vec::new();
        for (queries, packed) in &units {
            for s in (0..db.len()).step_by(slab) {
                jobs.push(Job {
                    queries: queries.clone(),
                    targets: s..(s + slab).min(db.len()),
                    packed: *packed,
                });
            }
        }
        let shape = OpShape {
            lane_groups: plan.groups.len(),
            padding_rows: plan.padding_rows,
            packed_rows: plan
                .groups
                .iter()
                .flatten()
                .map(|&q| queries[q].len())
                .sum(),
            jobs: jobs.len(),
            wall: 0.0,
        };
        let isa = Isa::best_available();
        let mut best: Vec<TopK> = (0..queries.len())
            .map(|_| TopK::new(config.top_k))
            .collect();
        run_jobs(
            jobs,
            &config.scheduler,
            |_, job: Job| {
                rec.span("scheduler", "job", Some(root), req, |jid| {
                    exec_job(rec, req, jid, &job, db, queries, &config.scoring, isa)
                })
            },
            |_, partials: Vec<(usize, TopK)>| {
                rec.span("scheduler", "merge", Some(root), req, |_| {
                    for (q, tk) in partials {
                        best[q].merge(tk);
                    }
                });
            },
        );
        (best.into_iter().map(TopK::into_sorted).collect(), shape)
    });
    shape.wall = t0.elapsed().as_secs_f64();
    (hits, shape)
}

#[allow(clippy::too_many_arguments)]
fn exec_job(
    rec: &Recorder,
    req: u64,
    parent: usize,
    job: &Job,
    db: &SeqDatabase,
    queries: &[&[u8]],
    scoring: &Scoring,
    isa: Isa,
) -> Vec<(usize, TopK)> {
    let mut out: Vec<(usize, TopK)> = job.queries.iter().map(|&q| (q, TopK::new(TOP_K))).collect();
    let profile = if job.packed {
        let qs: Vec<&[u8]> = job.queries.iter().map(|&q| queries[q]).collect();
        rec.span("kernels", "profile_build", Some(parent), req, |_| {
            PackedProfile::new(&qs, scoring, isa)
        })
    } else {
        None
    };
    match profile {
        Some(mut prof) => rec.span("kernels", "score_packed", Some(parent), req, |_| {
            for (t, target) in db.slab(job.targets.clone()) {
                for (lane, r) in score_batch_packed(&mut prof, target, 0).iter().enumerate() {
                    offer(&mut out[lane].1, t, r);
                }
            }
        }),
        None => rec.span("core", "sw_score_linear", Some(parent), req, |_| {
            for (t, target) in db.slab(job.targets.clone()) {
                for (lane, &q) in job.queries.iter().enumerate() {
                    offer(
                        &mut out[lane].1,
                        t,
                        &sw_score_linear(queries[q], target, scoring, 0),
                    );
                }
            }
        }),
    }
    out
}

fn layer_metrics(
    o: &mut Outcome,
    rec: &Recorder,
    ops: &[OpShape],
    ctx: &Ctx,
    db: &SeqDatabase,
    batches: &[Vec<&[u8]>],
) {
    let spans = rec.spans();
    let per_op = |name: &str| -> Vec<f64> {
        let m = per_request(&spans, name);
        (0..ops.len() as u64)
            .map(|r| m.get(&r).copied().unwrap_or(0.0))
            .collect()
    };
    let col = |f: &dyn Fn(&OpShape) -> f64| -> Vec<f64> { ops.iter().map(f).collect() };

    o.layer("planner.plan_s", LayerValue::of(&per_op("plan")));
    o.layer(
        "planner.padding_frac",
        LayerValue::of(&col(&|s| {
            s.padding_rows as f64 / (s.padding_rows + s.packed_rows) as f64
        })),
    );
    o.layer(
        "planner.lane_groups",
        LayerValue::of(&col(&|s| s.lane_groups as f64)),
    );
    o.layer("scheduler.jobs", LayerValue::of(&col(&|s| s.jobs as f64)));
    o.layer("scheduler.merge_s", LayerValue::of(&per_op("merge")));
    let job = per_op("job");
    let busy: Vec<f64> = job
        .iter()
        .zip(ops)
        .map(|(j, s)| j / (ctx.workers as f64 * s.wall))
        .collect();
    o.layer("scheduler.busy_frac", LayerValue::of(&busy));
    let build = per_op("profile_build");
    let frac: Vec<f64> = build.iter().zip(&job).map(|(b, j)| b / j).collect();
    o.layer("kernels.profile_build_frac", LayerValue::of(&frac));

    // One worker against two on the first batch, through the engine.
    let wall_of = |workers: usize| {
        let engine = BatchEngine::new(BatchConfig {
            top_k: TOP_K,
            scheduler: SchedulerConfig { workers, window: 0 },
            ..BatchConfig::default()
        });
        let t = Instant::now();
        std::hint::black_box(engine.search(db, &batches[0]));
        t.elapsed().as_secs_f64()
    };
    o.layer(
        "scheduler.speedup_2w",
        LayerValue::single(wall_of(1) / wall_of(2)),
    );

    // The packed kernel alone on one thread: the first batch's lane groups
    // against every record.
    let scoring = Scoring::paper();
    let plan = plan_lane_groups_fitting(&batches[0], effective_lanes(KernelChoice::Auto), |len| {
        fits_i16_query(len, &scoring)
    });
    let t = Instant::now();
    let mut packed_cells = 0u64;
    for group in &plan.groups {
        let qs: Vec<&[u8]> = group.iter().map(|&q| batches[0][q]).collect();
        if let Some(mut prof) = PackedProfile::new(&qs, &scoring, Isa::best_available()) {
            for t in 0..db.len() {
                std::hint::black_box(score_batch_packed(&mut prof, db.seq(t), 0));
            }
            packed_cells +=
                qs.iter().map(|q| q.len() as u64).sum::<u64>() * db.total_bases() as u64;
        }
    }
    let packed_s = t.elapsed().as_secs_f64();
    if packed_cells > 0 {
        o.layer(
            "kernels.packed_linear_gcups",
            LayerValue::single(packed_cells as f64 / packed_s / 1e9),
        );
    }

    // The scalar single-pair baseline on a sample of pairs: two queries
    // against every fourth record.
    let t = Instant::now();
    let mut scalar_cells = 0u64;
    for q in &batches[0][..2] {
        for r in (0..db.len()).step_by(4) {
            std::hint::black_box(sw_score_linear(q, db.seq(r), &scoring, 0));
            scalar_cells += (q.len() * db.seq(r).len()) as u64;
        }
    }
    o.layer(
        "core.scalar_gcups",
        LayerValue::single(scalar_cells as f64 / t.elapsed().as_secs_f64() / 1e9),
    );
}
