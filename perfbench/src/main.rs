//! The GenomeDSM benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dna_batch|protein_prefilter|serve_mixed|dsm_pipeline> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from the seed, sets up (timed
//! separately as `setup_s`), runs its operation back to back for the given
//! number of seconds, and checks every answer off the clock. `--trace 0`
//! reports the end-to-end metrics. `--trace 1` runs the operation untraced
//! for half the time and then with spans recorded around each call the
//! benchmark makes into a layer's public functions, and reports the
//! per-layer metrics and the tracing overhead instead. The last
//! stdout line is one JSON object; a run record with host facts and input
//! sizes is stored under `.perfbench_out/runs/`. A failed correctness
//! check exits with status 1.

mod dna_batch;
mod dsm_pipeline;
mod gen;
mod host;
mod protein_prefilter;
mod report;
mod serve_mixed;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = [
    "dna_batch",
    "protein_prefilter",
    "serve_mixed",
    "dsm_pipeline",
];

/// Top-k of every search workload.
pub const TOP_K: usize = 10;

/// Where inputs and run records go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Directory for this run's generated input files.
    pub work: PathBuf,
    /// Threads and connections the load may use: `min(2, nproc)`.
    pub workers: usize,
    pub host: host::HostFacts,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        traced: traced.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let host = host::HostFacts::probe();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        work: work.clone(),
        workers: host.nproc.min(2),
        host,
    };
    let outcome = match args.workload.as_str() {
        "dna_batch" => dna_batch::run(&ctx),
        "protein_prefilter" => protein_prefilter::run(&ctx),
        "serve_mixed" => serve_mixed::run(&ctx),
        "dsm_pipeline" => dsm_pipeline::run(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    std::fs::remove_dir_all(&work).ok();
    let record = outcome.record(&args.workload, args.seed, args.traced, &ctx.host);
    if let Err(e) = report::store(
        &PathBuf::from(OUT_DIR).join("runs"),
        &args.workload,
        args.seed,
        args.traced,
        &record,
    ) {
        eprintln!("perfbench: cannot store the run record: {e}");
    }
    print!(
        "{}",
        outcome.summary(&args.workload, args.traced, &ctx.host)
    );
    println!("{}", outcome.json_line(args.traced));
    if !outcome.correct() {
        std::process::exit(1);
    }
}

/// Set-up repetitions per run. The first runs before the timed loop and
/// the others between its operations, one after every `SETUP_EVERY`-th,
/// so their median samples the host across the run rather than at one
/// moment: a shared host's speed drifts over tens of seconds.
pub const SETUP_REPS: usize = 9;
const SETUP_EVERY: usize = 4;

/// Runs `f`, returning its value and wall time in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// A `between` hook for [`timed_loop`] that runs `setup` (recording its
/// wall time in `times`) after every `SETUP_EVERY`-th operation until
/// `times` holds `SETUP_REPS` samples.
pub fn setup_between<'a>(
    times: &'a mut Vec<f64>,
    mut setup: impl FnMut() + 'a,
) -> impl FnMut(usize) + 'a {
    move |i| {
        if (i + 1) % SETUP_EVERY == 0 && times.len() < SETUP_REPS {
            times.push(time(&mut setup).1);
        }
    }
}

/// One timed operation: its latency in seconds and the nominal DP cells
/// of its answer.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub latency: f64,
    pub cells: u64,
}

/// Runs `op(i)` back to back until `seconds` have passed and at least
/// `min_ops` ran; `op` returns the nominal DP cells of its answer.
/// `between(i)` runs after operation `i`, outside its timing.
pub fn timed_loop(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> u64,
    mut between: impl FnMut(usize),
) -> Vec<Op> {
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let (cells, latency) = time(|| op(ops.len()));
        ops.push(Op { latency, cells });
        between(ops.len() - 1);
    }
    ops
}

pub fn latencies(ops: &[Op]) -> Vec<f64> {
    ops.iter().map(|o| o.latency).collect()
}

/// Fewest operations a loop runs, so the latency tail (ten samples
/// beyond it) lies above the median.
pub const MIN_OPS: usize = 21;

/// A throughput sample: operations per second and DP cells per second.
pub type Rate = (f64, f64);

/// Throughput samples of a sequential loop, one per pass of `per`
/// consecutive operations (a pass over every input batch once), so
/// batches of unequal cost weigh in evenly.
pub fn op_rates(ops: &[Op], per: usize) -> Vec<Rate> {
    ops.chunks_exact(per)
        .map(|pass| {
            let t: f64 = pass.iter().map(|o| o.latency).sum();
            let cells: u64 = pass.iter().map(|o| o.cells).sum();
            (per as f64 / t, cells as f64 / t)
        })
        .collect()
}

/// Fills the six end-to-end metrics of an untraced run; `peak_rss_mb` is
/// read when the timed loop ends, before verification allocates.
/// Throughput (`gcups`, `req_per_s`) is the median of the loop's rate
/// samples rather than a whole-run mean, so a burst of other load on the
/// host moves it no more than it moves the median latency.
pub fn fill_e2e(o: &mut Outcome, setup: &[f64], lat: &[f64], rates: &[Rate], peak_rss_mb: f64) {
    let tail = stats::tail(lat);
    let ops_per_s: Vec<f64> = rates.iter().map(|r| r.0).collect();
    let cells_per_s: Vec<f64> = rates.iter().map(|r| r.1).collect();
    o.e2e.insert("setup_s", stats::median(setup));
    o.e2e.insert("gcups", stats::median(&cells_per_s) / 1e9);
    o.e2e.insert("latency_p50_ms", stats::median(lat) * 1e3);
    o.e2e.insert("latency_p99_ms", tail.value * 1e3);
    o.e2e.insert("req_per_s", stats::median(&ops_per_s));
    o.e2e.insert("peak_rss_mb", peak_rss_mb);
    o.tail = Some(tail);
    let ms: Vec<f64> = lat.iter().map(|l| l * 1e3).collect();
    let (q1, q3) = stats::quartiles(&ms);
    let (min, max) = ms
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(a, b), &x| (a.min(x), b.max(x)));
    o.latency_spread = Some([min, q1, stats::median(&ms), q3, max]);
}

/// `trace.overhead_frac` and `trace.uncovered_frac` from an untraced and
/// a traced loop over the same operation.
pub fn fill_trace_cost(
    o: &mut Outcome,
    untraced: &[f64],
    traced: &[f64],
    spans: &[trace::Span],
    window: (f64, f64),
) {
    let base = stats::median(untraced);
    o.layer(
        "trace.overhead_frac",
        report::LayerValue::single(stats::median(traced) / base - 1.0),
    );
    o.layer(
        "trace.uncovered_frac",
        report::LayerValue::single(trace::uncovered_frac(spans, "bench", window.0, window.1)),
    );
    o.self_times = trace::layer_totals(spans);
}

/// Adds a hit to a top-k the way the batch engine does: only strictly
/// positive scores are hits.
pub fn offer(tk: &mut genomedsm_batch::TopK, target: usize, r: &genomedsm_core::LinearSwResult) {
    if r.best_score > 0 {
        tk.push(genomedsm_batch::Hit {
            score: r.best_score,
            target,
            end: r.best_end,
        });
    }
}
