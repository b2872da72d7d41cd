//! `serve_mixed`: an in-process `Server` on a Unix socket, driven by two
//! `ServeClient` threads in a closed loop (each client sends its next
//! request only after the previous one completed, as the CLI client does,
//! and connections are capped at the host's core count).
//!
//! Each request carries short DNA queries. 80 % of requests come from a
//! hot set and should be answered from the cache; the rest are fresh and
//! get inserted, and there are far more distinct fresh queries than cache
//! slots, so the cache evicts. Client 0 reloads the database before every
//! 200th of its requests, alternating between two files, so purges sit
//! beside the reads. This is the only workload that crosses the protocol,
//! admission, cache and epoch layers: cache hits make its median
//! protocol-bound, misses and reloads set its tail.

use crate::host::peak_rss_mib;
use crate::report::{LayerValue, Outcome};
use crate::trace::{Recorder, Span};
use crate::{fill_e2e, fill_trace_cost, gen, time, Ctx, Rate, MIN_OPS, SETUP_REPS, TOP_K};
use genomedsm_batch::{BatchConfig, BatchEngine, Hit, SchedulerConfig, SeqDatabase};
use genomedsm_serve::{
    from_hex_line, to_hex_line, QueryHits, QueryKey, Request, Response, ResultCache, ServeClient,
    Server, ServerConfig,
};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const CACHE_CAPACITY: usize = 256;
const QUEUE_CAPACITY: usize = 16;
/// Client 0 reloads the database before every this-many-th request.
const RELOAD_EVERY: usize = 200;
/// Length of the windows the closed loop's throughput is sampled over.
const RATE_WINDOW_S: f64 = 0.5;

/// One streamed answer, reduced to what verification needs.
struct Answer {
    query: usize,
    epoch: u64,
    digest: u64,
}

/// One search request as the client saw it. Queries are not stored: they
/// are a pure function of `(client, i)`.
struct Sample {
    client: usize,
    i: usize,
    /// `None` when the request failed (refused, transport or protocol).
    answers: Option<Vec<Answer>>,
    latency: f64,
    first_answer: f64,
    /// Seconds from the loop's start to completion.
    done: f64,
    /// The full answers, kept only in the traced half for the replays.
    full: Vec<QueryHits>,
}

impl Sample {
    fn req(&self) -> u64 {
        ((self.client as u64) << 32) | self.i as u64
    }
}

/// A reload as the client saw it.
struct Reload {
    epoch: u64,
    db: usize,
    seconds: f64,
}

struct Shared<'a> {
    inputs: &'a gen::ServeInputs,
    socket: PathBuf,
    db_paths: [String; 2],
    /// Next request index per client, continuing across loops.
    next: Vec<AtomicUsize>,
    reloads: Mutex<Vec<Reload>>,
    reload_failures: AtomicUsize,
}

/// Order-sensitive digest of a hit list (FNV-1a over its fields).
fn digest(hits: &[Hit]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for hit in hits {
        for v in [
            hit.score as u64,
            hit.target as u64,
            hit.end.0 as u64,
            hit.end.1 as u64,
        ] {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn run(ctx: &Ctx) -> Outcome {
    let inputs = gen::serve(ctx.seed);
    let paths = [ctx.work.join("serve_a.fa"), ctx.work.join("serve_b.fa")];
    std::fs::write(&paths[0], &inputs.db_a).expect("write database A");
    std::fs::write(&paths[1], &inputs.db_b).expect("write database B");
    let dbs = paths
        .clone()
        .map(|p| SeqDatabase::load_fasta_file(p).expect("generated FASTA loads"));
    let engine_config = BatchConfig {
        top_k: TOP_K,
        scheduler: SchedulerConfig {
            workers: 1,
            window: 0,
        },
        ..BatchConfig::default()
    };
    let config = ServerConfig {
        queue_capacity: QUEUE_CAPACITY,
        cache_capacity: CACHE_CAPACITY,
        // Service workers × engine workers = the load's thread budget.
        workers: ctx.workers,
        engine: engine_config,
        ..ServerConfig::new(ctx.work.join("serve.sock"), &paths[0])
    };
    let mut o = Outcome::default();
    o.fact("records_per_db", dbs[0].len());
    o.fact("arena_bytes", dbs[0].total_bases());
    o.fact("clients", ctx.workers);
    o.fact("service_workers", ctx.workers);
    o.fact("engine_workers", 1);
    o.fact("queries_per_request", gen::serve::QUERIES_PER_REQUEST);
    o.fact("hot_pct", gen::serve::HOT_PCT);
    o.fact("cache_capacity", CACHE_CAPACITY);
    o.fact("reload_every", RELOAD_EVERY);

    // Set-up: `Server::start`, which loads the database, timed before the
    // loop and again after it, so the median samples the host at both ends
    // of the run. The last server started before the loop serves it.
    let start = || time(|| Server::start(config.clone()).expect("server starts"));
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS.div_ceil(2) {
        if let Some(s) = server.take() {
            Server::stop(s);
        }
        let (s, t) = start();
        setup.push(t);
        server = Some(s);
    }
    let server = server.expect("SETUP_REPS > 0");

    let shared = Shared {
        inputs: &inputs,
        socket: config.socket.clone(),
        db_paths: paths.clone().map(|p| p.to_string_lossy().into_owned()),
        next: (0..ctx.workers).map(|_| AtomicUsize::new(0)).collect(),
        reloads: Mutex::new(Vec::new()),
        reload_failures: AtomicUsize::new(0),
    };
    let loop_seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (plain, wall) = drive(&shared, ctx.workers, loop_seconds, None);
    let peak_rss_mb = peak_rss_mib();
    let traced = ctx.traced.then(|| {
        let rec = Recorder::new();
        let from = rec.now();
        let (samples, _) = drive(&shared, ctx.workers, loop_seconds, Some(&rec));
        let to = rec.now();
        (rec, samples, (from, to))
    });
    let service = server.stats();
    server.stop();
    while setup.len() < SETUP_REPS {
        let (s, t) = start();
        setup.push(t);
        s.stop();
    }
    let reload_failures = shared.reload_failures.load(Ordering::SeqCst);
    let reloads = shared.reloads.into_inner().expect("reload log poisoned");

    // Off the clock: every answer must equal a local engine's answer for
    // the database of the epoch it is stamped with.
    let mut epoch_db: HashMap<u64, usize> = HashMap::from([(1, 0)]);
    let mut reloads_ok = true;
    for r in &reloads {
        reloads_ok &= epoch_db.insert(r.epoch, r.db).is_none();
    }
    o.check("every reload produced a fresh epoch", reloads_ok);
    let all: Vec<&Sample> = plain
        .iter()
        .chain(traced.iter().flat_map(|t| &t.1))
        .collect();
    let local = local_answers(&inputs, &all, &epoch_db, &dbs, ctx.workers);
    // Per verified request: (completion time, nominal cells).
    let mut verified: Vec<(f64, u64)> = Vec::new();
    let mut failed = 0u64;
    for s in &all {
        match verify(&inputs, s, &epoch_db, &local) {
            Some(db) => {
                let bases = dbs[db].total_bases() as u64;
                let queries = inputs.request(s.client, s.i);
                let cells = queries.iter().map(|q| q.len() as u64 * bases).sum();
                verified.push((s.done, cells));
            }
            None => failed += 1,
        }
    }
    o.attempted = (all.len() + reloads.len() + reload_failures) as u64;
    o.failed = failed + reload_failures as u64;
    o.check(
        "every answer equals the local engine's answer for its epoch",
        failed == 0,
    );
    o.check("no request was refused", service.rejected == 0);

    let lat: Vec<f64> = plain.iter().map(|s| s.latency).collect();
    match traced {
        None => {
            let rates = window_rates(&verified, wall);
            fill_e2e(&mut o, &setup, &lat, &rates, peak_rss_mb);
        }
        Some((rec, samples, window)) => {
            let reload_ms: Vec<f64> = reloads.iter().map(|r| r.seconds * 1e3).collect();
            layer_metrics(
                &mut o,
                &rec,
                &inputs,
                &samples,
                &dbs,
                &epoch_db,
                &engine_config,
                &paths[0],
            );
            o.layer("epoch.reload_ms", LayerValue::of(&reload_ms));
            let total = service.cache_hits + service.cache_misses;
            o.layer(
                "cache.hit_frac",
                LayerValue::single(service.cache_hits as f64 / total as f64),
            );
            o.layer(
                "cache.evicted",
                LayerValue::single(service.cache_evicted as f64),
            );
            o.layer(
                "cache.stale_purged",
                LayerValue::single(service.cache_stale_purged as f64),
            );
            o.layer(
                "admission.high_water",
                LayerValue::single(service.high_water as f64),
            );
            o.layer(
                "admission.rejected",
                LayerValue::single(service.rejected as f64),
            );
            let traced_lat: Vec<f64> = samples.iter().map(|s| s.latency).collect();
            fill_trace_cost(&mut o, &lat, &traced_lat, &rec.spans(), window);
        }
    }
    o
}

/// Throughput samples of the closed loop: requests and nominal cells
/// completed in each full `RATE_WINDOW_S` window of the first loop.
fn window_rates(verified: &[(f64, u64)], wall: f64) -> Vec<Rate> {
    let windows = ((wall / RATE_WINDOW_S) as usize).max(1);
    let mut per = vec![(0u64, 0u64); windows];
    for &(done, cells) in verified {
        if let Some(w) = per.get_mut((done / RATE_WINDOW_S) as usize) {
            w.0 += 1;
            w.1 += cells;
        }
    }
    per.into_iter()
        .map(|(n, c)| (n as f64 / RATE_WINDOW_S, c as f64 / RATE_WINDOW_S))
        .collect()
}

/// Runs every client in a closed loop for `seconds`; returns the samples
/// and the loop's wall time.
fn drive(
    shared: &Shared,
    clients: usize,
    seconds: f64,
    rec: Option<&Recorder>,
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || client_loop(shared, c, clients, start, seconds, rec)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    (per_client.into_iter().flatten().collect(), wall)
}

fn client_loop(
    shared: &Shared,
    c: usize,
    clients: usize,
    start: Instant,
    seconds: f64,
    rec: Option<&Recorder>,
) -> Vec<Sample> {
    let mut client = ServeClient::connect(&shared.socket).expect("client connects");
    client.hello(&format!("client-{c}"), 1).expect("hello");
    let mut out = Vec::new();
    let min_per_client = MIN_OPS.div_ceil(clients);
    while out.len() < min_per_client || start.elapsed().as_secs_f64() < seconds {
        let i = shared.next[c].fetch_add(1, Ordering::SeqCst);
        if c == 0 && i > 0 && i.is_multiple_of(RELOAD_EVERY) {
            let mut log = shared.reloads.lock().expect("reload log poisoned");
            let db = (log.len() + 1) % 2;
            let t = Instant::now();
            match client.reload(&shared.db_paths[db]) {
                Ok((epoch, _, _)) => log.push(Reload {
                    epoch,
                    db,
                    seconds: t.elapsed().as_secs_f64(),
                }),
                Err(_) => {
                    shared.reload_failures.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let queries = shared.inputs.request(c, i);
        let req = ((c as u64) << 32) | i as u64;
        let t = Instant::now();
        let sent = rec.map_or(0.0, Recorder::now);
        let first: Cell<Option<f64>> = Cell::new(None);
        let mut search = || {
            client.search(&queries, TOP_K, |_| {
                if first.get().is_none() {
                    first.set(Some(t.elapsed().as_secs_f64()));
                }
            })
        };
        let result = match rec {
            None => search(),
            Some(rec) => rec.span("bench", "request", None, req, |root| {
                let r = rec.span("serve", "search", Some(root), req, |_| search());
                if let Some(f) = first.get() {
                    rec.record(Span {
                        layer: "serve",
                        name: "first_answer",
                        parent: Some(root),
                        req,
                        start: sent,
                        end: sent + f,
                    });
                }
                r
            }),
        };
        let latency = t.elapsed().as_secs_f64();
        let full = result.ok().map(|s| s.answers);
        out.push(Sample {
            client: c,
            i,
            answers: full.as_ref().map(|answers| {
                answers
                    .iter()
                    .map(|a| Answer {
                        query: a.query,
                        epoch: a.epoch,
                        digest: digest(&a.hits),
                    })
                    .collect()
            }),
            latency,
            first_answer: first.get().unwrap_or(f64::NAN),
            done: start.elapsed().as_secs_f64(),
            full: if rec.is_some() {
                full.unwrap_or_default()
            } else {
                Vec::new()
            },
        });
    }
    out
}

/// Digest of the local engine's answer per database and distinct query.
type LocalAnswers = [HashMap<Vec<u8>, u64>; 2];

/// The local engine's answer to every distinct query on each database it
/// was served from.
fn local_answers(
    inputs: &gen::ServeInputs,
    samples: &[&Sample],
    epoch_db: &HashMap<u64, usize>,
    dbs: &[SeqDatabase; 2],
    workers: usize,
) -> LocalAnswers {
    let mut wanted: [HashSet<Vec<u8>>; 2] = Default::default();
    for s in samples {
        let Some(answers) = &s.answers else { continue };
        let queries = inputs.request(s.client, s.i);
        for a in answers {
            if let (Some(&db), Some(q)) = (epoch_db.get(&a.epoch), queries.get(a.query)) {
                wanted[db].insert(q.clone());
            }
        }
    }
    let engine = BatchEngine::new(BatchConfig {
        top_k: TOP_K,
        scheduler: SchedulerConfig { workers, window: 0 },
        ..BatchConfig::default()
    });
    [0, 1].map(|db| {
        let queries: Vec<Vec<u8>> = wanted[db].drain().collect();
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let hits = engine.search(&dbs[db], &refs).hits;
        queries
            .into_iter()
            .zip(hits.iter().map(|h| digest(h)))
            .collect()
    })
}

/// The database index the request was answered from, if every answer is
/// present, in order, from one known epoch, and equal to the local answer.
fn verify(
    inputs: &gen::ServeInputs,
    s: &Sample,
    epoch_db: &HashMap<u64, usize>,
    local: &LocalAnswers,
) -> Option<usize> {
    let answers = s.answers.as_ref()?;
    let queries = inputs.request(s.client, s.i);
    if answers.len() != queries.len() {
        return None;
    }
    let db = *epoch_db.get(&answers.first()?.epoch)?;
    let ok = answers.iter().enumerate().all(|(k, a)| {
        a.query == k
            && epoch_db.get(&a.epoch) == Some(&db)
            && local[db].get(&queries[k]) == Some(&a.digest)
    });
    ok.then_some(db)
}

/// Per-layer figures of the traced half: the run's own requests and
/// answers replayed through the protocol codec, a stand-alone result
/// cache and a local engine, each call inside a span.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    o: &mut Outcome,
    rec: &Recorder,
    inputs: &gen::ServeInputs,
    samples: &[Sample],
    dbs: &[SeqDatabase; 2],
    epoch_db: &HashMap<u64, usize>,
    engine_config: &BatchConfig,
    db_path: &std::path::Path,
) {
    let answered: Vec<(&Sample, Vec<Vec<u8>>)> = samples
        .iter()
        .filter(|s| s.answers.is_some())
        .map(|s| (s, inputs.request(s.client, s.i)))
        .collect();

    // Protocol: encode each request, decode each response, as sent.
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    let (mut line_bytes, mut frame_bytes) = (0u64, 0u64);
    for (s, queries) in &answered {
        let request = Request::Search {
            id: s.req(),
            top_k: TOP_K as u32,
            queries: queries.clone(),
            scoring: None,
        };
        let mut line = String::new();
        encode_us.push(
            1e6 * rec.timed("proto", "encode", s.req(), || {
                line = to_hex_line(&request.encode())
            }),
        );
        frame_bytes += request.encode().len() as u64;
        line_bytes += line.len() as u64 + 1;
        let responses = s
            .full
            .iter()
            .map(|a| Response::Hits {
                id: s.req(),
                query: a.query as u32,
                cached: a.cached,
                epoch: a.epoch,
                hits: a.hits.clone(),
            })
            .chain(std::iter::once(Response::Done {
                id: s.req(),
                queries: s.full.len() as u32,
            }));
        let mut decode = 0.0;
        for resp in responses {
            let frame = resp.encode();
            let line = to_hex_line(&frame);
            frame_bytes += frame.len() as u64;
            line_bytes += line.len() as u64 + 1;
            let mut back = None;
            decode += rec.timed("proto", "decode", s.req(), || {
                back = from_hex_line(&line)
                    .ok()
                    .and_then(|f| Response::decode(&f).ok());
            });
            assert_eq!(back.as_ref(), Some(&resp), "protocol round trip");
        }
        decode_us.push(1e6 * decode);
    }
    o.layer("proto.encode_us", LayerValue::of(&encode_us));
    o.layer("proto.decode_us", LayerValue::of(&decode_us));
    o.layer(
        "proto.wire_bytes_per_req",
        LayerValue::single(line_bytes as f64 / answered.len() as f64),
    );
    o.layer(
        "proto.hex_expansion",
        LayerValue::single(line_bytes as f64 / frame_bytes as f64),
    );

    // Cache: the traced half's lookups and inserts, in completion order,
    // against a stand-alone cache of the server's capacity.
    let mut ordered: Vec<&(&Sample, Vec<Vec<u8>>)> = answered.iter().collect();
    ordered.sort_by(|a, b| a.0.done.total_cmp(&b.0.done));
    let cache = ResultCache::new(CACHE_CAPACITY);
    let (mut get_us, mut insert_us) = (Vec::new(), Vec::new());
    let mut live = 0;
    for (s, queries) in ordered {
        let epoch = s.full.first().map_or(live, |a| a.epoch);
        if epoch > live {
            cache.purge_epoch(epoch);
            live = epoch;
        }
        for (q, a) in queries.iter().zip(&s.full) {
            let key = QueryKey::of(q);
            let mut found = None;
            get_us.push(
                1e6 * rec.timed("cache", "get", s.req(), || {
                    found = cache.get(key, TOP_K, epoch, 0)
                }),
            );
            if found.is_none() {
                let hits = Arc::new(a.hits.clone());
                insert_us.push(
                    1e6 * rec.timed("cache", "insert", s.req(), || {
                        cache.insert(key, TOP_K, epoch, 0, hits)
                    }),
                );
            }
        }
    }
    o.layer("cache.get_us", LayerValue::of(&get_us));
    o.layer("cache.insert_us", LayerValue::of(&insert_us));

    // Engine: each request's missed queries through a local engine
    // configured like the server's.
    let engine = BatchEngine::new(*engine_config);
    let mut engine_ms = Vec::new();
    for (s, queries) in &answered {
        let missed: Vec<&[u8]> = s
            .full
            .iter()
            .filter(|a| !a.cached)
            .map(|a| queries[a.query].as_slice())
            .collect();
        let Some(&db) = s.full.first().and_then(|a| epoch_db.get(&a.epoch)) else {
            continue;
        };
        if !missed.is_empty() {
            engine_ms.push(
                1e3 * rec.timed("batch", "engine", s.req(), || {
                    std::hint::black_box(engine.search(&dbs[db], &missed));
                }),
            );
        }
    }
    o.layer("serve.engine_ms", LayerValue::of(&engine_ms));
    let first: Vec<f64> = samples
        .iter()
        .map(|s| 1e3 * s.first_answer)
        .filter(|v| v.is_finite())
        .collect();
    o.layer("serve.first_answer_ms", LayerValue::of(&first));
    let load: Vec<f64> = (0..3)
        .map(|_| time(|| SeqDatabase::load_fasta_file(db_path).expect("FASTA loads")).1)
        .collect();
    o.layer("db.load_s", LayerValue::of(&load));
}
