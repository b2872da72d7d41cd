//! Strategy 3 (§5): the exact pre-process strategy.
//!
//! "The key goal of this third strategy was to calculate the similar array
//! for local sequence alignment *without introducing heuristics*". No
//! candidate-alignment tracking is kept; instead:
//!
//! * rows are grouped into **bands** assigned cyclically to nodes; a band
//!   is processed **by columns**, and once the bottom of a column group
//!   (a **chunk** of the *passage band*) is calculated it is sent to the
//!   next node (Fig. 17);
//! * each computed cell is compared to a threshold; the per-band,
//!   per-column-group hit counts form the **result matrix** `R`, where
//!   cell `R[i][j]` sums the hits of band `i`'s columns with
//!   `⌊col/ip⌋ = j` (`ip` = result-matrix interleave) — allocated so each
//!   node writes its own rows locally;
//! * selected **columns are saved to disk** (save interleave: column `c`
//!   is saved if `c ≠ 0` and `c mod ip ≡ 0`) under one of three I/O modes:
//!   disabled, *immediate* (blocking write as the column completes), or
//!   *deferred* (kept in memory, written after the computation);
//! * band sizing follows one of three schemes: **fixed** height, **equal**
//!   (every node gets the same amount of data), or **balanced** (the
//!   paper's `bandsproc`/`bsizedown`/`bsizeup` equations).
//!
//! The measured times mirror the paper's: **init** (DSM start-up to the
//! first barrier), **core** (score-matrix computation; "the largest of
//! the measured times"), **term** (deferred I/O + final barrier).
//!
//! With supervision enabled ([`genomedsm_dsm::DsmConfig::supervise`]) the
//! strategy runs in **tolerant mode**: border chunks flow through a
//! per-role [`Ledger`] log, a surviving node adopts a dead node's bands
//! (see [`crate::checkpoint`]), saved columns are buffered per role and
//! written crash-safely at termination (so an adopter reproduces the dead
//! node's `node_r.cols` byte for byte), and the result matrix is gathered
//! by the lowest *alive* node. Saved-column files always carry the
//! checksummed [`crate::checkpoint::FILE_MAGIC`] footer, written via
//! temp-file + fsync + atomic rename, and [`read_saved_columns`] rejects
//! truncated or corrupted files with a typed error.
//!
//! Both workers compute every band chunk through one routine — the
//! striped [`BandScorer`] when it applies, the scalar recurrence
//! otherwise. They differ only in border transport and recovery: the
//! plain worker pops and pushes [`ChunkRing`]s and replays a crashed band
//! from its checkpoint; the tolerant one moves borders through the ledger
//! and lets [`run_with_takeover`] re-execute dead roles.

use crate::checkpoint::{
    read_verified, run_elastic, run_with_takeover, AtomicFileWriter, Ledger, LedgerEndpoint,
    StrategyError, StrategyResult, Units,
};
use crate::ring::{BorderEndpoint, ChunkRing};
use genomedsm_core::Scoring;
use genomedsm_dsm::{
    DsmConfig, DsmError, DsmSystem, FrameReader, FrameWriter, GlobalVec, Node, NodeStats, Wire,
};
use genomedsm_kernels::{BandScorer, KernelChoice};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Band (row-group) sizing scheme (§5's three schemes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandScheme {
    /// Fixed band height in rows; the last band may be shorter.
    Fixed(usize),
    /// One band per node, all of (nearly) the same height.
    Equal,
    /// The paper's balancing equations: all nodes process the same number
    /// of bands of equal size, while staying close to the requested
    /// height.
    Balanced(usize),
}

impl BandScheme {
    /// Computes the band boundaries (1-based inclusive row ranges).
    pub fn bands(&self, rows: usize, nprocs: usize) -> Vec<(usize, usize)> {
        if rows == 0 {
            return Vec::new();
        }
        let heights: Vec<usize> = match *self {
            BandScheme::Fixed(h) => {
                let h = h.max(1);
                let full = rows / h;
                let mut v = vec![h; full];
                if !rows.is_multiple_of(h) {
                    v.push(rows % h);
                }
                v
            }
            BandScheme::Equal => {
                let b = nprocs.min(rows);
                (0..b)
                    .map(|k| ((k + 1) * rows / b) - (k * rows / b))
                    .collect()
            }
            BandScheme::Balanced(h) => {
                let h = h.max(1);
                // bandsproc = ceil(ceil(rows/h) / nprocs)
                let bandsproc = rows.div_ceil(h).div_ceil(nprocs).max(1);
                let down = rows.div_ceil(bandsproc * nprocs).max(1);
                let up = if bandsproc > 1 {
                    rows.div_ceil((bandsproc - 1) * nprocs).max(1)
                } else {
                    down
                };
                // Pick whichever is nearer the requested height.
                let chosen = if up.abs_diff(h) < down.abs_diff(h) {
                    up
                } else {
                    down
                };
                let full = rows / chosen;
                let mut v = vec![chosen; full];
                if !rows.is_multiple_of(chosen) {
                    v.push(rows % chosen);
                }
                v
            }
        };
        let mut out = Vec::with_capacity(heights.len());
        let mut row = 1;
        for h in heights {
            out.push((row, row + h - 1));
            row += h;
        }
        debug_assert_eq!(row - 1, rows);
        out
    }
}

/// Chunk (column-group) sizing of the passage band: "the size of the
/// chunks can be set to a fixed value or grow in arithmetic or geometric
/// projections".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkPlan {
    /// All chunks have this width (the last may be shorter).
    Fixed(usize),
    /// Widths `start, start+step, start+2·step, …`.
    Arithmetic {
        /// First chunk width.
        start: usize,
        /// Width increase per chunk.
        step: usize,
    },
    /// Widths `start, start·factor, start·factor², …`.
    Geometric {
        /// First chunk width.
        start: usize,
        /// Multiplier per chunk (>= 2 to actually grow).
        factor: usize,
    },
}

impl ChunkPlan {
    /// Splits `cols` columns into chunk ranges (1-based inclusive).
    pub fn chunks(&self, cols: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut next_width = match *self {
            ChunkPlan::Fixed(w) => w.max(1),
            ChunkPlan::Arithmetic { start, .. } => start.max(1),
            ChunkPlan::Geometric { start, .. } => start.max(1),
        };
        let mut lo = 1;
        while lo <= cols {
            let hi = (lo + next_width - 1).min(cols);
            out.push((lo, hi));
            lo = hi + 1;
            next_width = match *self {
                ChunkPlan::Fixed(w) => w.max(1),
                ChunkPlan::Arithmetic { step, .. } => next_width + step,
                ChunkPlan::Geometric { factor, .. } => {
                    next_width.saturating_mul(factor.max(1)).min(cols.max(1))
                }
            };
        }
        out
    }
}

/// Disk-saving mode for the selected columns (§5's three I/O modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// "The simplest is the disabling of any storing operation."
    None,
    /// Write each selected column with a blocking operation as soon as it
    /// is ready.
    Immediate,
    /// Keep selected columns in memory and write them after the whole
    /// matrix has been calculated.
    Deferred,
}

/// Configuration of the pre-process strategy.
#[derive(Debug, Clone)]
pub struct PreprocessConfig {
    /// Band sizing scheme.
    pub band: BandScheme,
    /// Passage-band chunking.
    pub chunk: ChunkPlan,
    /// Hit threshold: cells scoring at least this count into `R`.
    pub threshold: i32,
    /// Result-matrix interleave `ip`: columns `c` with the same
    /// `(c−1) / ip` share one cell of `R`.
    pub result_interleave: usize,
    /// Save interleave: column `c` is saved when `c mod ip == 0`.
    pub save_interleave: usize,
    /// I/O mode for the saved columns.
    pub io_mode: IoMode,
    /// Virtual cost of one plain SW cell update (era-calibrated default,
    /// see [`crate::costs`]).
    pub cell_cost: Duration,
    /// Virtual cost per byte written to disk (era NFS with buffer cache:
    /// writes land in the client cache at roughly 20 MB/s effective).
    pub io_byte_cost: Duration,
    /// Directory for the per-node column files (required unless
    /// `io_mode == None`).
    pub save_dir: Option<PathBuf>,
    /// Score-kernel selection for the per-band inner loop: the striped
    /// SIMD kernel when it applies ([`genomedsm_kernels::BandScorer`]),
    /// otherwise the plain scalar recurrence. Either way the results are
    /// bit-identical; only host time changes (the simulated cluster time
    /// is driven by `cell_cost` regardless).
    pub kernel: KernelChoice,
    /// Enables band-boundary checkpointing plus border message logging so
    /// a node can recover from a fail-stop crash (DESIGN.md §5.7). A
    /// checkpoint flushes the band's result-matrix row home and durably
    /// records the deferred-column buffer and save cursors; popped top
    /// borders of the in-flight band are logged so a restarted node can
    /// replay the band without re-consuming the ring. Off by default —
    /// fault-free runs skip the checkpoint overhead, and crash points
    /// reported by the injector are ignored.
    pub checkpoint: bool,
    /// Virtual downtime charged when a node crash-restarts (failure
    /// detection + checkpoint reload). Lands in the derived computation
    /// remainder and in [`NodeStats::recovery_time`].
    pub restart_cost: Duration,
    /// DSM cluster configuration.
    pub dsm: DsmConfig,
}

impl PreprocessConfig {
    /// 1 K blocking everywhere, no I/O — the Fig. 19 baseline
    /// configuration.
    pub fn new(nprocs: usize) -> Self {
        Self {
            band: BandScheme::Fixed(1024),
            chunk: ChunkPlan::Fixed(1024),
            threshold: 30,
            result_interleave: 1024,
            save_interleave: 1024,
            io_mode: IoMode::None,
            cell_cost: crate::costs::PLAIN_CELL,
            io_byte_cost: Duration::from_nanos(50), // ~20 MB/s buffered
            save_dir: None,
            kernel: KernelChoice::Auto,
            checkpoint: false,
            restart_cost: Duration::from_millis(250),
            dsm: DsmConfig::new(nprocs).network(genomedsm_dsm::NetworkModel::paper_cluster()),
        }
    }
}

/// One column segment kept for disk storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedColumn {
    /// Band index.
    pub band: u32,
    /// Column number (1-based).
    pub col: u32,
    /// Scores of the band's rows in this column, top to bottom.
    pub values: Vec<i32>,
}

/// Result of a pre-process run.
#[derive(Debug, Clone)]
pub struct PreprocessOutcome {
    /// The result matrix: `result[band][group]` = number of cells at or
    /// above the threshold.
    pub result: Vec<Vec<i64>>,
    /// Band row ranges (1-based inclusive).
    pub band_bounds: Vec<(usize, usize)>,
    /// The best score seen anywhere (kept for validation; the paper keeps
    /// "only a scoreboard of points of interest").
    pub best_score: i32,
    /// Per-node init times (DSM start to first barrier).
    pub init: Vec<Duration>,
    /// Per-node core times (score-matrix computation).
    pub core: Vec<Duration>,
    /// Per-node termination times (deferred I/O + final barrier).
    pub term: Vec<Duration>,
    /// DSM statistics per node.
    pub per_node: Vec<NodeStats>,
    /// Total simulated cluster time (max node virtual clock).
    pub wall: Duration,
    /// Real time the simulation took on the host (diagnostic only).
    pub host_wall: Duration,
    /// Files written (empty when I/O is disabled).
    pub files: Vec<PathBuf>,
}

impl PreprocessOutcome {
    /// The paper's reported processing time: the largest core time.
    pub fn core_time(&self) -> Duration {
        self.core.iter().copied().max().unwrap_or_default()
    }

    /// Total hits across the result matrix.
    pub fn total_hits(&self) -> i64 {
        self.result.iter().flatten().sum()
    }
}

/// Per-node output of a pre-process worker. `Default` doubles as the
/// sentinel a fail-stopped worker leaves behind.
#[derive(Debug, Default)]
struct NodeOut {
    init: Duration,
    core: Duration,
    term: Duration,
    best: i32,
    gathered: Vec<i64>,
    /// First I/O failure, deferred to the end of the run so the worker
    /// keeps lockstep with its peers instead of deadlocking them.
    io_err: Option<(String, io::Error)>,
}

impl Wire for NodeOut {
    fn encode(&self, w: &mut FrameWriter) {
        self.init.encode(w);
        self.core.encode(w);
        self.term.encode(w);
        self.best.encode(w);
        self.gathered.encode(w);
        // An `io::Error` does not round-trip structurally; what the
        // gather consumer needs is the message, so that is what travels.
        let flat = self
            .io_err
            .as_ref()
            .map(|(ctx, e)| (ctx.clone(), e.to_string()));
        flat.encode(w);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(NodeOut {
            init: Duration::decode(r)?,
            core: Duration::decode(r)?,
            term: Duration::decode(r)?,
            best: i32::decode(r)?,
            gathered: Vec::<i64>::decode(r)?,
            io_err: Option::<(String, String)>::decode(r)?
                .map(|(ctx, msg)| (ctx, io::Error::other(msg))),
        })
    }
}

/// Runs the pre-process strategy: exact SW scores over a banded wavefront,
/// producing the result matrix of threshold hits and (optionally) saved
/// columns.
///
/// # Errors
///
/// Returns [`StrategyError::Io`] when a saved-column file cannot be
/// created, written, or atomically finished (the computation itself still
/// ran to completion — the error reports the first failing file).
pub fn preprocess_align(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    config: &PreprocessConfig,
) -> StrategyResult<PreprocessOutcome> {
    assert!(config.result_interleave >= 1, "interleave must be >= 1");
    assert!(
        config.io_mode == IoMode::None || config.save_dir.is_some(),
        "saving columns requires a save_dir"
    );
    let t_start = Instant::now();
    let nprocs = config.dsm.nprocs;
    let m = s.len();
    let n = t.len();
    let bands = config.band.bands(m, nprocs);
    let nbands = bands.len();
    let chunks = config.chunk.chunks(n);
    let nchunks = chunks.len();
    let groups = if n == 0 {
        0
    } else {
        (n - 1) / config.result_interleave + 1
    };
    let max_chunk = chunks
        .iter()
        .map(|&(lo, hi)| hi + 1 - lo + 1)
        .max()
        .unwrap_or(1);

    let ctx = PpCtx {
        s,
        t,
        scoring,
        config,
        bands: &bands,
        chunks: &chunks,
        groups,
        nprocs,
        max_chunk,
        save_every: (config.io_mode != IoMode::None && config.save_interleave > 0)
            .then_some(config.save_interleave),
    };

    let run = DsmSystem::run_wire(config.dsm.clone(), |node: &mut Node| {
        if node.supervised() {
            return tolerant_pp_worker(node, &ctx);
        }
        let p = node.id();
        let mut rings: Vec<ChunkRing<i32>> = (0..nprocs)
            .map(|q| {
                ChunkRing::new(
                    node,
                    nchunks.max(1),
                    max_chunk,
                    q,
                    (2 * q) as u32,
                    (2 * q + 1) as u32,
                )
            })
            .collect();
        // The result matrix, one row per band, each homed on the band's
        // owner so writes are local ("allocated in such a way as to allow
        // each node to handle writes locally", §5.1).
        let result_rows: Vec<genomedsm_dsm::GlobalVec<i64>> = (0..nbands)
            .map(|b| node.alloc_vec_on::<i64>(groups.max(1), b % node.nprocs()))
            .collect();
        node.barrier();
        let init = node.now();

        let core_start = node.now();
        let from_ring = (p + nprocs - 1) % nprocs;
        let mut best_score = 0i32;
        let mut saved: Vec<SavedColumn> = Vec::new();
        let mut io_err: Option<(String, io::Error)> = None;
        let mut writer = match (config.io_mode, &config.save_dir) {
            (IoMode::Immediate, Some(dir)) => {
                let path = dir.join(format!("node_{p}.cols"));
                match AtomicFileWriter::create(&path) {
                    Ok(w) => Some(w),
                    Err(e) => {
                        io_err = Some((format!("create saved-column file {}", path.display()), e));
                        None
                    }
                }
            }
            _ => None,
        };

        // --- Crash-recovery state (DESIGN.md §5.7) -------------------
        // The fail-stop model is cooperative: the injector names a chunk
        // ordinal, and when this node completes that many chunks it
        // "crashes" — the DSM cache and all volatile band state are lost
        // and the band loop restarts from the last checkpoint. Durable
        // state (modeled as surviving the crash): the checkpoint cursors
        // below, the per-band log of popped top borders, the count of
        // chunks already pushed downstream, and columns already written
        // by immediate I/O.
        let crash_at = if config.checkpoint {
            node.crash_point()
        } else {
            None
        };
        let mut chunks_done = 0u64;
        let mut crashed = false;
        let mut ckpt_band = p; // band to resume from
        let mut ckpt_best = 0i32;
        let mut ckpt_saved_len = 0usize; // deferred columns in the checkpoint
        let mut ckpt_cols_seen = 0u64;
        let mut cols_seen = 0u64; // save events so far (logical order)
        let mut cols_saved = 0u64; // columns durably written (immediate I/O)
        let mut top_log: Vec<Vec<i32>> = Vec::new(); // borders popped this band
        let mut pushed = 0usize; // chunks already sent downstream this band

        let mut band = p;
        'bands: while band < nbands {
            let mut hits_row = vec![0i64; groups];
            let mut cursor = BandCursor::new(&ctx, band);
            for (k, &(c_lo, c_hi)) in chunks.iter().enumerate() {
                let width = c_hi + 1 - c_lo;
                // The chunk's top border: band 0 regenerates zeros;
                // otherwise a replayed chunk reads the logged border, and
                // a fresh chunk pops the ring (logging the border when
                // checkpointing is on, so a later replay can reproduce it
                // without re-consuming the ring).
                let top = if band == 0 {
                    vec![0i32; width + 1]
                } else if k < top_log.len() {
                    top_log[k].clone()
                } else {
                    let border = rings[from_ring].pop(node, width + 1);
                    if config.checkpoint {
                        top_log.push(border.clone());
                    }
                    border
                };
                let (bottom, cols) = cursor.chunk(&ctx, (c_lo, c_hi), &top, &mut hits_row);
                for (col, values) in cols {
                    let column = SavedColumn {
                        band: band as u32,
                        col: col as u32,
                        values,
                    };
                    match config.io_mode {
                        // During post-crash replay, columns immediate I/O
                        // already put on disk are skipped (and not
                        // re-charged) so the file stays bit-identical to a
                        // fault-free run.
                        IoMode::Immediate if cols_seen >= cols_saved => {
                            let mut buf = Vec::with_capacity(12 + 4 * column.values.len());
                            encode_column(&mut buf, &column);
                            let failed = match writer.as_mut() {
                                Some(w) => w.write_all(&buf).err(),
                                None => None, // already failed; keep computing
                            };
                            if let Some(e) = failed {
                                writer = None;
                                io_err.get_or_insert((
                                    format!("write saved-column file node_{p}.cols"),
                                    e,
                                ));
                            }
                            node.advance(crate::costs::cells(config.io_byte_cost, buf.len()));
                            cols_saved += 1;
                        }
                        IoMode::Immediate => {}
                        IoMode::Deferred => saved.push(column),
                        IoMode::None => unreachable!("save_every is None without I/O"),
                    }
                    cols_seen += 1;
                }
                node.advance(crate::costs::cells(config.cell_cost, cursor.h * width));
                // Sends the chunk's bottom border downstream, unless a
                // pre-crash execution already delivered it (the
                // consumer's pop cursor has moved past it; re-pushing
                // would corrupt the ring).
                if band + 1 < nbands && k >= pushed {
                    rings[p].push(node, &bottom);
                    pushed = k + 1;
                }
                // Fail-stop crash at a chunk boundary: lose all volatile
                // band state, charge the downtime, and resume from the
                // checkpoint.
                chunks_done += 1;
                if !crashed && crash_at == Some(chunks_done) {
                    crashed = true;
                    node.crash_restart(config.restart_cost);
                    best_score = ckpt_best;
                    saved.truncate(ckpt_saved_len);
                    cols_seen = ckpt_cols_seen;
                    band = ckpt_band;
                    continue 'bands;
                }
            }
            best_score = best_score.max(cursor.best());
            // Publish this band's result-matrix row (local-home write).
            if groups > 0 {
                node.vec_write_range(&result_rows[band], 0, &hits_row);
            }
            if config.checkpoint {
                // Band-boundary checkpoint: flush the result row to its
                // home (durable on a surviving machine) and persist the
                // deferred columns appended since the last checkpoint,
                // plus the cursors, to local stable storage.
                node.flush_modified();
                let ckpt_bytes = 32
                    + groups * 8
                    + saved[ckpt_saved_len..]
                        .iter()
                        .map(|c| 12 + 4 * c.values.len())
                        .sum::<usize>();
                node.advance(crate::costs::cells(config.io_byte_cost, ckpt_bytes));
                ckpt_band = band + nprocs;
                ckpt_best = best_score;
                ckpt_saved_len = saved.len();
                ckpt_cols_seen = cols_seen;
            }
            top_log.clear();
            pushed = 0;
            band += nprocs;
        }
        let core = node.now() - core_start;

        // Termination: deferred I/O, then the final barrier.
        let term_start = node.now();
        if config.io_mode == IoMode::Deferred {
            let Some(dir) = config.save_dir.as_ref() else {
                unreachable!("deferred IoMode is only configured with a save_dir")
            };
            let path = dir.join(format!("node_{p}.cols"));
            let mut bytes = 0usize;
            if let Err(e) = write_role_file(&path, &saved, &mut bytes) {
                io_err.get_or_insert((format!("write saved-column file {}", path.display()), e));
            }
            node.advance(crate::costs::cells(config.io_byte_cost, bytes));
        }
        if let Some(w) = writer.take() {
            if let Err(e) = w.finish() {
                io_err.get_or_insert((format!("finish saved-column file node_{p}.cols"), e));
            }
        }
        node.barrier();
        // Node 0 gathers the result matrix for reporting.
        let gathered = if p == 0 && groups > 0 {
            let mut flat = Vec::with_capacity(nbands * groups);
            for row in &result_rows {
                flat.extend(node.vec_read_range(row, 0..groups));
            }
            flat
        } else {
            Vec::new()
        };
        node.barrier();
        let term = node.now() - term_start;
        NodeOut {
            init,
            core,
            term,
            best: best_score,
            gathered,
            io_err,
        }
    });

    let mut init = Vec::new();
    let mut core = Vec::new();
    let mut term = Vec::new();
    let mut best_score = 0;
    let mut flat = Vec::new();
    for out in run.results {
        if let Some((context, source)) = out.io_err {
            return Err(StrategyError::io(context, source));
        }
        init.push(out.init);
        core.push(out.core);
        term.push(out.term);
        best_score = best_score.max(out.best);
        if !out.gathered.is_empty() {
            flat = out.gathered;
        }
    }
    let result: Vec<Vec<i64>> = if groups == 0 {
        vec![Vec::new(); nbands]
    } else {
        flat.chunks(groups).map(<[i64]>::to_vec).collect()
    };
    let files = match (&config.save_dir, config.io_mode) {
        (Some(dir), IoMode::Immediate | IoMode::Deferred) => (0..nprocs)
            .map(|p| dir.join(format!("node_{p}.cols")))
            .filter(|f| f.exists())
            .collect(),
        _ => Vec::new(),
    };
    Ok(PreprocessOutcome {
        result,
        band_bounds: bands,
        best_score,
        init,
        core,
        term,
        wall: run.stats.iter().map(|s| s.total).max().unwrap_or_default(),
        host_wall: t_start.elapsed(),
        per_node: run.stats,
        files,
    })
}

// ---------------------------------------------------------------------------
// Tolerant (takeover-capable) worker
// ---------------------------------------------------------------------------

/// Shared read-only inputs of both workers.
struct PpCtx<'a> {
    s: &'a [u8],
    t: &'a [u8],
    scoring: &'a Scoring,
    config: &'a PreprocessConfig,
    bands: &'a [(usize, usize)],
    chunks: &'a [(usize, usize)],
    groups: usize,
    nprocs: usize,
    max_chunk: usize,
    /// Save interleave when columns go to disk, `None` without I/O.
    save_every: Option<usize>,
}

/// One band of the wavefront, computed chunk by chunk — the one place
/// both workers run the cell recurrence.
struct BandCursor {
    /// First row of the band (1-based) and its height.
    i0: usize,
    h: usize,
    kernel: BandKernel,
}

enum BandKernel {
    /// The striped kernel plus the band's running bottom-left corner
    /// `H[i1][c_lo - 1]` (0 at the left border).
    Striped {
        scorer: Box<BandScorer>,
        corner: i32,
    },
    /// The plain recurrence: the band's previous column (index 0 = the
    /// border row) and its best score so far.
    Scalar { left_col: Vec<i32>, best: i32 },
}

impl BandCursor {
    fn new(ctx: &PpCtx<'_>, band: usize) -> Self {
        let (i0, i1) = ctx.bands[band];
        let h = i1 + 1 - i0;
        let config = ctx.config;
        // The striped kernel counts hits only for positive thresholds (a
        // non-positive threshold makes every cell a hit, which only the
        // scalar `v >= threshold` rule reproduces), so gate on that
        // before asking for a scorer; `BandScorer::new` handles every
        // other applicability condition (choice, ISA, i16 head-room).
        let scorer = (config.threshold >= 1)
            .then(|| {
                BandScorer::new(
                    config.kernel,
                    &ctx.s[i0 - 1..i1],
                    (ctx.s.len(), ctx.t.len()),
                    ctx.scoring,
                    config.threshold,
                    ctx.save_every,
                )
            })
            .flatten();
        let kernel = match scorer {
            Some(scorer) => BandKernel::Striped {
                scorer: Box::new(scorer),
                corner: 0,
            },
            None => BandKernel::Scalar {
                left_col: vec![0; h + 1],
                best: 0,
            },
        };
        Self { i0, h, kernel }
    }

    /// Computes chunk `(c_lo, c_hi)` of the band under `top` (the border
    /// row from the band above, corner first). Adds the chunk's threshold
    /// hits to `hits_row` and returns the bottom border for the band
    /// below (corner first) plus the saved columns as `(col, values)`.
    fn chunk(
        &mut self,
        ctx: &PpCtx<'_>,
        (c_lo, c_hi): (usize, usize),
        top: &[i32],
        hits_row: &mut [i64],
    ) -> (Vec<i32>, Vec<(usize, Vec<i32>)>) {
        let (t, ip, h) = (ctx.t, ctx.config.result_interleave, self.h);
        let width = c_hi + 1 - c_lo;
        let mut bottom = Vec::with_capacity(width + 1);
        let mut saved = Vec::new();
        match &mut self.kernel {
            BandKernel::Striped { scorer, corner } => {
                let mut col_hits = Vec::with_capacity(width);
                bottom.push(*corner);
                scorer.advance(
                    &t[c_lo - 1..c_hi],
                    top,
                    c_lo,
                    &mut bottom,
                    &mut col_hits,
                    &mut saved,
                );
                for (idx, &hits) in col_hits.iter().enumerate() {
                    hits_row[(c_lo + idx - 1) / ip] += hits as i64;
                }
                *corner = bottom[width];
            }
            BandKernel::Scalar { left_col, best } => {
                let (sc, threshold) = (ctx.scoring, ctx.config.threshold);
                let band_s = &ctx.s[self.i0 - 1..][..h];
                bottom.push(left_col[h]);
                let mut prev_col = left_col.clone();
                prev_col[0] = top[0];
                let mut cur_col = vec![0i32; h + 1];
                for j in c_lo..=c_hi {
                    cur_col[0] = top[j - c_lo + 1];
                    let tc = t[j - 1];
                    for r in 1..=h {
                        let diag = prev_col[r - 1] + sc.subst(band_s[r - 1], tc);
                        let v = diag
                            .max(cur_col[r - 1] + sc.gap)
                            .max(prev_col[r] + sc.gap)
                            .max(0);
                        cur_col[r] = v;
                        if v >= threshold {
                            hits_row[(j - 1) / ip] += 1;
                        }
                        *best = (*best).max(v);
                    }
                    bottom.push(cur_col[h]);
                    if ctx.save_every.is_some_and(|every| j % every == 0) {
                        saved.push((j, cur_col[1..].to_vec()));
                    }
                    std::mem::swap(&mut prev_col, &mut cur_col);
                }
                left_col.copy_from_slice(&prev_col);
            }
        }
        (bottom, saved)
    }

    /// The band's best score so far.
    fn best(&self) -> i32 {
        match &self.kernel {
            BandKernel::Striped { scorer, .. } => scorer.best_score(),
            BandKernel::Scalar { best, .. } => *best,
        }
    }
}

/// One executed role's results: the bands' best score and the columns it
/// selected for disk, in deterministic band-then-column order (an adopter
/// reproduces the dead owner's file byte for byte).
struct RoleRun {
    role: usize,
    best: i32,
    saved: Vec<SavedColumn>,
}

/// Accumulator of one takeover attempt (see
/// [`crate::checkpoint::run_with_takeover`]).
#[derive(Default)]
struct PpAcc {
    runs: Vec<RoleRun>,
}

fn entry(acc: &mut PpAcc, role: usize) -> &mut RoleRun {
    if let Some(i) = acc.runs.iter().position(|r| r.role == role) {
        return &mut acc.runs[i];
    }
    acc.runs.push(RoleRun {
        role,
        best: 0,
        saved: Vec::new(),
    });
    let Some(run) = acc.runs.last_mut() else {
        unreachable!("a run record was pushed just above")
    };
    run
}

/// Strategy 3 worker in tolerant mode: bands flow through the per-role
/// [`Ledger`] log and [`run_with_takeover`] re-executes dead roles on
/// survivors. Saved columns are buffered per role and written atomically
/// at termination; the result matrix is gathered by the lowest alive
/// node; each role's best score is published in its ledger user word so a
/// completed-then-died role still contributes.
fn tolerant_pp_worker(node: &mut Node, ctx: &PpCtx<'_>) -> NodeOut {
    let nprocs = ctx.nprocs;
    let nbands = ctx.bands.len();
    let nchunks = ctx.chunks.len();
    // Role r pushes at most one chunk per passage-band chunk of each of
    // its bands.
    let log_entries = nbands.div_ceil(nprocs.max(1)) * nchunks.max(1);
    let ledger = Ledger::<i32>::new(node, nprocs, log_entries, ctx.max_chunk);
    let result_rows: Vec<GlobalVec<i64>> = (0..nbands)
        .map(|b| node.alloc_vec_on::<i64>(ctx.groups.max(1), b % nprocs))
        .collect();
    node.barrier();
    let init = node.now();
    let core_start = node.now();
    let mut units = Units::new(node);

    // One work unit is one band×chunk tile; a scheduled rejoin's virtual
    // downtime is priced at that granularity.
    let tile_cells = (ctx.s.len() / nbands.max(1)).max(1) * (ctx.t.len() / nchunks.max(1)).max(1);
    let unit_time = crate::costs::cells(ctx.config.cell_cost, tile_cells.min(u32::MAX as usize));
    // A single workload wrapped in the elastic driver: a victim with a
    // scheduled rejoin is re-admitted at the closing boundary, after the
    // survivors have gathered the results. Budget: takeover sweep (at
    // most nprocs rounds) plus the two termination barriers.
    let mut rounds = run_elastic(node, 1, nprocs.max(1) + 3, unit_time, |node, _| {
        let pieces = run_with_takeover(node, nprocs, |node, execute, resume, acc: &mut PpAcc| {
            let mut ends = LedgerEndpoint::new(
                node,
                &ledger,
                0..nprocs,
                0,
                nchunks.max(1) as u64,
                execute,
                resume,
                &mut units,
            );
            run_pp_bands(node, ctx, &mut ends, &ledger, &result_rows, execute, acc)
        });
        let Some(pieces) = pieces else {
            return NodeOut::default(); // this worker fail-stopped
        };
        let core = node.now() - core_start;
        let term_start = node.now();

        // Merge role runs: at most one *surviving* node holds a given
        // role (adoption only changes when the adopter itself dies), and
        // replayed duplicates within this node are identical — last wins.
        let mut by_role: std::collections::BTreeMap<usize, RoleRun> = Default::default();
        for run in pieces.into_iter().flat_map(|a| a.runs) {
            by_role.insert(run.role, run);
        }
        let mut best = 0i32;
        let mut io_err: Option<(String, io::Error)> = None;
        for run in by_role.values() {
            best = best.max(run.best);
            if ctx.config.io_mode != IoMode::None {
                let Some(dir) = ctx.config.save_dir.as_ref() else {
                    unreachable!("io_mode != None is only configured with a save_dir")
                };
                let path = dir.join(format!("node_{}.cols", run.role));
                let mut bytes = 0usize;
                let res = write_role_file(&path, &run.saved, &mut bytes);
                if ctx.config.io_mode == IoMode::Deferred {
                    // Immediate mode already charged each column as it
                    // was selected; deferred pays for the whole file
                    // here.
                    node.advance(crate::costs::cells(ctx.config.io_byte_cost, bytes));
                }
                if let Err(e) = res {
                    io_err
                        .get_or_insert((format!("write saved-column file {}", path.display()), e));
                }
            }
        }

        let dead = node.barrier_wait();
        let gatherer = (0..nprocs).find(|q| !dead.contains(q)).unwrap_or(0);
        let mut gathered = Vec::new();
        if node.id() == gatherer {
            if ctx.groups > 0 {
                for row in &result_rows {
                    node.invalidate_vec(row);
                    gathered.extend(node.vec_read_range(row, 0..ctx.groups));
                }
            }
            // Fold the per-role best scores published in the ledger: this
            // covers a role whose worker completed, published, and only
            // then died — its memory is gone but its user word survives.
            for r in 0..nprocs {
                best = best.max(ledger.snapshot(node, r).user as i32);
            }
        }
        node.barrier_wait();
        let term = node.now() - term_start;
        NodeOut {
            init,
            core,
            term,
            best,
            gathered,
            io_err,
        }
    });
    rounds.pop().unwrap_or_default()
}

/// Executes every band whose role is in `execute`, ascending — the
/// wavefront order; band `b` consumes band `b-1`'s chunks either from
/// this very loop (internal role) or from a live external producer.
fn run_pp_bands(
    node: &mut Node,
    ctx: &PpCtx<'_>,
    ends: &mut LedgerEndpoint<'_, i32>,
    ledger: &Ledger<i32>,
    result_rows: &[GlobalVec<i64>],
    execute: &[usize],
    acc: &mut PpAcc,
) -> Result<(), DsmError> {
    let config = ctx.config;
    let nprocs = ctx.nprocs;
    let nbands = ctx.bands.len();
    // Per-role dense chunk ordinals: every band but the first pops, every
    // band but the last pushes, in ascending band order.
    let mut pops = vec![0u64; nprocs];
    let mut pushes = vec![0u64; nprocs];
    // Every executed role gets an entry (and so a column file) even if it
    // owns no bands, mirroring the plain path's one-file-per-node.
    for &r in execute {
        entry(acc, r);
    }
    for band in 0..nbands {
        let role = band % nprocs;
        if !execute.contains(&role) {
            continue;
        }
        let mut hits_row = vec![0i64; ctx.groups];
        let mut cursor = BandCursor::new(ctx, band);
        for &(c_lo, c_hi) in ctx.chunks {
            let width = c_hi + 1 - c_lo;
            let top: Vec<i32> = if band == 0 {
                vec![0i32; width + 1]
            } else {
                let ord = pops[role];
                pops[role] += 1;
                ends.pop(node, (role + nprocs - 1) % nprocs, ord, width + 1)?
            };
            let (bottom, cols) = cursor.chunk(ctx, (c_lo, c_hi), &top, &mut hits_row);
            for (col, values) in cols {
                if config.io_mode == IoMode::Immediate {
                    let bytes = 12 + 4 * values.len();
                    node.advance(crate::costs::cells(config.io_byte_cost, bytes));
                }
                entry(acc, role).saved.push(SavedColumn {
                    band: band as u32,
                    col: col as u32,
                    values,
                });
            }
            node.advance(crate::costs::cells(config.cell_cost, cursor.h * width));
            ends.unit_done(node)?;
            if band + 1 < nbands {
                let ord = pushes[role];
                pushes[role] += 1;
                ends.push(node, role, ord, &bottom)?;
            }
        }
        let run = entry(acc, role);
        run.best = run.best.max(cursor.best());
        // Publish the band's result-matrix row and flush it to its home
        // (a self-send for the owner; a remote write only during
        // takeover) so it survives this worker's later death.
        if ctx.groups > 0 {
            node.vec_write_range(&result_rows[band], 0, &hits_row);
            node.flush_vec(&result_rows[band]);
        }
    }
    // Publish completion: the user word (best score) strictly before the
    // done flag, so a death in between re-executes rather than trusting a
    // stale word.
    for run in &acc.runs {
        ledger.set_user(node, run.role, run.best as i64);
        ledger.mark_done(node, run.role);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Saved-column files
// ---------------------------------------------------------------------------

/// Serializes one column record (band, col, len, values — all LE).
fn encode_column(buf: &mut Vec<u8>, c: &SavedColumn) {
    buf.extend_from_slice(&c.band.to_le_bytes());
    buf.extend_from_slice(&c.col.to_le_bytes());
    buf.extend_from_slice(&(c.values.len() as u32).to_le_bytes());
    for v in &c.values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Writes a whole saved-column file crash-safely (temp file + checksummed
/// footer + fsync + atomic rename), reporting the payload size in
/// `bytes`.
fn write_role_file(path: &Path, cols: &[SavedColumn], bytes: &mut usize) -> io::Result<()> {
    let mut w = AtomicFileWriter::create(path)?;
    let mut buf = Vec::new();
    for c in cols {
        buf.clear();
        encode_column(&mut buf, c);
        w.write_all(&buf)?;
        *bytes += buf.len();
    }
    w.finish()
}

/// Reads back a per-node column file written by [`preprocess_align`],
/// first verifying the checksummed footer (see
/// [`crate::checkpoint::read_verified`]).
///
/// A truncated or corrupted file — torn footer, bad magic, length or
/// checksum mismatch, or a malformed record inside a valid envelope —
/// yields a typed [`std::io::ErrorKind::InvalidData`] error rather than a
/// panic, so a recovery path probing a half-written file can fall back
/// cleanly.
pub fn read_saved_columns(path: &std::path::Path) -> std::io::Result<Vec<SavedColumn>> {
    fn bad(what: &str) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
    }
    fn take_u32(data: &[u8], pos: &mut usize) -> std::io::Result<u32> {
        let end = pos
            .checked_add(4)
            .filter(|&e| e <= data.len())
            .ok_or_else(|| bad("truncated column record"))?;
        let mut a = [0u8; 4];
        a.copy_from_slice(&data[*pos..end]);
        let v = u32::from_le_bytes(a);
        *pos = end;
        Ok(v)
    }
    let data = read_verified(path)?;
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let band = take_u32(&data, &mut pos)?;
        let col = take_u32(&data, &mut pos)?;
        let len = take_u32(&data, &mut pos)? as usize;
        if len > (data.len() - pos) / 4 {
            return Err(bad("column length exceeds file size"));
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(take_u32(&data, &mut pos)? as i32);
        }
        out.push(SavedColumn { band, col, values });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::linear::sw_score_linear;
    use genomedsm_core::matrix::sw_matrix;
    use genomedsm_seq::{planted_pair, HomologyPlan};

    const SC: Scoring = Scoring::paper();

    fn workload(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
        let (s, t, _) = planted_pair(len, len, &HomologyPlan::paper_density(len * 10), seed);
        (s.into_bytes(), t.into_bytes())
    }

    #[test]
    fn band_schemes_cover_all_rows() {
        for scheme in [
            BandScheme::Fixed(10),
            BandScheme::Fixed(7),
            BandScheme::Equal,
            BandScheme::Balanced(13),
        ] {
            let bands = scheme.bands(101, 4);
            assert_eq!(bands[0].0, 1);
            assert_eq!(bands.last().unwrap().1, 101);
            for w in bands.windows(2) {
                assert_eq!(w[0].1 + 1, w[1].0);
            }
        }
    }

    #[test]
    fn balanced_scheme_gives_every_node_equal_bands() {
        let bands = BandScheme::Balanced(1000).bands(8192, 4);
        // All bands but possibly the last have the same height.
        let h0 = bands[0].1 + 1 - bands[0].0;
        for &(lo, hi) in &bands[..bands.len() - 1] {
            assert_eq!(hi + 1 - lo, h0);
        }
    }

    #[test]
    fn chunk_plans_cover_all_columns() {
        for plan in [
            ChunkPlan::Fixed(100),
            ChunkPlan::Arithmetic {
                start: 10,
                step: 20,
            },
            ChunkPlan::Geometric {
                start: 8,
                factor: 2,
            },
        ] {
            let chunks = plan.chunks(777);
            assert_eq!(chunks[0].0, 1);
            assert_eq!(chunks.last().unwrap().1, 777);
            for w in chunks.windows(2) {
                assert_eq!(w[0].1 + 1, w[1].0);
            }
        }
    }

    #[test]
    fn geometric_chunks_grow() {
        let chunks = ChunkPlan::Geometric {
            start: 4,
            factor: 2,
        }
        .chunks(1000);
        let w0 = chunks[0].1 + 1 - chunks[0].0;
        let w1 = chunks[1].1 + 1 - chunks[1].0;
        assert_eq!(w0, 4);
        assert_eq!(w1, 8);
    }

    #[test]
    fn hits_and_best_match_the_oracle() {
        let (s, t) = workload(250, 21);
        let threshold = 12;
        let oracle = sw_score_linear(&s, &t, &SC, threshold);
        for nprocs in [1, 2, 4] {
            let mut config = PreprocessConfig::new(nprocs);
            config.band = BandScheme::Fixed(40);
            config.chunk = ChunkPlan::Fixed(64);
            config.threshold = threshold;
            config.result_interleave = 50;
            let out = preprocess_align(&s, &t, &SC, &config).unwrap();
            assert_eq!(out.total_hits(), oracle.hits as i64, "nprocs={nprocs}");
            assert_eq!(out.best_score, oracle.best_score, "nprocs={nprocs}");
        }
    }

    #[test]
    fn result_matrix_cells_match_full_matrix_counts() {
        let (s, t) = workload(120, 22);
        let threshold = 8;
        let mut config = PreprocessConfig::new(2);
        config.band = BandScheme::Fixed(30);
        config.chunk = ChunkPlan::Fixed(50);
        config.threshold = threshold;
        config.result_interleave = 25;
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        let full = sw_matrix(&s, &t, &SC);
        for (b, &(i0, i1)) in out.band_bounds.iter().enumerate() {
            for g in 0..out.result[b].len() {
                let mut expect = 0i64;
                for i in i0..=i1 {
                    for j in 1..=t.len() {
                        if (j - 1) / 25 == g && full.get(i, j) >= threshold {
                            expect += 1;
                        }
                    }
                }
                assert_eq!(out.result[b][g], expect, "band {b} group {g}");
            }
        }
    }

    #[test]
    fn io_modes_write_identical_files() {
        let (s, t) = workload(150, 23);
        let dir = std::env::temp_dir().join("genomedsm_pp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut results = Vec::new();
        for (mode, sub) in [(IoMode::Immediate, "imm"), (IoMode::Deferred, "def")] {
            let d = dir.join(sub);
            std::fs::create_dir_all(&d).unwrap();
            let mut config = PreprocessConfig::new(2);
            config.band = BandScheme::Fixed(40);
            config.chunk = ChunkPlan::Fixed(32);
            config.save_interleave = 16;
            config.io_mode = mode;
            config.save_dir = Some(d.clone());
            let out = preprocess_align(&s, &t, &SC, &config).unwrap();
            assert!(!out.files.is_empty());
            let mut cols: Vec<SavedColumn> = out
                .files
                .iter()
                .flat_map(|f| read_saved_columns(f).unwrap())
                .collect();
            cols.sort_by_key(|c| (c.band, c.col));
            results.push(cols);
        }
        assert_eq!(results[0], results[1], "modes must save the same data");
        assert!(!results[0].is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_columns_match_full_matrix() {
        let (s, t) = workload(100, 24);
        let dir = std::env::temp_dir().join("genomedsm_pp_cols_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = PreprocessConfig::new(2);
        config.band = BandScheme::Fixed(25);
        config.chunk = ChunkPlan::Fixed(40);
        config.save_interleave = 20;
        config.io_mode = IoMode::Immediate;
        config.save_dir = Some(dir.clone());
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        let full = sw_matrix(&s, &t, &SC);
        let mut seen = 0;
        for f in &out.files {
            for col in read_saved_columns(f).unwrap() {
                let (i0, _) = out.band_bounds[col.band as usize];
                for (r, &v) in col.values.iter().enumerate() {
                    assert_eq!(v, full.get(i0 + r, col.col as usize));
                    seen += 1;
                }
            }
        }
        assert!(seen > 0, "no saved cells checked");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kernel_choices_agree_with_scalar() {
        let (s, t) = workload(300, 25);
        let dir = std::env::temp_dir().join("genomedsm_pp_kernel_test");
        let mut outs = Vec::new();
        for (choice, sub) in [
            (KernelChoice::Scalar, "scalar"),
            (KernelChoice::Simd, "simd"),
        ] {
            let d = dir.join(sub);
            std::fs::create_dir_all(&d).unwrap();
            let mut config = PreprocessConfig::new(2);
            config.band = BandScheme::Fixed(37);
            config.chunk = ChunkPlan::Fixed(41);
            config.threshold = 10;
            config.result_interleave = 29;
            config.save_interleave = 23;
            config.io_mode = IoMode::Deferred;
            config.save_dir = Some(d.clone());
            config.kernel = choice;
            let out = preprocess_align(&s, &t, &SC, &config).unwrap();
            let mut cols: Vec<SavedColumn> = out
                .files
                .iter()
                .flat_map(|f| read_saved_columns(f).unwrap())
                .collect();
            cols.sort_by_key(|c| (c.band, c.col));
            outs.push((out.result.clone(), out.best_score, out.total_hits(), cols));
        }
        assert_eq!(outs[0], outs[1], "striped path must be bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_inputs() {
        let out = preprocess_align(b"", b"ACGT", &SC, &PreprocessConfig::new(2)).unwrap();
        assert_eq!(out.total_hits(), 0);
        assert_eq!(out.best_score, 0);
    }

    #[test]
    #[should_panic(expected = "requires a save_dir")]
    fn saving_without_dir_rejected() {
        let mut config = PreprocessConfig::new(1);
        config.io_mode = IoMode::Immediate;
        let _ = preprocess_align(b"ACGT", b"ACGT", &SC, &config);
    }

    #[test]
    fn corrupt_saved_column_file_is_rejected() {
        let (s, t) = workload(80, 26);
        let dir = std::env::temp_dir().join("genomedsm_pp_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = PreprocessConfig::new(1);
        config.band = BandScheme::Fixed(40);
        config.chunk = ChunkPlan::Fixed(40);
        config.save_interleave = 20;
        config.io_mode = IoMode::Deferred;
        config.save_dir = Some(dir.clone());
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        let file = &out.files[0];
        assert!(!read_saved_columns(file).unwrap().is_empty());
        let mut bytes = std::fs::read(file).unwrap();
        bytes[3] ^= 0x10;
        std::fs::write(file, &bytes).unwrap();
        let err = read_saved_columns(file).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn base_config(nprocs: usize, dir: &std::path::Path) -> PreprocessConfig {
        let mut c = PreprocessConfig::new(nprocs);
        c.band = BandScheme::Fixed(30);
        c.chunk = ChunkPlan::Fixed(48);
        c.threshold = 10;
        c.result_interleave = 40;
        c.save_interleave = 16;
        c.io_mode = IoMode::Deferred;
        c.save_dir = Some(dir.to_path_buf());
        c
    }

    fn tolerant(mut c: PreprocessConfig) -> PreprocessConfig {
        c.dsm = c.dsm.supervise(genomedsm_dsm::SupervisionConfig {
            enabled: true,
            detect_after: std::time::Duration::from_millis(40),
            watchdog: std::time::Duration::from_millis(400),
        });
        c
    }

    /// Asserts that two runs produced identical result matrices, best
    /// scores, and byte-identical per-node saved-column files.
    fn assert_identical(a: &PreprocessOutcome, b: &PreprocessOutcome, nprocs: usize) {
        assert_eq!(a.result, b.result);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.total_hits(), b.total_hits());
        let dir_a = a.files[0].parent().unwrap();
        let dir_b = b.files[0].parent().unwrap();
        for p in 0..nprocs {
            let fa = std::fs::read(dir_a.join(format!("node_{p}.cols"))).unwrap();
            let fb = std::fs::read(dir_b.join(format!("node_{p}.cols"))).unwrap();
            assert_eq!(fa, fb, "node_{p}.cols differs");
        }
    }

    /// The kernel branches the tolerant tests cover: the striped
    /// `BandScorer` chunk and the scalar recurrence, in both workers.
    const KERNELS: [KernelChoice; 2] = [KernelChoice::Scalar, KernelChoice::Simd];

    #[test]
    fn tolerant_mode_without_failures_matches_plain() {
        let (s, t) = workload(220, 31);
        let dir = std::env::temp_dir().join("genomedsm_pp_tol_parity");
        // Threshold 0 makes every cell a hit, which only the scalar
        // branch reproduces, so it runs scalar under either choice.
        for (kernel, threshold) in [(KERNELS[0], 10), (KERNELS[1], 10), (KERNELS[1], 0)] {
            for nprocs in [1, 2, 3] {
                let tag = format!("{kernel:?}_{threshold}_{nprocs}");
                let d_plain = dir.join(format!("plain_{tag}"));
                let d_tol = dir.join(format!("tol_{tag}"));
                std::fs::create_dir_all(&d_plain).unwrap();
                std::fs::create_dir_all(&d_tol).unwrap();
                let mut plain_cfg = base_config(nprocs, &d_plain);
                plain_cfg.kernel = kernel;
                plain_cfg.threshold = threshold;
                let mut tol_cfg = tolerant(base_config(nprocs, &d_tol));
                tol_cfg.kernel = kernel;
                tol_cfg.threshold = threshold;
                let plain = preprocess_align(&s, &t, &SC, &plain_cfg).unwrap();
                let tol = preprocess_align(&s, &t, &SC, &tol_cfg).unwrap();
                assert_identical(&plain, &tol, nprocs);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_death_recovers_bit_identical_including_files() {
        // Node 1 dies mid-band; node 2 adopts its bands, re-selects its
        // columns, and writes node_1.cols itself — every artifact must
        // match the fault-free run exactly. Immediate mode exercises the
        // per-column charge path.
        let (s, t) = workload(220, 32);
        let dir = std::env::temp_dir().join("genomedsm_pp_tol_death");
        for kernel in KERNELS {
            let d_plain = dir.join(format!("plain_{kernel:?}"));
            let d_tol = dir.join(format!("tol_{kernel:?}"));
            std::fs::create_dir_all(&d_plain).unwrap();
            std::fs::create_dir_all(&d_tol).unwrap();
            let mut plain_cfg = base_config(3, &d_plain);
            plain_cfg.io_mode = IoMode::Immediate;
            plain_cfg.kernel = kernel;
            let plain = preprocess_align(&s, &t, &SC, &plain_cfg).unwrap();
            let mut cfg = tolerant(base_config(3, &d_tol));
            cfg.io_mode = IoMode::Immediate;
            cfg.kernel = kernel;
            cfg.dsm = cfg
                .dsm
                .faults(std::sync::Arc::new(crate::KillPlan::new().kill(1, 4)));
            let tol = preprocess_align(&s, &t, &SC, &cfg).unwrap();
            assert_identical(&plain, &tol, 3);
            let takeovers: u64 = tol.per_node.iter().map(|s| s.takeovers).sum();
            assert!(takeovers >= 1, "no takeover recorded ({kernel:?})");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn contiguous_double_death_recovers() {
        let (s, t) = workload(240, 33);
        let dir = std::env::temp_dir().join("genomedsm_pp_tol_double");
        let d_plain = dir.join("plain");
        let d_tol = dir.join("tol");
        std::fs::create_dir_all(&d_plain).unwrap();
        std::fs::create_dir_all(&d_tol).unwrap();
        let plain = preprocess_align(&s, &t, &SC, &base_config(4, &d_plain)).unwrap();
        let mut cfg = tolerant(base_config(4, &d_tol));
        cfg.dsm = cfg.dsm.faults(std::sync::Arc::new(
            crate::KillPlan::new().kill(1, 3).kill(2, 5),
        ));
        let tol = preprocess_align(&s, &t, &SC, &cfg).unwrap();
        assert_identical(&plain, &tol, 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
