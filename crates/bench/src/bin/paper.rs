//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p genomedsm-bench --bin paper -- <experiment> [options]
//!
//! experiments:
//!   table1     heuristic-strategy total times (also prints Fig. 9 and Fig. 10)
//!   fig9       alias of table1 (speed-ups)
//!   fig10      alias of table1 (execution-time breakdown)
//!   table2     GenomeDSM vs BlastN best-alignment coordinates
//!   table3     blocking-multiplier sweep (50 kBP class, max procs)
//!   table4     blocked-strategy times and speed-ups (also Fig. 12, Fig. 13)
//!   fig12      alias of table4
//!   fig13      alias of table4 (blocked vs non-blocked at max procs)
//!   fig14      dot plot of the 50 kBP-class comparison (ASCII + SVG artifact)
//!   fig15      phase-2 speed-ups over subsequence-pair counts
//!   fig16      sample phase-2 global alignments
//!   fig18      pre-process strategy speed-ups (avg and best core times, also Fig. 19)
//!   fig19      alias of fig18 (blocking-option comparison)
//!   fig20      pre-process I/O-mode comparison
//!   section6   the Tables 5-7 worked example
//!   section6-area  measured vs theoretical useful area (Eqs. 2-3)
//!   hetero     heterogeneous-cluster what-if (the paper's §7 future work)
//!   ablation   design-choice ablations: ramped grids, network models
//!   kernels    vectorized-kernel GCUPS: scalar vs striped SSE2/AVX2 on a
//!              10k x 10k score-only workload
//!   batch      multi-query batch engine: aggregate GCUPS of a
//!              many-small-queries database search, lane-packed vs the
//!              per-pair kernel-launch baseline
//!   protein    protein subsystem: striped affine-gap (Gotoh) GCUPS under
//!              BLOSUM62 — per-pair and lane-packed, scalar vs SIMD, all
//!              bit-identical to the scalar oracle — plus the composition
//!              prefilter's pruning rate on a planted-homolog search
//!   serve      always-on alignment service: multi-client cold/warm
//!              sweep over a running server (cache hit rate, request
//!              throughput, bit-identical answers) plus a hot reload
//!              under load
//!   sockets    multi-process UDP sweep: the full strategy workload run
//!              as real OS processes over loopback datagram sockets at
//!              increasing injected drop rates, asserting bit-identical
//!              reports and recording datagram/retransmit counts
//!   chaos      reliability sweep: pre-process runs under 0-15% per-link
//!              drop (plus duplication/reordering and one node crash),
//!              recording retransmit counts and virtual-time overhead
//!   takeover   degradation sweep: every strategy run with 0-3 of the
//!              nodes fail-stopped mid-run, verifying exact-match
//!              results on the survivors and recording takeover counts
//!              and the virtual-time cost of each death
//!   rejoin     elastic-membership sweep: a 3-round campaign with k of
//!              the nodes killed in round 0 and readmitted at the next
//!              workload boundary, asserting every round bit-identical
//!              to the fault-free campaign and post-rejoin rounds
//!              faster than a permanently degraded N-k cluster
//!   summary    machine-checked repro gate: re-run the key claims and
//!              print PASS/FAIL per claim
//!   all        everything above
//!
//! options:
//!   --scale N      divide the paper's sequence sizes by N (default 10;
//!                  --scale 1 reproduces the original sizes — hours!)
//!   --procs LIST   comma-separated processor counts (default 1,2,4,8)
//!   --out DIR      artifact directory (default bench_out/)
//! ```

use genomedsm_bench::report::Table;
use genomedsm_bench::{secs, speedup, workloads, HarnessArgs};
use genomedsm_core::nw::render_region_alignment;
use genomedsm_core::reverse::{recover_start, reverse_align_all, theoretical_necessary_fraction};
use genomedsm_core::{fnv1a, HeuristicParams, LocalRegion, Scoring, FNV_OFFSET};
use genomedsm_dotplot::{ascii_plot, svg_plot, PlotSpec};
use genomedsm_dsm::breakdown_many;
use genomedsm_strategies::{
    heuristic_align_dsm, heuristic_block_align, phase2_scattered, preprocess_align, BandScheme,
    BlockedConfig, ChunkPlan, HeuristicDsmConfig, IoMode, Phase1Outcome, PreprocessConfig,
};
use std::time::Duration;

const SC: Scoring = Scoring::paper();

fn params() -> HeuristicParams {
    HeuristicParams::default_for_dna()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = String::from("all");
    let mut args = HarnessArgs::default();
    let mut it = argv.iter().peekable();
    let mut positional_seen = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a positive integer");
            }
            "--procs" => {
                args.procs = it
                    .next()
                    .expect("--procs needs a list")
                    .split(',')
                    .map(|p| p.parse().expect("processor count"))
                    .collect();
            }
            "--out" => {
                args.out_dir = it.next().expect("--out needs a path").into();
            }
            "--help" | "-h" => {
                print!("{}", HELP);
                return;
            }
            other if !positional_seen => {
                experiment = other.to_string();
                positional_seen = true;
            }
            other => panic!("unexpected argument: {other}"),
        }
    }
    assert!(!args.procs.is_empty(), "need at least one processor count");

    println!(
        "# paper harness: experiment={experiment} scale=1/{} procs={:?}\n",
        args.scale, args.procs
    );
    match experiment.as_str() {
        "table1" | "fig9" | "fig10" => table1_fig9_fig10(&args),
        "table2" => table2(&args),
        "table3" => table3(&args),
        "table4" | "fig12" | "fig13" => table4_fig12_fig13(&args),
        "fig14" => fig14(&args),
        "fig15" => fig15(&args),
        "fig16" => fig16(&args),
        "fig18" | "fig19" => fig18_fig19(&args),
        "fig20" => fig20(&args),
        "section6" => section6(&args),
        "section6-area" => section6_area(&args),
        "hetero" => hetero(&args),
        "ablation" => ablation(&args),
        "kernels" => kernels_bench(&args),
        "batch" => batch_bench(&args),
        "protein" => protein_bench(&args),
        "serve" => serve_bench(&args),
        "sockets" => sockets_bench(&args),
        "chaos" => chaos_sweep(&args),
        "takeover" => takeover_sweep(&args),
        "rejoin" => rejoin_sweep(&args),
        "summary" => summary(&args),
        "all" => {
            table1_fig9_fig10(&args);
            table2(&args);
            table3(&args);
            table4_fig12_fig13(&args);
            fig14(&args);
            fig15(&args);
            fig16(&args);
            fig18_fig19(&args);
            fig20(&args);
            section6(&args);
            section6_area(&args);
            hetero(&args);
            ablation(&args);
            kernels_bench(&args);
            batch_bench(&args);
            protein_bench(&args);
            serve_bench(&args);
            sockets_bench(&args);
            chaos_sweep(&args);
            takeover_sweep(&args);
            rejoin_sweep(&args);
        }
        other => {
            eprintln!("unknown experiment '{other}'\n{HELP}");
            std::process::exit(2);
        }
    }
}

const HELP: &str = "\
usage: paper <experiment> [--scale N] [--procs 1,2,4,8] [--out DIR]
experiments: table1 fig9 fig10 table2 table3 table4 fig12 fig13 fig14 fig15\n             fig16 fig18 fig19 fig20 section6 section6-area hetero ablation\n             kernels batch protein serve sockets chaos takeover rejoin\n             summary all\n";

/// The serial reference: a 1-node cluster run (virtual time = cells x
/// calibrated cell cost plus negligible self-messaging), which matches the
/// sequential program the paper compares against.
fn serial_heuristic(s: &[u8], t: &[u8]) -> (Duration, usize) {
    let out = heuristic_align_dsm(s, t, &SC, &params(), &HeuristicDsmConfig::new(1));
    (out.wall, out.regions.len())
}

// ---------------------------------------------------------------------
// Table 1 / Fig. 9 / Fig. 10 — heuristic strategy without blocking
// ---------------------------------------------------------------------

fn table1_fig9_fig10(args: &HarnessArgs) {
    let paper_sizes = [15_000usize, 50_000, 80_000, 150_000, 400_000];
    let mut header: Vec<String> = vec!["size (n x n)".into(), "serial".into()];
    for &p in args.procs.iter().filter(|&&p| p > 1) {
        header.push(format!("{p} proc"));
    }
    let mut t1 = Table::new(
        "Table 1: total execution times (s), heuristic strategy (no blocking)",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut f9 = Table::new(
        "Fig. 9: absolute speed-ups, heuristic strategy",
        &header
            .iter()
            .map(|h| {
                if h == "serial" {
                    "serial (=1)"
                } else {
                    h.as_str()
                }
            })
            .collect::<Vec<_>>(),
    );
    let mut f10 = Table::new(
        "Fig. 10: execution-time breakdown at max procs (%)",
        &["size", "computation", "communication", "lock+cv", "barrier"],
    );

    for paper_bp in paper_sizes {
        let len = args.size(paper_bp);
        let (s, t, _) = workloads::pair(len, 1);
        let (serial, serial_regions) = serial_heuristic(&s, &t);
        let mut row = vec![format!("{len}x{len}"), secs(serial)];
        let mut srow = vec![format!("{len}x{len}"), "1.00".into()];
        let mut last: Option<Phase1Outcome> = None;
        for &p in args.procs.iter().filter(|&&p| p > 1) {
            let out = heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(p));
            assert_eq!(
                out.regions.len(),
                serial_regions,
                "parallel must match serial"
            );
            row.push(secs(out.wall));
            srow.push(format!("{:.2}", speedup(serial, out.wall)));
            last = Some(out);
        }
        t1.row(&row);
        f9.row(&srow);
        if let Some(out) = last {
            let b = breakdown_many(&out.per_node);
            f10.row(&[
                format!("{len}"),
                format!("{:.1}", b.computation * 100.0),
                format!("{:.1}", b.communication * 100.0),
                format!("{:.1}", b.lock_cv * 100.0),
                format!("{:.1}", b.barrier * 100.0),
            ]);
        }
        eprintln!("[table1] {len} done");
    }
    print!("{}", t1.render());
    println!();
    print!("{}", f9.render());
    println!();
    print!("{}", f10.render());
    println!();
    t1.save_csv(&args.artifact("table1.csv")).expect("csv");
    f9.save_csv(&args.artifact("fig9.csv")).expect("csv");
    f10.save_csv(&args.artifact("fig10.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Table 2 — GenomeDSM vs BlastN
// ---------------------------------------------------------------------

fn table2(args: &HarnessArgs) {
    let len = args.size(50_000);
    let (s, t, _) = workloads::pair(len, 2);
    let nprocs = *args.procs.iter().max().expect("procs");
    let dsm = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(nprocs, 40, 40));
    let blast = genomedsm_blast::BlastN::default()
        .search(&s, &t)
        .expect("clean DNA input");

    let mut best: Vec<&LocalRegion> = dsm.regions.iter().collect();
    best.sort_by_key(|r| -r.score);
    let mut tab = Table::new(
        "Table 2: GenomeDSM vs BlastN best-alignment coordinates",
        &["alignment", "", "GenomeDSM", "BlastN"],
    );
    for (rank, region) in best.iter().take(3).enumerate() {
        let near = blast.iter().find(|h| h.overlaps(region));
        let ((sb, tb), (se, te)) = region.paper_coords();
        let (bb, be) = match near {
            Some(h) => {
                let ((a, b), (c, d)) = h.paper_coords();
                (format!("({a},{b})"), format!("({c},{d})"))
            }
            None => ("-".into(), "-".into()),
        };
        tab.row(&[
            format!("Alignment {}", rank + 1),
            "begin".into(),
            format!("({sb},{tb})"),
            bb,
        ]);
        tab.row(&[String::new(), "end".into(), format!("({se},{te})"), be]);
    }
    print!("{}", tab.render());
    println!(
        "\nGenomeDSM regions: {}; BlastN HSPs: {} (close but not identical, as in the paper)\n",
        dsm.regions.len(),
        blast.len()
    );
    tab.save_csv(&args.artifact("table2.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Table 3 — blocking-multiplier sweep
// ---------------------------------------------------------------------

fn table3(args: &HarnessArgs) {
    let len = args.size(50_000);
    let (s, t, _) = workloads::pair(len, 3);
    let nprocs = *args.procs.iter().max().expect("procs");
    let mut tab = Table::new(
        &format!("Table 3: {nprocs}-proc times for varying blocking multipliers ({len} bp)"),
        &["blocking factor", "time (s)", "gain vs 1x1 (%)"],
    );
    let mut base: Option<Duration> = None;
    for mult in 1..=5usize {
        let config = BlockedConfig::from_multiplier(nprocs, mult, mult);
        let out = heuristic_block_align(&s, &t, &SC, &params(), &config);
        let gain = match base {
            None => {
                base = Some(out.wall);
                0.0
            }
            Some(b) => (b.as_secs_f64() / out.wall.as_secs_f64() - 1.0) * 100.0,
        };
        tab.row(&[
            format!("{mult} x {mult}"),
            secs(out.wall),
            format!("{gain:.0}"),
        ]);
        eprintln!("[table3] {mult}x{mult} done");
    }
    print!("{}", tab.render());
    println!();
    tab.save_csv(&args.artifact("table3.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Table 4 / Fig. 12 / Fig. 13 — blocked strategy
// ---------------------------------------------------------------------

fn table4_fig12_fig13(args: &HarnessArgs) {
    // (paper size, bands, blocks) per Table 4.
    let setups = [(8_000usize, 40, 40), (15_000, 40, 40), (50_000, 40, 25)];
    let mut header: Vec<String> = vec!["size".into(), "bands".into(), "serial".into()];
    for &p in args.procs.iter().filter(|&&p| p > 1) {
        header.push(format!("{p}p time"));
        header.push(format!("{p}p spdup"));
    }
    let mut t4 = Table::new(
        "Table 4 / Fig. 12: blocked strategy times (s) and speed-ups",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut f13 = Table::new(
        "Fig. 13: blocked vs non-blocked at max procs (s)",
        &["size", "serial", "maxp blocked", "maxp non-blocked"],
    );
    let maxp = *args.procs.iter().max().expect("procs");
    for (paper_bp, bands, blocks) in setups {
        let len = args.size(paper_bp);
        let (s, t, _) = workloads::pair(len, 4);
        let serial = heuristic_block_align(
            &s,
            &t,
            &SC,
            &params(),
            &BlockedConfig::new(1, bands, blocks),
        )
        .wall;
        let mut row = vec![format!("{len}"), format!("{bands}x{blocks}"), secs(serial)];
        let mut blocked_maxp = Duration::ZERO;
        for &p in args.procs.iter().filter(|&&p| p > 1) {
            let out = heuristic_block_align(
                &s,
                &t,
                &SC,
                &params(),
                &BlockedConfig::new(p, bands, blocks),
            );
            row.push(secs(out.wall));
            row.push(format!("{:.2}", speedup(serial, out.wall)));
            if p == maxp {
                blocked_maxp = out.wall;
            }
        }
        t4.row(&row);
        if paper_bp >= 15_000 {
            let noblock =
                heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(maxp));
            f13.row(&[
                format!("{len}"),
                secs(serial),
                secs(blocked_maxp),
                secs(noblock.wall),
            ]);
        }
        eprintln!("[table4] {len} done");
    }
    print!("{}", t4.render());
    println!();
    print!("{}", f13.render());
    println!();
    t4.save_csv(&args.artifact("table4.csv")).expect("csv");
    f13.save_csv(&args.artifact("fig13.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Fig. 14 — dot plot
// ---------------------------------------------------------------------

fn fig14(args: &HarnessArgs) {
    let len = args.size(50_000);
    let (s, t, _) = workloads::pair(len, 2);
    let nprocs = *args.procs.iter().max().expect("procs");
    let out = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(nprocs, 40, 40));
    println!(
        "== Fig. 14: dot plot of the {len} bp comparison ({} similar regions) ==",
        out.regions.len()
    );
    let spec = PlotSpec::new(s.len(), t.len());
    print!("{}", ascii_plot(&out.regions, &spec, 72, 28));
    let svg = svg_plot(&out.regions, &spec, 800, 800);
    let path = args.artifact("fig14.svg");
    std::fs::write(&path, svg).expect("write svg");
    // Zoom into the densest quadrant, like the paper's zoom feature.
    let zoom_spec = PlotSpec::new(s.len(), t.len()).zoom(0..len / 2, 0..len / 2);
    let zoom = svg_plot(&out.regions, &zoom_spec, 800, 800);
    let zpath = args.artifact("fig14_zoom.svg");
    std::fs::write(&zpath, zoom).expect("write svg");
    println!("wrote {} and {}\n", path.display(), zpath.display());
}

// ---------------------------------------------------------------------
// Fig. 15 — phase-2 speed-ups
// ---------------------------------------------------------------------

fn fig15(args: &HarnessArgs) {
    let counts = [100usize, 1000, 2000, 3000, 4000, 5000];
    let mut header: Vec<String> = vec!["pairs".into(), "serial (s)".into()];
    for &p in args.procs.iter().filter(|&&p| p > 1) {
        header.push(format!("{p}p spdup"));
    }
    let mut tab = Table::new(
        "Fig. 15: phase-2 speed-ups (global alignment of ~253 bp subsequence pairs)",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for count in counts {
        // Build a concatenated pair of sequences plus one region per pair,
        // so phase 2 sees the same scattered work the paper describes.
        let pairs = workloads::subsequence_pairs(count, 253, 5);
        let mut s = Vec::new();
        let mut t = Vec::new();
        let mut regions = Vec::with_capacity(count);
        for (ps, pt) in &pairs {
            let r = LocalRegion {
                s_begin: s.len(),
                s_end: s.len() + ps.len(),
                t_begin: t.len(),
                t_end: t.len() + pt.len(),
                score: 0,
            };
            s.extend_from_slice(ps.as_bytes());
            t.extend_from_slice(pt.as_bytes());
            regions.push(r);
        }
        let serial = phase2_scattered(&s, &t, &regions, &SC, 1).unwrap();
        let mut row = vec![format!("{count}"), secs(serial.wall)];
        for &p in args.procs.iter().filter(|&&p| p > 1) {
            let out = phase2_scattered(&s, &t, &regions, &SC, p).unwrap();
            assert_eq!(out.alignments, serial.alignments);
            row.push(format!("{:.2}", speedup(serial.wall, out.wall)));
        }
        tab.row(&row);
        eprintln!("[fig15] {count} pairs done");
    }
    print!("{}", tab.render());
    println!();
    tab.save_csv(&args.artifact("fig15.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Fig. 16 — sample phase-2 alignments
// ---------------------------------------------------------------------

fn fig16(args: &HarnessArgs) {
    let len = args.size(50_000).min(8_000);
    let (s, t, _) = workloads::pair(len, 2);
    let phase1 = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(4, 16, 16));
    let phase2 = phase2_scattered(&s, &t, &phase1.regions, &SC, 4).unwrap();
    println!("== Fig. 16: global alignments of two subsequences generated in phase 1 ==\n");
    for ra in phase2.alignments.iter().take(2) {
        println!("{}", render_region_alignment(ra));
    }
}

// ---------------------------------------------------------------------
// Fig. 18 / Fig. 19 — pre-process strategy
// ---------------------------------------------------------------------

fn preprocess_configs(args: &HarnessArgs, nprocs: usize) -> Vec<(String, PreprocessConfig)> {
    let b1k = args.size(1024); // "1K" blocks, scaled with the sizes
    let b4k = args.size(4096);
    let mk = |band: BandScheme, chunk: usize| {
        let mut c = PreprocessConfig::new(nprocs);
        c.band = band;
        c.chunk = ChunkPlan::Fixed(chunk);
        c.result_interleave = chunk;
        c.save_interleave = chunk;
        c.io_mode = IoMode::None;
        c
    };
    vec![
        (
            format!("Bal. {b1k} blks"),
            mk(BandScheme::Balanced(b1k), b1k),
        ),
        ("Equal blks".into(), mk(BandScheme::Equal, b1k)),
        (format!("{b1k} blks"), mk(BandScheme::Fixed(b1k), b1k)),
        (
            format!("Bal. {b4k} blks"),
            mk(BandScheme::Balanced(b4k), b4k),
        ),
        (format!("{b4k} blks"), mk(BandScheme::Fixed(b4k), b4k)),
    ]
}

fn fig18_fig19(args: &HarnessArgs) {
    let paper_sizes = [16_000usize, 40_000, 80_000];
    let mut f19 = Table::new(
        "Fig. 19: effect of blocking options on pre-process core times (s), no I/O",
        &["procs", "size", "config", "core (s)"],
    );
    // speeds[size][p] = (avg core, best core)
    let mut avg_core: Vec<Vec<(usize, Duration, Duration)>> = Vec::new();
    for &paper_bp in &paper_sizes {
        let len = args.size(paper_bp);
        let (s, t, _) = workloads::pair(len, 6);
        let mut per_proc = Vec::new();
        for &p in &args.procs {
            let mut cores = Vec::new();
            for (name, config) in preprocess_configs(args, p) {
                let out = preprocess_align(&s, &t, &SC, &config).unwrap();
                f19.row(&[
                    format!("{p}"),
                    format!("{len}"),
                    name,
                    secs(out.core_time()),
                ]);
                cores.push(out.core_time());
            }
            let avg = cores.iter().sum::<Duration>() / cores.len() as u32;
            let best = *cores.iter().min().expect("non-empty");
            per_proc.push((p, avg, best));
            eprintln!("[fig18] size {len} procs {p} done");
        }
        avg_core.push(per_proc);
    }

    let mut header: Vec<String> = vec!["size".into()];
    for &p in &args.procs {
        header.push(format!("{p}p avg-spdup"));
        header.push(format!("{p}p best-spdup"));
    }
    let mut f18 = Table::new(
        "Fig. 18: pre-process speed-ups on average and best core times",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for (i, &paper_bp) in paper_sizes.iter().enumerate() {
        let len = args.size(paper_bp);
        let serial_avg = avg_core[i]
            .iter()
            .find(|(p, _, _)| *p == 1)
            .map(|(_, a, _)| *a)
            .unwrap_or_else(|| avg_core[i][0].1);
        let serial_best = avg_core[i]
            .iter()
            .find(|(p, _, _)| *p == 1)
            .map(|(_, _, b)| *b)
            .unwrap_or_else(|| avg_core[i][0].2);
        let mut row = vec![format!("{len}")];
        for &(p, avg, best) in &avg_core[i] {
            let _ = p;
            row.push(format!("{:.2}", speedup(serial_avg, avg)));
            row.push(format!("{:.2}", speedup(serial_best, best)));
        }
        f18.row(&row);
    }
    print!("{}", f18.render());
    println!();
    print!("{}", f19.render());
    println!();
    f18.save_csv(&args.artifact("fig18.csv")).expect("csv");
    f19.save_csv(&args.artifact("fig19.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Fig. 20 — I/O modes
// ---------------------------------------------------------------------

fn fig20(args: &HarnessArgs) {
    let paper_sizes = [16_000usize, 40_000, 80_000];
    let b1k = args.size(1024);
    let dir = args.artifact("fig20_columns");
    std::fs::create_dir_all(&dir).expect("column dir");
    let mut tab = Table::new(
        "Fig. 20: effect of I/O options on pre-process core times (s), 1K-class blocks",
        &["procs", "size", "no IO", "immediate IO", "deferred IO"],
    );
    for &p in &args.procs {
        for &paper_bp in &paper_sizes {
            let len = args.size(paper_bp);
            let (s, t, _) = workloads::pair(len, 7);
            let mut cells = vec![format!("{p}"), format!("{len}")];
            for mode in [IoMode::None, IoMode::Immediate, IoMode::Deferred] {
                let mut config = PreprocessConfig::new(p);
                config.band = BandScheme::Balanced(b1k);
                config.chunk = ChunkPlan::Fixed(b1k);
                config.result_interleave = b1k;
                config.save_interleave = b1k;
                config.io_mode = mode;
                if mode != IoMode::None {
                    config.save_dir = Some(dir.clone());
                }
                let out = preprocess_align(&s, &t, &SC, &config).unwrap();
                cells.push(secs(out.core_time()));
            }
            tab.row(&cells);
        }
        eprintln!("[fig20] procs {p} done");
    }
    print!("{}", tab.render());
    println!();
    tab.save_csv(&args.artifact("fig20.csv")).expect("csv");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Section 6 — worked example and useful-area measurement
// ---------------------------------------------------------------------

fn section6(_args: &HarnessArgs) {
    let s = b"TCTCGACGGATTAGTATATATATA";
    let t = b"ATATGATCGGAATAGCTCT";
    println!("== Section 6 (Tables 5-7): worked example ==");
    println!("s = {}", std::str::from_utf8(s).unwrap());
    println!("t = {}", std::str::from_utf8(t).unwrap());
    let full = genomedsm_core::matrix::sw_matrix(s, t, &SC);
    let (ei, ej, best) = full.maximum();
    println!(
        "Table 5: best score {best} detected at positions ({ei}, {ej}) — paper: score 6 at (14, 15)"
    );
    let ((i0, j0), stats) = recover_start(s, t, &SC, ei, ej, best).expect("recoverable");
    println!(
        "Table 6/7: reverse DP recovers the start at ({}, {}) evaluating {} cells \
         (full reverse window {} cells — zero elimination skipped {:.0}%)",
        i0 + 1,
        j0 + 1,
        stats.evaluated_cells,
        ei * ej,
        (1.0 - stats.evaluated_cells as f64 / (ei * ej) as f64) * 100.0
    );
    for rec in reverse_align_all(s, t, &SC, best) {
        println!("\nrecovered alignment ({}):", rec.region);
        println!("{}", rec.alignment.pretty(60));
    }
}

fn section6_area(args: &HarnessArgs) {
    let mut tab = Table::new(
        "Section 6 (Eqs. 2-3): necessary area of the n' x n' reverse window",
        &["n'", "evaluated cells", "measured %", "theory %"],
    );
    for region_len in [100usize, 300, 1000, 3000] {
        let plan = genomedsm_seq::HomologyPlan {
            region_count: 1,
            region_len_mean: region_len,
            region_len_jitter: 0,
            profile: genomedsm_seq::MutationProfile::similar(),
        };
        let (s, t, _) =
            genomedsm_seq::planted_pair(region_len * 3, region_len * 3, &plan, region_len as u64);
        if let Some(rec) = genomedsm_core::reverse::reverse_align_best(&s, &t, &SC) {
            let n_prime = rec.region.s_len().max(rec.region.t_len());
            tab.row(&[
                format!("{n_prime}"),
                format!("{}", rec.stats.evaluated_cells),
                format!("{:.1}", rec.stats.evaluated_fraction() * 100.0),
                format!("{:.1}", theoretical_necessary_fraction(n_prime) * 100.0),
            ]);
        }
    }
    print!("{}", tab.render());
    println!("(paper: ~30% of the window is necessary in the worst case)\n");
    tab.save_csv(&args.artifact("section6_area.csv"))
        .expect("csv");
}

// ---------------------------------------------------------------------
// Heterogeneous cluster (the paper's §7 future work)
// ---------------------------------------------------------------------

fn hetero(args: &HarnessArgs) {
    let len = args.size(50_000);
    let (s, t, _) = workloads::pair(len, 8);
    let nprocs = *args.procs.iter().max().expect("procs");
    let profiles: Vec<(&str, Vec<f64>)> = vec![
        ("homogeneous", vec![1.0; nprocs]),
        (
            "half slow (0.5x)",
            (0..nprocs)
                .map(|i| if i >= nprocs / 2 { 0.5 } else { 1.0 })
                .collect(),
        ),
        (
            "one straggler (0.25x)",
            (0..nprocs)
                .map(|i| if i == nprocs - 1 { 0.25 } else { 1.0 })
                .collect(),
        ),
    ];
    let mut tab = Table::new(
        &format!("Heterogeneous cluster (§7): blocked strategy, {nprocs} nodes, {len} bp"),
        &["profile", "time (s)", "vs homogeneous"],
    );
    let mut base: Option<Duration> = None;
    for (name, speeds) in profiles {
        let mut config = BlockedConfig::new(nprocs, 40, 25);
        config.dsm = config.dsm.speeds(speeds);
        let out = heuristic_block_align(&s, &t, &SC, &params(), &config);
        let rel = match base {
            None => {
                base = Some(out.wall);
                1.0
            }
            Some(b) => out.wall.as_secs_f64() / b.as_secs_f64(),
        };
        tab.row(&[name.to_string(), secs(out.wall), format!("{rel:.2}x")]);
        eprintln!("[hetero] {name} done");
    }
    print!("{}", tab.render());
    println!(
        "(cyclic band assignment gives no rebalancing: the wavefront throttles to the\n slowest node, the §7 motivation for heterogeneity-aware scheduling)\n"
    );
    tab.save_csv(&args.artifact("hetero.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Ablations: ramped grids and network models
// ---------------------------------------------------------------------

fn ablation(args: &HarnessArgs) {
    let len = args.size(50_000);
    let (s, t, _) = workloads::pair(len, 9);
    let nprocs = *args.procs.iter().max().expect("procs");

    let mut ramp = Table::new(
        &format!("Ablation: uniform vs ramped grids (§4.3), {nprocs} procs, {len} bp"),
        &["grid", "uniform (s)", "ramped (s)", "gain (%)"],
    );
    for (bands, blocks) in [(nprocs, nprocs), (2 * nprocs, 2 * nprocs), (40, 25)] {
        let uni = heuristic_block_align(
            &s,
            &t,
            &SC,
            &params(),
            &BlockedConfig::new(nprocs, bands, blocks),
        );
        let ram = heuristic_block_align(
            &s,
            &t,
            &SC,
            &params(),
            &BlockedConfig::new(nprocs, bands, blocks).ramped(2),
        );
        assert_eq!(uni.regions, ram.regions);
        let gain = (uni.wall.as_secs_f64() / ram.wall.as_secs_f64() - 1.0) * 100.0;
        ramp.row(&[
            format!("{bands}x{blocks}"),
            secs(uni.wall),
            secs(ram.wall),
            format!("{gain:.0}"),
        ]);
        eprintln!("[ablation] ramp {bands}x{blocks} done");
    }
    print!("{}", ramp.render());
    println!();

    let mut net = Table::new(
        &format!("Ablation: network models, blocked 40x25, {nprocs} procs, {len} bp"),
        &["network", "time (s)", "speed-up vs serial"],
    );
    let serial = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(1, 40, 25)).wall;
    for (name, model) in [
        (
            "paper cluster (750us)",
            genomedsm_dsm::NetworkModel::paper_cluster(),
        ),
        (
            "fast ethernet (70us)",
            genomedsm_dsm::NetworkModel::fast_ethernet(),
        ),
        ("zero-cost", genomedsm_dsm::NetworkModel::zero()),
    ] {
        let mut config = BlockedConfig::new(nprocs, 40, 25);
        config.dsm = config.dsm.network(model);
        let out = heuristic_block_align(&s, &t, &SC, &params(), &config);
        net.row(&[
            name.to_string(),
            secs(out.wall),
            format!("{:.2}", speedup(serial, out.wall)),
        ]);
        eprintln!("[ablation] net {name} done");
    }
    print!("{}", net.render());
    println!();

    // JIAJIA's home-migration feature. The alignment strategies already
    // home their shared buffers on the writers, so the feature shows on
    // the classic migration-friendly pattern instead: an iterative
    // owner-computes kernel over a round-robin-homed array (each node
    // repeatedly rewrites its own block, ~ (P-1)/P of which starts
    // remote). With migration the single-writer pages move to their
    // writers after the first round and the diff traffic collapses.
    let mut mig = Table::new(
        &format!("Ablation: home migration (jia_config), owner-computes kernel, {nprocs} procs"),
        &["feature", "cluster time", "diffs", "migrations"],
    );
    for on in [false, true] {
        let config = genomedsm_dsm::DsmConfig::new(nprocs)
            .network(genomedsm_dsm::NetworkModel::paper_cluster())
            .home_migration(on);
        let run = genomedsm_dsm::DsmSystem::run(config, |node| {
            const ELEMS_PER_NODE: usize = 8 * 512; // 8 pages each
            let p = node.nprocs();
            let v = node.alloc_vec::<i64>(ELEMS_PER_NODE * p);
            node.barrier();
            for round in 0..20i64 {
                let base = node.id() * ELEMS_PER_NODE;
                for k in 0..ELEMS_PER_NODE {
                    node.vec_set(&v, base + k, round + k as i64);
                }
                node.advance(Duration::from_micros(500)); // modeled compute
                node.barrier();
            }
        });
        let mut agg = genomedsm_dsm::NodeStats::default();
        for s in &run.stats {
            agg.merge(s);
        }
        mig.row(&[
            if on {
                "migration ON"
            } else {
                "migration OFF (JIAJIA default)"
            }
            .to_string(),
            secs(agg.total),
            format!("{}", agg.diffs_sent),
            format!("{}", agg.migrations),
        ]);
        eprintln!("[ablation] migration {on} done");
    }
    print!("{}", mig.render());
    println!();
    ramp.save_csv(&args.artifact("ablation_ramp.csv"))
        .expect("csv");
    net.save_csv(&args.artifact("ablation_network.csv"))
        .expect("csv");
    mig.save_csv(&args.artifact("ablation_migration.csv"))
        .expect("csv");
}

// ---------------------------------------------------------------------
// Kernel layer: scalar vs striped SIMD GCUPS
// ---------------------------------------------------------------------

/// Best-of-3 host time of one score-only pass (threshold disabled via
/// `i32::MAX`, which turns off hit counting in every kernel).
fn time_kernel(kernel: &dyn genomedsm_kernels::ScoreKernel, s: &[u8], t: &[u8]) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(kernel.score(s, t, &SC, i32::MAX));
        best = best.min(t0.elapsed());
    }
    best
}

fn gcups(cells: f64, time: Duration) -> f64 {
    cells / time.as_secs_f64().max(1e-9) / 1e9
}

fn kernels_bench(args: &HarnessArgs) {
    let len = 10_000usize; // fixed: the kernel claim is host-hardware, not scale-dependent
    let (s, t, _) = workloads::pair(len, 31);
    let cells = (len * len) as f64;
    let mut tab = Table::new(
        "Kernel layer: single-thread score-only rates, 10k x 10k (host hardware)",
        &["kernel", "time (s)", "GCUPS", "speed-up vs scalar"],
    );
    let mut base: Option<Duration> = None;
    for kernel in genomedsm_kernels::available_kernels() {
        let time = time_kernel(kernel, &s, &t);
        let base = *base.get_or_insert(time); // first row is the scalar kernel
        tab.row(&[
            kernel.name().into(),
            secs(time),
            format!("{:.3}", gcups(cells, time)),
            format!("{:.2}", base.as_secs_f64() / time.as_secs_f64()),
        ]);
        eprintln!("[kernels] {} done", kernel.name());
    }
    print!("{}", tab.render());
    println!();
    tab.save_csv(&args.artifact("kernels.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Batch engine: lane-packed database search vs per-pair kernel launches
// ---------------------------------------------------------------------

/// The many-small-queries workload the per-pair path handles worst:
/// every (query, record) pair pays a full kernel launch (profile build,
/// state allocation, mostly-idle lanes on a short query), while the
/// batch engine packs a different query per lane and reuses one packed
/// profile across a whole slab of records.
fn batch_workload(
    queries: usize,
    q_len: usize,
    records: usize,
    t_len: usize,
) -> (Vec<Vec<u8>>, genomedsm_batch::SeqDatabase) {
    let qs: Vec<Vec<u8>> = (0..queries)
        .map(|i| {
            genomedsm_seq::random_dna(q_len / 2 + (i * 13) % q_len, 9_000 + i as u64).into_bytes()
        })
        .collect();
    let db = genomedsm_batch::SeqDatabase::from_records(
        (0..records)
            .map(|i| genomedsm_seq::fasta::FastaRecord {
                id: format!("rec{i}"),
                seq: genomedsm_seq::random_dna(t_len / 2 + (i * 29) % t_len, 7_000 + i as u64),
            })
            .collect(),
    );
    (qs, db)
}

/// Per-pair baseline: one kernel launch per (query, record) pair, the
/// same top-k bookkeeping as the engine.
fn per_pair_search(
    choice: genomedsm_kernels::KernelChoice,
    refs: &[&[u8]],
    db: &genomedsm_batch::SeqDatabase,
    top_k: usize,
) -> Vec<Vec<genomedsm_batch::Hit>> {
    let kernel = genomedsm_kernels::kernel_for(choice);
    refs.iter()
        .map(|q| {
            let mut tk = genomedsm_batch::TopK::new(top_k);
            for t in 0..db.len() {
                let r = kernel.score(q, db.seq(t), &SC, 0);
                if r.best_score > 0 {
                    tk.push(genomedsm_batch::Hit {
                        score: r.best_score,
                        target: t,
                        end: r.best_end,
                    });
                }
            }
            tk.into_sorted()
        })
        .collect()
}

fn batch_bench(args: &HarnessArgs) {
    use genomedsm_batch::{BatchConfig, BatchEngine};
    use genomedsm_kernels::KernelChoice;
    // Fixed sizes: like the kernel bench, this is a host-hardware claim,
    // not a paper-scale reproduction.
    let (queries, db) = batch_workload(96, 64, 192, 256);
    let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    let cells: f64 = refs.iter().map(|q| q.len() as f64).sum::<f64>() * db.total_bases() as f64;
    let top_k = 5;

    let mut tab = Table::new(
        &format!(
            "Batch engine: {} queries x {} records ({:.1} Mcells), single host",
            refs.len(),
            db.len(),
            cells / 1e6
        ),
        &["path", "kernel", "time (s)", "GCUPS", "vs per-pair scalar"],
    );
    let reference = per_pair_search(KernelChoice::Scalar, &refs, &db, top_k);
    let mut base: Option<Duration> = None;
    let mut timed = |name: &str,
                     kernel: KernelChoice,
                     tab: &mut Table,
                     run: &dyn Fn() -> Vec<Vec<genomedsm_batch::Hit>>| {
        let mut bestt = Duration::MAX;
        let mut hits = Vec::new();
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            hits = std::hint::black_box(run());
            bestt = bestt.min(t0.elapsed());
        }
        assert_eq!(
            hits, reference,
            "{name}/{kernel} diverged from per-pair scalar"
        );
        let base = *base.get_or_insert(bestt);
        tab.row(&[
            name.into(),
            format!("{kernel}"),
            secs(bestt),
            format!("{:.3}", gcups(cells, bestt)),
            format!("{:.2}", base.as_secs_f64() / bestt.as_secs_f64()),
        ]);
        eprintln!("[batch] {name}/{kernel} done");
        bestt
    };

    let per_pair = |choice: KernelChoice| {
        let refs = &refs;
        let db = &db;
        move || per_pair_search(choice, refs, db, top_k)
    };
    let engine = |choice: KernelChoice| {
        let refs = &refs;
        let db = &db;
        move || {
            BatchEngine::new(BatchConfig {
                kernel: choice,
                top_k,
                ..BatchConfig::default()
            })
            .search(db, refs)
            .hits
        }
    };
    timed(
        "per-pair",
        KernelChoice::Scalar,
        &mut tab,
        &per_pair(KernelChoice::Scalar),
    );
    timed(
        "per-pair",
        KernelChoice::Simd,
        &mut tab,
        &per_pair(KernelChoice::Simd),
    );
    timed(
        "batch",
        KernelChoice::Scalar,
        &mut tab,
        &engine(KernelChoice::Scalar),
    );
    let t_batch = timed(
        "batch",
        KernelChoice::Simd,
        &mut tab,
        &engine(KernelChoice::Simd),
    );
    print!("{}", tab.render());
    println!(
        "(lane packing: a different query per i16 lane, one packed profile per record slab;\n \
         per-pair: one kernel launch per (query, record) pair — {:.3} GCUPS batch aggregate)\n",
        gcups(cells, t_batch)
    );
    tab.save_csv(&args.artifact("batch.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Protein: striped Gotoh engines + composition prefilter (DESIGN.md §5.14)
// ---------------------------------------------------------------------

/// Protein database-search workload mirroring [`batch_workload`]:
/// standard-residue queries and records at protein-typical lengths.
fn protein_workload(
    queries: usize,
    q_len: usize,
    records: usize,
    t_len: usize,
) -> (Vec<Vec<u8>>, genomedsm_batch::SeqDatabase) {
    let qs: Vec<Vec<u8>> = (0..queries)
        .map(|i| {
            genomedsm_seq::random_protein(q_len / 2 + (i * 13) % q_len, 29_000 + i as u64)
                .into_bytes()
        })
        .collect();
    let db = genomedsm_batch::SeqDatabase::from_protein_records(
        (0..records)
            .map(|i| genomedsm_seq::ProteinRecord {
                id: format!("p{i}"),
                seq: genomedsm_seq::random_protein(t_len / 2 + (i * 29) % t_len, 31_000 + i as u64),
            })
            .collect(),
    );
    (qs, db)
}

/// The prefilter's honest use case: a database where composition and
/// length actually separate hits from chaff. Each query is planted
/// verbatim into `top_k` long "homolog" records (so the k-th best score
/// is the query's self-score), and the background is mostly short random
/// records whose composition bound provably cannot reach it.
fn prefilter_workload(
    queries: usize,
    q_len: usize,
    top_k: usize,
    background: usize,
    bg_len: usize,
) -> (Vec<Vec<u8>>, genomedsm_batch::SeqDatabase) {
    let qs: Vec<Vec<u8>> = (0..queries)
        .map(|i| {
            genomedsm_seq::random_protein(q_len / 2 + (i * 11) % q_len, 41_000 + i as u64)
                .into_bytes()
        })
        .collect();
    // `top_k` rounds of homolog records; each round packs every query
    // into one of `queries / per_rec` records, so each query appears in
    // exactly `top_k` distinct records.
    let per_rec = 6usize;
    let groups = queries.div_ceil(per_rec);
    let mut records: Vec<genomedsm_seq::ProteinRecord> = Vec::new();
    for round in 0..top_k {
        for g in 0..groups {
            let mut bytes = genomedsm_seq::random_protein(40, 43_000 + (round * groups + g) as u64)
                .into_bytes();
            for (qi, q) in qs.iter().enumerate() {
                if qi % groups == g {
                    bytes.extend_from_slice(q);
                    bytes.extend_from_slice(
                        genomedsm_seq::random_protein(20, 45_000 + (round * queries + qi) as u64)
                            .as_bytes(),
                    );
                }
            }
            records.push(genomedsm_seq::ProteinRecord {
                id: format!("hom{round}_{g}"),
                seq: genomedsm_seq::ProteinSeq::from_residues(bytes),
            });
        }
    }
    for i in 0..background {
        records.push(genomedsm_seq::ProteinRecord {
            id: format!("bg{i}"),
            seq: genomedsm_seq::random_protein(bg_len / 4 + (i * 37) % bg_len, 47_000 + i as u64),
        });
    }
    (
        qs,
        genomedsm_batch::SeqDatabase::from_protein_records(records),
    )
}

/// Per-pair affine baseline: one Gotoh kernel launch per (query, record)
/// pair, the same top-k bookkeeping as the engine. The scalar instance of
/// this is the oracle every other protein path is checked against.
fn per_pair_protein(
    choice: genomedsm_kernels::KernelChoice,
    refs: &[&[u8]],
    db: &genomedsm_batch::SeqDatabase,
    ms: &genomedsm_core::submat::MatrixScoring,
    top_k: usize,
) -> Vec<Vec<genomedsm_batch::Hit>> {
    let kernel = genomedsm_kernels::kernel_for(choice);
    refs.iter()
        .map(|q| {
            let mut tk = genomedsm_batch::TopK::new(top_k);
            for t in 0..db.len() {
                let r = kernel.score_affine(q, db.seq(t), ms, 0);
                if r.best_score > 0 {
                    tk.push(genomedsm_batch::Hit {
                        score: r.best_score,
                        target: t,
                        end: r.best_end,
                    });
                }
            }
            tk.into_sorted()
        })
        .collect()
}

fn protein_bench(args: &HarnessArgs) {
    use genomedsm_batch::{build_index, prefiltered_search, BatchConfig, BatchEngine};
    use genomedsm_core::submat::MatrixScoring;
    use genomedsm_kernels::KernelChoice;

    let ms = MatrixScoring::blosum62();
    let top_k = 5;

    // ---- Engine GCUPS: uniform random workload, every path checked
    // bit-for-bit against the per-pair scalar Gotoh oracle.
    let (queries, db) = protein_workload(64, 96, 160, 320);
    let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    let cells: f64 = refs.iter().map(|q| q.len() as f64).sum::<f64>() * db.total_bases() as f64;

    let mut tab = Table::new(
        &format!(
            "Protein engines: {} queries x {} records ({:.1} Mcells), BLOSUM62 -11/-1",
            refs.len(),
            db.len(),
            cells / 1e6
        ),
        &["path", "kernel", "time (s)", "GCUPS", "vs per-pair scalar"],
    );
    let reference = per_pair_protein(KernelChoice::Scalar, &refs, &db, &ms, top_k);
    let mut base: Option<Duration> = None;
    let mut timed = |name: &str,
                     kernel: KernelChoice,
                     tab: &mut Table,
                     run: &dyn Fn() -> Vec<Vec<genomedsm_batch::Hit>>| {
        let mut bestt = Duration::MAX;
        let mut hits = Vec::new();
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            hits = std::hint::black_box(run());
            bestt = bestt.min(t0.elapsed());
        }
        assert_eq!(
            hits, reference,
            "{name}/{kernel} diverged from scalar Gotoh"
        );
        let base = *base.get_or_insert(bestt);
        tab.row(&[
            name.into(),
            format!("{kernel}"),
            secs(bestt),
            format!("{:.3}", gcups(cells, bestt)),
            format!("{:.2}", base.as_secs_f64() / bestt.as_secs_f64()),
        ]);
        eprintln!("[protein] {name}/{kernel} done");
        bestt
    };
    let per_pair = |choice: KernelChoice| {
        let refs = &refs;
        let db = &db;
        let ms = &ms;
        move || per_pair_protein(choice, refs, db, ms, top_k)
    };
    let engine = |choice: KernelChoice| {
        let refs = &refs;
        let db = &db;
        move || {
            BatchEngine::new(BatchConfig {
                kernel: choice,
                top_k,
                mode: genomedsm_batch::ScoreMode::Protein(ms),
                ..BatchConfig::default()
            })
            .search(db, refs)
            .hits
        }
    };
    timed(
        "per-pair",
        KernelChoice::Scalar,
        &mut tab,
        &per_pair(KernelChoice::Scalar),
    );
    timed(
        "per-pair",
        KernelChoice::Simd,
        &mut tab,
        &per_pair(KernelChoice::Simd),
    );
    timed(
        "batch",
        KernelChoice::Scalar,
        &mut tab,
        &engine(KernelChoice::Scalar),
    );
    let t_batch = timed(
        "batch",
        KernelChoice::Simd,
        &mut tab,
        &engine(KernelChoice::Simd),
    );
    print!("{}", tab.render());
    println!(
        "(striped Gotoh: E/F lanes in the Farrar layout, lazy-F correction; \
         {:.3} GCUPS batch aggregate)\n",
        gcups(cells, t_batch)
    );
    tab.save_csv(&args.artifact("protein.csv")).expect("csv");

    // ---- Prefilter: planted-homolog workload where the composition
    // bound has something to prune; full scan vs prefiltered scan, both
    // checked bit-identical to the scalar Gotoh oracle.
    let (pqs, pdb) = prefilter_workload(48, 96, top_k, 240, 160);
    let prefs: Vec<&[u8]> = pqs.iter().map(Vec::as_slice).collect();
    let pcells: f64 = prefs.iter().map(|q| q.len() as f64).sum::<f64>() * pdb.total_bases() as f64;
    let want = per_pair_protein(KernelChoice::Scalar, &prefs, &pdb, &ms, top_k);

    let t0 = std::time::Instant::now();
    let index = build_index(&pdb);
    let t_index = t0.elapsed();

    let mut ptab = Table::new(
        &format!(
            "Composition prefilter: {} queries x {} records ({:.1} Mcells), planted homologs",
            prefs.len(),
            pdb.len(),
            pcells / 1e6
        ),
        &[
            "path",
            "time (s)",
            "GCUPS",
            "DP launches",
            "pruned",
            "pruning rate",
        ],
    );
    let mut full_t = Duration::MAX;
    let mut full_hits = Vec::new();
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        full_hits = std::hint::black_box(per_pair_protein(
            KernelChoice::Simd,
            &prefs,
            &pdb,
            &ms,
            top_k,
        ));
        full_t = full_t.min(t0.elapsed());
    }
    assert_eq!(full_hits, want, "full simd scan diverged from scalar Gotoh");
    ptab.row(&[
        "full scan (simd)".into(),
        secs(full_t),
        format!("{:.3}", gcups(pcells, full_t)),
        format!("{}", prefs.len() * pdb.len()),
        "0".into(),
        "0.0%".into(),
    ]);
    let mut pf_t = Duration::MAX;
    let mut pf = (Vec::new(), genomedsm::index::PrefilterStats::default());
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        pf = std::hint::black_box(prefiltered_search(
            &pdb,
            &index,
            &prefs,
            &ms,
            KernelChoice::Simd,
            top_k,
        ));
        pf_t = pf_t.min(t0.elapsed());
    }
    let (pf_hits, stats) = pf;
    assert_eq!(pf_hits, want, "prefiltered scan changed the top-k");
    ptab.row(&[
        "prefiltered (simd)".into(),
        secs(pf_t),
        format!("{:.3}", gcups(pcells, pf_t)),
        format!("{}", stats.scored),
        format!("{}", stats.pruned),
        format!("{:.1}%", stats.pruning_rate() * 100.0),
    ]);
    print!("{}", ptab.render());
    println!(
        "(index built in {} — 24 counts + a length per record; every pruned record is\n \
         provably below the k-th best score, so both rows are bit-identical;\n \
         {:.2}x end-to-end over the unfiltered simd scan)\n",
        secs(t_index),
        full_t.as_secs_f64() / pf_t.as_secs_f64()
    );
    ptab.save_csv(&args.artifact("protein_prefilter.csv"))
        .expect("csv");
}

// ---------------------------------------------------------------------
// Serve: the always-on alignment service (DESIGN.md §5.11)
// ---------------------------------------------------------------------

/// Generates a serve database and writes it as FASTA; returns the same
/// records as a [`genomedsm_batch::SeqDatabase`] for the local oracle.
fn serve_db_file(
    path: &std::path::Path,
    records: usize,
    t_len: usize,
    seed: u64,
) -> genomedsm_batch::SeqDatabase {
    let recs: Vec<genomedsm_seq::fasta::FastaRecord> = (0..records)
        .map(|i| genomedsm_seq::fasta::FastaRecord {
            id: format!("rec{i}"),
            seq: genomedsm_seq::random_dna(t_len / 2 + (i * 29) % t_len, seed + i as u64),
        })
        .collect();
    genomedsm_seq::fasta::write_fasta_file(path, &recs).expect("write serve db");
    genomedsm_batch::SeqDatabase::from_records(recs)
}

/// Multi-client cold/warm sweep against a running server, then a hot
/// reload under load. Every answer the service returns — computed or
/// cached, before or after the reload — is checked bit-for-bit against
/// a local [`genomedsm_batch::BatchEngine`] run, so the throughput
/// numbers are backed by a correctness gate.
fn serve_bench(args: &HarnessArgs) {
    use genomedsm_batch::{BatchConfig, BatchEngine};
    use genomedsm_serve::{ServeClient, Server, ServerConfig};

    let top_k = 5;
    let reqs_per_client = 2;
    let db1_path = args.artifact("serve_db1.fa");
    let db2_path = args.artifact("serve_db2.fa");
    let db1 = serve_db_file(&db1_path, 96, 256, 7_000);
    let db2 = serve_db_file(&db2_path, 128, 256, 8_000);
    let socket = args.artifact("serve.sock");

    let mut config = ServerConfig::new(&socket, &db1_path);
    config.queue_capacity = 64;
    config.cache_capacity = 4096;
    config.workers = 2;
    let server = Server::start(config).expect("start server");
    let oracle = BatchEngine::new(BatchConfig {
        top_k,
        ..BatchConfig::default()
    });

    let mut tab = Table::new(
        "Always-on service: cold/warm multi-client sweep, single host",
        &[
            "clients",
            "phase",
            "time (s)",
            "req/s",
            "answers",
            "cached",
            "identical",
        ],
    );
    for &clients in &[1usize, 2, 4] {
        // A fresh query set per client count keeps the cold pass cold
        // (the server cache persists across the sweep).
        let qs: Vec<Vec<u8>> = (0..48)
            .map(|i| {
                genomedsm_seq::random_dna(
                    32 + (i * 13) % 64,
                    11_000 + clients as u64 * 997 + i as u64,
                )
                .into_bytes()
            })
            .collect();
        let refs: Vec<&[u8]> = qs.iter().map(Vec::as_slice).collect();
        let want = oracle.search(&db1, &refs).hits;
        for phase in ["cold", "warm"] {
            let t0 = std::time::Instant::now();
            let per_client: Vec<(usize, usize, bool)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let qs = &qs;
                        let want = &want;
                        let socket = &socket;
                        scope.spawn(move || {
                            let mut cl = ServeClient::connect(socket).expect("connect");
                            cl.hello(&format!("bench-{c}"), 1).expect("hello");
                            let mut answers = 0usize;
                            let mut cached = 0usize;
                            let mut identical = true;
                            for _ in 0..reqs_per_client {
                                let sum = cl.search(qs, top_k, |_| {}).expect("search");
                                answers += sum.answers.len();
                                cached += sum.answers.iter().filter(|a| a.cached).count();
                                identical &= sum.hit_lists() == *want;
                            }
                            (answers, cached, identical)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client"))
                    .collect()
            });
            let elapsed = t0.elapsed();
            let answers: usize = per_client.iter().map(|r| r.0).sum();
            let cached: usize = per_client.iter().map(|r| r.1).sum();
            let identical = per_client.iter().all(|r| r.2);
            assert!(
                identical,
                "{clients}-client {phase} pass diverged from local engine"
            );
            let requests = clients * reqs_per_client;
            tab.row(&[
                clients.to_string(),
                phase.into(),
                secs(elapsed),
                format!("{:.1}", requests as f64 / elapsed.as_secs_f64()),
                answers.to_string(),
                cached.to_string(),
                "yes".into(),
            ]);
            eprintln!("[serve] {clients} clients / {phase} done");
        }
    }

    // Hot reload under load: a runner hammers one query set while an
    // admin swaps the database; every answer must match the local oracle
    // for whichever epoch the server says it was computed against.
    let qs: Vec<Vec<u8>> = (0..24)
        .map(|i| genomedsm_seq::random_dna(32 + (i * 13) % 64, 15_000 + i as u64).into_bytes())
        .collect();
    let refs: Vec<&[u8]> = qs.iter().map(Vec::as_slice).collect();
    let want1 = oracle.search(&db1, &refs).hits;
    let want2 = oracle.search(&db2, &refs).hits;
    let (e1_answers, e2_answers, mismatched) = std::thread::scope(|scope| {
        let runner = {
            let qs = &qs;
            let want1 = &want1;
            let want2 = &want2;
            let socket = &socket;
            scope.spawn(move || {
                let mut cl = ServeClient::connect(socket).expect("connect runner");
                cl.hello("reload-runner", 1).expect("hello");
                let (mut e1, mut e2, mut bad) = (0usize, 0usize, 0usize);
                // Hammer until a full post-reload pass has been seen
                // (bounded, in case the reload fails outright).
                for round in 0..400 {
                    let sum = cl.search(qs, top_k, |_| {}).expect("search under reload");
                    for a in &sum.answers {
                        let want = if a.epoch == 1 { want1 } else { want2 };
                        if a.hits == want[a.query] {
                            if a.epoch == 1 {
                                e1 += 1;
                            } else {
                                e2 += 1;
                            }
                        } else {
                            bad += 1;
                        }
                    }
                    if round >= 40 && e2 >= qs.len() {
                        break;
                    }
                }
                (e1, e2, bad)
            })
        };
        let admin = {
            let socket = &socket;
            let db2_path = &db2_path;
            scope.spawn(move || {
                let mut cl = ServeClient::connect(socket).expect("connect admin");
                std::thread::sleep(Duration::from_millis(20));
                cl.reload(db2_path.to_str().expect("utf8 path"))
                    .expect("reload")
            })
        };
        let (epoch, records, purged) = admin.join().expect("admin");
        eprintln!(
            "[serve] reload -> epoch {epoch}, {records} records, {purged} cache entries purged"
        );
        runner.join().expect("runner")
    });
    assert_eq!(
        mismatched, 0,
        "answers under reload diverged from their epoch's oracle"
    );

    let stats = server.stats();
    server.stop();
    print!("{}", tab.render());
    println!(
        "(reload under load: {e1_answers} epoch-1 + {e2_answers} epoch-2 answers, 0 mismatches;\n \
         cache {} hits / {} misses, {} purged by reload; {} rejected, {} protocol errors)\n",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_stale_purged,
        stats.rejected,
        stats.protocol_errors
    );
    assert_eq!(stats.protocol_errors, 0, "service saw protocol errors");
    tab.save_csv(&args.artifact("serve.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Chaos: the reliability-layer sweep (DESIGN.md §5.7)
// ---------------------------------------------------------------------

/// Pre-process runs under increasing per-link drop rates (with fixed 5%
/// duplication and 5% reordering), plus one run that also crashes a node
/// mid-band. Every row must stay bit-identical to the fault-free
/// scoreboard; the table records what the transport paid for that.
/// Resolves the `genomedsm` CLI binary, which `cluster::launch` re-execs
/// as the per-rank `node` processes. Cargo places every workspace binary
/// in the same target directory, so it lives next to this harness.
fn genomedsm_exe() -> Result<std::path::PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me
        .parent()
        .ok_or_else(|| "harness binary has no parent directory".to_string())?;
    let exe = dir.join(format!("genomedsm{}", std::env::consts::EXE_SUFFIX));
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "{} not found — build the workspace (`cargo build --release`) so the \
             genomedsm CLI sits next to the paper harness",
            exe.display()
        ))
    }
}

fn sockets_bench(args: &HarnessArgs) {
    use genomedsm::cluster::{launch, WorkloadSpec};
    let exe = match genomedsm_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sockets: {e}");
            std::process::exit(2);
        }
    };
    let len = args.size(8_000);
    let ranks = (*args.procs.iter().max().expect("procs")).max(2);
    let mut tab = Table::new(
        &format!(
            "Sockets sweep: {ranks} OS processes over loopback UDP, {len} bp x {len} bp \
             (corrupt 3%, dup 5%, reorder 10% whenever drop > 0)"
        ),
        &[
            "drop",
            "identical",
            "datagrams",
            "retransmits",
            "host time (s)",
        ],
    );
    let mut all_identical = true;
    for (i, &drop) in [0.0f64, 0.05, 0.15, 0.25].iter().enumerate() {
        let plan =
            (drop > 0.0).then(|| format!("seed=11,drop={drop},corrupt=0.03,dup=0.05,reorder=0.1"));
        let spec = WorkloadSpec {
            len,
            seed: 42,
            procs: ranks,
            plan,
        };
        let t0 = std::time::Instant::now();
        // `launch` itself asserts every rank's report is byte-identical
        // and matches a clean in-process reference run.
        let out = launch(&exe, &spec, 1_000 + (i as u64) * 10);
        let host = t0.elapsed();
        match out {
            Ok(out) => {
                tab.row(&[
                    format!("{:.0}%", drop * 100.0),
                    "yes".into(),
                    out.datagrams_sent.to_string(),
                    out.retransmits.to_string(),
                    secs(host),
                ]);
            }
            Err(e) => {
                all_identical = false;
                eprintln!("[sockets] drop={drop} FAILED: {e}");
                tab.row(&[
                    format!("{:.0}%", drop * 100.0),
                    "NO".into(),
                    "-".into(),
                    "-".into(),
                    secs(host),
                ]);
            }
        }
        eprintln!("[sockets] drop={drop} done");
    }
    print!("{}", tab.render());
    println!();
    tab.save_csv(&args.artifact("sockets.csv")).expect("csv");
    if !all_identical {
        eprintln!("sockets: at least one multi-process run diverged");
        std::process::exit(1);
    }
}

fn chaos_sweep(args: &HarnessArgs) {
    use genomedsm_chaos::{FaultPlan, LinkFaults, SeededFaults};
    let len = args.size(40_000);
    let (s, t, _) = workloads::pair(len, 47);
    let nprocs = *args.procs.iter().max().expect("procs");
    let base_config = || {
        let mut config = PreprocessConfig::new(nprocs);
        config.band = BandScheme::Balanced(args.size(1024));
        config.chunk = ChunkPlan::Fixed(args.size(1024));
        config
    };
    let clean = preprocess_align(&s, &t, &SC, &base_config()).unwrap();

    let mut tab = Table::new(
        &format!(
            "Chaos sweep: pre-process, {len} bp x {len} bp, {nprocs} nodes (dup 5%, reorder 5%)"
        ),
        &[
            "drop",
            "crash",
            "identical",
            "retransmits",
            "dups dropped",
            "corrupt dropped",
            "recoveries",
            "time (s)",
            "overhead",
        ],
    );
    let cases: &[(f64, bool)] = &[
        (0.02, false),
        (0.05, false),
        (0.10, false),
        (0.15, false),
        (0.05, true),
    ];
    for &(drop, crash) in cases {
        let mut plan = FaultPlan {
            link: LinkFaults {
                drop,
                corrupt: 0.01,
                duplicate: 0.05,
                reorder: 0.05,
                max_extra_delay: Duration::from_millis(2),
            },
            ..FaultPlan::quiet(4242)
        };
        if crash {
            plan = plan.with_crash(1 % nprocs, 2);
        }
        let mut config = base_config();
        config.checkpoint = true;
        config.dsm = config
            .dsm
            .faults(std::sync::Arc::new(SeededFaults::new(plan, nprocs)));
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        let identical = out.result == clean.result && out.best_score == clean.best_score;
        let mut agg = genomedsm_dsm::NodeStats::default();
        for st in &out.per_node {
            agg.merge(st);
        }
        tab.row(&[
            format!("{:.0}%", drop * 100.0),
            if crash { "1@2".into() } else { "-".to_string() },
            if identical { "yes" } else { "NO" }.to_string(),
            agg.retransmits.to_string(),
            agg.dups_dropped.to_string(),
            agg.corrupt_dropped.to_string(),
            agg.recoveries.to_string(),
            secs(out.wall),
            format!(
                "{:+.1}%",
                (out.wall.as_secs_f64() / clean.wall.as_secs_f64().max(1e-12) - 1.0) * 100.0
            ),
        ]);
        eprintln!("[chaos] drop={drop} crash={crash} done");
    }
    print!("{}", tab.render());
    println!();
    tab.save_csv(&args.artifact("chaos.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Takeover: the graceful-degradation sweep
// ---------------------------------------------------------------------

/// Runs every phase-1 strategy (and phase 2) with 0–3 of the cluster's
/// nodes fail-stopped mid-run and verifies the survivors' results match
/// the fault-free run exactly, recording takeover counts and the
/// virtual-time cost of each death. The `killed=0` supervised row
/// measures the supervision layer's fault-free overhead.
fn takeover_sweep(args: &HarnessArgs) {
    use genomedsm_strategies::KillPlan;
    let len = args.size(20_000);
    let (s, t, _) = workloads::pair(len, 53);
    let nprocs = (*args.procs.iter().max().expect("procs")).max(4);
    let max_killed = 3.min(nprocs - 1);
    let supervise = |dsm: genomedsm_dsm::DsmConfig| dsm.tolerate_failures();
    // Stagger the fail-stops across work-unit depths so the deaths land
    // at different stages of the wavefront.
    let kills = |k: usize, stagger: &[u64]| -> std::sync::Arc<KillPlan> {
        let mut plan = KillPlan::new();
        for victim in 1..=k {
            plan = plan.kill(victim, stagger[(victim - 1) % stagger.len()]);
        }
        std::sync::Arc::new(plan)
    };

    let mut tab = Table::new(
        &format!("Takeover sweep: {len} bp x {len} bp, {nprocs} nodes, 0-{max_killed} killed"),
        &[
            "strategy",
            "killed",
            "exact match",
            "takeovers",
            "obituaries",
            "time (s)",
            "overhead",
        ],
    );

    // (strategy name, work-unit stagger, run closure). Each closure runs
    // its strategy under the given DSM config and returns a result
    // fingerprint plus aggregated stats and the virtual wall time.
    type Run<'a> = Box<
        dyn Fn(Option<std::sync::Arc<KillPlan>>, bool) -> (u64, genomedsm_dsm::NodeStats, Duration)
            + 'a,
    >;
    let fingerprint_regions = |regions: &[LocalRegion]| -> u64 {
        // Order-sensitive FNV over the region list: any divergence flips it.
        let mut h = FNV_OFFSET;
        for r in regions {
            for v in [r.s_begin, r.t_begin, r.s_end, r.t_end, r.score as usize] {
                h = fnv1a(h, &v.to_le_bytes());
            }
        }
        h
    };
    let agg_of = |per_node: &[genomedsm_dsm::NodeStats]| {
        let mut agg = genomedsm_dsm::NodeStats::default();
        for st in per_node {
            agg.merge(st);
        }
        agg
    };

    let rows = s.len() as u64;
    let heuristic_stagger = [rows / 20, rows / 10, rows * 3 / 20];
    let strategies: Vec<(&str, Vec<u64>, Run)> = vec![
        (
            "heuristic",
            heuristic_stagger.to_vec(),
            Box::new(|plan, tolerant| {
                let mut config = HeuristicDsmConfig::new(nprocs);
                if tolerant {
                    config.dsm = supervise(config.dsm);
                }
                if let Some(p) = plan {
                    config.dsm = config.dsm.faults(p as _);
                }
                let out = heuristic_align_dsm(&s, &t, &SC, &params(), &config);
                (fingerprint_regions(&out.regions), out.aggregate(), out.wall)
            }),
        ),
        (
            "blocked",
            vec![5, 9, 13],
            Box::new(|plan, tolerant| {
                let mut config = BlockedConfig::new(nprocs, 24, 12);
                if tolerant {
                    config.dsm = supervise(config.dsm);
                }
                if let Some(p) = plan {
                    config.dsm = config.dsm.faults(p as _);
                }
                let out = heuristic_block_align(&s, &t, &SC, &params(), &config);
                (fingerprint_regions(&out.regions), out.aggregate(), out.wall)
            }),
        ),
        (
            "preprocess",
            vec![3, 5, 7],
            Box::new(|plan, tolerant| {
                let mut config = PreprocessConfig::new(nprocs);
                config.band = BandScheme::Balanced(args.size(1024));
                config.chunk = ChunkPlan::Fixed(args.size(1024));
                if tolerant {
                    config.dsm = supervise(config.dsm);
                }
                if let Some(p) = plan {
                    config.dsm = config.dsm.faults(p as _);
                }
                let out = preprocess_align(&s, &t, &SC, &config).expect("preprocess");
                // Fingerprint the scoreboard and the best score together.
                let mut h = fnv1a(FNV_OFFSET, &out.best_score.to_le_bytes());
                for &v in out.result.iter().flatten() {
                    h = fnv1a(h, &v.to_le_bytes());
                }
                (h, agg_of(&out.per_node), out.wall)
            }),
        ),
    ];

    for (name, stagger, run) in &strategies {
        let (clean_fp, _, clean_wall) = run(None, false);
        for k in 0..=max_killed {
            let plan = (k > 0).then(|| kills(k, stagger));
            let (fp, agg, wall) = run(plan, true);
            tab.row(&[
                name.to_string(),
                k.to_string(),
                if fp == clean_fp { "yes" } else { "NO" }.to_string(),
                agg.takeovers.to_string(),
                agg.obituaries.to_string(),
                secs(wall),
                format!(
                    "{:+.1}%",
                    (wall.as_secs_f64() / clean_wall.as_secs_f64().max(1e-12) - 1.0) * 100.0
                ),
            ]);
            eprintln!("[takeover] {name} killed={k} done");
        }
    }
    print!("{}", tab.render());
    println!();
    tab.save_csv(&args.artifact("takeover.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Rejoin: the elastic-membership sweep
// ---------------------------------------------------------------------

/// Runs a 3-round heuristic campaign three ways — fault-free, with k
/// nodes killed in round 0 and readmitted at the next workload
/// boundary, and with the same k kills left permanent — asserting that
/// every round of every scenario stays bit-identical to the fault-free
/// campaign and recording whether the post-rejoin rounds recover
/// full-strength throughput instead of staying degraded at N−k.
fn rejoin_sweep(args: &HarnessArgs) {
    use genomedsm_strategies::{heuristic_campaign, KillPlan};
    let len = args.size(20_000);
    let (s, t, _) = workloads::pair(len, 61);
    let nprocs = (*args.procs.iter().max().expect("procs")).max(4);
    let rounds = 3usize;
    let max_killed = 2.min(nprocs - 1);
    // Round-0 fail-stop points, staggered inside each victim's share of
    // the wavefront (heuristic work units are per-node rows), and a
    // short virtual downtime so the boundary admission lands the
    // joiner at the round-1 membership-refresh barrier.
    let per_node_rows = (s.len() / nprocs) as u64;
    let stagger = [per_node_rows / 5, per_node_rows / 2];
    let downtime = 8u64;

    let campaign = |plan: Option<std::sync::Arc<KillPlan>>| {
        let mut config = HeuristicDsmConfig::new(nprocs);
        config.dsm = config.dsm.tolerate_failures();
        if let Some(p) = plan {
            config.dsm = config.dsm.faults(p as _);
        }
        heuristic_campaign(&s, &t, &SC, &params(), &config, rounds)
    };
    let clean = campaign(None);

    let mut tab = Table::new(
        &format!("Rejoin sweep: {len} bp x {len} bp, {nprocs} nodes, {rounds}-round campaign"),
        &[
            "killed",
            "round",
            "exact match",
            "rejoins",
            "elastic (s)",
            "degraded (s)",
            "clean (s)",
            "recovered",
        ],
    );
    for k in 1..=max_killed {
        let mut rejoining = KillPlan::new();
        let mut permanent = KillPlan::new();
        for victim in 1..=k {
            let at = stagger[(victim - 1) % stagger.len()];
            rejoining = rejoining.kill(victim, at).rejoin(victim, downtime);
            permanent = permanent.kill(victim, at);
        }
        let elastic = campaign(Some(std::sync::Arc::new(rejoining)));
        let degraded = campaign(Some(std::sync::Arc::new(permanent)));
        let rejoins: u64 = elastic.per_node.iter().map(|st| st.rejoins).sum();
        for w in 0..rounds {
            let exact = elastic.rounds[w].regions == clean.rounds[w].regions
                && degraded.rounds[w].regions == clean.rounds[w].regions;
            tab.row(&[
                k.to_string(),
                w.to_string(),
                if exact { "yes" } else { "NO" }.to_string(),
                rejoins.to_string(),
                secs(elastic.rounds[w].wall),
                secs(degraded.rounds[w].wall),
                secs(clean.rounds[w].wall),
                // Round 0 contains the deaths; full strength is only
                // owed from the first post-rejoin round on.
                if w == 0 {
                    "n/a".to_string()
                } else if elastic.rounds[w].wall < degraded.rounds[w].wall {
                    "yes".to_string()
                } else {
                    "NO".to_string()
                },
            ]);
        }
        eprintln!("[rejoin] killed={k} done");
    }
    print!("{}", tab.render());
    println!();
    tab.save_csv(&args.artifact("rejoin.csv")).expect("csv");
}

// ---------------------------------------------------------------------
// Summary: the machine-checked repro gate
// ---------------------------------------------------------------------

/// Re-runs a minimal version of each headline claim and prints PASS/FAIL.
/// Thresholds are deliberately loose — they guard the *shape* of each
/// result (who wins, which direction trends point), not exact numbers.
fn summary(args: &HarnessArgs) {
    let mut results: Vec<(&str, bool, String)> = Vec::new();
    let nprocs = *args.procs.iter().max().expect("procs");

    // Claim 1: speed-up grows with size (heuristic strategy, small vs large).
    {
        let small = args.size(15_000);
        let large = args.size(150_000);
        let sp = |len: usize| {
            let (s, t, _) = workloads::pair(len, 1);
            let serial = heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(1));
            let par = heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(nprocs));
            speedup(serial.wall, par.wall)
        };
        let (lo, hi) = (sp(small), sp(large));
        results.push((
            "speed-up grows with sequence size (Fig. 9)",
            hi > lo && hi > 1.5,
            format!("{lo:.2} @ {small} bp -> {hi:.2} @ {large} bp"),
        ));
        eprintln!("[summary] claim 1 done");
    }

    // Claim 2: blocking beats non-blocking at max procs (Fig. 13).
    {
        let len = args.size(50_000);
        let (s, t, _) = workloads::pair(len, 3);
        let blocked =
            heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(nprocs, 40, 25));
        let unblocked =
            heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(nprocs));
        let factor = unblocked.wall.as_secs_f64() / blocked.wall.as_secs_f64();
        results.push((
            "blocking beats non-blocking by a large factor (Fig. 13)",
            factor > 2.0,
            format!("{factor:.1}x (paper: ~3.8x)"),
        ));
        results.push((
            "blocked and non-blocked find identical regions",
            blocked.regions == unblocked.regions,
            format!("{} regions", blocked.regions.len()),
        ));
        eprintln!("[summary] claims 2-3 done");
    }

    // Claim 4: phase 2 is near-linear and lock-free (Fig. 15).
    {
        let pairs = workloads::subsequence_pairs(400, 253, 5);
        let mut s = Vec::new();
        let mut t = Vec::new();
        let mut regions = Vec::new();
        for (ps, pt) in &pairs {
            regions.push(LocalRegion {
                s_begin: s.len(),
                s_end: s.len() + ps.len(),
                t_begin: t.len(),
                t_end: t.len() + pt.len(),
                score: 0,
            });
            s.extend_from_slice(ps.as_bytes());
            t.extend_from_slice(pt.as_bytes());
        }
        let serial = phase2_scattered(&s, &t, &regions, &SC, 1).unwrap();
        let par = phase2_scattered(&s, &t, &regions, &SC, nprocs).unwrap();
        let sp = speedup(serial.wall, par.wall);
        let lockfree = par.per_node.iter().all(|n| n.lock_cv == Duration::ZERO);
        results.push((
            "phase-2 scattered mapping is near-linear (Fig. 15)",
            sp > 0.75 * nprocs as f64,
            format!("{sp:.2} on {nprocs} procs"),
        ));
        results.push((
            "phase 2 uses no locks or condition variables (§4.4)",
            lockfree,
            "lock_cv time is zero on every node".into(),
        ));
        eprintln!("[summary] claims 4-5 done");
    }

    // Claim 6: pre-process is exact (hits == oracle) and I/O is cheap.
    {
        let len = args.size(40_000);
        let (s, t, _) = workloads::pair(len, 7);
        let mut config = PreprocessConfig::new(nprocs);
        config.band = BandScheme::Balanced(args.size(1024));
        config.chunk = ChunkPlan::Fixed(args.size(1024));
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        let oracle = genomedsm_core::linear::sw_score_linear(&s, &t, &SC, config.threshold);
        results.push((
            "pre-process strategy is exact (§5)",
            out.total_hits() == oracle.hits as i64 && out.best_score == oracle.best_score,
            format!("{} hits, best {}", out.total_hits(), out.best_score),
        ));
        let dir = args.artifact("summary_columns");
        std::fs::create_dir_all(&dir).expect("dir");
        let mut io_config = config.clone();
        io_config.io_mode = IoMode::Immediate;
        io_config.save_dir = Some(dir.clone());
        let with_io = preprocess_align(&s, &t, &SC, &io_config).unwrap();
        let ratio = with_io.core_time().as_secs_f64() / out.core_time().as_secs_f64();
        results.push((
            "column saving costs little (Fig. 20)",
            ratio < 1.10,
            format!("{:.1}% overhead", (ratio - 1.0) * 100.0),
        ));
        std::fs::remove_dir_all(&dir).ok();
        eprintln!("[summary] claims 6-7 done");
    }

    // Claim 8: Section 6 worked example is exact.
    {
        let s = b"TCTCGACGGATTAGTATATATATA";
        let t = b"ATATGATCGGAATAGCTCT";
        let full = genomedsm_core::matrix::sw_matrix(s, t, &SC);
        let (ei, ej, best) = full.maximum();
        let ok = best == 6 && (ei, ej) == (14, 15);
        let rec = recover_start(s, t, &SC, ei, ej, best);
        results.push((
            "Section-6 worked example (score 6 at (14,15), start recovery)",
            ok && rec.is_some(),
            format!("score {best} at ({ei},{ej})"),
        ));
    }

    // Claim 9: reverse-window useful area near 1/3 (Eqs. 2-3).
    {
        let plan = genomedsm_seq::HomologyPlan {
            region_count: 1,
            region_len_mean: 1000,
            region_len_jitter: 0,
            profile: genomedsm_seq::MutationProfile::similar(),
        };
        let (s, t, _) = genomedsm_seq::planted_pair(3000, 3000, &plan, 1000);
        let rec = genomedsm_core::reverse::reverse_align_best(&s, &t, &SC).expect("planted");
        let frac = rec.stats.evaluated_fraction();
        results.push((
            "reverse-window useful area ~ 1/3 (Eqs. 2-3)",
            (0.2..0.5).contains(&frac),
            format!("{:.1}% (theory 33.4%)", frac * 100.0),
        ));
        eprintln!("[summary] claims 8-9 done");
    }

    // Claim 10: the striped SIMD kernel is >= 3x the scalar kernel on a
    // 10k x 10k score-only workload (single thread, host hardware), with
    // one GCUPS row recorded per kernel the host can run.
    {
        let (s, t, _) = workloads::pair(10_000, 31);
        let cells = 10_000f64 * 10_000f64;
        let kernels = genomedsm_kernels::available_kernels();
        let mut base: Option<Duration> = None;
        let mut best_speedup = 0.0f64;
        for kernel in kernels {
            let time = time_kernel(kernel, &s, &t);
            let base = *base.get_or_insert(time); // scalar comes first
            let sp = base.as_secs_f64() / time.as_secs_f64();
            best_speedup = best_speedup.max(sp);
            results.push((
                "kernel GCUPS (10k x 10k score-only, 1 thread)",
                true,
                format!(
                    "{}: {:.3} GCUPS ({sp:.2}x scalar)",
                    kernel.name(),
                    gcups(cells, time)
                ),
            ));
        }
        results.push((
            "striped SIMD kernel >= 3x scalar (10k x 10k score-only)",
            best_speedup >= 3.0,
            format!("best striped kernel at {best_speedup:.1}x"),
        ));
        eprintln!("[summary] claim 10 done");
    }

    // Claim 11: the reliability layer delivers exactly-once under 5%
    // per-link loss + duplication + reordering + a node crash — the
    // pre-process scoreboard stays bit-identical and the transport
    // counters prove faults were actually injected and absorbed.
    {
        use genomedsm_chaos::{FaultPlan, SeededFaults};
        let len = args.size(30_000);
        let (s, t, _) = workloads::pair(len, 47);
        let base = || {
            let mut config = PreprocessConfig::new(nprocs);
            config.band = BandScheme::Balanced(args.size(1024));
            config.chunk = ChunkPlan::Fixed(args.size(1024));
            config
        };
        let clean = preprocess_align(&s, &t, &SC, &base()).unwrap();
        let mut config = base();
        config.checkpoint = true;
        config.dsm = config.dsm.faults(std::sync::Arc::new(SeededFaults::new(
            FaultPlan::paper_chaos(4242).with_crash(1 % nprocs, 2),
            nprocs,
        )));
        let chaotic = preprocess_align(&s, &t, &SC, &config).unwrap();
        let identical = chaotic.result == clean.result && chaotic.best_score == clean.best_score;
        let mut agg = genomedsm_dsm::NodeStats::default();
        for st in &chaotic.per_node {
            agg.merge(st);
        }
        results.push((
            "exactly-once under 5% loss + crash, bit-identical scoreboard (§5.7)",
            identical && agg.retransmits > 0 && agg.dups_dropped > 0 && agg.recoveries > 0,
            format!(
                "{} retransmits, {} dups dropped, {} recovery",
                agg.retransmits, agg.dups_dropped, agg.recoveries
            ),
        ));
        eprintln!("[summary] claim 11 done");
    }

    // Claim 12: an N−1 run matches the fault-free output exactly — a
    // node fail-stopped mid-run (never restarted) has its bands adopted
    // by the survivors through the supervision layer, and the blocked
    // strategy's candidate regions stay bit-identical.
    {
        use genomedsm_strategies::KillPlan;
        let len = args.size(30_000);
        let (s, t, _) = workloads::pair(len, 53);
        let clean =
            heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(nprocs, 24, 12));
        let mut config = BlockedConfig::new(nprocs, 24, 12);
        config.dsm = config
            .dsm
            .tolerate_failures()
            .faults(std::sync::Arc::new(KillPlan::new().kill(1 % nprocs, 7)));
        let degraded = heuristic_block_align(&s, &t, &SC, &params(), &config);
        let agg = degraded.aggregate();
        results.push((
            "N-1 run matches fault-free output exactly (§5.8 takeover)",
            degraded.regions == clean.regions && agg.takeovers >= 1 && agg.obituaries > 0,
            format!(
                "{} regions, {} takeover(s), {} obituaries",
                degraded.regions.len(),
                agg.takeovers,
                agg.obituaries
            ),
        ));
        eprintln!("[summary] claim 12 done");
    }

    // Claim 13: the batch engine's aggregate GCUPS on a many-small-
    // queries database search exceeds the per-pair kernel-launch
    // baseline at the same kernel choice (inter-sequence lane packing +
    // profile reuse beat per-pair launch overhead), with identical hits.
    {
        use genomedsm_batch::{BatchConfig, BatchEngine};
        use genomedsm_kernels::KernelChoice;
        let (queries, db) = batch_workload(64, 64, 128, 256);
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let cells: f64 = refs.iter().map(|q| q.len() as f64).sum::<f64>() * db.total_bases() as f64;
        let time_best = |run: &dyn Fn() -> Vec<Vec<genomedsm_batch::Hit>>| {
            let mut best = Duration::MAX;
            let mut hits = Vec::new();
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                hits = std::hint::black_box(run());
                best = best.min(t0.elapsed());
            }
            (hits, best)
        };
        let (pp_hits, pp_time) = time_best(&|| per_pair_search(KernelChoice::Simd, &refs, &db, 5));
        let (b_hits, b_time) = time_best(&|| {
            BatchEngine::new(BatchConfig {
                kernel: KernelChoice::Simd,
                top_k: 5,
                ..BatchConfig::default()
            })
            .search(&db, &refs)
            .hits
        });
        let ratio = pp_time.as_secs_f64() / b_time.as_secs_f64();
        results.push((
            "batch engine beats per-pair launches on many small queries (§5.9)",
            b_hits == pp_hits && ratio > 1.0,
            format!(
                "{:.3} vs {:.3} GCUPS ({ratio:.2}x), identical top-k",
                gcups(cells, b_time),
                gcups(cells, pp_time)
            ),
        ));
        eprintln!("[summary] claim 13 done");
    }

    // Claim 14: the always-on service answers bit-identically to a
    // local engine run — cold (computed), warm (served from the result
    // cache), and across a hot reload (new epoch, cache purged, old
    // answers never served) — with zero protocol errors.
    {
        use genomedsm_batch::{BatchConfig, BatchEngine};
        use genomedsm_serve::{ServeClient, Server, ServerConfig};
        let top_k = 5;
        let db1_path = args.artifact("summary_serve_db1.fa");
        let db2_path = args.artifact("summary_serve_db2.fa");
        let db1 = serve_db_file(&db1_path, 48, 192, 17_000);
        let db2 = serve_db_file(&db2_path, 64, 192, 18_000);
        let mut config = ServerConfig::new(args.artifact("summary_serve.sock"), &db1_path);
        config.workers = 2;
        let server = Server::start(config).expect("start server");
        let qs: Vec<Vec<u8>> = (0..12)
            .map(|i| genomedsm_seq::random_dna(32 + (i * 13) % 48, 19_000 + i as u64).into_bytes())
            .collect();
        let refs: Vec<&[u8]> = qs.iter().map(Vec::as_slice).collect();
        let oracle = BatchEngine::new(BatchConfig {
            top_k,
            ..BatchConfig::default()
        });
        let want1 = oracle.search(&db1, &refs).hits;
        let want2 = oracle.search(&db2, &refs).hits;

        let mut cl = ServeClient::connect(server.socket()).expect("connect");
        cl.hello("summary", 1).expect("hello");
        let cold = cl.search(&qs, top_k, |_| {}).expect("cold search");
        let warm = cl.search(&qs, top_k, |_| {}).expect("warm search");
        let cold_ok = cold.hit_lists() == want1 && cold.answers.iter().all(|a| !a.cached);
        let warm_ok = warm.hit_lists() == want1 && warm.answers.iter().all(|a| a.cached);
        let (epoch, _records, purged) = cl
            .reload(db2_path.to_str().expect("utf8 path"))
            .expect("reload");
        let after = cl.search(&qs, top_k, |_| {}).expect("post-reload search");
        let reload_ok = epoch == 2
            && after.hit_lists() == want2
            && after.answers.iter().all(|a| !a.cached && a.epoch == 2);
        let stats = server.stats();
        server.stop();
        results.push((
            "service cache hits and hot reload are bit-exact (§5.11)",
            cold_ok && warm_ok && reload_ok && stats.protocol_errors == 0,
            format!(
                "cold/warm/post-reload all match the local engine; warm fully cached; \
                 reload purged {purged} entries; {} protocol errors",
                stats.protocol_errors
            ),
        ));
        eprintln!("[summary] claim 14 done");
    }

    // Claim 15: the cluster runs as real OS processes over loopback UDP
    // datagrams — four ranks, 15% injected datagram loss plus
    // corruption, duplication, and reordering — and every rank's report
    // is bit-identical to the in-process run, with the transport
    // counters proving the loss was real and absorbed by retransmission.
    {
        use genomedsm::cluster::{launch, WorkloadSpec};
        match genomedsm_exe() {
            Ok(exe) => {
                let spec = WorkloadSpec {
                    len: args.size(8_000),
                    seed: 42,
                    procs: 4,
                    plan: Some("seed=11,drop=0.15,corrupt=0.03,dup=0.05,reorder=0.1".into()),
                };
                let (pass, evidence) = match launch(&exe, &spec, 2_000) {
                    Ok(out) => (
                        out.retransmits > 0,
                        format!(
                            "4 processes over UDP, reports bit-identical to in-process \
                             ({} datagrams, {} retransmits)",
                            out.datagrams_sent, out.retransmits
                        ),
                    ),
                    Err(e) => (false, e),
                };
                results.push((
                    "4-process UDP run bit-identical under 15% datagram loss (§5.12)",
                    pass,
                    evidence,
                ));
            }
            Err(e) => {
                results.push((
                    "4-process UDP run bit-identical under 15% datagram loss (§5.12)",
                    false,
                    e,
                ));
            }
        }
        eprintln!("[summary] claim 15 done");
    }

    // Claim 16: elastic membership — a rank killed in round 0 of a
    // 3-round campaign and readmitted at the next workload boundary
    // leaves every round bit-identical to the fault-free campaign and
    // restores full-strength throughput from the first post-rejoin
    // round on, while a permanent kill stays degraded at N−1.
    {
        use genomedsm_strategies::{heuristic_campaign, KillPlan};
        let len = args.size(15_000);
        let (s, t, _) = workloads::pair(len, 61);
        let rounds = 3usize;
        let victim = 1 % nprocs;
        let kill_at = (s.len() / nprocs.max(1)) as u64 / 5;
        let campaign = |plan: Option<KillPlan>| {
            let mut config = HeuristicDsmConfig::new(nprocs);
            config.dsm = config.dsm.tolerate_failures();
            if let Some(p) = plan {
                config.dsm = config.dsm.faults(std::sync::Arc::new(p));
            }
            heuristic_campaign(&s, &t, &SC, &params(), &config, rounds)
        };
        let clean = campaign(None);
        let elastic = campaign(Some(
            KillPlan::new().kill(victim, kill_at).rejoin(victim, 8),
        ));
        let degraded = campaign(Some(KillPlan::new().kill(victim, kill_at)));
        let identical = (0..rounds).all(|w| {
            elastic.rounds[w].regions == clean.rounds[w].regions
                && degraded.rounds[w].regions == clean.rounds[w].regions
        });
        let rejoins: u64 = elastic.per_node.iter().map(|st| st.rejoins).sum();
        let recovered = (1..rounds).all(|w| elastic.rounds[w].wall < degraded.rounds[w].wall);
        let gain =
            degraded.rounds[1].wall.as_secs_f64() / elastic.rounds[1].wall.as_secs_f64().max(1e-12);
        results.push((
            "kill-then-rejoin campaign: bit-identical, throughput recovered (§5.13)",
            identical && rejoins == 1 && recovered,
            format!(
                "{rounds} rounds bit-identical; {rejoins} rejoin; post-rejoin round \
                 {gain:.2}x faster than permanent N-1"
            ),
        ));
        eprintln!("[summary] claim 16 done");
    }

    // Claim 17: the protein subsystem is exact and fast — every affine
    // (Gotoh) engine's top-k is bit-identical to the sequential scalar
    // Gotoh scan, the striped SIMD kernel is at least 2x the scalar on
    // the lane-packed path, and the composition prefilter prunes DP
    // launches without ever changing the top-k.
    {
        use genomedsm_batch::{
            build_index, oracle_search_mode, prefiltered_search, BatchConfig, BatchEngine,
            ScoreMode,
        };
        use genomedsm_core::submat::MatrixScoring;
        use genomedsm_kernels::KernelChoice;
        let ms = MatrixScoring::blosum62();
        let top_k = 5;
        let (queries, db) = protein_workload(48, 96, 128, 320);
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let want = oracle_search_mode(&db, &refs, &ScoreMode::Protein(ms), &SC, top_k);
        let time_best = |choice: KernelChoice| {
            let mut best = Duration::MAX;
            let mut hits = Vec::new();
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                hits = std::hint::black_box(
                    BatchEngine::new(BatchConfig {
                        kernel: choice,
                        top_k,
                        mode: ScoreMode::Protein(ms),
                        ..BatchConfig::default()
                    })
                    .search(&db, &refs)
                    .hits,
                );
                best = best.min(t0.elapsed());
            }
            (hits, best)
        };
        let (scalar_hits, scalar_t) = time_best(KernelChoice::Scalar);
        let (simd_hits, simd_t) = time_best(KernelChoice::Simd);
        let ratio = scalar_t.as_secs_f64() / simd_t.as_secs_f64();

        let (pqs, pdb) = prefilter_workload(32, 96, top_k, 160, 160);
        let prefs: Vec<&[u8]> = pqs.iter().map(Vec::as_slice).collect();
        let pwant = oracle_search_mode(&pdb, &prefs, &ScoreMode::Protein(ms), &SC, top_k);
        let index = build_index(&pdb);
        let (pf_hits, stats) =
            prefiltered_search(&pdb, &index, &prefs, &ms, KernelChoice::Simd, top_k);
        results.push((
            "protein Gotoh: SIMD >= 2x scalar, prefilter prunes, all bit-exact (§5.14)",
            scalar_hits == want
                && simd_hits == want
                && pf_hits == pwant
                && ratio >= 2.0
                && stats.pruned > 0,
            format!(
                "striped Gotoh {ratio:.2}x over scalar; prefilter pruned {} of {} DP \
                 launches ({:.0}%), top-k unchanged",
                stats.pruned,
                stats.evaluated,
                stats.pruning_rate() * 100.0
            ),
        ));
        eprintln!("[summary] claim 17 done");
    }

    let mut table = Table::new(
        "Reproduction gate: headline claims",
        &["claim", "verdict", "evidence"],
    );
    let mut failures = 0;
    for (claim, pass, evidence) in &results {
        if !pass {
            failures += 1;
        }
        table.row(&[
            claim.to_string(),
            if *pass { "PASS" } else { "FAIL" }.to_string(),
            evidence.clone(),
        ]);
    }
    print!("{}", table.render());
    println!();
    table.save_csv(&args.artifact("summary.csv")).expect("csv");
    if failures > 0 {
        eprintln!("{failures} claim(s) FAILED");
        std::process::exit(1);
    }
    println!("all {} claims PASS", results.len());
}
