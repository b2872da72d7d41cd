//! Inter-sequence batch kernel: a **different query per i16 lane**.
//!
//! The striped kernel ([`crate::engine`]) spends all its lanes on one
//! query; profitable for long pairs, wasteful for database search where
//! millions of *small* queries each pay a full kernel launch (profile
//! build, state allocation, lazy-F fixups) per pair. This module packs up
//! to `LANES` distinct queries into one vector register file and scores
//! them against a shared target in a single pass — the inter-sequence
//! parallelism of DSA and SWIPE (see PAPERS.md).
//!
//! The layout is plain row-major: vector `i` holds cell `(i, j)` of every
//! lane's private DP matrix, where row `i` is a query position and `j`
//! walks the shared target. Because the lanes are *independent
//! alignments*, there is no inter-lane dependency at all: the vertical
//! gap chain runs down the rows of one column, which the column loop
//! computes sequentially anyway, so `F` is exact on the way down — no
//! striping, no lazy-F loop, under either gap model. The affine
//! instantiation only adds the `E` buffer.
//!
//! Exactness contract: each lane's result is bit-identical to the
//! scheme's scalar oracle ([`Scheme::oracle`]) on that (query, target)
//! pair — same best score, same row-major-first end-point tie-break, same
//! threshold hit count. Queries outside the i16 envelope
//! ([`Scheme::fits_i16_query`]) transparently fall back to the oracle in
//! [`score_batch`].

use crate::engine::{best_of, e_buffer, hit_gate, Engine};
use crate::profile::{SymbolRows, NEG_INF};
use crate::scheme::Scheme;
use crate::{Isa, KernelChoice};
use genomedsm_core::linear::LinearSwResult;
use genomedsm_core::submat::MatrixScoring;

/// A batch of up to `lanes` queries packed one-per-lane for a fixed ISA
/// under scoring scheme `S`.
///
/// The profile precomputes, for each target symbol `c`, the row-major
/// vector sequence `prof[c][i * lanes + l] = subst(q_l[i], c)` (the
/// padding sentinel where lane `l` is shorter than row `i`), so the inner
/// loop is one saturating add per row. Rows are built lazily per observed
/// symbol. A profile is built **once per lane group** and reused across
/// every database record it is scored against — that amortization is the
/// batch engine's main launch-overhead win.
pub struct PackedProfile<S> {
    isa: Isa,
    /// Vector width in i16 lanes.
    lanes: usize,
    /// Rows per column: the longest packed query's length.
    rows: usize,
    /// Per-lane query lengths (`lens.len()` = number of packed queries).
    lens: Vec<usize>,
    /// Per-row live-lane mask: lane `l` is live at row `i` iff
    /// `i < lens[l]`.
    valid: Vec<u64>,
    /// `(open, extend)` gap penalties as positive i16 values.
    gaps: (i16, i16),
    sym: SymbolRows<S>,
}

/// The affine-gap (protein) lane-packed profile.
pub type PackedAffineProfile = PackedProfile<MatrixScoring>;

impl<S: Scheme> PackedProfile<S> {
    /// Packs `queries` (at most `isa.lanes()` of them) for `isa`.
    ///
    /// Returns `None` when the pack is not exactly representable: the ISA
    /// is unavailable on this CPU, too many queries, or the scoring
    /// scheme / a query length fails [`Scheme::fits_i16_query`]. Callers
    /// that need a never-fails path use [`score_batch`], which routes
    /// rejected queries to the scalar oracle instead.
    pub fn new(queries: &[&[u8]], scoring: &S, isa: Isa) -> Option<Self> {
        if !isa.available() || queries.len() > isa.lanes() {
            return None;
        }
        if queries.iter().any(|q| !scoring.fits_i16_query(q.len())) {
            return None;
        }
        let lanes = isa.lanes();
        let lens: Vec<usize> = queries.iter().map(|q| q.len()).collect();
        let rows = lens.iter().copied().max().unwrap_or(0);
        let mut slots = vec![None; rows * lanes];
        for (l, q) in queries.iter().enumerate() {
            for (i, &c) in q.iter().enumerate() {
                slots[i * lanes + l] = Some(c);
            }
        }
        let sym = SymbolRows::new(scoring, slots.into_boxed_slice());
        Some(Self {
            isa,
            lanes,
            rows,
            lens,
            valid: sym.live_masks(lanes),
            gaps: scoring.gap_penalties(),
            sym,
        })
    }

    /// Number of queries packed into this profile.
    pub fn width(&self) -> usize {
        self.lens.len()
    }

    /// The ISA this profile is laid out for.
    pub fn isa(&self) -> Isa {
        self.isa
    }
}

/// Mutable per-scan state: two column buffers, the affine `E` buffer
/// (empty for linear gaps), plus the per-element running-max bookkeeping
/// that reproduces the oracle's tie-break.
struct PackedState {
    /// Previous column's `H` (`rows * lanes`, row-major).
    ph: Vec<i16>,
    /// Current column's `H`.
    ch: Vec<i16>,
    /// Affine only: `E` for the next column.
    e: Vec<i16>,
    /// Running per-element maximum over all columns seen so far.
    vmax: Vec<i16>,
    /// Column (0-based) of the first strict improvement that set each
    /// element's current `vmax`.
    first_j: Vec<u64>,
    /// Per-lane threshold hits.
    hits: Vec<u64>,
}

impl PackedState {
    fn new<S: Scheme>(prof: &PackedProfile<S>) -> Self {
        let n = prof.rows * prof.lanes;
        Self {
            ph: vec![0; n],
            ch: vec![0; n],
            e: e_buffer::<S>(n, prof.gaps),
            vmax: vec![0; n],
            first_j: vec![0; n],
            hits: vec![0; prof.lanes],
        }
    }

    #[inline(always)]
    fn flip(&mut self) {
        std::mem::swap(&mut self.ph, &mut self.ch);
    }
}

/// Computes one target column into `st.ch` from `st.ph`.
///
/// Per row `i` (lane-wise) this is the Gotoh recurrence of the crate
/// docs; linear gaps read `E` as `H[i][j-1] - go` and `F` as `H[i-1][j] -
/// go`. The top border (`i = -1`) is the zero
/// row of a fresh local alignment, so `diag` and `up` start at zero and
/// the first row's affine `F` is `max(NEG_INF - ge, 0 - go) = -go`,
/// precisely the open-from-the-zero-row value.
///
/// # Safety
/// The caller must guarantee the engine's ISA is available on the running
/// CPU (or call this through a `#[target_feature]` wrapper), and `st` /
/// `prof_row` must be packed for `E::LANES` lanes with at least `rows`
/// rows.
#[inline(always)]
unsafe fn packed_column<E: Engine, S: Scheme>(
    st: &mut PackedState,
    rows: usize,
    prof_row: &[i16],
    (go, ge): (i16, i16),
) {
    let l = E::LANES;
    let vzero = E::splat(0);
    let vgo = E::splat(go);
    let vge = E::splat(ge);
    let mut diag = vzero; // H[i-1][j-1]
    let mut up = vzero; // H[i-1][j]
    let mut vf = E::splat(NEG_INF); // affine F[i-1][j]
    for i in 0..rows {
        let off = i * l;
        let left = E::load(st.ph.as_ptr().add(off)); // H[i][j-1]
        let ve = if S::AFFINE {
            E::load(st.e.as_ptr().add(off)) // E[i][j]
        } else {
            E::subs(left, vgo)
        };
        if S::AFFINE {
            vf = E::max(E::subs(vf, vge), E::subs(up, vgo)); // F[i][j]
        } else {
            vf = E::subs(up, vgo);
        }
        let mut vh = E::adds(diag, E::load(prof_row.as_ptr().add(off)));
        vh = E::max(vh, ve);
        vh = E::max(vh, vf);
        vh = E::max(vh, vzero);
        E::store(st.ch.as_mut_ptr().add(off), vh);
        if S::AFFINE {
            E::store(
                st.e.as_mut_ptr().add(off),
                E::max(E::subs(ve, vge), E::subs(vh, vgo)),
            );
        }
        diag = left;
        up = vh;
    }
}

/// Post-column statistics: per-lane threshold hits over live elements
/// and the running per-element max plus the column of its first strict
/// improvement (the data the final reduction needs for the oracle's
/// row-major-first tie-break).
///
/// # Safety
/// Same contract as [`packed_column`]; `valid` must cover every packed
/// row of `st`.
#[inline(always)]
unsafe fn packed_stats<E: Engine>(
    st: &mut PackedState,
    valid: &[u64],
    thr_minus_1: Option<i16>,
    j0: usize,
) {
    let l = E::LANES;
    let vthr = thr_minus_1.map(|x| E::splat(x));
    for (i, &vmask) in valid.iter().enumerate() {
        let off = i * l;
        let vh = E::load(st.ch.as_ptr().add(off));
        if let Some(vt) = vthr {
            let mut bits = E::gt_bytes(vh, vt) & vmask;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize / 2;
                st.hits[lane] += 1;
                bits &= !(0b11u64 << (lane * 2));
            }
        }
        let vm = E::load(st.vmax.as_ptr().add(off));
        let improved = E::gt_bytes(vh, vm) & vmask;
        if improved != 0 {
            E::store(st.vmax.as_mut_ptr().add(off), E::max(vm, vh));
            let mut bits = improved;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize / 2;
                st.first_j[off + lane] = j0 as u64;
                bits &= !(0b11u64 << (lane * 2));
            }
        }
    }
}

/// Full batch pass: one result per packed query, oracle-exact.
///
/// # Safety
/// The caller must guarantee the engine's ISA is available on the running
/// CPU (or call this through a `#[target_feature]` wrapper).
#[inline(always)]
pub(crate) unsafe fn packed_score<E: Engine, S: Scheme>(
    prof: &mut PackedProfile<S>,
    t: &[u8],
    threshold: i32,
) -> Vec<LinearSwResult> {
    debug_assert_eq!(E::LANES, prof.lanes);
    let (rows, gaps) = (prof.rows, prof.gaps);
    let mut st = PackedState::new(prof);
    let thr = hit_gate(threshold);
    for (j0, &c) in t.iter().enumerate() {
        let row = prof.sym.row(c);
        packed_column::<E, S>(&mut st, rows, row, gaps);
        packed_stats::<E>(&mut st, &prof.valid, thr, j0);
        st.flip();
    }
    let lanes = prof.lanes;
    prof.lens
        .iter()
        .enumerate()
        .map(|(l, &len)| {
            best_of(
                &st.vmax,
                &st.first_j,
                st.hits[l],
                (0..len).map(|i| i * lanes + l),
            )
        })
        .collect()
}

/// Scores every query packed in `prof` against `t`, one oracle-exact
/// [`LinearSwResult`] per query in pack order.
///
/// The profile is reusable: scoring mutates only its lazy symbol-row
/// cache, so one profile can scan an entire database of targets.
pub fn score_batch_packed<S: Scheme>(
    prof: &mut PackedProfile<S>,
    t: &[u8],
    threshold: i32,
) -> Vec<LinearSwResult> {
    match prof.isa {
        // SAFETY: the portable engine has no ISA requirement.
        Isa::Portable => unsafe { packed_score::<crate::scalar::Portable, S>(prof, t, threshold) },
        // SAFETY: prof.isa is only Sse2 when runtime detection admitted it.
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => unsafe { crate::x86::packed_sse2(prof, t, threshold) },
        // SAFETY: prof.isa is only Avx2 when runtime detection admitted it.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { crate::x86::packed_avx2(prof, t, threshold) },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Sse2 | Isa::Avx2 => unreachable!("PackedProfile::new checks Isa::available"),
    }
}

/// Number of queries one kernel invocation carries for `choice` on this
/// host: the i16 lane width for the SIMD paths, 1 for the scalar oracle.
/// Batch planners size their lane groups with this.
pub fn effective_lanes(choice: KernelChoice) -> usize {
    choice.isa().map_or(1, Isa::lanes)
}

/// Scores many queries against one shared target, packing a different
/// query into each i16 lane: the batch drop-in for a loop of single-pair
/// `score` calls. Results are in query order and bit-identical to the
/// scheme's scalar oracle per pair.
///
/// Queries are packed [`effective_lanes`]`(choice)` at a time in the
/// given order (pre-sort by length to minimize padding); queries outside
/// the i16 envelope — and every query under `KernelChoice::Scalar` or
/// when no real SIMD is available under `Auto` — run on the scalar
/// oracle instead.
pub fn score_batch<S: Scheme>(
    choice: KernelChoice,
    queries: &[&[u8]],
    t: &[u8],
    scoring: &S,
    threshold: i32,
) -> Vec<LinearSwResult> {
    let Some(isa) = choice.isa() else {
        return queries
            .iter()
            .map(|q| scoring.oracle(q, t, threshold))
            .collect();
    };
    let zero = LinearSwResult {
        best_score: 0,
        best_end: (0, 0),
        hits: 0,
    };
    let mut out = vec![zero; queries.len()];
    let (packable, scalar): (Vec<usize>, Vec<usize>) =
        (0..queries.len()).partition(|&i| scoring.fits_i16_query(queries[i].len()));
    for group in packable.chunks(isa.lanes()) {
        let qs: Vec<&[u8]> = group.iter().map(|&i| queries[i]).collect();
        let mut prof =
            PackedProfile::new(&qs, scoring, isa).expect("members passed fits_i16_query");
        for (&i, r) in group
            .iter()
            .zip(score_batch_packed(&mut prof, t, threshold))
        {
            out[i] = r;
        }
    }
    for i in scalar {
        out[i] = scoring.oracle(queries[i], t, threshold);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::linear::sw_score_linear;
    use genomedsm_core::scoring::Scoring;
    use genomedsm_core::sw_score_profile;

    const SC: Scoring = Scoring::paper();

    fn oracle_each(queries: &[&[u8]], t: &[u8], thr: i32) -> Vec<LinearSwResult> {
        queries
            .iter()
            .map(|q| sw_score_linear(q, t, &SC, thr))
            .collect()
    }

    #[test]
    fn packed_profile_rejects_overfull_and_oversized() {
        let qs: Vec<&[u8]> = (0..9).map(|_| &b"ACGT"[..]).collect();
        assert!(PackedProfile::new(&qs, &SC, Isa::Portable).is_none());
        let long = vec![b'A'; 40_000];
        assert!(PackedProfile::new(&[&long], &SC, Isa::Portable).is_none());
        assert!(PackedProfile::new(&[b"ACGT"], &SC, Isa::Portable).is_some());
    }

    #[test]
    fn every_isa_matches_the_oracle_on_a_ragged_pack() {
        let queries: Vec<&[u8]> = vec![
            b"TCTCGACGGATTAGTATATATATAGGCATTCA",
            b"",
            b"A",
            b"GATTACA",
            b"ATATGATCGGAATAGCTCTTAGGCATT",
            b"CCCCCCCC",
        ];
        let t = b"ATATGATCGGAATAGCTCTTAGGCATTCAGATTACA";
        for thr in [0, 1, 3, i32::MAX] {
            let want = oracle_each(&queries, t, thr);
            for isa in Isa::ALL {
                if !isa.available() {
                    continue;
                }
                let mut prof = PackedProfile::new(&queries, &SC, isa).unwrap();
                let got = score_batch_packed(&mut prof, t, thr);
                assert_eq!(got, want, "isa {} thr {thr}", isa.name());
            }
        }
    }

    #[test]
    fn profile_reuse_across_targets_stays_exact() {
        let queries: Vec<&[u8]> = vec![b"GACGGATTAG", b"TTTTAGGCAT", b"ACGTACGTACGT"];
        let targets: [&[u8]; 3] = [b"GATCGGAATAGGGACCATTTACCA", b"ACGT", b""];
        let mut prof = PackedProfile::new(&queries, &SC, Isa::Portable).unwrap();
        for t in targets {
            assert_eq!(
                score_batch_packed(&mut prof, t, 2),
                oracle_each(&queries, t, 2)
            );
        }
    }

    #[test]
    fn score_batch_spills_oversized_queries_to_scalar() {
        // 40k identical bases exceed the i16 ceiling with paper scoring;
        // the big query must fall back while its neighbours stay packed.
        let long = vec![b'A'; 40_000];
        let queries: Vec<&[u8]> = vec![b"GATTACA", &long, b"ACGT"];
        let t = vec![b'A'; 1000];
        for choice in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            let got = score_batch(choice, &queries, &t, &SC, 1);
            assert_eq!(got, oracle_each(&queries, &t, 1), "choice {choice}");
        }
    }

    #[test]
    fn more_queries_than_lanes_chunks_correctly() {
        let base = b"TCTCGACGGATTAGTATATATATAGGCATTCAGATTACA";
        let queries: Vec<&[u8]> = (0..37).map(|i| &base[i % 8..8 + (i * 3) % 30]).collect();
        let t = b"ATATGATCGGAATAGCTCTTAGGCATTCA";
        for choice in [KernelChoice::Simd, KernelChoice::Auto] {
            assert_eq!(
                score_batch(choice, &queries, t, &SC, 2),
                oracle_each(&queries, t, 2),
                "choice {choice}"
            );
        }
    }

    #[test]
    fn tie_break_matches_oracle_on_repetitive_sequences() {
        // Periodic sequences create many equal-scoring maxima; the batch
        // reduction must pick the same (row-major-first) end point.
        let queries: Vec<&[u8]> = vec![b"ATATATATAT", b"TATATATA", b"ATAT"];
        let t = b"ATATATATATATATAT";
        let mut prof = PackedProfile::new(&queries, &SC, Isa::Portable).unwrap();
        assert_eq!(
            score_batch_packed(&mut prof, t, 1),
            oracle_each(&queries, t, 1)
        );
    }

    #[test]
    fn effective_lanes_is_one_for_scalar() {
        assert_eq!(effective_lanes(KernelChoice::Scalar), 1);
        assert!(effective_lanes(KernelChoice::Simd) >= 8);
    }

    fn oracle_each_affine(
        queries: &[&[u8]],
        t: &[u8],
        ms: &MatrixScoring,
        thr: i32,
    ) -> Vec<LinearSwResult> {
        queries
            .iter()
            .map(|q| sw_score_profile(q, t, ms, thr))
            .collect()
    }

    #[test]
    fn packed_affine_matches_oracle_on_a_ragged_pack() {
        let ms = MatrixScoring::blosum62();
        let queries: Vec<&[u8]> = vec![
            b"MKVLAWQHKRWCEWLTNHGG",
            b"",
            b"W",
            b"GAVDSTRQEFFPK",
            b"AWQHKAWQHKAWQHKAWQHKAWQHK",
            b"CCCCCCCC",
        ];
        let t = b"GAVDSMKVLAWQHKRWTTTRQEFFPKAWQHKWCEWLTN";
        for thr in [0, 1, 4, i32::MAX] {
            let want = oracle_each_affine(&queries, t, &ms, thr);
            for isa in Isa::ALL {
                if !isa.available() {
                    continue;
                }
                let mut prof = PackedAffineProfile::new(&queries, &ms, isa).unwrap();
                let got = score_batch_packed(&mut prof, t, thr);
                assert_eq!(got, want, "isa {} thr {thr}", isa.name());
            }
        }
    }

    #[test]
    fn packed_affine_profile_reuse_across_targets_stays_exact() {
        let ms = MatrixScoring::blosum62();
        let queries: Vec<&[u8]> = vec![b"MKVLAWQHKR", b"GAVDSTRQEF", b"WCEWLTNHGGAV"];
        let targets: [&[u8]; 3] = [b"AWQHKRWCEWLTNHGGAVDSTRQ", b"MKVL", b""];
        let mut prof = PackedAffineProfile::new(&queries, &ms, Isa::Portable).unwrap();
        for t in targets {
            assert_eq!(
                score_batch_packed(&mut prof, t, 2),
                oracle_each_affine(&queries, t, &ms, 2)
            );
        }
    }

    #[test]
    fn score_batch_affine_spills_oversized_queries_to_scalar() {
        let ms = MatrixScoring::blosum62();
        // 40k residues exceed the i16 ceiling (40_000 * 11 cells); the
        // big query must fall back while its neighbours stay packed.
        let long = vec![b'W'; 40_000];
        let queries: Vec<&[u8]> = vec![b"MKVLAWQ", &long, b"GAVD"];
        let t = vec![b'W'; 500];
        for choice in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            let got = score_batch(choice, &queries, &t, &ms, 1);
            assert_eq!(
                got,
                oracle_each_affine(&queries, &t, &ms, 1),
                "choice {choice}"
            );
        }
    }
}
