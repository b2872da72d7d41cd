//! The engine abstraction and the generic striped Smith–Waterman recurrence.
//!
//! Everything algorithmic lives here and in [`crate::batch`], written once
//! against the tiny [`Engine`] vector vocabulary and once over the gap
//! model ([`Scheme`]). The ISA backends ([`crate::scalar`], [`crate::x86`])
//! only implement `Engine` and wrap the generic routines in
//! `#[target_feature]` shells so the compiler can use the wide
//! instructions.
//!
//! The recurrence for both gap models and the lazy-F exactness argument
//! are in the crate docs.
//!
//! # Exactness
//!
//! The routines here are bit-exact against the scheme's scalar oracle
//! ([`Scheme::oracle`]: score, end point with the same row-major-first
//! tie-break, and threshold hit count) whenever [`Scheme::fits_i16`] admits
//! the problem; the public wrappers fall back to the oracle otherwise, so
//! saturation can never corrupt a result. Saturating i16 arithmetic cannot
//! corrupt admitted problems: `H` is bounded by `min(m, n) * best_cell <=
//! 32 000`, and `E`/`F` values that saturate toward `i16::MIN` are already
//! dominated by the `H - go` re-open branch everywhere they are consumed.

use crate::profile::{StripedProfile, NEG_INF};
use crate::scheme::Scheme;
use genomedsm_core::linear::LinearSwResult;
use genomedsm_core::scoring::Scoring;

/// Minimal SIMD vocabulary the striped recurrence needs.
///
/// All operations are `unsafe fn` because the x86 backends lower to
/// `target_feature` intrinsics; the portable backend implements them safely.
///
/// # Safety
/// Every method shares one contract: the caller must ensure the engine's
/// ISA is enabled in the calling context (via runtime detection plus a
/// `#[target_feature]` wrapper, as the backends do), and `load`/`store`
/// pointers must be valid for `LANES` consecutive `i16` reads/writes.
pub(crate) trait Engine: Copy {
    /// Number of i16 lanes per vector.
    const LANES: usize;
    /// Vector register type.
    type V: Copy;

    /// Broadcast `x` to all lanes.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn splat(x: i16) -> Self::V;
    /// Unaligned load of `LANES` i16 values.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold and `src` must be valid for
    /// `LANES` consecutive `i16` reads.
    unsafe fn load(src: *const i16) -> Self::V;
    /// Unaligned store of `LANES` i16 values.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold and `dst` must be valid for
    /// `LANES` consecutive `i16` writes.
    unsafe fn store(dst: *mut i16, v: Self::V);
    /// Lane-wise saturating add.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise saturating subtract.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise signed max.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    /// `movemask_epi8`-style byte mask of `a > b` (two bits per i16 lane,
    /// lane `l` occupying bits `2l` and `2l+1`). Zero iff no lane is greater.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64;
    /// Shift lanes up by one (`lane l` receives `lane l-1`) inserting
    /// `first` into lane 0. This is the stripe-boundary rotation: lane `l`
    /// of stripe 0 (query `l*p`) depends on lane `l-1` of stripe `p-1`
    /// (query `l*p - 1`).
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn shift_in(v: Self::V, first: i16) -> Self::V;
}

/// Mutable per-alignment state shared by all engines (plain i16 buffers in
/// striped order; the engine only dictates the lane width they are read
/// with).
pub(crate) struct StripedState {
    /// Stripes per column.
    pub p: usize,
    /// Lane width the buffers are striped for.
    pub lanes: usize,
    /// Previous column's `H` (the "load" buffer).
    pub ph: Vec<i16>,
    /// Current column's `H` (the "store" buffer).
    pub ch: Vec<i16>,
    /// Affine only (empty for linear gaps): `E` for the next column.
    e: Vec<i16>,
    /// Running per-element maximum over all columns seen so far.
    pub vmax: Vec<i16>,
    /// Column index (0-based) of the first strict improvement that set the
    /// current `vmax` value for each element.
    pub first_j: Vec<u64>,
    /// Accumulated threshold hits over live elements.
    pub hits: u64,
    scratch: Vec<i16>,
}

impl StripedState {
    /// Fresh state for scanning with `prof`, as if after the zero boundary
    /// column.
    pub fn new<S: Scheme>(prof: &StripedProfile<S>) -> Self {
        let n = prof.p * prof.lanes;
        Self {
            p: prof.p,
            lanes: prof.lanes,
            ph: vec![0; n],
            ch: vec![0; n],
            e: e_buffer::<S>(n, prof.gaps),
            vmax: vec![0; n],
            first_j: vec![0; n],
            hits: 0,
            scratch: vec![0; n],
        }
    }

    /// Makes the just-computed column the "previous" one.
    #[inline(always)]
    pub fn flip(&mut self) {
        std::mem::swap(&mut self.ph, &mut self.ch);
    }
}

/// The `E` buffer entering the first real column: exactly `-go` for every
/// element (a gap opened from the zero boundary column). Empty for linear
/// gaps, which never read it.
pub(crate) fn e_buffer<S: Scheme>(n: usize, (go, _): (i16, i16)) -> Vec<i16> {
    if S::AFFINE {
        vec![-go; n]
    } else {
        Vec::new()
    }
}

/// The i16 hit gate for `threshold`: hits are cells `> threshold - 1`.
/// Hits are only counted for positive thresholds (matching the scalar
/// oracle); a threshold above the i16 range can never be reached by an
/// admitted problem, so it degenerates to "count nothing".
pub(crate) fn hit_gate(threshold: i32) -> Option<i16> {
    (threshold > 0 && threshold <= i32::from(i16::MAX)).then(|| (threshold - 1) as i16)
}

/// The final reduction of every kernel. `slots` yields one query's buffer
/// indices in query order; scanning them with a strict `>` reproduces the
/// oracle's row-major-first tie-break — `first_j` holds each row's first
/// column reaching its max, and the lowest such row wins.
pub(crate) fn best_of(
    vmax: &[i16],
    first_j: &[u64],
    hits: u64,
    slots: impl Iterator<Item = usize>,
) -> LinearSwResult {
    let mut best = LinearSwResult {
        best_score: 0,
        best_end: (0, 0),
        hits,
    };
    for (q, idx) in slots.enumerate() {
        let v = i32::from(vmax[idx]);
        if v > best.best_score {
            best.best_score = v;
            best.best_end = (q + 1, first_j[idx] as usize + 1);
        }
    }
    best
}

/// Computes one database column into `st.ch` from `st.ph` (and, for
/// affine gaps, advances the `E` buffer to the next column).
///
/// `diag0` is the boundary value entering query element 0's diagonal
/// (`H[row0][j-1]`); `f0` is the vertical-gap value entering element 0
/// (`H[row0][j] - go`). For a plain local alignment both derive from a
/// zero top row; the banded pre-process wavefront injects real border
/// values here.
///
/// # Safety
/// The caller must guarantee the engine's ISA is available on the running
/// CPU (or call this through a `#[target_feature]` wrapper), and `st` must
/// have been built for `E::LANES` lanes with `p` stripes from a profile of
/// scheme `S`.
#[inline(always)]
pub(crate) unsafe fn column<E: Engine, S: Scheme>(
    st: &mut StripedState,
    prof_row: &[i16],
    (go, ge): (i16, i16),
    diag0: i16,
    f0: i16,
) {
    let p = st.p;
    let l = E::LANES;
    debug_assert_eq!(l, st.lanes);
    debug_assert_eq!(prof_row.len(), p * l);
    debug_assert_eq!(st.e.len(), if S::AFFINE { p * l } else { 0 });
    let vgo = E::splat(go);
    let vge = E::splat(ge);
    let vzero = E::splat(0);
    let mut vf = E::splat(NEG_INF);
    // Diagonal feed for stripe 0: last stripe of the previous column,
    // rotated one lane, with the top-left boundary in lane 0.
    let mut vh = E::shift_in(E::load(st.ph.as_ptr().add((p - 1) * l)), diag0);
    for k in 0..p {
        let off = k * l;
        // Left neighbour: the stored E, or (linear) the previous column's
        // H at the same element minus the gap.
        let ve = if S::AFFINE {
            E::load(st.e.as_ptr().add(off))
        } else {
            E::subs(E::load(st.ph.as_ptr().add(off)), vgo)
        };
        vh = E::adds(vh, E::load(prof_row.as_ptr().add(off)));
        vh = E::max(vh, ve);
        vh = E::max(vh, vf);
        vh = E::max(vh, vzero);
        E::store(st.ch.as_mut_ptr().add(off), vh);
        if S::AFFINE {
            // E for the next column: extend, or re-open from this H.
            E::store(
                st.e.as_mut_ptr().add(off),
                E::max(E::subs(ve, vge), E::subs(vh, vgo)),
            );
            // F down the column: extend, or open from this H.
            vf = E::max(E::subs(vf, vge), E::subs(vh, vgo));
        } else {
            vf = E::subs(E::max(vf, vh), vgo);
        }
        vh = E::load(st.ph.as_ptr().add(off));
    }
    // Farrar's lazy F across the stripe-0 boundary (see the crate docs
    // for both break tests).
    vf = E::shift_in(vf, f0);
    let mut k = 0;
    loop {
        let off = k * l;
        let cur = E::load(st.ch.as_ptr().add(off));
        let floor = if S::AFFINE { E::subs(cur, vgo) } else { cur };
        if E::gt_bytes(vf, floor) == 0 {
            break;
        }
        let raised = E::max(cur, vf);
        E::store(st.ch.as_mut_ptr().add(off), raised);
        if S::AFFINE {
            E::store(
                st.e.as_mut_ptr().add(off),
                E::max(E::load(st.e.as_ptr().add(off)), E::subs(raised, vgo)),
            );
        }
        vf = E::subs(vf, vge);
        k += 1;
        if k == p {
            k = 0;
            vf = E::shift_in(vf, NEG_INF);
        }
    }
}

/// Post-column statistics pass over `st.ch`: threshold hits (live lanes
/// only), the running per-element max, and the column of its first strict
/// improvement.
///
/// # Safety
/// Same contract as [`column`]; additionally `valid` must cover all `p`
/// stripes of `st`.
#[inline(always)]
pub(crate) unsafe fn stats<E: Engine>(
    st: &mut StripedState,
    valid: &[u64],
    thr_minus_1: Option<i16>,
    j0: usize,
) {
    let p = st.p;
    let l = E::LANES;
    let vthr = thr_minus_1.map(|x| E::splat(x));
    for (k, &vmask) in valid.iter().enumerate().take(p) {
        let off = k * l;
        let vh = E::load(st.ch.as_ptr().add(off));
        if let Some(vt) = vthr {
            let m = E::gt_bytes(vh, vt) & vmask;
            st.hits += u64::from(m.count_ones() / 2);
        }
        let vm = E::load(st.vmax.as_ptr().add(off));
        let improved = E::gt_bytes(vh, vm);
        if improved != 0 {
            E::store(st.vmax.as_mut_ptr().add(off), E::max(vm, vh));
            // Rare scalar fixup: record the first column each element's
            // running max changed in (strict `>` keeps the earliest).
            let mut bits = improved;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize / 2;
                st.first_j[off + lane] = j0 as u64;
                bits &= !(0b11u64 << (lane * 2));
            }
        }
    }
}

/// Reads one element of the current column (pre-`flip`).
///
/// # Safety
/// Same contract as [`column`]; `q` must be a valid query index
/// (`q < p * lanes`).
#[inline(always)]
pub(crate) unsafe fn extract<E: Engine>(st: &mut StripedState, q: usize) -> i16 {
    let k = q % st.p;
    let l = q / st.p;
    let v = E::load(st.ch.as_ptr().add(k * E::LANES));
    E::store(st.scratch.as_mut_ptr(), v);
    st.scratch[l]
}

/// De-stripes the current column (pre-`flip`) into `out[0..m]`.
///
/// # Safety
/// Same contract as [`column`]; `m` must not exceed the profile's query
/// length and `out` must hold at least `m` elements.
#[inline(always)]
pub(crate) unsafe fn destripe_column<E: Engine>(st: &StripedState, m: usize, out: &mut [i32]) {
    debug_assert!(out.len() >= m);
    for (q, slot) in out.iter_mut().enumerate().take(m) {
        *slot = i32::from(st.ch[(q % st.p) * st.lanes + q / st.p]);
    }
}

/// Full striped local-alignment pass, exact against [`Scheme::oracle`].
///
/// # Safety
/// The caller must guarantee the engine's ISA is available on the running
/// CPU (or call this through a `#[target_feature]` wrapper).
#[inline(always)]
pub(crate) unsafe fn striped_score<E: Engine, S: Scheme>(
    prof: &mut StripedProfile<S>,
    t: &[u8],
    threshold: i32,
) -> LinearSwResult {
    let gaps = prof.gaps;
    let mut st = StripedState::new(prof);
    let thr = hit_gate(threshold);
    for (j0, &c) in t.iter().enumerate() {
        let row = prof.row(c);
        // Zero top row: diagonal boundary 0, vertical-gap boundary `-go`
        // (a gap opened from that row, which can never pass either lazy-F
        // test).
        column::<E, S>(&mut st, row, gaps, 0, -gaps.0);
        stats::<E>(&mut st, &prof.valid, thr, j0);
        st.flip();
    }
    best_of(
        &st.vmax,
        &st.first_j,
        st.hits,
        (0..prof.m).map(|q| prof.index_of(q)),
    )
}

/// Outputs of one [`band_advance`] call.
pub(crate) struct BandChunkOut<'a> {
    /// Per chunk column: `H` of the band's last query row (the bottom
    /// border handed to the next band of the wavefront).
    pub bottom: &'a mut Vec<i32>,
    /// Per chunk column: threshold hits among the band's rows.
    pub col_hits: &'a mut Vec<u64>,
    /// Absolute (1-based) matrix column of `chunk[0]`, used to decide which
    /// columns to de-stripe into `saved`.
    pub first_col: usize,
    /// Save every column whose absolute index is a multiple of this
    /// (`None` = save nothing).
    pub save_every: Option<usize>,
    /// De-striped full band columns `(absolute_col, values)` for the
    /// pre-process save stream.
    pub saved: &'a mut Vec<(usize, Vec<i32>)>,
}

/// Advances a banded wavefront state across one horizontal chunk of the
/// database sequence, injecting the top border row computed by the band
/// above (`top[0]` is the corner `H[row0][first_col-1]`).
///
/// Linear gaps only: an affine band would also need the band above's
/// bottom-row `F`, which the wavefront does not carry.
///
/// # Safety
/// Same contract as [`striped_score`].
#[inline(always)]
pub(crate) unsafe fn band_advance<E: Engine>(
    st: &mut StripedState,
    prof: &mut StripedProfile<Scoring>,
    chunk: &[u8],
    top: &[i32],
    thr_minus_1: Option<i16>,
    out: &mut BandChunkOut<'_>,
) {
    debug_assert_eq!(top.len(), chunk.len() + 1);
    let gaps = prof.gaps;
    let m = prof.m;
    for (jj, &c) in chunk.iter().enumerate() {
        let row = prof.row(c);
        let diag0 = top[jj] as i16;
        let f0 = (top[jj + 1] as i16).saturating_sub(gaps.0);
        column::<E, Scoring>(st, row, gaps, diag0, f0);
        let hits_before = st.hits;
        stats::<E>(st, &prof.valid, thr_minus_1, 0);
        out.col_hits.push(st.hits - hits_before);
        out.bottom.push(i32::from(extract::<E>(st, m - 1)));
        if let Some(every) = out.save_every {
            let abs = out.first_col + jj;
            if abs.is_multiple_of(every) {
                let mut col = vec![0i32; m];
                destripe_column::<E>(st, m, &mut col);
                out.saved.push((abs, col));
            }
        }
        st.flip();
    }
}
