//! Vectorized Smith–Waterman score kernels with runtime ISA dispatch.
//!
//! Every strategy in this reproduction bottoms out in the same per-cell SW
//! recurrence; this crate lifts that inner loop onto SIMD in two layouts
//! and runs both gap models on each:
//!
//! * **striped** (Farrar; the approach behind the SSW library — see
//!   PAPERS.md): one query spread across all lanes, for per-pair scoring
//!   ([`ScoreKernel`]) and the banded pre-process wavefront
//!   ([`BandScorer`]);
//! * **lane-packed** (DSA/SWIPE inter-sequence): a different query per
//!   lane against a shared target, for database search
//!   ([`PackedProfile`], [`score_batch`]).
//!
//! Each layout has one column routine, written once over the [`Scheme`]
//! trait: `Scoring` (the paper's linear gaps) and `MatrixScoring`
//! (affine-gap Gotoh under a substitution matrix, the protein path). The
//! gap model is a compile-time constant, so the linear instantiation runs
//! its own instruction sequence with no `E` state.
//!
//! # The recurrence
//!
//! The affine (Gotoh) recurrence carries two gap states per element,
//!
//! ```text
//! E[i][j] = max(E[i][j-1] - ge, H[i][j-1] - go)   (gap in the query)
//! F[i][j] = max(F[i-1][j] - ge, H[i-1][j] - go)   (gap in the target)
//! H[i][j] = max(0, H[i-1][j-1] + s(q_i, t_j), E[i][j], F[i][j])
//! ```
//!
//! with `go`/`ge` the positive open/extend penalties. With a single gap
//! penalty (`go == ge`, [`Scheme::AFFINE`] false) the horizontal state
//! collapses to `E[i][j] = H[i][j-1] - g`, read straight from the previous
//! column, so the linear instantiation keeps no `E` buffer at all. The
//! affine one keeps `E` in a buffer written one column ahead.
//!
//! In the lane-packed layout the lanes are independent alignments and `F`
//! runs down the rows in order, so it is exact on the way down. In the
//! striped layout the vertical chain (`F`) needs Farrar's lazy-loop
//! fixup, because it runs *within* the current column across stripe
//! boundaries. The loop continues while some lane's carried `F` can still
//! matter:
//!
//! * **linear:** `F > H`. A chain through an element it cannot raise was
//!   already propagated from that element's `H` in the stripe loop.
//! * **affine:** `F > H - go`, strictly longer: a chain that cannot raise
//!   this element's `H` may still beat *re-opening* a gap below it.
//!   Whenever the loop raises an `H`, it also refreshes the stored `E`
//!   (`E ← max(E, H_new - go)`), which restores the exact Gotoh `E` for
//!   the next column: the stripe loop already folded in `E - ge` and the
//!   old `H - go`, and the raised `H` only adds the third candidate.
//!   Propagating the chain as `F - ge` alone is complete because admission
//!   requires `gap_open <= gap_extend` (signed), so extending an existing
//!   gap dominates re-opening from a lazily raised `H` (which equals that
//!   same `F`).
//!
//! Termination: `F` drops by `ge >= 1` per stripe while the `H` side of
//! the test is bounded below.
//!
//! # Kernels
//!
//! | kernel               | width        | requires             |
//! |----------------------|--------------|----------------------|
//! | `scalar`             | 1 × i32      | nothing (the oracle) |
//! | `striped-portable`   | 8 × i16      | nothing              |
//! | `striped-sse2`       | 8 × i16      | SSE2 (any x86_64)    |
//! | `striped-avx2`       | 16 × i16     | AVX2, detected at runtime |
//!
//! All kernels are **bit-exact** against the scheme's scalar oracle
//! (`sw_score_linear` or `sw_score_profile`): same best score, same end
//! point (including the row-major-first tie-break), same threshold hit
//! count. Problems that could saturate the i16 lanes (see [`fits_i16`],
//! [`fits_i16_affine`]) transparently fall back to the scalar oracle, so
//! callers never trade correctness for speed.
//!
//! Selection is by [`KernelChoice`] (`scalar | simd | auto`): `auto` picks
//! the fastest exact kernel for the host, `simd` forces the striped path
//! (portable fallback included), `scalar` forces the oracle.

mod band;
mod batch;
mod engine;
mod profile;
mod scalar;
mod scheme;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use band::BandScorer;
pub use batch::{
    effective_lanes, score_batch, score_batch as score_batch_affine, score_batch_packed,
    score_batch_packed as score_batch_packed_affine, PackedAffineProfile, PackedProfile,
};
pub use genomedsm_core::linear::LinearSwResult;
pub use scheme::Scheme;

use genomedsm_core::scoring::Scoring;
use genomedsm_core::submat::MatrixScoring;
use profile::StripedProfile;

/// Instruction set a striped kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Plain-array striped fallback; always available.
    Portable,
    /// 128-bit `std::arch::x86_64` engine.
    Sse2,
    /// 256-bit `std::arch::x86_64` engine.
    Avx2,
}

impl Isa {
    /// All ISAs, strongest last.
    pub const ALL: [Isa; 3] = [Isa::Portable, Isa::Sse2, Isa::Avx2];

    /// i16 lanes per vector.
    pub const fn lanes(self) -> usize {
        match self {
            Isa::Portable | Isa::Sse2 => 8,
            Isa::Avx2 => 16,
        }
    }

    /// Human-readable kernel name (also used by the CLI and benches).
    pub const fn name(self) -> &'static str {
        match self {
            Isa::Portable => "striped-portable",
            Isa::Sse2 => "striped-sse2",
            Isa::Avx2 => "striped-avx2",
        }
    }

    /// Whether the running CPU can execute this engine.
    pub fn available(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Sse2 | Isa::Avx2 => false,
        }
    }

    /// The widest engine the running CPU supports.
    pub fn best_available() -> Isa {
        if Isa::Avx2.available() {
            Isa::Avx2
        } else if Isa::Sse2.available() {
            Isa::Sse2
        } else {
            Isa::Portable
        }
    }
}

/// User-facing kernel selection, as wired through configs and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Always the plain i32 scalar recurrence.
    Scalar,
    /// Force the striped kernel on the widest available engine (portable
    /// fallback on non-x86 hosts).
    Simd,
    /// Pick whatever is fastest-and-exact for this host and problem.
    #[default]
    Auto,
}

impl KernelChoice {
    /// The striped engine this choice runs on this host, or `None` for the
    /// scalar oracle. `auto` resolves to scalar when no real SIMD is
    /// available: the portable striped engine exists for correctness
    /// coverage, not speed, and is slower than the plain scalar loop.
    pub(crate) fn isa(self) -> Option<Isa> {
        let best = Isa::best_available();
        match self {
            Self::Scalar => None,
            Self::Simd => Some(best),
            Self::Auto => (best != Isa::Portable).then_some(best),
        }
    }

    /// Parses `scalar | simd | auto` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Self::Scalar),
            "simd" => Some(Self::Simd),
            "auto" => Some(Self::Auto),
            _ => None,
        }
    }

    /// The canonical spelling `parse` accepts.
    pub const fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Simd => "simd",
            Self::Auto => "auto",
        }
    }
}

impl std::str::FromStr for KernelChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| format!("unknown kernel choice `{s}` (want scalar|simd|auto)"))
    }
}

impl std::fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a problem of these dimensions is exactly representable in the
/// i16 kernels under the linear-gap `scoring`.
///
/// Local scores are bounded by `min(m, n) * matches` (each of the at most
/// `min(m, n)` aligned columns contributes at most `matches`), so keeping
/// that product under the internal ceiling (32 000) rules out saturation
/// of every intermediate value. Degenerate scoring schemes (non-negative
/// gap, huge magnitudes, mismatch above match) are routed to scalar rather
/// than reasoned about.
pub fn fits_i16(m: usize, n: usize, scoring: &Scoring) -> bool {
    scoring.fits_i16(m, n)
}

/// [`fits_i16`] for a query whose target length is not yet known — the
/// admission rule for packing a query into a [`PackedProfile`] that will be
/// reused across a whole database of targets (`min(m, n) * matches <= m *
/// matches` for any target length `n`). Unlike [`fits_i16`], an empty
/// query is admitted: its lane is fully masked and yields the oracle's
/// zero result for free.
pub fn fits_i16_query(m: usize, scoring: &Scoring) -> bool {
    scoring.fits_i16_query(m)
}

/// The affine-gap (protein) counterpart of [`fits_i16`]: local scores are
/// bounded by `min(m, n) * max_matrix_score`, and the penalties must
/// satisfy `gap_open <= gap_extend < 0`.
pub fn fits_i16_affine(m: usize, n: usize, scoring: &MatrixScoring) -> bool {
    scoring.fits_i16(m, n)
}

/// [`fits_i16_affine`] for a query whose target length is not yet known —
/// the admission rule for packing a query into a [`PackedAffineProfile`].
/// Empty queries are admitted.
pub fn fits_i16_affine_query(m: usize, scoring: &MatrixScoring) -> bool {
    scoring.fits_i16_query(m)
}

/// A drop-in replacement for `sw_score_linear`: same inputs, same exact
/// outputs, possibly much faster.
pub trait ScoreKernel: Send + Sync {
    /// Stable kernel name for logs, benches, and CSV rows.
    fn name(&self) -> &'static str;

    /// Scores `s` (rows) against `t` (columns); exact per the scalar
    /// oracle's contract (best score, row-major-first end point, threshold
    /// hit count with `threshold > 0` gating).
    fn score(&self, s: &[u8], t: &[u8], scoring: &Scoring, threshold: i32) -> LinearSwResult;

    /// Affine-gap (Gotoh) scoring under a full substitution matrix — the
    /// protein path. Exact per `sw_score_profile`'s contract, with the
    /// same transparent scalar fallback outside the i16 envelope.
    fn score_affine(
        &self,
        s: &[u8],
        t: &[u8],
        scoring: &MatrixScoring,
        threshold: i32,
    ) -> LinearSwResult;
}

/// The plain two-row i32 recurrence (the oracle itself).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl ScoreKernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn score(&self, s: &[u8], t: &[u8], scoring: &Scoring, threshold: i32) -> LinearSwResult {
        scoring.oracle(s, t, threshold)
    }

    fn score_affine(
        &self,
        s: &[u8],
        t: &[u8],
        scoring: &MatrixScoring,
        threshold: i32,
    ) -> LinearSwResult {
        scoring.oracle(s, t, threshold)
    }
}

/// Farrar striped kernel on a fixed engine, with automatic scalar fallback
/// for problems outside the i16 envelope.
#[derive(Debug, Clone, Copy)]
pub struct StripedKernel {
    isa: Isa,
}

impl StripedKernel {
    /// A striped kernel on `isa`, or `None` if the CPU lacks it.
    pub fn new(isa: Isa) -> Option<Self> {
        isa.available().then_some(Self { isa })
    }

    /// The striped kernel on the widest engine this CPU supports.
    pub fn best() -> Self {
        Self {
            isa: Isa::best_available(),
        }
    }

    /// Engine this kernel dispatches to.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The one striped dispatcher behind both gap models.
    fn dispatch<S: Scheme>(
        &self,
        s: &[u8],
        t: &[u8],
        scheme: &S,
        threshold: i32,
    ) -> LinearSwResult {
        if !scheme.fits_i16(s.len(), t.len()) || !self.isa.available() {
            return scheme.oracle(s, t, threshold);
        }
        let mut prof = StripedProfile::new(s, scheme, self.isa.lanes());
        match self.isa {
            // SAFETY: the portable engine has no ISA requirement; the
            // profile above was built for its lane width.
            Isa::Portable => unsafe {
                engine::striped_score::<scalar::Portable, S>(&mut prof, t, threshold)
            },
            // SAFETY: self.isa.available() was checked above, so the
            // target_feature contract of the wrapper holds.
            #[cfg(target_arch = "x86_64")]
            Isa::Sse2 => unsafe { x86::striped_sse2(&mut prof, t, threshold) },
            // SAFETY: as above — available() verified AVX2 at runtime.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { x86::striped_avx2(&mut prof, t, threshold) },
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Sse2 | Isa::Avx2 => unreachable!("guarded by Isa::available"),
        }
    }
}

impl ScoreKernel for StripedKernel {
    fn name(&self) -> &'static str {
        self.isa.name()
    }

    fn score(&self, s: &[u8], t: &[u8], scoring: &Scoring, threshold: i32) -> LinearSwResult {
        self.dispatch(s, t, scoring, threshold)
    }

    fn score_affine(
        &self,
        s: &[u8],
        t: &[u8],
        scoring: &MatrixScoring,
        threshold: i32,
    ) -> LinearSwResult {
        self.dispatch(s, t, scoring, threshold)
    }
}

static SCALAR: ScalarKernel = ScalarKernel;
static PORTABLE: StripedKernel = StripedKernel { isa: Isa::Portable };
static SSE2: StripedKernel = StripedKernel { isa: Isa::Sse2 };
static AVX2: StripedKernel = StripedKernel { isa: Isa::Avx2 };

fn striped_static(isa: Isa) -> &'static StripedKernel {
    match isa {
        Isa::Portable => &PORTABLE,
        Isa::Sse2 => &SSE2,
        Isa::Avx2 => &AVX2,
    }
}

/// Resolves a [`KernelChoice`] to a concrete kernel for this host.
///
/// `auto` returns the plain scalar kernel when no real SIMD is available —
/// the portable striped engine exists for correctness coverage, not speed.
pub fn kernel_for(choice: KernelChoice) -> &'static dyn ScoreKernel {
    match choice.isa() {
        Some(isa) => striped_static(isa),
        None => &SCALAR,
    }
}

/// Every kernel runnable on this host (scalar first), for benches and the
/// CLI's kernel listing.
pub fn available_kernels() -> Vec<&'static dyn ScoreKernel> {
    let mut out: Vec<&'static dyn ScoreKernel> = vec![&SCALAR];
    for isa in Isa::ALL {
        if isa.available() {
            out.push(striped_static(isa));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::linear::sw_score_linear;
    use genomedsm_core::submat::SubstMatrix;
    use genomedsm_core::sw_score_profile;

    const SC: Scoring = Scoring::paper();

    fn oracle(s: &[u8], t: &[u8], thr: i32) -> LinearSwResult {
        sw_score_linear(s, t, &SC, thr)
    }

    #[test]
    fn choice_parsing_round_trips() {
        for c in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            assert_eq!(KernelChoice::parse(c.name()), Some(c));
        }
        assert_eq!(KernelChoice::parse("AUTO"), Some(KernelChoice::Auto));
        assert!(KernelChoice::parse("avx9000").is_none());
        assert_eq!(KernelChoice::default(), KernelChoice::Auto);
    }

    #[test]
    fn fits_i16_accepts_paper_scale_and_rejects_saturation() {
        assert!(fits_i16(10_000, 10_000, &SC));
        assert!(!fits_i16(40_000, 40_000, &SC));
        assert!(!fits_i16(0, 10, &SC));
        assert!(!fits_i16(10, 0, &SC));
        // 1000 * 40 > 32_000 even though each sequence is short.
        assert!(!fits_i16(1000, 1000, &Scoring::new(40, -1, -2)));
        assert!(fits_i16(100, 100, &Scoring::new(40, -1, -2)));
    }

    #[test]
    fn every_available_kernel_matches_the_oracle_on_a_fixed_pair() {
        let s = b"TCTCGACGGATTAGTATATATATAGGCATTCA";
        let t = b"ATATGATCGGAATAGCTCTTAGGCATTC";
        for thr in [0, 1, 3, i32::MAX] {
            let want = oracle(s, t, thr);
            for k in available_kernels() {
                assert_eq!(
                    k.score(s, t, &SC, thr),
                    want,
                    "kernel {} thr {thr}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn striped_kernels_fall_back_for_saturating_problems() {
        // With match = 2000, a 17-length identity run would hit 34_000 and
        // saturate i16; the guard must route to scalar and stay exact.
        let sc = Scoring::new(2000, -1000, -2000);
        let s = vec![b'A'; 17];
        let t = vec![b'A'; 17];
        let want = sw_score_linear(&s, &t, &sc, 1);
        assert_eq!(want.best_score, 34_000);
        for k in available_kernels() {
            assert_eq!(k.score(&s, &t, &sc, 1), want, "kernel {}", k.name());
        }
    }

    #[test]
    fn empty_inputs_yield_the_zero_result_on_all_kernels() {
        for k in available_kernels() {
            for (s, t) in [
                (&b""[..], &b"ACGT"[..]),
                (&b"ACGT"[..], &b""[..]),
                (&b""[..], &b""[..]),
            ] {
                let r = k.score(s, t, &SC, 1);
                assert_eq!(
                    (r.best_score, r.best_end, r.hits),
                    (0, (0, 0), 0),
                    "kernel {}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn auto_kernel_resolves_to_something_available() {
        let k = kernel_for(KernelChoice::Auto);
        let r = k.score(b"ACGTACGT", b"ACGTACGT", &SC, 1);
        assert_eq!(r.best_score, 8);
        assert_eq!(r.best_end, (8, 8));
    }

    #[test]
    fn band_scorer_reproduces_the_oracle_over_one_band() {
        // One band covering all of s, chunked t, zero top border: the
        // streamed hits and best must match a plain linear pass.
        let s = b"GACGGATTAGGTACCAGGAT";
        let t = b"GATCGGAATAGGGACCATTTACCA";
        let thr = 2;
        let want = oracle(s, t, thr);
        let mut scorer = BandScorer::new(KernelChoice::Simd, s, (s.len(), t.len()), &SC, thr, None)
            .expect("striped band scorer must build for simd choice");
        let mut bottom = Vec::new();
        let mut col_hits = Vec::new();
        let mut saved = Vec::new();
        let zeros = vec![0i32; t.len() + 1];
        let mut col = 1;
        for chunk in t.chunks(7) {
            scorer.advance(
                chunk,
                &zeros[..chunk.len() + 1],
                col,
                &mut bottom,
                &mut col_hits,
                &mut saved,
            );
            col += chunk.len();
        }
        assert_eq!(scorer.best_score(), want.best_score);
        assert_eq!(col_hits.iter().sum::<u64>(), want.hits);
        // Bottom row must equal the oracle's last DP row.
        let full = genomedsm_core::matrix::sw_matrix(s, t, &SC);
        for (j, &b) in bottom.iter().enumerate() {
            assert_eq!(b, full.get(s.len(), j + 1), "bottom col {}", j + 1);
        }
    }

    #[test]
    fn striped_affine_matches_oracle_every_engine() {
        let ms = MatrixScoring::blosum62();
        let s = b"MKVLAWQHKRWCEWLTNHGGAVDSTRQEFFPK";
        let t = b"GAVDSMKVLAWQHKRWTTTRQEFFPKAWQHK";
        assert!(fits_i16_affine(s.len(), t.len(), &ms));
        for thr in [0, 1, 5, i32::MAX] {
            let want = sw_score_profile(s, t, &ms, thr);
            for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
                let got = StripedKernel { isa }.score_affine(s, t, &ms, thr);
                assert_eq!(got, want, "isa {} thr {thr}", isa.name());
            }
        }
    }

    #[test]
    fn deep_gap_runs_cross_many_stripe_boundaries() {
        // A long query with the strong match material at the *end* forces
        // vertical gap chains to propagate across stripe boundaries, which
        // is exactly what the lazy loop must get right.
        let ms = MatrixScoring::new(SubstMatrix::blosum62(), -2, -1);
        let mut s = vec![b'G'; 90];
        let motif = b"WWWWHHHHWWWW";
        let at = s.len() - motif.len();
        s[at..].copy_from_slice(motif);
        let mut t = vec![b'A'; 8];
        t.extend_from_slice(motif);
        let want = sw_score_profile(&s, &t, &ms, 3);
        for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
            let got = StripedKernel { isa }.score_affine(&s, &t, &ms, 3);
            assert_eq!(got, want, "isa {}", isa.name());
        }
    }
}
