//! The scoring schemes the kernels are generic over.
//!
//! Both gap models share every kernel in this crate; [`Scheme`] is the
//! compile-time switch between them. `Scoring` is the paper's linear-gap
//! match/mismatch/space scheme, `MatrixScoring` the affine-gap (Gotoh)
//! protein scheme over a substitution matrix. Kernels branch on
//! [`Scheme::AFFINE`], a constant, so each instantiation compiles to its
//! own instruction sequence: the linear one never allocates or touches an
//! `E` buffer.

use genomedsm_core::linear::{sw_score_linear, LinearSwResult};
use genomedsm_core::scoring::Scoring;
use genomedsm_core::submat::MatrixScoring;
use genomedsm_core::sw_score_profile;

/// Highest cell value the kernels accept, with margin below `i16::MAX` so
/// transient sums cannot saturate.
const I16_SCORE_CEILING: i64 = 32_000;
/// Largest magnitude accepted for any scoring parameter, with margin above
/// the profile's padding sentinel.
const I16_PARAM_CEILING: i32 = 28_000;

mod sealed {
    pub trait Sealed {}
    impl Sealed for genomedsm_core::scoring::Scoring {}
    impl Sealed for genomedsm_core::submat::MatrixScoring {}
}

/// A scoring scheme the striped and lane-packed kernels can run.
///
/// Sealed: implemented for `Scoring` (linear gaps) and `MatrixScoring`
/// (affine gaps) only.
pub trait Scheme: sealed::Sealed + Copy + Send + Sync {
    /// Whether gaps are affine (`open != extend` in general). Linear
    /// instantiations carry no `E` state at all.
    const AFFINE: bool;

    /// Substitution score of query byte `q` against target byte `t`, as
    /// stored in the kernels' profile rows.
    fn subst_i16(&self, q: u8, t: u8) -> i16;

    /// `(open, extend)` gap penalties as positive i16 values; equal for
    /// linear gaps.
    fn gap_penalties(&self) -> (i16, i16);

    /// Whether a query of length `m` is exactly representable in i16 lanes
    /// against a target of any length. Empty queries are admitted (their
    /// lane is fully masked and yields the zero result).
    fn fits_i16_query(&self, m: usize) -> bool;

    /// Whether an `m × n` problem is exactly representable in i16 lanes.
    /// Empty problems are refused: the scalar oracle's zero result is free.
    fn fits_i16(&self, m: usize, n: usize) -> bool {
        m != 0 && n != 0 && self.fits_i16_query(m.min(n))
    }

    /// The scalar oracle every kernel is bit-exact against, and the spill
    /// path for problems outside the i16 envelope.
    fn oracle(&self, s: &[u8], t: &[u8], threshold: i32) -> LinearSwResult;
}

/// Local scores are bounded by `min(m, n) * best_cell` (each aligned
/// column contributes at most the best substitution score; gaps only
/// subtract), so this product under the ceiling rules out saturation of
/// every `H`.
fn under_ceiling(m: usize, best_cell: i32) -> bool {
    (m as i64).saturating_mul(i64::from(best_cell)) <= I16_SCORE_CEILING
}

impl Scheme for Scoring {
    const AFFINE: bool = false;

    #[inline(always)]
    fn subst_i16(&self, q: u8, t: u8) -> i16 {
        if q == t {
            self.matches as i16
        } else {
            self.mismatch as i16
        }
    }

    fn gap_penalties(&self) -> (i16, i16) {
        let g = (-self.gap) as i16;
        (g, g)
    }

    /// Degenerate schemes (non-negative gap, huge magnitudes, mismatch
    /// above match) are routed to scalar rather than reasoned about.
    fn fits_i16_query(&self, m: usize) -> bool {
        (-I16_PARAM_CEILING..0).contains(&self.gap)
            && self.matches > 0
            && (-I16_PARAM_CEILING..=self.matches).contains(&self.mismatch)
            && under_ceiling(m, self.matches)
    }

    fn oracle(&self, s: &[u8], t: &[u8], threshold: i32) -> LinearSwResult {
        sw_score_linear(s, t, self, threshold)
    }
}

impl Scheme for MatrixScoring {
    const AFFINE: bool = true;

    #[inline(always)]
    fn subst_i16(&self, q: u8, t: u8) -> i16 {
        self.matrix.score(q, t)
    }

    fn gap_penalties(&self) -> (i16, i16) {
        ((-self.gap_open) as i16, (-self.gap_extend) as i16)
    }

    /// Both penalties must be negative and bounded with open at least as
    /// costly as extend (signed `gap_open <= gap_extend`): the lazy-F
    /// loop's "extension dominates re-opening" argument requires it, and
    /// every standard protein scheme satisfies it. Matrix entries must
    /// stay clear of the padding sentinel and offer a positive score
    /// somewhere (otherwise every result is the zero result and the scalar
    /// oracle is free anyway). `E`/`F` values that saturate low are
    /// dominated by the `H + gap_open` re-open branch everywhere they are
    /// consumed, so they cannot corrupt an admitted result.
    fn fits_i16_query(&self, m: usize) -> bool {
        let maxs = i32::from(self.matrix.max_score());
        let mins = i32::from(self.matrix.min_score());
        self.gap_extend < 0
            && (-I16_PARAM_CEILING..=self.gap_extend).contains(&self.gap_open)
            && (1..=I16_PARAM_CEILING).contains(&maxs)
            && mins >= -I16_PARAM_CEILING
            && under_ceiling(m, maxs)
    }

    fn oracle(&self, s: &[u8], t: &[u8], threshold: i32) -> LinearSwResult {
        sw_score_profile(s, t, self, threshold)
    }
}
