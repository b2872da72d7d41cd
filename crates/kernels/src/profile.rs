//! Query profiles: the per-target-symbol substitution rows both layouts
//! read, and the Farrar striped layout.
//!
//! The striped layout (Farrar 2007, see PAPERS.md: the SSW library and the
//! Knights Landing study both build on it) places query element `q` in
//! stripe `q % p`, lane `q / p`, where `p = ceil(m / LANES)` is the segment
//! length. A vector therefore holds `LANES` query positions that are `p`
//! apart, which makes the intra-column data dependency (the vertical gap
//! chain) span *vectors* instead of *lanes* and lets the whole substitution
//! add run unconditionally. The lane-packed layout ([`crate::PackedProfile`])
//! is plain row-major instead: slot `i * LANES + l` holds row `i` of query
//! `l`.
//!
//! Either way the profile precomputes, for each target symbol `c`, the
//! vector sequence `row[slot] = subst(query byte at slot, c)` so the inner
//! loop is a single saturating add per vector. [`SymbolRows`] builds those
//! rows lazily per observed symbol (DNA touches 4–5 of the 256 slots, the
//! protein alphabet at most 24 plus folded aliases).

use crate::scheme::Scheme;

/// Sentinel for padding slots and "no value" boundaries.
///
/// Chosen well above `i16::MIN` so that saturating arithmetic on top of it
/// cannot wrap, and low enough that `NEG_INF + max_profile_score` stays
/// far below zero for every scoring scheme the i16 admission checks
/// accept.
pub(crate) const NEG_INF: i16 = -30_000;

/// Lazily built profile rows for one laid-out query set.
pub(crate) struct SymbolRows<S> {
    scheme: S,
    /// Query byte held by every buffer slot, `None` for padding.
    slots: Box<[Option<u8>]>,
    rows: Vec<Option<Box<[i16]>>>,
}

impl<S: Scheme> SymbolRows<S> {
    pub fn new(scheme: &S, slots: Box<[Option<u8>]>) -> Self {
        Self {
            scheme: *scheme,
            slots,
            rows: vec![None; 256],
        }
    }

    /// The profile row for target symbol `c`, one value per slot
    /// ([`NEG_INF`] on padding).
    pub fn row(&mut self, c: u8) -> &[i16] {
        let (scheme, slots) = (&self.scheme, &self.slots);
        self.rows[usize::from(c)].get_or_insert_with(|| {
            slots
                .iter()
                .map(|q| q.map_or(NEG_INF, |q| scheme.subst_i16(q, c)))
                .collect()
        })
    }

    /// Per-vector live-lane masks for vectors of `lanes` slots (2 bits per
    /// live lane, the `movemask_epi8` convention of `Engine::gt_bytes`).
    pub fn live_masks(&self, lanes: usize) -> Vec<u64> {
        self.slots
            .chunks(lanes)
            .map(|v| {
                (0..lanes)
                    .filter(|&l| v[l].is_some())
                    .fold(0u64, |mask, l| mask | 0b11 << (2 * l))
            })
            .collect()
    }
}

/// Striped substitution profile for one query sequence at a fixed lane width.
pub(crate) struct StripedProfile<S> {
    /// Query length.
    pub m: usize,
    /// Segment length: number of stripes, `ceil(m / lanes)`.
    pub p: usize,
    /// Vector width in i16 lanes.
    pub lanes: usize,
    /// `(open, extend)` gap penalties as positive i16 values.
    pub gaps: (i16, i16),
    /// Per-stripe byte-granularity validity mask (2 bits per live lane),
    /// matching the `movemask_epi8` convention of `Engine::gt_bytes`.
    pub valid: Vec<u64>,
    sym: SymbolRows<S>,
}

impl<S: Scheme> StripedProfile<S> {
    /// Builds the profile skeleton; rows are filled on first use.
    ///
    /// Caller must have checked [`Scheme::fits_i16`] so every score and
    /// penalty is representable.
    pub fn new(s: &[u8], scheme: &S, lanes: usize) -> Self {
        debug_assert!(!s.is_empty());
        let m = s.len();
        let p = m.div_ceil(lanes);
        let mut slots = vec![None; p * lanes];
        for (q, &c) in s.iter().enumerate() {
            slots[(q % p) * lanes + q / p] = Some(c);
        }
        let sym = SymbolRows::new(scheme, slots.into_boxed_slice());
        Self {
            m,
            p,
            lanes,
            gaps: scheme.gap_penalties(),
            valid: sym.live_masks(lanes),
            sym,
        }
    }

    /// The striped profile row for database symbol `c` (`p * lanes` values).
    pub fn row(&mut self, c: u8) -> &[i16] {
        self.sym.row(c)
    }

    /// Striped buffer index of query element `q`.
    #[inline(always)]
    pub fn index_of(&self, q: usize) -> usize {
        (q % self.p) * self.lanes + q / self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::scoring::Scoring;
    use genomedsm_core::submat::MatrixScoring;

    #[test]
    fn layout_round_trips_every_query_position() {
        let s = b"ACGTACGTACG"; // 11 elements, lanes=4 -> p=3, one padding lane slot
        let prof = StripedProfile::new(s, &Scoring::paper(), 4);
        assert_eq!(prof.p, 3);
        let mut seen = vec![false; prof.p * prof.lanes];
        for q in 0..s.len() {
            let idx = prof.index_of(q);
            assert!(!seen[idx], "two query elements mapped to slot {idx}");
            seen[idx] = true;
        }
        assert_eq!(seen.iter().filter(|&&b| b).count(), s.len());
    }

    #[test]
    fn profile_row_scores_match_subst() {
        let s = b"ACGTT";
        let sc = Scoring::paper();
        let mut prof = StripedProfile::new(s, &sc, 4);
        let row: Vec<i16> = prof.row(b'T').to_vec();
        for (q, &ch) in s.iter().enumerate() {
            assert_eq!(
                i32::from(row[prof.index_of(q)]),
                sc.subst(ch, b'T'),
                "q={q}"
            );
        }
        // Padding slots carry the sentinel.
        let live: Vec<usize> = (0..s.len()).map(|q| prof.index_of(q)).collect();
        for (idx, &slot) in row.iter().enumerate() {
            if !live.contains(&idx) {
                assert_eq!(slot, NEG_INF);
            }
        }
    }

    #[test]
    fn striped_profile_rows_match_matrix() {
        let ms = MatrixScoring::blosum62();
        let s = b"MKVLAWQHKRW";
        let mut prof = StripedProfile::new(s, &ms, 4);
        for c in [b'W', b'A', b'X', b'*'] {
            let row: Vec<i16> = prof.row(c).to_vec();
            for (q, &sc) in s.iter().enumerate() {
                assert_eq!(row[prof.index_of(q)], ms.matrix.score(sc, c), "q={q} c={c}");
            }
        }
    }

    #[test]
    fn valid_masks_cover_exactly_the_live_lanes() {
        let prof = StripedProfile::new(b"ACGTA", &Scoring::paper(), 4); // p=2, q=0..5
                                                                        // stripe 0 holds q = 0,2,4 (lanes 0,1,2); stripe 1 holds q = 1,3 (lanes 0,1).
        assert_eq!(prof.valid[0], 0b00_11_11_11);
        assert_eq!(prof.valid[1], 0b00_00_11_11);
    }
}
