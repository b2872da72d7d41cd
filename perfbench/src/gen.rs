//! Seeded input generation for the four workloads.
//!
//! Every input is a pure function of the `--seed` argument: the same seed
//! yields byte-identical FASTA files and query lists on every host, and a
//! different seed yields different ones. Sizes (record counts, length
//! distributions, batch shapes) do not depend on the seed — only sequence
//! content and ordering do — so runs with different seeds measure the
//! same amount of work and their figures can be compared.

use genomedsm_seq::fasta::{write_fasta, write_protein_fasta};
use genomedsm_seq::{DnaSeq, FastaRecord, ProteinRecord, ProteinSeq};

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// inputs regardless of how the workspace's own RNG shim evolves.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// An independent stream derived from this seed and a stream label.
    fn stream(seed: u64, label: u64) -> Self {
        let mut r = Self(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by 128-bit multiply-shift.
    fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

const DNA: &[u8] = b"ACGT";
const AMINO: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";

fn random_seq(rng: &mut Rng, alphabet: &[u8], len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| alphabet[rng.below(alphabet.len())])
        .collect()
}

/// Substitutes each position with probability `pct`/100.
fn mutate(rng: &mut Rng, alphabet: &[u8], seq: &[u8], pct: usize) -> Vec<u8> {
    seq.iter()
        .map(|&b| {
            if rng.below(100) < pct {
                alphabet[rng.below(alphabet.len())]
            } else {
                b
            }
        })
        .collect()
}

/// `count` lengths spread evenly over `lo..=hi`.
fn spread(count: usize, lo: usize, hi: usize) -> Vec<usize> {
    let span = hi - lo + 1;
    (0..count).map(|i| lo + (i * span) / count).collect()
}

/// [`spread`] in seeded order: the multiset (and so the total work) is the
/// same for every seed.
fn ragged_lengths(rng: &mut Rng, count: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut lens = spread(count, lo, hi);
    rng.shuffle(&mut lens);
    lens
}

/// Query lengths for `batches` batches that each hold the same ragged
/// lengths in the same order, so every batch (and so every operation)
/// does the same work and holds its planted queries at the same lengths.
fn batch_lengths(batches: usize, per_batch: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
    (0..batches)
        .flat_map(|_| spread(per_batch, lo, hi))
        .collect()
}

fn dna_fasta(prefix: &str, seqs: &[Vec<u8>]) -> Vec<u8> {
    let records: Vec<FastaRecord> = seqs
        .iter()
        .enumerate()
        .map(|(i, s)| FastaRecord {
            id: format!("{prefix}{i}"),
            seq: DnaSeq::from_bases(s.clone()),
        })
        .collect();
    let mut out = Vec::new();
    write_fasta(&mut out, &records, 70).expect("writing to a Vec cannot fail");
    out
}

fn protein_fasta(prefix: &str, seqs: &[Vec<u8>]) -> Vec<u8> {
    let records: Vec<ProteinRecord> = seqs
        .iter()
        .enumerate()
        .map(|(i, s)| ProteinRecord {
            id: format!("{prefix}{i}"),
            seq: ProteinSeq::from_residues(s.clone()),
        })
        .collect();
    let mut out = Vec::new();
    write_protein_fasta(&mut out, &records, 70).expect("writing to a Vec cannot fail");
    out
}

/// A database as FASTA text plus the query batches run against it (one
/// batch per operation, cycled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchInputs {
    pub db_fasta: Vec<u8>,
    pub batches: Vec<Vec<Vec<u8>>>,
}

/// `dna_batch`: 4000 records of 400–1100 bp (a ~3 MB arena, above a
/// typical 1–2 MiB per-core L2) and 4 batches of 24 ragged 16–40 bp
/// queries. Half the queries are mutated substrings of a record, so every
/// top-k holds real homology as well as background.
pub mod dna_batch {
    pub const RECORDS: usize = 4000;
    pub const RECORD_LEN: (usize, usize) = (400, 1100);
    pub const BATCHES: usize = 4;
    pub const QUERIES_PER_BATCH: usize = 24;
    pub const QUERY_LEN: (usize, usize) = (16, 40);
}

pub fn dna_batch(seed: u64) -> BatchInputs {
    use dna_batch::*;
    let mut rng = Rng::stream(seed, 1);
    let lens = ragged_lengths(&mut rng, RECORDS, RECORD_LEN.0, RECORD_LEN.1);
    let records: Vec<Vec<u8>> = lens.iter().map(|&l| random_seq(&mut rng, DNA, l)).collect();
    let qlens = batch_lengths(BATCHES, QUERIES_PER_BATCH, QUERY_LEN);
    let queries: Vec<Vec<u8>> = qlens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            if i % 2 == 0 {
                let src = &records[rng.below(records.len())];
                let at = rng.below(src.len() - len + 1);
                mutate(&mut rng, DNA, &src[at..at + len], 5)
            } else {
                random_seq(&mut rng, DNA, len)
            }
        })
        .collect();
    BatchInputs {
        db_fasta: dna_fasta("rec", &records),
        batches: queries
            .chunks(QUERIES_PER_BATCH)
            .map(<[Vec<u8>]>::to_vec)
            .collect(),
    }
}

/// `protein_prefilter`: 1500 records of 60–440 residues and 4 batches of 4
/// queries of 200–275 residues. Half the queries belong to a planted
/// family — 12 records each embed a 25 %-substituted copy of the family
/// root and the query is another copy — so their top-10 fills with high scores and
/// the composition bound can prune short records. The other half are
/// random: their 10th-best score stays low and nearly nothing is pruned.
pub mod protein {
    pub const RECORDS: usize = 1500;
    pub const RECORD_LEN: (usize, usize) = (60, 440);
    pub const BATCHES: usize = 4;
    pub const QUERIES_PER_BATCH: usize = 4;
    pub const QUERY_LEN: (usize, usize) = (200, 300);
    pub const FAMILY_SIZE: usize = 12;
    pub const SUBSTITUTION_PCT: usize = 25;
}

pub fn protein(seed: u64) -> BatchInputs {
    use protein::*;
    let mut rng = Rng::stream(seed, 2);
    let lens = ragged_lengths(&mut rng, RECORDS, RECORD_LEN.0, RECORD_LEN.1);
    let mut records: Vec<Vec<u8>> = lens
        .iter()
        .map(|&l| random_seq(&mut rng, AMINO, l))
        .collect();
    let qlens = batch_lengths(BATCHES, QUERIES_PER_BATCH, QUERY_LEN);
    // Family members are embedded, at a seeded offset, in distinct records
    // long enough to hold them, so record lengths stay as drawn.
    let mut slots: Vec<usize> = (0..RECORDS).filter(|&i| lens[i] >= QUERY_LEN.1).collect();
    rng.shuffle(&mut slots);
    let mut slots = slots.into_iter();
    let queries: Vec<Vec<u8>> = qlens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            if i % 2 == 1 {
                return random_seq(&mut rng, AMINO, len);
            }
            let root = random_seq(&mut rng, AMINO, len);
            for _ in 0..FAMILY_SIZE {
                let slot = slots.next().expect("more family members than long records");
                let member = mutate(&mut rng, AMINO, &root, SUBSTITUTION_PCT);
                let at = rng.below(records[slot].len() - len + 1);
                records[slot][at..at + len].copy_from_slice(&member);
            }
            mutate(&mut rng, AMINO, &root, SUBSTITUTION_PCT)
        })
        .collect();
    BatchInputs {
        db_fasta: protein_fasta("prot", &records),
        batches: queries
            .chunks(QUERIES_PER_BATCH)
            .map(<[Vec<u8>]>::to_vec)
            .collect(),
    }
}

/// `serve_mixed`: two databases of 400 records of 100–300 bp (the server
/// reloads between them), 16 hot requests, and a seeded stream of fresh
/// requests; every request carries 4 queries of 16–48 bp.
pub mod serve {
    pub const RECORDS: usize = 400;
    pub const RECORD_LEN: (usize, usize) = (100, 300);
    pub const HOT_REQUESTS: usize = 16;
    pub const QUERIES_PER_REQUEST: usize = 4;
    pub const QUERY_LEN: (usize, usize) = (16, 48);
    /// Share of requests drawn from the hot set, in percent: well above
    /// half, so the median request is a cache hit and the tail a miss.
    pub const HOT_PCT: usize = 80;
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeInputs {
    pub db_a: Vec<u8>,
    pub db_b: Vec<u8>,
    pub hot: Vec<Vec<Vec<u8>>>,
    seed: u64,
}

fn serve_db(seed: u64, label: u64) -> Vec<u8> {
    use serve::*;
    let mut rng = Rng::stream(seed, label);
    let lens = ragged_lengths(&mut rng, RECORDS, RECORD_LEN.0, RECORD_LEN.1);
    let seqs: Vec<Vec<u8>> = lens.iter().map(|&l| random_seq(&mut rng, DNA, l)).collect();
    dna_fasta("srv", &seqs)
}

fn serve_request(rng: &mut Rng) -> Vec<Vec<u8>> {
    use serve::*;
    (0..QUERIES_PER_REQUEST)
        .map(|_| {
            let len = rng.range(QUERY_LEN.0, QUERY_LEN.1);
            random_seq(rng, DNA, len)
        })
        .collect()
}

pub fn serve(seed: u64) -> ServeInputs {
    let mut rng = Rng::stream(seed, 5);
    ServeInputs {
        db_a: serve_db(seed, 3),
        db_b: serve_db(seed, 4),
        hot: (0..serve::HOT_REQUESTS)
            .map(|_| serve_request(&mut rng))
            .collect(),
        seed,
    }
}

impl ServeInputs {
    /// The queries of the `i`-th request of client `client`: a hot request
    /// or fresh queries. A pure function of (seed, client, i), so the
    /// request stream is reproducible however the two clients interleave.
    pub fn request(&self, client: usize, i: usize) -> Vec<Vec<u8>> {
        let mut rng = Rng::stream(self.seed, 1000 + ((client as u64) << 32) + i as u64);
        if rng.below(100) < serve::HOT_PCT {
            self.hot[rng.below(self.hot.len())].clone()
        } else {
            serve_request(&mut rng)
        }
    }
}

/// `dsm_pipeline`: one planted-homology pair of 3000 bp at the `paper`
/// harness density, as a two-record FASTA file.
pub mod dsm {
    pub const LEN: usize = 3000;
}

pub fn dsm_pair(seed: u64) -> Vec<u8> {
    let (s, t, _) = genomedsm_bench::workloads::pair(dsm::LEN, seed);
    dna_fasta("pair", &[s, t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(dna_batch(7), dna_batch(7));
        assert_eq!(protein(7), protein(7));
        assert_eq!(serve(7), serve(7));
        assert_eq!(serve(7).request(1, 33), serve(7).request(1, 33));
        assert_eq!(dsm_pair(7), dsm_pair(7));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (dna_batch(7), dna_batch(8));
        assert_ne!(a.db_fasta, b.db_fasta);
        assert_ne!(a.batches, b.batches);
        let (a, b) = (protein(7), protein(8));
        assert_ne!(a.db_fasta, b.db_fasta);
        assert_ne!(a.batches, b.batches);
        let (a, b) = (serve(7), serve(8));
        assert_ne!(a.db_a, b.db_a);
        assert_ne!(a.hot, b.hot);
        assert_ne!(a.request(0, 5), b.request(0, 5));
        assert_ne!(dsm_pair(7), dsm_pair(8));
    }

    #[test]
    fn sizes_do_not_depend_on_the_seed() {
        let total = |b: &BatchInputs| -> (usize, Vec<usize>) {
            let q: Vec<usize> = b.batches.iter().flatten().map(Vec::len).collect();
            (b.db_fasta.len(), q)
        };
        let (a, b) = (total(&dna_batch(1)), total(&dna_batch(2)));
        assert_eq!(a.0, b.0, "same arena size and line layout");
        let (mut qa, mut qb) = (a.1, b.1);
        qa.sort_unstable();
        qb.sort_unstable();
        assert_eq!(qa, qb, "same query length multiset");
        let (a, b) = (total(&protein(1)), total(&protein(2)));
        assert_eq!(a.0, b.0, "same protein arena size");
        assert_eq!(serve(1).db_a.len(), serve(2).db_b.len());
    }

    #[test]
    fn hot_share_is_close_to_its_target() {
        let inputs = serve(3);
        let hot = (0..2000)
            .filter(|&i| inputs.hot.contains(&inputs.request(i % 2, i)))
            .count();
        assert!((1500..1700).contains(&hot), "{hot} of 2000 hot");
    }
}
