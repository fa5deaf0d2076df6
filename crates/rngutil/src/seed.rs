//! Seed derivation.
//!
//! A single master seed identifies a whole experiment; sub-seeds for each
//! graph instance, algorithm run and worker thread are derived with
//! SplitMix64 so that changing the number of repetitions or threads never
//! perturbs the random streams of unrelated components.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Weyl-sequence increment of the SplitMix64 generator (the golden
/// ratio in 0.64 fixed point).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: a high-quality 64-bit mix of `state`.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 generator as a full [`rand::RngCore`]: a counter
/// advanced by the golden-ratio constant `GOLDEN_GAMMA` per draw, output mixed by the
/// avalanche function above.
///
/// This is the cheap per-sample stream behind the batched pipelines:
/// where deriving a `StdRng` per sample pays the ChaCha key-expansion
/// on every derivation, [`SplitMix64::stream`] is two mixes to seed and
/// one mix per draw, and streams for distinct `(master, label)` pairs
/// are independent by the same argument as [`derive_seed`]. Statistical
/// quality is ample for sampling decisions (it is the generator
/// `SeedSequence` already trusts for seed derivation), but it is not a
/// cryptographic RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The per-sample stream for `(master, label)` — e.g. one stream
    /// per row of a batch, all derived from one per-iteration master.
    /// Equivalent to `SplitMix64::new(derive_seed(master, label))`.
    pub fn stream(master: u64, label: u64) -> Self {
        SplitMix64::new(derive_seed(master, label))
    }
}

impl rand::RngCore for SplitMix64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }

    fn fill_bytes(&mut self, dst: &mut [u8]) {
        for chunk in dst.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Derive an independent sub-seed from `master` and a stream `label`.
///
/// Distinct labels give statistically independent streams; the same
/// `(master, label)` pair always gives the same seed.
pub fn derive_seed(master: u64, label: u64) -> u64 {
    // Two rounds keep adjacent labels far apart in state space.
    splitmix64(splitmix64(master ^ 0xA076_1D64_78BD_642F).wrapping_add(splitmix64(label)))
}

/// Construct a seeded [`StdRng`] for `(master, label)`.
pub fn rng_from(master: u64, label: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, label))
}

/// [`derive_seed`] keyed by a string label: the label is folded to a
/// `u64` with FNV-1a, so every *named* component (a verification check,
/// a golden fixture, a corpus entry) gets a stable stream that survives
/// reordering, insertion, and deletion of its neighbours.
pub fn derive_seed_str(master: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    derive_seed(master, h)
}

/// A hierarchical seed sequence: each call to [`SeedSequence::next_seed`]
/// yields the next sub-seed; [`SeedSequence::child`] opens a nested,
/// independent sequence.
///
/// Typical use in the harness:
///
/// ```
/// use match_rngutil::SeedSequence;
///
/// let mut exp = SeedSequence::new(42);
/// let mut per_size = exp.child(10);       // everything for |V| = 10
/// let graph_seed = per_size.next_seed();  // instance generation
/// let run_seed = per_size.next_seed();    // first solver run
/// assert_ne!(graph_seed, run_seed);
/// ```
#[derive(Debug, Clone)]
pub struct SeedSequence {
    master: u64,
    counter: u64,
}

impl SeedSequence {
    /// Root sequence for a master seed.
    pub fn new(master: u64) -> Self {
        SeedSequence { master, counter: 0 }
    }

    /// The next sub-seed in this sequence.
    pub fn next_seed(&mut self) -> u64 {
        let s = derive_seed(self.master, self.counter);
        self.counter += 1;
        s
    }

    /// The next seeded RNG in this sequence.
    pub fn next_rng(&mut self) -> StdRng {
        StdRng::seed_from_u64(self.next_seed())
    }

    /// A nested sequence for stream `label`, independent of this
    /// sequence's own outputs and of children with other labels.
    pub fn child(&self, label: u64) -> SeedSequence {
        SeedSequence {
            master: derive_seed(self.master ^ 0x5851_F42D_4C95_7F2D, label),
            counter: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn derive_str_is_deterministic_and_label_sensitive() {
        assert_eq!(
            derive_seed_str(7, "golden/ce-n8"),
            derive_seed_str(7, "golden/ce-n8")
        );
        assert_ne!(
            derive_seed_str(7, "golden/ce-n8"),
            derive_seed_str(8, "golden/ce-n8")
        );
        assert_ne!(
            derive_seed_str(7, "golden/ce-n8"),
            derive_seed_str(7, "golden/ga-n8")
        );
        // The empty label is valid and distinct from short labels.
        assert_ne!(derive_seed_str(7, ""), derive_seed_str(7, "a"));
    }

    #[test]
    fn derive_is_deterministic() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_eq!(derive_seed(0, 0), derive_seed(0, 0));
    }

    #[test]
    fn distinct_labels_distinct_seeds() {
        let mut seen = HashSet::new();
        for label in 0..10_000u64 {
            assert!(seen.insert(derive_seed(123, label)), "collision at {label}");
        }
    }

    #[test]
    fn distinct_masters_distinct_seeds() {
        let mut seen = HashSet::new();
        for master in 0..10_000u64 {
            assert!(seen.insert(derive_seed(master, 7)), "collision at {master}");
        }
    }

    #[test]
    fn rng_from_reproducible() {
        let a: Vec<u64> = (0..8).map(|_| rng_from(9, 3).random()).collect();
        let b: Vec<u64> = (0..8).map(|_| rng_from(9, 3).random()).collect();
        assert_eq!(a, b);
        let c: u64 = rng_from(9, 4).random();
        assert_ne!(a[0], c);
    }

    #[test]
    fn sequence_yields_distinct_seeds() {
        let mut s = SeedSequence::new(5);
        let xs: Vec<u64> = (0..100).map(|_| s.next_seed()).collect();
        let set: HashSet<_> = xs.iter().collect();
        assert_eq!(set.len(), xs.len());
    }

    #[test]
    fn children_independent_of_parent_and_siblings() {
        let root = SeedSequence::new(77);
        let mut a = root.child(0);
        let mut b = root.child(1);
        let mut parent = root.clone();
        let pa = parent.next_seed();
        assert_ne!(a.next_seed(), b.next_seed());
        // Child streams don't collide with the parent stream.
        let mut a2 = root.child(0);
        assert_ne!(a2.next_seed(), pa);
    }

    #[test]
    fn child_is_deterministic() {
        let root = SeedSequence::new(3);
        let x = root.child(9).next_seed();
        let y = root.child(9).next_seed();
        assert_eq!(x, y);
    }

    #[test]
    fn splitmix_stream_reproducible() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::stream(9, 3);
            (0..16).map(|_| r.random()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::stream(9, 3);
            (0..16).map(|_| r.random()).collect()
        };
        assert_eq!(a, b);
        let mut other = SplitMix64::stream(9, 4);
        assert_ne!(a[0], other.random::<u64>());
    }

    #[test]
    fn splitmix_stream_seeds_match_derive_seed() {
        assert_eq!(
            SplitMix64::stream(42, 7),
            SplitMix64::new(derive_seed(42, 7))
        );
    }

    #[test]
    fn splitmix_streams_do_not_collide() {
        // 100 streams × 100 draws: no duplicated outputs across streams.
        let mut seen = HashSet::new();
        for label in 0..100u64 {
            let mut r = SplitMix64::stream(5, label);
            for _ in 0..100 {
                assert!(
                    seen.insert(r.random::<u64>()),
                    "collision in stream {label}"
                );
            }
        }
    }

    #[test]
    fn splitmix_uniformity_smoke() {
        // random::<f64>() through the RngCore impl should be ~U[0,1).
        let mut r = SplitMix64::new(0xC0FF_EE00);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.random::<f64>()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        // And random_range respects its bounds.
        for _ in 0..1_000 {
            let x = r.random_range(0..17usize);
            assert!(x < 17);
        }
    }

    #[test]
    fn splitmix_fill_bytes_matches_next_u64() {
        use rand::RngCore;
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        let mut buf = [0u8; 12];
        a.fill_bytes(&mut buf);
        let w0 = b.next_u64().to_le_bytes();
        let w1 = b.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &w0[..]);
        assert_eq!(&buf[8..], &w1[..4]);
    }

    #[test]
    fn splitmix_avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = derive_seed(0xDEAD_BEEF, 0);
        let flipped = derive_seed(0xDEAD_BEEF ^ 1, 0);
        let differing = (base ^ flipped).count_ones();
        assert!(
            (16..=48).contains(&differing),
            "weak avalanche: {differing} bits"
        );
    }
}
