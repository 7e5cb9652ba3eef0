//! Order-preserving packed frontier keys.
//!
//! For one fixed computation a frontier entry for process `p` only
//! ranges over `0..=events_on(p)`, so the whole frontier packs into a few
//! `u64` words at a uniform bit width (the same word-packing trick as
//! `gpd_order::BitSet`, generalized from 1 bit to ⌈log₂(mₚ+1)⌉ bits per
//! entry). A [`FrontierPacker`] is built once per computation and lays
//! the entries out **most significant first**: process 0 occupies the top
//! field of word 0, and no field straddles a word boundary. Two
//! consequences carry the lattice sweeps:
//!
//! * **Key order is [`Cut`] order.** Comparing two keys word by word, and
//!   each word as an integer, compares the frontiers entry by entry from
//!   process 0 on — exactly `Cut`'s derived lexicographic order. Sorting
//!   keys sorts cuts, with no unpacking and no pointer chasing.
//! * **Successors are one add.** Executing the next event of `p` adds one
//!   to `p`'s field: `key + unit[p]`, a single in-word add that can never
//!   carry out of the field (entries stay `≤ events_on(p)`, which fits).
//!
//! Keys are plain values implementing [`FrontierKey`]: `[u64; W]` for
//! the common narrow frontiers and `Box<[u64]>` past them.
//! [`with_frontier_key!`](crate::with_frontier_key) picks the type once
//! per call from [`FrontierPacker::words`].

use std::hash::{BuildHasherDefault, Hasher};

use crate::computation::Computation;
use crate::cut::Cut;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a stream of `u64` words — the one stable frontier hash
/// shared by [`Cut::fnv_hash`], checkpoint digests and the bench report.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A packed frontier: a fixed-capacity run of `u64` words compared
/// lexicographically (word 0 most significant). Words past
/// [`FrontierPacker::words`] stay zero, so one key type serves every
/// packing that fits it.
pub trait FrontierKey: Clone + Ord + std::hash::Hash + Send + Sync + std::fmt::Debug {
    /// An all-zero key with room for `words` words.
    fn zeroed(words: usize) -> Self;
    /// The key's words, most significant first.
    fn words(&self) -> &[u64];
    /// Mutable access to the key's words.
    fn words_mut(&mut self) -> &mut [u64];
}

impl<const W: usize> FrontierKey for [u64; W] {
    fn zeroed(words: usize) -> Self {
        debug_assert!(words <= W, "{words} words do not fit a {W}-word key");
        [0; W]
    }

    #[inline]
    fn words(&self) -> &[u64] {
        self
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

impl FrontierKey for Box<[u64]> {
    fn zeroed(words: usize) -> Self {
        vec![0; words].into_boxed_slice()
    }

    #[inline]
    fn words(&self) -> &[u64] {
        self
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

/// Runs `$body` with the type alias `$K` bound to the [`FrontierKey`]
/// that fits `$words` packed words: an inline `[u64; 1]`, `[u64; 2]` or
/// `[u64; 4]`, else a boxed slice. Callers dispatch once per call and
/// run one generic sweep over whichever key results.
///
/// ```
/// use gpd_computation::{with_frontier_key, FrontierKey};
///
/// fn capacity<K: FrontierKey>(words: usize) -> usize {
///     K::zeroed(words).words().len()
/// }
/// assert_eq!(with_frontier_key!(3, K => capacity::<K>(3)), 4);
/// assert_eq!(with_frontier_key!(9, K => capacity::<K>(9)), 9);
/// ```
#[macro_export]
macro_rules! with_frontier_key {
    ($words:expr, $K:ident => $body:expr) => {
        match $words {
            0 | 1 => {
                type $K = [u64; 1];
                $body
            }
            2 => {
                type $K = [u64; 2];
                $body
            }
            3 | 4 => {
                type $K = [u64; 4];
                $body
            }
            _ => {
                type $K = ::std::boxed::Box<[u64]>;
                $body
            }
        }
    };
}

/// Packs the frontier vectors of one computation into order-preserving
/// [`FrontierKey`]s (see the module docs for the layout).
///
/// The packing is injective over that computation's valid frontiers, so
/// key equality is frontier equality and key order is `Cut` order.
///
/// # Example
///
/// ```
/// use gpd_computation::{ComputationBuilder, Cut, FrontierPacker};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let packer = FrontierPacker::new(&comp);
/// let a: [u64; 1] = packer.pack(&[2, 1]);
/// assert_eq!(a, packer.pack::<[u64; 1]>(&[2, 1]));
/// assert!(packer.pack::<[u64; 1]>(&[1, 1]) < a);
/// // A successor is one add on the packed key.
/// assert_eq!(packer.successor(&packer.pack::<[u64; 1]>(&[2, 0]), 1), a);
/// assert_eq!(packer.unpack(&a), Cut::from_frontier(vec![2, 1]));
/// ```
#[derive(Debug, Clone)]
pub struct FrontierPacker {
    /// Bits per frontier entry (enough for the largest `events_on`).
    bits: u32,
    /// Frontier length (process count).
    len: usize,
    /// Packed words per frontier.
    words: usize,
    /// `(word, shift)` of each process's field.
    fields: Vec<(usize, u32)>,
}

impl FrontierPacker {
    /// Sizes the packing for `comp`'s frontiers.
    pub fn new(comp: &Computation) -> Self {
        let max = (0..comp.process_count())
            .map(|p| comp.events_on(p) as u32)
            .max()
            .unwrap_or(0);
        // Even all-zero frontiers take one bit per entry, keeping the
        // packing injective by construction rather than by accident.
        let bits = (32 - max.leading_zeros()).max(1);
        let per_word = (64 / bits) as usize;
        let len = comp.process_count();
        let fields = (0..len)
            .map(|p| (p / per_word, 64 - bits * (p % per_word + 1) as u32))
            .collect();
        FrontierPacker {
            bits,
            len,
            words: len.div_ceil(per_word),
            fields,
        }
    }

    /// Packed words per frontier: the width [`with_frontier_key!`]
    /// dispatches on.
    ///
    /// [`with_frontier_key!`]: crate::with_frontier_key
    pub fn words(&self) -> usize {
        self.words
    }

    /// Packs a frontier vector.
    ///
    /// # Panics
    ///
    /// Panics if the frontier's length differs from the packer's, or if
    /// an entry exceeds the packer's bit width. The width check is a hard
    /// assert (not debug-only): a truncated entry would collide with a
    /// different frontier, silently corrupting any visited set keyed on
    /// the packing.
    pub fn pack<K: FrontierKey>(&self, frontier: &[u32]) -> K {
        assert_eq!(frontier.len(), self.len, "frontier shape mismatch");
        let mut key = K::zeroed(self.words);
        let words = key.words_mut();
        for (&f, &(w, shift)) in frontier.iter().zip(&self.fields) {
            assert!(
                u64::from(f) < 1u64 << self.bits,
                "frontier entry {f} exceeds {} bits",
                self.bits
            );
            words[w] |= u64::from(f) << shift;
        }
        key
    }

    /// Packs a [`Cut`]'s frontier.
    pub fn pack_cut<K: FrontierKey>(&self, cut: &Cut) -> K {
        self.pack(cut.frontier())
    }

    /// The key of the cut one event of process `p` beyond `key`:
    /// `key + unit[p]`, with no unpacking.
    #[inline]
    pub fn successor<K: FrontierKey>(&self, key: &K, p: usize) -> K {
        let (w, shift) = self.fields[p];
        let mut next = key.clone();
        let word = &mut next.words_mut()[w];
        debug_assert!(
            (*word >> shift) & self.mask() < self.mask(),
            "entry of p{p} would overflow its {}-bit field",
            self.bits
        );
        *word += 1 << shift;
        next
    }

    /// Refills `cut` in place with the frontier `key` encodes (no
    /// allocation once `cut` has the packer's shape).
    pub fn unpack_into<K: FrontierKey>(&self, key: &K, cut: &mut Cut) {
        let words = key.words();
        let mask = self.mask();
        let frontier = cut.frontier_mut();
        frontier.clear();
        frontier.extend(
            self.fields
                .iter()
                .map(|&(w, shift)| ((words[w] >> shift) & mask) as u32),
        );
    }

    /// The cut `key` encodes.
    pub fn unpack<K: FrontierKey>(&self, key: &K) -> Cut {
        let mut cut = Cut::from_frontier(Vec::with_capacity(self.len));
        self.unpack_into(key, &mut cut);
        cut
    }

    #[inline]
    fn mask(&self) -> u64 {
        u64::MAX >> (64 - self.bits)
    }
}

/// A hasher for [`FrontierKey`] words: FNV-style word mixing with a
/// SplitMix64 finalizer, so keys whose low bits are all padding still
/// spread over the table. Much cheaper than SipHash for the enumerators'
/// once-per-edge probes.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    #[inline]
    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `BuildHasher` for hash sets keyed on [`FrontierKey`]s.
pub(crate) type BuildKeyHasher = BuildHasherDefault<KeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ComputationBuilder;
    use std::collections::HashSet;

    fn comp_with(lens: &[usize]) -> Computation {
        let mut b = ComputationBuilder::new(lens.len());
        for (p, &len) in lens.iter().enumerate() {
            for _ in 0..len {
                b.append(p);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn packing_is_injective_over_all_frontiers() {
        // 3 processes with different event counts, bits sized by the max.
        let comp = comp_with(&[2, 5, 1]);
        let packer = FrontierPacker::new(&comp);
        let mut seen = HashSet::new();
        for a in 0..=2u32 {
            for b in 0..=5u32 {
                for c in 0..=1u32 {
                    assert!(
                        seen.insert(packer.pack::<[u64; 1]>(&[a, b, c])),
                        "collision at {a},{b},{c}"
                    );
                }
            }
        }
        assert_eq!(seen.len(), 3 * 6 * 2);
    }

    #[test]
    fn entries_straddling_word_boundaries_round_trip_distinctly() {
        // 23 processes × 7 events → 3 bits/entry, 21 entries per word:
        // the frontier spills into a second word.
        let comp = comp_with(&[7; 23]);
        let packer = FrontierPacker::new(&comp);
        assert_eq!(packer.words(), 2);
        let mut frontiers: Vec<Vec<u32>> = vec![vec![0; 23], vec![7; 23]];
        for i in 0..23 {
            let mut f = vec![0u32; 23];
            f[i] = 5;
            frontiers.push(f);
        }
        let packed: HashSet<[u64; 2]> = frontiers.iter().map(|f| packer.pack(f)).collect();
        assert_eq!(packed.len(), frontiers.len());
        for f in &frontiers {
            let key: [u64; 2] = packer.pack(f);
            assert_eq!(packer.unpack(&key).frontier(), &f[..]);
        }
    }

    #[test]
    fn zero_process_computation_packs_the_empty_frontier() {
        let comp = comp_with(&[]);
        let packer = FrontierPacker::new(&comp);
        let key: [u64; 1] = packer.pack(&[]);
        assert_eq!(key, packer.pack::<[u64; 1]>(&[]));
        assert!(packer.unpack(&key).frontier().is_empty());
    }

    #[test]
    fn cut_fnv_hash_matches_manual_fnv() {
        let cut = Cut::from_frontier(vec![3, 0, 7]);
        assert_eq!(cut.fnv_hash(), fnv1a([3u64, 0, 7]));
    }

    #[test]
    fn all_zero_event_processes_pack_injectively() {
        // Every process has zero events: only the all-zero frontier is
        // valid, bits = 1 by construction, and the packing still works.
        let comp = comp_with(&[0, 0, 0]);
        let packer = FrontierPacker::new(&comp);
        assert_eq!(
            packer.pack::<[u64; 1]>(&[0, 0, 0]),
            packer.pack::<[u64; 1]>(&[0, 0, 0])
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_entry_panics_instead_of_colliding() {
        // events_on = 1 everywhere → 1 bit per entry; entry 2 would
        // truncate to 0 and collide with a distinct frontier. The packer
        // must refuse it even in release builds.
        let comp = comp_with(&[1, 1]);
        FrontierPacker::new(&comp).pack::<[u64; 1]>(&[2, 0]);
    }

    #[test]
    fn equal_frontiers_share_hash_and_differ_otherwise() {
        use std::hash::BuildHasher;
        let comp = comp_with(&[4, 4]);
        let packer = FrontierPacker::new(&comp);
        let a: [u64; 1] = packer.pack(&[1, 2]);
        let b: [u64; 1] = packer.pack(&[1, 2]);
        let c: [u64; 1] = packer.pack(&[2, 1]);
        assert_eq!(a, b);
        let hasher = BuildKeyHasher::default();
        assert_eq!(hasher.hash_one(a), hasher.hash_one(b));
        assert_ne!(a, c);
        assert_ne!(hasher.hash_one(a), hasher.hash_one(c));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};

        /// A frontier valid for `lens` (each entry in `0..=events_on(p)`).
        fn random_frontier<R: Rng>(rng: &mut R, lens: &[usize]) -> Vec<u32> {
            lens.iter().map(|&m| rng.gen_range(0..=m as u32)).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Packing is injective: packed equality ⇔ frontier equality.
            /// Shapes mix zero-event processes with widths where the
            /// frontier regularly spans several 64-bit words.
            #[test]
            fn packed_equality_is_frontier_equality(
                seed in any::<u64>(),
                n in 1usize..40,
                equal in any::<bool>(),
            ) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let lens: Vec<usize> = (0..n).map(|_| rng.gen_range(0..=9)).collect();
                let a = random_frontier(&mut rng, &lens);
                let b = if equal { a.clone() } else { random_frontier(&mut rng, &lens) };
                let comp = comp_with(&lens);
                let packer = FrontierPacker::new(&comp);
                let pa: Box<[u64]> = packer.pack(&a);
                let pb: Box<[u64]> = packer.pack(&b);
                prop_assert_eq!(pa == pb, a == b);
            }
        }
    }
}
