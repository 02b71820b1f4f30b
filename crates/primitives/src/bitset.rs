//! Compact sender sets for quorum counting.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::NodeId;

/// Words stored inline: sets over at most `INLINE_WORDS × 64` = 256 nodes
/// (the paper's largest deployment is n = 160) never touch the heap.
const INLINE_WORDS: usize = 4;

/// Backing words of a [`NodeBitSet`]: inline up to 256 nodes, one boxed
/// slice beyond.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

/// A set of node ids with `O(1)` insert/contains and popcount-based size.
///
/// Every quorum rule in this workspace (`t + 1` amplification, `n − t`
/// quorums, `2t + 1` witness counts) reduces to "how many *distinct* nodes
/// sent X". `NodeBitSet` makes those counts cheap and duplicate-proof: a
/// Byzantine node replaying a message a thousand times still contributes a
/// single bit.
///
/// Sets over at most 256 nodes live entirely inside the value — creating,
/// cloning and dropping one never allocates — so the per-value sender
/// sets of a BinAA round can sit flat inside the round state. Larger
/// systems fall back to a single boxed word slice.
///
/// # Example
///
/// ```
/// use delphi_primitives::{NodeBitSet, NodeId};
///
/// let mut quorum = NodeBitSet::new(4);
/// assert!(quorum.insert(NodeId(1)));
/// assert!(!quorum.insert(NodeId(1))); // duplicates don't count
/// quorum.insert(NodeId(3));
/// assert_eq!(quorum.len(), 2);
/// assert!(quorum.contains(NodeId(3)));
/// ```
#[derive(Clone)]
pub struct NodeBitSet {
    words: Words,
    n: usize,
}

impl NodeBitSet {
    /// Creates an empty set over an `n`-node system.
    pub fn new(n: usize) -> NodeBitSet {
        let used = n.div_ceil(64);
        let words = if used <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; used].into_boxed_slice())
        };
        NodeBitSet { words, n }
    }

    /// The words that can hold a bit: `⌈n / 64⌉` of them. Equality,
    /// hashing and every count run over exactly these.
    #[inline]
    fn used(&self) -> &[u64] {
        match &self.words {
            Words::Inline(words) => words.get(..self.n.div_ceil(64)).unwrap_or(words),
            Words::Heap(words) => words,
        }
    }

    #[inline]
    fn word_mut(&mut self, word: usize) -> Option<&mut u64> {
        match &mut self.words {
            Words::Inline(words) => words.get_mut(word),
            Words::Heap(words) => words.get_mut(word),
        }
    }

    /// The system size this set was created for.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Inserts `id`, returning `true` if it was not already present.
    ///
    /// Ids at or beyond the system size are ignored (returns `false`):
    /// out-of-range ids can only come from malformed input and must not
    /// grow quorums.
    #[inline]
    pub fn insert(&mut self, id: NodeId) -> bool {
        let i = id.index();
        if i >= self.n {
            return false;
        }
        let bit = 1u64 << (i % 64);
        let Some(word) = self.word_mut(i / 64) else { return false };
        let newly = *word & bit == 0;
        *word |= bit;
        newly
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        let i = id.index();
        i < self.n && self.used().get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Number of distinct ids in the set.
    pub fn len(&self) -> usize {
        self.used().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.used().iter().all(|&w| w == 0)
    }

    /// Removes all ids.
    pub fn clear(&mut self) {
        match &mut self.words {
            Words::Inline(words) => words.fill(0),
            Words::Heap(words) => words.fill(0),
        }
    }

    /// Adds every id present in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the sets were created for different system sizes.
    pub fn union_with(&mut self, other: &NodeBitSet) {
        assert_eq!(self.n, other.n, "bitset capacity mismatch");
        let words = match &mut self.words {
            Words::Inline(words) => &mut words[..],
            Words::Heap(words) => &mut words[..],
        };
        for (w, o) in words.iter_mut().zip(other.used()) {
            *w |= o;
        }
    }

    /// Number of ids present in both sets.
    ///
    /// # Panics
    ///
    /// Panics if the sets were created for different system sizes.
    pub fn intersection_len(&self, other: &NodeBitSet) -> usize {
        assert_eq!(self.n, other.n, "bitset capacity mismatch");
        self.used().iter().zip(other.used()).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Iterates over the ids in the set, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.used().iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(NodeId((wi * 64 + tz as usize) as u16))
                }
            })
        })
    }
}

/// Equality over the system size and the used words only (inline storage
/// past `⌈n / 64⌉` words never holds a bit and is not compared).
impl PartialEq for NodeBitSet {
    fn eq(&self, other: &NodeBitSet) -> bool {
        self.n == other.n && self.used() == other.used()
    }
}

impl Eq for NodeBitSet {}

impl Hash for NodeBitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.n.hash(state);
        self.used().hash(state);
    }
}

impl fmt::Debug for NodeBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|id| id.0)).finish()
    }
}

impl FromIterator<NodeId> for NodeBitSet {
    /// Collects ids into a set sized for the largest id seen.
    ///
    /// Mostly a test convenience; protocol code sizes sets from the
    /// configuration instead.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let ids: Vec<NodeId> = iter.into_iter().collect();
        let n = ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        let mut set = NodeBitSet::new(n);
        for id in ids {
            set.insert(id);
        }
        set
    }
}

impl Extend<NodeId> for NodeBitSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_len() {
        let mut s = NodeBitSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(NodeId(0)));
        assert!(s.insert(NodeId(64)));
        assert!(s.insert(NodeId(129)));
        assert!(!s.insert(NodeId(129)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(NodeId(64)));
        assert!(!s.contains(NodeId(63)));
        assert_eq!(s.capacity(), 130);
    }

    #[test]
    fn out_of_range_ids_are_ignored() {
        let mut s = NodeBitSet::new(4);
        assert!(!s.insert(NodeId(4)));
        assert!(!s.insert(NodeId(1000)));
        assert!(!s.contains(NodeId(1000)));
        assert!(s.is_empty());
    }

    #[test]
    fn iter_yields_sorted_ids() {
        let mut s = NodeBitSet::new(200);
        for id in [190, 3, 64, 65, 0] {
            s.insert(NodeId(id));
        }
        let got: Vec<u16> = s.iter().map(|id| id.0).collect();
        assert_eq!(got, [0, 3, 64, 65, 190]);
    }

    #[test]
    fn union_and_intersection() {
        let mut a = NodeBitSet::new(10);
        let mut b = NodeBitSet::new(10);
        a.extend([NodeId(1), NodeId(2), NodeId(3)]);
        b.extend([NodeId(3), NodeId(4)]);
        assert_eq!(a.intersection_len(&b), 1);
        a.union_with(&b);
        assert_eq!(a.len(), 4);
        assert!(a.contains(NodeId(4)));
    }

    #[test]
    fn clear_resets() {
        let mut s = NodeBitSet::new(8);
        s.extend([NodeId(1), NodeId(7)]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn from_iterator_sizes_to_max_id() {
        let s: NodeBitSet = [NodeId(2), NodeId(9)].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.len(), 2);
        let empty: NodeBitSet = std::iter::empty().collect();
        assert_eq!(empty.capacity(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn debug_is_nonempty() {
        let s: NodeBitSet = [NodeId(1)].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1}");
        let empty = NodeBitSet::new(3);
        assert_eq!(format!("{empty:?}"), "{}");
    }

    fn hash_of(set: &NodeBitSet) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        set.hash(&mut hasher);
        hasher.finish()
    }

    /// Everything observable about `ours` matches the model.
    fn assert_matches(ours: &NodeBitSet, model: &BTreeSet<u16>, n: usize) {
        assert_eq!(ours.capacity(), n);
        assert_eq!(ours.len(), model.len());
        assert_eq!(ours.is_empty(), model.is_empty());
        let got: Vec<u16> = ours.iter().map(|id| id.0).collect();
        let expect: Vec<u16> = model.iter().copied().collect();
        assert_eq!(got, expect, "iteration is the sorted content");
        for probe in [0, 62, 63, 64, 65, 255, 256, 257, n.saturating_sub(1), n, n + 1] {
            let probe = probe as u16;
            assert_eq!(ours.contains(NodeId(probe)), model.contains(&probe), "contains({probe})");
        }
        // A set rebuilt from the content alone, in another insertion
        // order, is equal and hashes alike: neither looks at history or
        // at inline words past the system size.
        let mut rebuilt = NodeBitSet::new(n);
        rebuilt.extend(model.iter().rev().map(|&id| NodeId(id)));
        assert_eq!(ours, &rebuilt);
        assert_eq!(hash_of(ours), hash_of(&rebuilt));
    }

    proptest! {
        /// Model-based check against `BTreeSet<u16>` on both sides of the
        /// inline/heap boundary (256 nodes) and of every word boundary.
        #[test]
        fn prop_matches_reference_set(
            n_choice in 0usize..7,
            ops in proptest::collection::vec((0u8..16, any::<u16>()), 0..300),
        ) {
            let n = [1usize, 63, 64, 65, 256, 257, 1000][n_choice];
            let (mut a, mut b) = (NodeBitSet::new(n), NodeBitSet::new(n));
            let (mut model_a, mut model_b) = (BTreeSet::new(), BTreeSet::new());
            for (op, raw) in ops {
                // Ids run a little past the system size: those must be
                // ignored, never stored.
                let id = raw % (n as u16 + 3);
                let in_range = usize::from(id) < n;
                match op {
                    0..=8 => prop_assert_eq!(a.insert(NodeId(id)), in_range && model_a.insert(id)),
                    9..=12 => prop_assert_eq!(b.insert(NodeId(id)), in_range && model_b.insert(id)),
                    13 => {
                        a.union_with(&b);
                        model_a.extend(&model_b);
                    }
                    14 => {
                        b.clear();
                        model_b.clear();
                    }
                    _ => {
                        a.clear();
                        model_a.clear();
                    }
                }
                assert_matches(&a, &model_a, n);
                assert_matches(&b, &model_b, n);
                prop_assert_eq!(a.intersection_len(&b), model_a.intersection(&model_b).count());
                prop_assert_eq!(a == b, model_a == model_b);
                if model_a == model_b {
                    prop_assert_eq!(hash_of(&a), hash_of(&b));
                }
            }
        }
    }

    #[test]
    fn sets_of_different_system_sizes_are_never_equal() {
        // Same bits, same inline storage, different `n`.
        let (mut small, mut large) = (NodeBitSet::new(10), NodeBitSet::new(200));
        small.insert(NodeId(3));
        large.insert(NodeId(3));
        assert_ne!(small, large);
    }
}
