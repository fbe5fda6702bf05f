//! A vendored roaring-style compressed bitmap over `u32` ids.
//!
//! The value space is chunked by the high 16 bits; each chunk is stored in
//! one of two container shapes, picked by cardinality:
//!
//! * **Array** — sorted `Vec<u16>` of the low 16 bits, for chunks with at
//!   most [`ARRAY_MAX`] (= 4096) members. Below the cutoff two bytes per
//!   member beats the fixed bitset.
//! * **Bits** — a 65536-bit bitset (`[u64; 1024]`, 8 KiB) with a cached
//!   cardinality, for denser chunks.
//!
//! Containers promote (array → bits) when an insert would push an array
//! past the cutoff, and demote (bits → array) when a removal brings a
//! bitset back to it, so the representation is *canonical*: equal sets
//! compare equal with derived `PartialEq`.
//!
//! Containers sit behind [`Arc`]s: cloning a bitmap is O(#containers) and
//! shares every chunk, and mutation copies only the touched container
//! (`Arc::make_mut`). That matters because [`crate::index::GraphStore`]s —
//! which carry posting lists built from these bitmaps — are cloned on
//! every epoch publish.
//!
//! Deliberately minimal and std-only (no registry deps): membership,
//! AND / OR / AND-NOT / NOT-within-universe, cardinality, min, iteration,
//! ranks (a member's position in ascending order, [`Ranks`]) and a heap
//! estimate. That is the full surface the posting lists, the maintenance
//! planner and the evaluator's star join need.

use std::sync::Arc;

/// Array containers hold at most this many elements; the next insert
/// promotes the chunk to a bitset (roaring's classic cutoff — above 4096
/// entries the fixed 8 KiB bitset is denser than 2-byte entries).
pub const ARRAY_MAX: usize = 4096;

/// `u64` words per bitset container (65536 bits).
const WORDS: usize = 1024;

#[inline]
fn split(value: u32) -> (u16, u16) {
    ((value >> 16) as u16, (value & 0xFFFF) as u16)
}

#[inline]
fn join(hi: u16, lo: u16) -> u32 {
    ((hi as u32) << 16) | lo as u32
}

/// One 65536-value chunk. Invariant: `Array` holds 1..=[`ARRAY_MAX`]
/// sorted unique values; `Bits` holds more than [`ARRAY_MAX`] with `len`
/// caching the popcount. Empty containers never exist — the owning
/// [`Bitmap`] drops them.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Container {
    Array(Vec<u16>),
    Bits { words: Box<[u64; WORDS]>, len: u32 },
}

impl Container {
    fn len(&self) -> u32 {
        match self {
            Container::Array(v) => v.len() as u32,
            Container::Bits { len, .. } => *len,
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&low).is_ok(),
            Container::Bits { words, .. } => words[(low >> 6) as usize] & (1u64 << (low & 63)) != 0,
        }
    }

    /// Insert; `true` if newly added. Promotes past [`ARRAY_MAX`].
    fn insert(&mut self, low: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(_) => false,
                Err(pos) => {
                    if v.len() < ARRAY_MAX {
                        v.insert(pos, low);
                    } else {
                        let mut bits = Container::bits_from(v);
                        bits.insert(low);
                        *self = bits;
                    }
                    true
                }
            },
            Container::Bits { words, len } => {
                let word = &mut words[(low >> 6) as usize];
                let mask = 1u64 << (low & 63);
                if *word & mask != 0 {
                    return false;
                }
                *word |= mask;
                *len += 1;
                true
            }
        }
    }

    /// Remove; `true` if present. Demotes back to an array at the cutoff
    /// (keeps the representation canonical). May leave the container
    /// empty — the caller drops it.
    fn remove(&mut self, low: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Container::Bits { words, len } => {
                let word = &mut words[(low >> 6) as usize];
                let mask = 1u64 << (low & 63);
                if *word & mask == 0 {
                    return false;
                }
                *word &= !mask;
                *len -= 1;
                if *len as usize <= ARRAY_MAX {
                    *self = Container::Array(Self::array_from(words));
                }
                true
            }
        }
    }

    fn bits_from(array: &[u16]) -> Container {
        let mut words = Box::new([0u64; WORDS]);
        for &low in array {
            words[(low >> 6) as usize] |= 1u64 << (low & 63);
        }
        Container::Bits {
            words,
            len: array.len() as u32,
        }
    }

    fn array_from(words: &[u64; WORDS]) -> Vec<u16> {
        let mut out = Vec::new();
        for (i, &word) in words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push((i as u32 * 64 + w.trailing_zeros()) as u16);
                w &= w - 1;
            }
        }
        out
    }

    /// Canonicalize a raw bitset into `None` (empty) / array / bits.
    fn from_words(words: Box<[u64; WORDS]>) -> Option<Container> {
        let len: u32 = words.iter().map(|w| w.count_ones()).sum();
        if len == 0 {
            None
        } else if len as usize <= ARRAY_MAX {
            Some(Container::Array(Self::array_from(&words)))
        } else {
            Some(Container::Bits { words, len })
        }
    }

    fn and(&self, other: &Container) -> Option<Container> {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                let mut out = Vec::new();
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                // An intersection of arrays can never exceed the cutoff.
                (!out.is_empty()).then_some(Container::Array(out))
            }
            (Container::Array(a), bits @ Container::Bits { .. })
            | (bits @ Container::Bits { .. }, Container::Array(a)) => {
                let out: Vec<u16> = a.iter().copied().filter(|&v| bits.contains(v)).collect();
                (!out.is_empty()).then_some(Container::Array(out))
            }
            (Container::Bits { words: a, .. }, Container::Bits { words: b, .. }) => {
                let mut words = Box::new([0u64; WORDS]);
                for (w, (x, y)) in words.iter_mut().zip(a.iter().zip(b.iter())) {
                    *w = x & y;
                }
                Self::from_words(words)
            }
        }
    }

    fn or(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                let mut out = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => {
                            out.push(a[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            out.push(b[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                out.extend_from_slice(&a[i..]);
                out.extend_from_slice(&b[j..]);
                if out.len() <= ARRAY_MAX {
                    Container::Array(out)
                } else {
                    Container::bits_from(&out)
                }
            }
            (Container::Array(a), Container::Bits { words, .. })
            | (Container::Bits { words, .. }, Container::Array(a)) => {
                let mut words = words.clone();
                for &v in a {
                    words[(v >> 6) as usize] |= 1u64 << (v & 63);
                }
                let len = words.iter().map(|w| w.count_ones()).sum();
                // A superset of a bits container stays above the cutoff.
                Container::Bits { words, len }
            }
            (Container::Bits { words: a, .. }, Container::Bits { words: b, .. }) => {
                let mut words = Box::new([0u64; WORDS]);
                for (w, (x, y)) in words.iter_mut().zip(a.iter().zip(b.iter())) {
                    *w = x | y;
                }
                let len = words.iter().map(|w| w.count_ones()).sum();
                Container::Bits { words, len }
            }
        }
    }

    fn and_not(&self, other: &Container) -> Option<Container> {
        match (self, other) {
            (Container::Array(a), b) => {
                let out: Vec<u16> = a.iter().copied().filter(|&v| !b.contains(v)).collect();
                (!out.is_empty()).then_some(Container::Array(out))
            }
            (Container::Bits { words, .. }, Container::Array(b)) => {
                let mut words = words.clone();
                for &v in b {
                    words[(v >> 6) as usize] &= !(1u64 << (v & 63));
                }
                Self::from_words(words)
            }
            (Container::Bits { words: a, .. }, Container::Bits { words: b, .. }) => {
                let mut words = Box::new([0u64; WORDS]);
                for (w, (x, y)) in words.iter_mut().zip(a.iter().zip(b.iter())) {
                    *w = x & !y;
                }
                Self::from_words(words)
            }
        }
    }

    /// `[0, limit)` minus `existing`, for NOT-within-universe.
    /// `limit` is in `1..=65536`.
    fn complement(existing: Option<&Container>, limit: u32) -> Option<Container> {
        let mut words = Box::new([0u64; WORDS]);
        let full = (limit / 64) as usize;
        words[..full].fill(u64::MAX);
        let rem = limit % 64;
        if rem != 0 {
            words[full] = (1u64 << rem) - 1;
        }
        match existing {
            Some(Container::Array(v)) => {
                for &x in v {
                    if (x as u32) < limit {
                        words[(x >> 6) as usize] &= !(1u64 << (x & 63));
                    }
                }
            }
            Some(Container::Bits { words: b, .. }) => {
                for (w, x) in words.iter_mut().zip(b.iter()) {
                    *w &= !x;
                }
            }
            None => {}
        }
        Self::from_words(words)
    }

    fn min(&self) -> u16 {
        match self {
            Container::Array(v) => v[0],
            Container::Bits { words, .. } => {
                for (i, &w) in words.iter().enumerate() {
                    if w != 0 {
                        return (i as u32 * 64 + w.trailing_zeros()) as u16;
                    }
                }
                unreachable!("Bits containers are never empty")
            }
        }
    }

    fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(v) => ContainerIter::Array(v.iter()),
            Container::Bits { words, .. } => ContainerIter::Bits {
                words,
                word_idx: 0,
                current: words[0],
            },
        }
    }

    fn estimated_bytes(&self) -> usize {
        match self {
            Container::Array(v) => 24 + v.len() * 2,
            Container::Bits { .. } => 16 + WORDS * 8,
        }
    }
}

enum ContainerIter<'a> {
    Array(std::slice::Iter<'a, u16>),
    Bits {
        words: &'a [u64; WORDS],
        word_idx: usize,
        current: u64,
    },
}

impl Iterator for ContainerIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(it) => it.next().copied(),
            ContainerIter::Bits {
                words,
                word_idx,
                current,
            } => {
                while *current == 0 {
                    *word_idx += 1;
                    if *word_idx >= WORDS {
                        return None;
                    }
                    *current = words[*word_idx];
                }
                let bit = current.trailing_zeros();
                *current &= *current - 1;
                Some((*word_idx as u32 * 64 + bit) as u16)
            }
        }
    }
}

/// A compressed set of `u32` values (see the module docs for the layout).
///
/// Cheap to clone: containers are `Arc`-shared, so a clone costs one small
/// `Vec` copy and mutation pays copy-on-write per touched 65536-value
/// chunk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    /// `(high 16 bits, container)`, sorted by key. No empty containers.
    containers: Vec<(u16, Arc<Container>)>,
    /// Total cardinality, maintained incrementally.
    len: u64,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    fn container_idx(&self, hi: u16) -> Result<usize, usize> {
        self.containers.binary_search_by_key(&hi, |(k, _)| *k)
    }

    /// Insert a value; `true` if it was newly added.
    pub fn insert(&mut self, value: u32) -> bool {
        let (hi, lo) = split(value);
        match self.container_idx(hi) {
            Ok(idx) => {
                let added = Arc::make_mut(&mut self.containers[idx].1).insert(lo);
                if added {
                    self.len += 1;
                }
                added
            }
            Err(idx) => {
                self.containers
                    .insert(idx, (hi, Arc::new(Container::Array(vec![lo]))));
                self.len += 1;
                true
            }
        }
    }

    /// Remove a value; `true` if it was present.
    pub fn remove(&mut self, value: u32) -> bool {
        let (hi, lo) = split(value);
        let Ok(idx) = self.container_idx(hi) else {
            return false;
        };
        let container = Arc::make_mut(&mut self.containers[idx].1);
        if !container.remove(lo) {
            return false;
        }
        self.len -= 1;
        if container.len() == 0 {
            self.containers.remove(idx);
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, value: u32) -> bool {
        let (hi, lo) = split(value);
        match self.container_idx(hi) {
            Ok(idx) => self.containers[idx].1.contains(lo),
            Err(_) => false,
        }
    }

    /// Number of values in the set.
    pub fn cardinality(&self) -> u64 {
        self.len
    }

    /// True when no value is set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The smallest value, if any.
    pub fn min(&self) -> Option<u32> {
        self.containers.first().map(|(hi, c)| join(*hi, c.min()))
    }

    /// Set intersection.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let (mut i, mut j) = (0, 0);
        while i < self.containers.len() && j < other.containers.len() {
            let (ka, ca) = &self.containers[i];
            let (kb, cb) = &other.containers[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if Arc::ptr_eq(ca, cb) {
                        out.len += ca.len() as u64;
                        out.containers.push((*ka, Arc::clone(ca)));
                    } else if let Some(c) = ca.and(cb) {
                        out.len += c.len() as u64;
                        out.containers.push((*ka, Arc::new(c)));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Set union.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let (mut i, mut j) = (0, 0);
        loop {
            let a = self.containers.get(i);
            let b = other.containers.get(j);
            let entry = match (a, b) {
                (None, None) => break,
                (Some((k, c)), None) => {
                    i += 1;
                    (*k, Arc::clone(c))
                }
                (None, Some((k, c))) => {
                    j += 1;
                    (*k, Arc::clone(c))
                }
                (Some((ka, ca)), Some((kb, cb))) => match ka.cmp(kb) {
                    std::cmp::Ordering::Less => {
                        i += 1;
                        (*ka, Arc::clone(ca))
                    }
                    std::cmp::Ordering::Greater => {
                        j += 1;
                        (*kb, Arc::clone(cb))
                    }
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                        if Arc::ptr_eq(ca, cb) {
                            (*ka, Arc::clone(ca))
                        } else {
                            (*ka, Arc::new(ca.or(cb)))
                        }
                    }
                },
            };
            out.len += entry.1.len() as u64;
            out.containers.push(entry);
        }
        out
    }

    /// Set difference (`self \ other`).
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let mut j = 0;
        for (k, c) in &self.containers {
            while j < other.containers.len() && other.containers[j].0 < *k {
                j += 1;
            }
            let entry = match other.containers.get(j) {
                Some((kb, cb)) if kb == k => {
                    if Arc::ptr_eq(c, cb) {
                        None
                    } else {
                        c.and_not(cb).map(Arc::new)
                    }
                }
                _ => Some(Arc::clone(c)),
            };
            if let Some(c) = entry {
                out.len += c.len() as u64;
                out.containers.push((*k, c));
            }
        }
        out
    }

    /// Complement within the half-open universe `[0, universe)`.
    pub fn not(&self, universe: u32) -> Bitmap {
        let mut out = Bitmap::new();
        if universe == 0 {
            return out;
        }
        let max_hi = ((universe - 1) >> 16) as u16;
        for hi in 0..=max_hi {
            let limit = (universe - ((hi as u32) << 16)).min(65536);
            let existing = match self.container_idx(hi) {
                Ok(idx) => Some(&*self.containers[idx].1),
                Err(_) => None,
            };
            if let Some(c) = Container::complement(existing, limit) {
                out.len += c.len() as u64;
                out.containers.push((hi, Arc::new(c)));
            }
        }
        out
    }

    /// Iterate values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.containers.iter().flat_map(|(hi, c)| {
            let base = (*hi as u32) << 16;
            c.iter().map(move |lo| base | lo as u32)
        })
    }

    /// The members' positions in ascending order (see [`Ranks`]).
    pub fn ranks(&self) -> Ranks<'_> {
        let mut before = 0;
        let chunks = self
            .containers
            .iter()
            .map(|(hi, c)| {
                let shape = match &**c {
                    Container::Array(v) => {
                        let first = (v[0] >> 6) as usize;
                        let span = (v[v.len() - 1] >> 6) as usize - first + 1;
                        if span > v.len() {
                            RankShape::Array(v)
                        } else {
                            let mut words = vec![(0, 0); span];
                            for &lo in v {
                                words[(lo >> 6) as usize - first].0 |= 1u64 << (lo & 63);
                            }
                            RankShape::words(first, words)
                        }
                    }
                    Container::Bits { words, .. } => {
                        RankShape::words(0, words.iter().map(|&w| (w, 0)).collect())
                    }
                };
                let chunk = (*hi, before, shape);
                before += c.len();
                chunk
            })
            .collect();
        Ranks { chunks }
    }

    /// Heap footprint estimate (the posting-list side of the store's
    /// memory accounting).
    pub fn estimated_bytes(&self) -> usize {
        24 + self
            .containers
            .iter()
            .map(|(_, c)| 16 + c.estimated_bytes())
            .sum::<usize>()
    }
}

/// A bitmap's members numbered from 0 in ascending order, for many
/// lookups against one set. A container with at least one member per
/// 64-value word of its span gets a table of those words, each with the
/// members before it: a lookup there is one word read and a popcount.
/// A sparser container is binary-searched. Building takes one step per
/// member or word, whichever is fewer per container, so its cost follows
/// the members, not the span of their values.
pub struct Ranks<'a> {
    /// `(high 16 bits, members in earlier containers, container)`.
    chunks: Vec<(u16, u32, RankShape<'a>)>,
}

enum RankShape<'a> {
    Array(&'a [u16]),
    /// The container's words from word `first` on, each with the
    /// container's members in the words before it.
    Words {
        first: usize,
        words: Vec<(u64, u32)>,
    },
}

impl RankShape<'_> {
    fn words(first: usize, mut words: Vec<(u64, u32)>) -> Self {
        let mut count = 0;
        for (bits, before) in &mut words {
            *before = count;
            count += bits.count_ones();
        }
        RankShape::Words { first, words }
    }
}

impl Ranks<'_> {
    /// The position of `value` among the members, if it is one.
    #[inline]
    pub fn rank(&self, value: u32) -> Option<usize> {
        let (hi, lo) = split(value);
        let i = self.chunks.binary_search_by_key(&hi, |c| c.0).ok()?;
        let (_, before, shape) = &self.chunks[i];
        let within = match shape {
            RankShape::Array(v) => v.binary_search(&lo).ok()?,
            RankShape::Words { first, words } => {
                let (bits, earlier) = *words.get(((lo >> 6) as usize).wrapping_sub(*first))?;
                let bit = 1u64 << (lo & 63);
                if bits & bit == 0 {
                    return None;
                }
                earlier as usize + (bits & (bit - 1)).count_ones() as usize
            }
        };
        Some(*before as usize + within)
    }
}

impl FromIterator<u32> for Bitmap {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Bitmap {
        let mut bm = Bitmap::new();
        for v in iter {
            bm.insert(v);
        }
        bm
    }
}

impl Extend<u32> for Bitmap {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_bits(bm: &Bitmap, hi: u16) -> bool {
        match bm.container_idx(hi) {
            Ok(idx) => matches!(&*bm.containers[idx].1, Container::Bits { .. }),
            Err(_) => false,
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut bm = Bitmap::new();
        assert!(bm.insert(5));
        assert!(!bm.insert(5), "duplicate rejected");
        assert!(bm.insert(70_000), "second chunk");
        assert!(bm.contains(5));
        assert!(bm.contains(70_000));
        assert!(!bm.contains(6));
        assert_eq!(bm.cardinality(), 2);
        assert_eq!(bm.min(), Some(5));
        assert!(bm.remove(5));
        assert!(!bm.remove(5), "double remove is a no-op");
        assert_eq!(bm.cardinality(), 1);
        assert_eq!(bm.min(), Some(70_000));
        assert!(bm.remove(70_000));
        assert!(bm.is_empty());
        assert_eq!(bm.min(), None);
        assert!(bm.containers.is_empty(), "empty containers are dropped");
    }

    /// The promotion boundary, explicitly: 4095 and 4096 members stay an
    /// array, the 4097th promotes to a bitset, and removing back down to
    /// 4096 demotes again — with content intact at every step.
    #[test]
    fn promotion_and_demotion_at_the_cutoff() {
        let mut bm = Bitmap::new();
        for v in 0..4095u32 {
            bm.insert(v);
        }
        assert!(!is_bits(&bm, 0), "4095 members: still an array");
        bm.insert(4095);
        assert!(
            !is_bits(&bm, 0),
            "4096 members: still an array (the cutoff)"
        );
        assert_eq!(bm.cardinality(), 4096);

        bm.insert(4096);
        assert!(is_bits(&bm, 0), "4097 members: promoted to a bitset");
        assert_eq!(bm.cardinality(), 4097);
        assert!(
            (0..=4096).all(|v| bm.contains(v)),
            "promotion keeps content"
        );

        bm.remove(2000);
        assert!(!is_bits(&bm, 0), "4096 members again: demoted to an array");
        assert_eq!(bm.cardinality(), 4096);
        assert!(!bm.contains(2000));
        assert!(
            bm.contains(0) && bm.contains(4096),
            "demotion keeps content"
        );

        // Canonical representation: the round-tripped bitmap equals one
        // built directly at the same cardinality.
        let direct: Bitmap = (0..=4096u32).filter(|&v| v != 2000).collect();
        assert_eq!(bm, direct);
    }

    #[test]
    fn ops_across_container_shapes() {
        // a: dense bitset chunk; b: sparse array overlapping it.
        let a: Bitmap = (0..5000u32).collect();
        let b: Bitmap = (4000..4100u32).chain(66_000..66_010).collect();
        let and = a.and(&b);
        assert_eq!(and.cardinality(), 100);
        assert!(and.contains(4000) && and.contains(4099));
        assert!(!and.contains(66_000), "b's second chunk misses a entirely");

        let or = a.or(&b);
        assert_eq!(or.cardinality(), 5000 + 10);
        assert!(or.contains(66_009));

        let diff = a.and_not(&b);
        assert_eq!(diff.cardinality(), 5000 - 100);
        assert!(diff.contains(3999) && !diff.contains(4000));
    }

    #[test]
    fn not_within_universe() {
        let bm: Bitmap = [0u32, 2, 65_536].into_iter().collect();
        let complement = bm.not(65_538);
        assert_eq!(complement.cardinality(), 65_538 - 3);
        assert!(complement.contains(1));
        assert!(!complement.contains(0));
        assert!(!complement.contains(65_536));
        assert!(complement.contains(65_537));
        assert!(!complement.contains(65_538), "universe is half-open");
        assert!(Bitmap::new().not(0).is_empty());
    }

    #[test]
    fn iteration_is_sorted() {
        let values = [70_000u32, 3, 65_535, 65_536, 0, 131_072];
        let bm: Bitmap = values.into_iter().collect();
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        assert_eq!(bm.iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn clones_share_and_diverge() {
        let mut a: Bitmap = (0..10_000u32).collect();
        let b = a.clone();
        a.insert(1_000_000);
        a.remove(5);
        assert!(!b.contains(1_000_000));
        assert!(b.contains(5));
        assert_eq!(b.cardinality(), 10_000);
    }

    #[test]
    fn bytes_reflect_container_shapes() {
        let sparse: Bitmap = (0..10u32).collect();
        let dense: Bitmap = (0..10_000u32).collect();
        assert!(sparse.estimated_bytes() < 200);
        assert!(dense.estimated_bytes() > 8000, "bitset chunk dominates");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Values concentrated so ops hit the same chunks, with a tail above
    /// 65536 to exercise multi-container paths.
    fn arb_values() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(
            prop_oneof![0u32..9000, 60_000u32..70_000, 200_000u32..200_050],
            0..400,
        )
    }

    fn model(values: &[u32]) -> BTreeSet<u32> {
        values.iter().copied().collect()
    }

    proptest! {
        /// AND / OR / AND-NOT / NOT agree with a `BTreeSet` reference
        /// model, and cardinality / iteration / min match throughout.
        #[test]
        fn ops_agree_with_set_model(a in arb_values(), b in arb_values()) {
            let bm_a: Bitmap = a.iter().copied().collect();
            let bm_b: Bitmap = b.iter().copied().collect();
            let set_a = model(&a);
            let set_b = model(&b);

            prop_assert_eq!(bm_a.cardinality(), set_a.len() as u64);
            prop_assert_eq!(bm_a.iter().collect::<Vec<_>>(),
                set_a.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(bm_a.min(), set_a.first().copied());

            let and = bm_a.and(&bm_b);
            let and_ref: Vec<u32> = set_a.intersection(&set_b).copied().collect();
            prop_assert_eq!(and.iter().collect::<Vec<_>>(), and_ref.clone());
            prop_assert_eq!(and.cardinality(), and_ref.len() as u64);

            let or = bm_a.or(&bm_b);
            let or_ref: Vec<u32> = set_a.union(&set_b).copied().collect();
            prop_assert_eq!(or.iter().collect::<Vec<_>>(), or_ref.clone());
            prop_assert_eq!(or.cardinality(), or_ref.len() as u64);

            let diff = bm_a.and_not(&bm_b);
            let diff_ref: Vec<u32> = set_a.difference(&set_b).copied().collect();
            prop_assert_eq!(diff.iter().collect::<Vec<_>>(), diff_ref.clone());
            prop_assert_eq!(diff.cardinality(), diff_ref.len() as u64);

            let universe = 70_000u32;
            let not = bm_a.not(universe);
            let not_ref: Vec<u32> = (0..universe).filter(|v| !set_a.contains(v)).collect();
            prop_assert_eq!(not.cardinality(), not_ref.len() as u64);
            prop_assert_eq!(not.iter().collect::<Vec<_>>(), not_ref);
        }

        /// `Ranks::rank` is each member's position in ascending order and
        /// `None` for every other value, over array and bitset containers
        /// alike (a dense run makes the first chunk a bitset).
        #[test]
        fn ranks_agree_with_positions(
            values in arb_values(),
            dense in proptest::option::of(0u32..60_000),
            probes in proptest::collection::vec(0u32..210_000, 0..200),
        ) {
            let mut set = model(&values);
            set.extend(dense.into_iter().flat_map(|start| start..start + 5000));
            let bm: Bitmap = set.iter().copied().collect();
            let ranks = bm.ranks();
            for (i, &v) in set.iter().enumerate() {
                prop_assert_eq!(ranks.rank(v), Some(i));
            }
            for v in probes {
                let expected = set.contains(&v).then(|| set.range(..v).count());
                prop_assert_eq!(ranks.rank(v), expected);
            }
        }

        /// Mixed insert/remove sequences crossing the promotion cutoff in
        /// both directions stay equal to the set model — including the
        /// return values and the canonical-representation equality.
        #[test]
        fn mutation_agrees_with_set_model(
            ops in proptest::collection::vec(
                (proptest::bool::weighted(0.7), 0u32..6000),
                0..600,
            ),
        ) {
            let mut bm = Bitmap::new();
            let mut set = BTreeSet::new();
            for (is_insert, v) in ops {
                if is_insert {
                    prop_assert_eq!(bm.insert(v), set.insert(v));
                } else {
                    prop_assert_eq!(bm.remove(v), set.remove(&v));
                }
            }
            prop_assert_eq!(bm.cardinality(), set.len() as u64);
            prop_assert_eq!(bm.iter().collect::<Vec<_>>(),
                set.iter().copied().collect::<Vec<_>>());
            let rebuilt: Bitmap = set.iter().copied().collect();
            prop_assert_eq!(bm, rebuilt);
        }
    }
}
