//! The lossy computed table: a fixed-size, power-of-two, direct-mapped
//! memoization cache for BDD operations.
//!
//! This replaces the unbounded hash-map op cache of earlier revisions with
//! the structure CUDD uses: an array of slots indexed by a hash of the
//! operation key, where a colliding insert simply **overwrites** the
//! previous occupant. The consequences are exactly the ones a BDD package
//! wants:
//!
//! * **O(1) probe, no chains, no rehash stalls** — a lookup is one index
//!   computation and one comparison.
//! * **Bounded memory by construction** — the table never holds more than
//!   its slot count; there is no "drop everything" relief valve because
//!   there is nothing to relieve.
//! * **Lossy is sound** — a memoized result is only ever an optimization;
//!   losing one to eviction costs a recomputation, never correctness.
//!
//! The table starts small and doubles in place (every entry survives)
//! when either the occupancy crosses 3/4 *or* eviction pressure mounts —
//! collisions overwrite, so a thrashing table's occupancy plateaus below
//! the occupancy trigger — up to a configurable slot cap, so that tiny
//! managers — tests allocate thousands of them — stay tiny while synthesis
//! workloads grow to their configured bound.

use crate::manager::{Bdd, OpTag};

/// Initial slot count of a fresh table (power of two).
const INITIAL_SLOTS: usize = 1 << 10;

/// Default slot cap: ~1M slots × 24 B ≈ 24 MiB, far below the node arenas
/// it serves. [`ComputedTable::set_max_slots`] adjusts it.
const DEFAULT_MAX_SLOTS: usize = 1 << 20;

/// Hard ceiling on the slot cap, whatever the caller asks for.
const HARD_MAX_SLOTS: usize = 1 << 24;

/// Sentinel in [`Slot::tag`] marking an empty slot. Real encoded tags are
/// `discriminant | payload << 3 < 2^35`, so `u64::MAX` cannot collide.
const EMPTY: u64 = u64::MAX;

/// Encodes an [`OpTag`] into the low 35 bits of a `u64`: 3 bits of variant
/// discriminant plus an optional 32-bit payload (varset id / variable).
#[inline]
pub(crate) fn encode_tag(tag: OpTag) -> u64 {
    match tag {
        OpTag::Ite => 0,
        OpTag::Not => 1,
        OpTag::Exists(id) => 2 | u64::from(id) << 3,
        OpTag::Forall(id) => 3 | u64::from(id) << 3,
        OpTag::Compose(var) => 4 | u64::from(var) << 3,
        OpTag::Restrict => 5,
        OpTag::AndExists(id) => 6 | u64::from(id) << 3,
        OpTag::AndForall(id) => 7 | u64::from(id) << 3,
    }
}

/// Inverse of [`encode_tag`].
#[inline]
fn decode_tag(word: u64) -> OpTag {
    let payload = u32::try_from(word >> 3).unwrap_or(u32::MAX);
    match word & 0b111 {
        0 => OpTag::Ite,
        1 => OpTag::Not,
        2 => OpTag::Exists(payload),
        3 => OpTag::Forall(payload),
        4 => OpTag::Compose(payload),
        5 => OpTag::Restrict,
        6 => OpTag::AndExists(payload),
        _ => OpTag::AndForall(payload),
    }
}

/// One direct-mapped slot: the encoded operation key and its result.
#[derive(Clone, Copy)]
struct Slot {
    tag: u64,
    a: u32,
    b: u32,
    c: u32,
    result: u32,
}

const EMPTY_SLOT: Slot = Slot {
    tag: EMPTY,
    a: 0,
    b: 0,
    c: 0,
    result: 0,
};

/// Counter snapshot of a [`ComputedTable`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CacheCounters {
    pub entries: usize,
    pub capacity: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// The direct-mapped lossy computed table; see the module docs.
pub(crate) struct ComputedTable {
    slots: Vec<Slot>,
    /// `slots.len() - 1`; slot count is always a power of two.
    mask: usize,
    occupied: usize,
    max_slots: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Evictions since the last growth (or creation); drives the
    /// pressure-based growth trigger.
    evictions_since_grow: u64,
}

impl Default for ComputedTable {
    fn default() -> Self {
        ComputedTable {
            slots: vec![EMPTY_SLOT; INITIAL_SLOTS],
            mask: INITIAL_SLOTS - 1,
            occupied: 0,
            max_slots: DEFAULT_MAX_SLOTS,
            hits: 0,
            misses: 0,
            evictions: 0,
            evictions_since_grow: 0,
        }
    }
}

/// Fibonacci-style mixer over the four key words (same family as
/// `crate::hash::FibHasher`, inlined here so a probe is branch-free).
#[inline]
fn mix(tag: u64, a: u32, b: u32, c: u32) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = tag.wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ u64::from(a)).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ u64::from(c)).wrapping_mul(SEED);
    h ^= h >> 32;
    h.wrapping_mul(0xd6e8_feb8_6659_fd93)
}

impl ComputedTable {
    /// Caps the slot count. `cap` is rounded up to a power of two and
    /// clamped to `[INITIAL_SLOTS, HARD_MAX_SLOTS]`; an already-larger
    /// table keeps its current size (shrinking would discard entries for
    /// no benefit — the table is already bounded).
    pub(crate) fn set_max_slots(&mut self, cap: usize) {
        let cap = cap.next_power_of_two().clamp(INITIAL_SLOTS, HARD_MAX_SLOTS);
        self.max_slots = cap.max(self.slots.len());
    }

    #[inline]
    fn index(&self, tag: u64, a: u32, b: u32, c: u32) -> usize {
        // High bits are the best-mixed; fold them onto the mask.
        (mix(tag, a, b, c) >> 32) as usize & self.mask
    }

    /// Looks up a memoized result.
    #[inline]
    pub(crate) fn get(&mut self, key: (OpTag, Bdd, Bdd, Bdd)) -> Option<Bdd> {
        let (tag, a, b, c) = (encode_tag(key.0), key.1 .0, key.2 .0, key.3 .0);
        let slot = &self.slots[self.index(tag, a, b, c)];
        if slot.tag == tag && slot.a == a && slot.b == b && slot.c == c {
            self.hits += 1;
            Some(Bdd(slot.result))
        } else {
            self.misses += 1;
            None
        }
    }

    /// Inserts a result, overwriting whatever occupied the slot.
    ///
    /// Growth fires on either of two pressures: occupancy crossing 3/4
    /// (a table filling up cleanly) or the evictions since the last
    /// growth exceeding half the slot count. The second trigger matters
    /// because a direct-mapped table overwrites on collision — occupancy
    /// saturates well below 3/4 while inserts churn the same slots, so
    /// an occupancy-only heuristic stalls the table far under its cap
    /// and every probe past that point thrashes.
    pub(crate) fn insert(&mut self, key: (OpTag, Bdd, Bdd, Bdd), value: Bdd) {
        if self.slots.len() < self.max_slots
            && (self.occupied * 4 >= self.slots.len() * 3
                || self.evictions_since_grow as usize * 2 >= self.slots.len())
        {
            self.grow();
        }
        let (tag, a, b, c) = (encode_tag(key.0), key.1 .0, key.2 .0, key.3 .0);
        let idx = self.index(tag, a, b, c);
        let slot = &mut self.slots[idx];
        if slot.tag == EMPTY {
            self.occupied += 1;
        } else if !(slot.tag == tag && slot.a == a && slot.b == b && slot.c == c) {
            self.evictions += 1;
            self.evictions_since_grow += 1;
        }
        *slot = Slot {
            tag,
            a,
            b,
            c,
            result: value.0,
        };
    }

    /// Doubles the slot count in place. With a power-of-two mask an entry
    /// in old slot `i` belongs in new slot `i` or `i + old_len`, one new
    /// index bit apart, so no two entries collide and each moves at most
    /// once: growth keeps every entry and never holds two tables.
    fn grow(&mut self) {
        let old_len = self.slots.len();
        let new_len = (old_len * 2).min(self.max_slots);
        if new_len <= old_len {
            return;
        }
        // The cap is a power of two, so growth always exactly doubles.
        debug_assert_eq!(new_len, 2 * old_len);
        self.slots.resize(new_len, EMPTY_SLOT);
        self.mask = new_len - 1;
        self.evictions_since_grow = 0;
        for i in 0..old_len {
            let slot = self.slots[i];
            if slot.tag != EMPTY && self.index(slot.tag, slot.a, slot.b, slot.c) != i {
                self.slots[i + old_len] = slot;
                self.slots[i] = EMPTY_SLOT;
            }
        }
    }

    /// Empties the table (keeps its current slot allocation and counters).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.occupied = 0;
        self.evictions_since_grow = 0;
    }

    /// Number of occupied slots.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.occupied
    }

    /// Counter snapshot for [`crate::ManagerStats`].
    pub(crate) fn counters(&self) -> CacheCounters {
        CacheCounters {
            entries: self.occupied,
            capacity: self.slots.len(),
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// Iterates over the occupied slots as decoded `(key, result)` pairs
    /// (for the audit layer's spot checks).
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((OpTag, Bdd, Bdd, Bdd), Bdd)> + '_ {
        self.slots.iter().filter(|s| s.tag != EMPTY).map(|s| {
            (
                (decode_tag(s.tag), Bdd(s.a), Bdd(s.b), Bdd(s.c)),
                Bdd(s.result),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u32, b: u32, c: u32) -> (OpTag, Bdd, Bdd, Bdd) {
        (OpTag::Ite, Bdd(a), Bdd(b), Bdd(c))
    }

    #[test]
    fn tag_roundtrip() {
        for tag in [
            OpTag::Ite,
            OpTag::Not,
            OpTag::Exists(7),
            OpTag::Forall(u32::MAX - 1),
            OpTag::Compose(3),
            OpTag::Restrict,
            OpTag::AndExists(0),
            OpTag::AndForall(19),
        ] {
            assert_eq!(decode_tag(encode_tag(tag)), tag);
            assert_ne!(encode_tag(tag), EMPTY);
        }
    }

    #[test]
    fn insert_then_get_hits() {
        let mut t = ComputedTable::default();
        t.insert(key(2, 3, 4), Bdd(9));
        assert_eq!(t.get(key(2, 3, 4)), Some(Bdd(9)));
        assert_eq!(t.get(key(2, 3, 5)), None);
        let c = t.counters();
        assert_eq!((c.hits, c.misses, c.entries), (1, 1, 1));
    }

    #[test]
    fn collision_overwrites_and_counts_eviction() {
        // Pin the cap so no growth interferes; then synthesize a collision
        // by brute force: two distinct keys mapping to the same slot.
        let mut t = ComputedTable::default();
        t.set_max_slots(INITIAL_SLOTS);
        t.insert(key(1, 1, 1), Bdd(10));
        let target = t.index(encode_tag(OpTag::Ite), 1, 1, 1);
        let mut other = None;
        for a in 2..100_000u32 {
            if t.index(encode_tag(OpTag::Ite), a, 0, 0) == target {
                other = Some(a);
                break;
            }
        }
        let a = other.expect("some key collides in a 1024-slot table");
        t.insert(key(a, 0, 0), Bdd(20));
        assert_eq!(t.get(key(a, 0, 0)), Some(Bdd(20)));
        assert_eq!(t.get(key(1, 1, 1)), None, "evicted by the collision");
        assert_eq!(t.counters().evictions, 1);
        assert_eq!(t.counters().entries, 1);
    }

    #[test]
    fn grows_to_cap_and_never_beyond() {
        let mut t = ComputedTable::default();
        t.set_max_slots(INITIAL_SLOTS * 4);
        for i in 0..(INITIAL_SLOTS as u32 * 16) {
            t.insert(key(i, i ^ 1, i ^ 2), Bdd(i));
        }
        let c = t.counters();
        assert_eq!(c.capacity, INITIAL_SLOTS * 4);
        assert!(c.entries <= c.capacity);
        assert!(c.evictions > 0, "past the cap inserts must evict");
    }

    #[test]
    fn eviction_pressure_grows_a_half_empty_table() {
        let mut t = ComputedTable::default();
        t.set_max_slots(INITIAL_SLOTS * 8);
        // A pseudo-random insert stream on a direct-mapped table plateaus
        // around ~63% occupancy; only the eviction-pressure trigger can
        // carry it to the cap.
        for i in 0..(INITIAL_SLOTS as u32 * 64) {
            t.insert(key(i.wrapping_mul(2654435761), i, i ^ 7), Bdd(i));
        }
        assert_eq!(t.counters().capacity, INITIAL_SLOTS * 8);
    }

    #[test]
    fn growing_in_place_equals_reinserting_into_a_fresh_table() {
        // Fill a table pinned at its initial size (collisions included),
        // then lift the cap and grow once by hand.
        let mut t = ComputedTable::default();
        t.set_max_slots(INITIAL_SLOTS);
        let n = INITIAL_SLOTS as u32;
        for i in 0..n {
            t.insert(key(i.wrapping_mul(2654435761), i, i ^ 7), Bdd(i));
        }
        t.set_max_slots(INITIAL_SLOTS * 8);
        let before = t.counters();
        assert!(before.evictions > 0 && before.entries > n as usize / 2);
        let mut fresh = vec![EMPTY_SLOT; t.slots.len() * 2];
        for s in &t.slots {
            if s.tag != EMPTY {
                let idx = (mix(s.tag, s.a, s.b, s.c) >> 32) as usize & (fresh.len() - 1);
                assert_eq!(fresh[idx].tag, EMPTY, "a regrown table has no collisions");
                fresh[idx] = *s;
            }
        }
        t.grow();
        let after = t.counters();
        assert_eq!(after.capacity, before.capacity * 2);
        assert_eq!(
            (after.entries, after.hits, after.misses, after.evictions),
            (before.entries, before.hits, before.misses, before.evictions)
        );
        let slots = |v: &[Slot]| -> Vec<(u64, u32, u32, u32, u32)> {
            v.iter().map(|s| (s.tag, s.a, s.b, s.c, s.result)).collect()
        };
        assert_eq!(slots(&t.slots), slots(&fresh));
        for j in 0..n {
            let k = key(j.wrapping_mul(2654435761), j, j ^ 7);
            let present = fresh
                .iter()
                .any(|s| (s.a, s.b, s.c) == (k.1 .0, k.2 .0, k.3 .0));
            assert_eq!(t.get(k).is_some(), present, "entry {j}");
        }
    }

    #[test]
    fn set_max_slots_rounds_and_clamps() {
        let mut t = ComputedTable::default();
        t.set_max_slots(3);
        assert_eq!(t.max_slots, INITIAL_SLOTS);
        t.set_max_slots(usize::MAX / 2);
        assert_eq!(t.max_slots, HARD_MAX_SLOTS);
        t.set_max_slots(5000);
        assert_eq!(t.max_slots, 8192);
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut t = ComputedTable::default();
        for i in 0..100u32 {
            t.insert(key(i, 0, 0), Bdd(i));
        }
        let cap = t.counters().capacity;
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.counters().capacity, cap);
        assert_eq!(t.get(key(5, 0, 0)), None);
    }

    #[test]
    fn iter_reports_decoded_entries() {
        let mut t = ComputedTable::default();
        t.insert((OpTag::Forall(3), Bdd(8), Bdd(1), Bdd(0)), Bdd(4));
        let all: Vec<_> = t.iter().collect();
        assert_eq!(
            all,
            vec![((OpTag::Forall(3), Bdd(8), Bdd(1), Bdd(0)), Bdd(4))]
        );
    }
}
