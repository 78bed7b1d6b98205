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
//!
//! A slot is 16 bytes: three key words and the result (see [`pack`]). The
//! operation's discriminant rides in the top three bits of the first
//! operand, the quantifiers' and `compose`'s payload in the key word their
//! operation leaves unused, and the fused quantified-AND packs its varset
//! position and id into 16 bits each. Keys still compare exactly; a key
//! that does not fit is not memoized. The slot index is a hash of the
//! unpacked key, so hits and evictions do not depend on the packing.

use crate::manager::{Bdd, OpTag};

/// Initial slot count of a fresh table (power of two).
const INITIAL_SLOTS: usize = 1 << 10;

/// Default slot cap: ~1M slots × 16 B = 16 MiB, far below the node arenas
/// it serves. [`ComputedTable::set_max_slots`] adjusts it.
const DEFAULT_MAX_SLOTS: usize = 1 << 20;

/// Hard ceiling on the slot cap, whatever the caller asks for.
const HARD_MAX_SLOTS: usize = 1 << 24;

/// Low bits of a slot's first key word holding the first operand; the top
/// three hold the operation's discriminant.
const OPERAND_BITS: u32 = 29;

/// First operands must stay below this to be memoized: the all-ones first
/// word (discriminant 7 with operand `2^29 - 1`) is [`EMPTY`]. The node
/// arena stops at this many slots (`Manager::mk`), so every node id fits.
pub(crate) const OPERAND_LIMIT: u32 = (1 << OPERAND_BITS) - 1;

/// Bits per half of the packed `(pos, varset id)` word of the fused ops.
const HALF_BITS: u32 = 16;

/// First key word of an empty slot; see [`OPERAND_LIMIT`].
const EMPTY: u32 = u32::MAX;

/// Encodes an [`OpTag`] into the low 35 bits of a `u64`: 3 bits of variant
/// discriminant plus an optional 32-bit payload (varset id / variable).
/// Slot indices hash this word with the three operands, so they do not
/// depend on how a slot packs its key.
#[inline]
fn encode_tag(tag: OpTag) -> u64 {
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

/// A key as the three words a [`Slot`] stores:
///
/// * word 0: discriminant (as in [`encode_tag`]) `<< 29 | a`;
/// * `Ite`, `Not`, `Restrict`: `b`, `c`;
/// * `Exists(id)`, `Forall(id)`: `b` (the varset position), `id` in the
///   word `c` would hold — their `c` is always `⊥`;
/// * `Compose(var)`: `b` (the substituted function), `var` likewise;
/// * `AndExists(id)`, `AndForall(id)`: `b`, then `pos << 16 | id` where
///   `pos` is `c`, the varset position.
///
/// `None` when the key does not fit (`a ≥ 2^29 − 1`, a position or varset
/// id `≥ 2^16`, or a nonzero `c` where the payload goes): such a key is
/// simply not memoized, which a lossy table allows.
#[inline]
fn pack(tag: OpTag, a: u32, b: u32, c: u32) -> Option<[u32; 3]> {
    if a >= OPERAND_LIMIT {
        return None;
    }
    let half = |pos: u32, id: u32| {
        (pos >> HALF_BITS == 0 && id >> HALF_BITS == 0).then_some(pos << HALF_BITS | id)
    };
    let (disc, k1, k2) = match tag {
        OpTag::Ite => (0, b, c),
        OpTag::Not => (1, b, c),
        OpTag::Exists(id) if c == 0 => (2, b, id),
        OpTag::Forall(id) if c == 0 => (3, b, id),
        OpTag::Compose(var) if c == 0 => (4, b, var),
        OpTag::Restrict => (5, b, c),
        OpTag::AndExists(id) => (6, b, half(c, id)?),
        OpTag::AndForall(id) => (7, b, half(c, id)?),
        OpTag::Exists(_) | OpTag::Forall(_) | OpTag::Compose(_) => return None,
    };
    Some([disc << OPERAND_BITS | a, k1, k2])
}

/// Inverse of [`pack`]: the `(tag, a, b, c)` key of an occupied slot.
#[inline]
fn unpack([k0, k1, k2]: [u32; 3]) -> (OpTag, u32, u32, u32) {
    let a = k0 & ((1 << OPERAND_BITS) - 1);
    let low = k2 & ((1 << HALF_BITS) - 1);
    let high = k2 >> HALF_BITS;
    match k0 >> OPERAND_BITS {
        0 => (OpTag::Ite, a, k1, k2),
        1 => (OpTag::Not, a, k1, k2),
        2 => (OpTag::Exists(k2), a, k1, 0),
        3 => (OpTag::Forall(k2), a, k1, 0),
        4 => (OpTag::Compose(k2), a, k1, 0),
        5 => (OpTag::Restrict, a, k1, k2),
        6 => (OpTag::AndExists(low), a, k1, high),
        _ => (OpTag::AndForall(low), a, k1, high),
    }
}

/// One direct-mapped slot: the packed operation key and its result.
#[derive(Clone, Copy)]
struct Slot {
    key: [u32; 3],
    result: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

const EMPTY_SLOT: Slot = Slot {
    key: [EMPTY, 0, 0],
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

/// Slot hash of a key's four words: [`crate::hash::mix`] plus a final
/// avalanche, since slot indices keep the low bits.
#[inline]
fn mix(tag: u64, a: u32, b: u32, c: u32) -> u64 {
    let h = crate::hash::mix([tag, u64::from(a), u64::from(b), u64::from(c)]);
    (h ^ h >> 32).wrapping_mul(0xd6e8_feb8_6659_fd93)
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
    fn index(&self, tag: OpTag, a: u32, b: u32, c: u32) -> usize {
        // High bits are the best-mixed; fold them onto the mask.
        (mix(encode_tag(tag), a, b, c) >> 32) as usize & self.mask
    }

    /// Looks up a memoized result. A key [`pack`] cannot hold always
    /// misses.
    #[inline]
    pub(crate) fn get(&mut self, key: (OpTag, Bdd, Bdd, Bdd)) -> Option<Bdd> {
        let (tag, a, b, c) = (key.0, key.1 .0, key.2 .0, key.3 .0);
        if let Some(words) = pack(tag, a, b, c) {
            let slot = &self.slots[self.index(tag, a, b, c)];
            if slot.key == words {
                self.hits += 1;
                return Some(Bdd(slot.result));
            }
        }
        self.misses += 1;
        None
    }

    /// Inserts a result, overwriting whatever occupied the slot; a key
    /// [`pack`] cannot hold is dropped.
    ///
    /// Growth fires on either of two pressures: occupancy crossing 3/4
    /// (a table filling up cleanly) or the evictions since the last
    /// growth exceeding half the slot count. The second trigger matters
    /// because a direct-mapped table overwrites on collision — occupancy
    /// saturates well below 3/4 while inserts churn the same slots, so
    /// an occupancy-only heuristic stalls the table far under its cap
    /// and every probe past that point thrashes.
    pub(crate) fn insert(&mut self, key: (OpTag, Bdd, Bdd, Bdd), value: Bdd) {
        let (tag, a, b, c) = (key.0, key.1 .0, key.2 .0, key.3 .0);
        let Some(words) = pack(tag, a, b, c) else {
            return;
        };
        if self.slots.len() < self.max_slots
            && (self.occupied * 4 >= self.slots.len() * 3
                || self.evictions_since_grow as usize * 2 >= self.slots.len())
        {
            self.grow();
        }
        let idx = self.index(tag, a, b, c);
        let slot = &mut self.slots[idx];
        if slot.key[0] == EMPTY {
            self.occupied += 1;
        } else if slot.key != words {
            self.evictions += 1;
            self.evictions_since_grow += 1;
        }
        *slot = Slot {
            key: words,
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
            if slot.key[0] == EMPTY {
                continue;
            }
            let (tag, a, b, c) = unpack(slot.key);
            if self.index(tag, a, b, c) != i {
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
        self.slots.iter().filter(|s| s.key[0] != EMPTY).map(|s| {
            let (tag, a, b, c) = unpack(s.key);
            ((tag, Bdd(a), Bdd(b), Bdd(c)), Bdd(s.result))
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
    fn every_tag_round_trips_at_its_boundary_payloads() {
        let top = OPERAND_LIMIT - 1;
        let half = (1 << HALF_BITS) - 1;
        let keys = [
            (OpTag::Ite, top, u32::MAX, u32::MAX),
            (OpTag::Ite, 0, 0, 0),
            (OpTag::Not, top, 0, 0),
            (OpTag::Not, 2, u32::MAX, 7),
            (OpTag::Exists(u32::MAX), top, u32::MAX, 0),
            (OpTag::Exists(0), 0, 0, 0),
            (OpTag::Forall(u32::MAX), top, u32::MAX, 0),
            (OpTag::Forall(19), 5, 3, 0),
            (OpTag::Compose(u32::MAX), top, u32::MAX, 0),
            (OpTag::Compose(0), 9, 1, 0),
            (OpTag::Restrict, top, u32::MAX, u32::MAX),
            (OpTag::AndExists(half), top, u32::MAX, half),
            (OpTag::AndExists(0), 0, 0, 0),
            (OpTag::AndForall(half), top, u32::MAX, half),
            (OpTag::AndForall(0), 3, 4, half),
        ];
        for (tag, a, b, c) in keys {
            let words = pack(tag, a, b, c).unwrap_or_else(|| panic!("{tag:?} fits"));
            assert_ne!(words[0], EMPTY, "{tag:?} must not read as empty");
            assert_eq!(unpack(words), (tag, a, b, c));
        }
    }

    #[test]
    fn keys_that_do_not_fit_are_not_packed() {
        let limit = 1 << HALF_BITS;
        for (tag, a, b, c) in [
            (OpTag::Ite, OPERAND_LIMIT, 0, 0),
            (OpTag::Not, u32::MAX, 0, 0),
            (OpTag::Exists(1), 2, 0, 1),
            (OpTag::Forall(1), 2, 0, 1),
            (OpTag::Compose(1), 2, 3, 1),
            (OpTag::AndExists(limit), 2, 3, 0),
            (OpTag::AndForall(0), 2, 3, limit),
            (OpTag::AndForall(limit), 2, 3, limit),
        ] {
            assert_eq!(pack(tag, a, b, c), None, "{tag:?} ({a}, {b}, {c})");
        }
    }

    #[test]
    fn an_unpackable_key_is_a_miss_and_is_never_stored() {
        let mut t = ComputedTable::default();
        let key = (OpTag::AndForall(1 << HALF_BITS), Bdd(2), Bdd(3), Bdd(0));
        t.insert(key, Bdd(1));
        assert_eq!(t.get(key), None);
        let c = t.counters();
        assert_eq!((c.entries, c.hits, c.misses, c.evictions), (0, 0, 1, 0));
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
        let target = t.index(OpTag::Ite, 1, 1, 1);
        let mut other = None;
        for a in 2..100_000u32 {
            if t.index(OpTag::Ite, a, 0, 0) == target {
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
        // carry it to the cap. (First operands are shifted below 2^29 so
        // every key packs.)
        for i in 0..(INITIAL_SLOTS as u32 * 64) {
            t.insert(key(i.wrapping_mul(2654435761) >> 3, i, i ^ 7), Bdd(i));
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
            t.insert(key(i.wrapping_mul(2654435761) >> 3, i, i ^ 7), Bdd(i));
        }
        t.set_max_slots(INITIAL_SLOTS * 8);
        let before = t.counters();
        assert!(before.evictions > 0 && before.entries > n as usize / 2);
        let mut fresh = vec![EMPTY_SLOT; t.slots.len() * 2];
        for s in &t.slots {
            if s.key[0] != EMPTY {
                let (tag, a, b, c) = unpack(s.key);
                let idx = (mix(encode_tag(tag), a, b, c) >> 32) as usize & (fresh.len() - 1);
                assert_eq!(
                    fresh[idx].key[0], EMPTY,
                    "a regrown table has no collisions"
                );
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
        let slots =
            |v: &[Slot]| -> Vec<([u32; 3], u32)> { v.iter().map(|s| (s.key, s.result)).collect() };
        assert_eq!(slots(&t.slots), slots(&fresh));
        for j in 0..n {
            let k = key(j.wrapping_mul(2654435761) >> 3, j, j ^ 7);
            let present = fresh
                .iter()
                .any(|s| s.key == pack(k.0, k.1 .0, k.2 .0, k.3 .0).unwrap());
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
