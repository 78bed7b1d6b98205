//! The solver's clause store: every clause inline in one `Vec<u32>`, as in
//! MiniSat's region allocator.
//!
//! A clause is a record of `3 + len` words at its offset, its `cref`:
//!
//! | words          | content                                           |
//! |----------------|---------------------------------------------------|
//! | `0`            | header `len << 2 \| flags` (deleted 1, learnt 2)  |
//! | `1`, `2`       | activity: the low and high halves of an `f64`     |
//! | `3 .. 3 + len` | literal codes                                     |
//!
//! Propagation thus reads a clause's flags and literals from one place
//! instead of chasing a per-clause heap allocation.
//!
//! Deleting a clause only sets its flag; propagation purges its watchers
//! lazily. [`ClauseArena::compact`] slides the surviving records down, in
//! order, once dead words pass a fifth of the arena. A deleted clause that
//! a watcher still points at survives as a one-word *tombstone* (a header
//! with `len = 0`), so no watcher moves within its list and the search is
//! unchanged; a deleted clause no watcher points at is dropped whole.

use crate::types::Lit;

const DELETED: u32 = 1;
const LEARNT: u32 = 2;
const FLAG_BITS: u32 = 2;
/// Words before a clause's literals: header and activity.
const PREFIX: usize = 3;
/// A deleted clause cut down to its header.
const TOMBSTONE: u32 = DELETED;

/// Words taken by the record whose header is `header`.
#[inline]
fn record_words(header: u32) -> usize {
    match header >> FLAG_BITS {
        0 => 1,
        len => PREFIX + len as usize,
    }
}

/// Every clause of a [`Solver`](crate::Solver), inline.
#[derive(Default)]
pub(crate) struct ClauseArena {
    words: Vec<u32>,
    /// Words held by deleted clauses, tombstones included: what the next
    /// compaction could reclaim.
    wasted: usize,
}

/// Where [`ClauseArena::compact`] moved each surviving record.
pub(crate) struct Forwarding(Vec<u32>);

impl Forwarding {
    /// New `cref` of the record that was at `cref`. Only meaningful for
    /// records that survived: live clauses and pinned tombstones.
    #[inline]
    pub(crate) fn get(&self, cref: u32) -> u32 {
        self.0[cref as usize]
    }
}

impl ClauseArena {
    /// Appends a clause of at least two literals with zero activity and
    /// returns its `cref`.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        assert!(lits.len() < 1 << (32 - FLAG_BITS), "clause too long");
        let cref = u32::try_from(self.words.len()).expect("clause arena overflow");
        let flags = if learnt { LEARNT } else { 0 };
        self.words.push((lits.len() as u32) << FLAG_BITS | flags);
        self.words.extend([0, 0]);
        self.words.extend(lits.iter().map(|l| l.raw()));
        cref
    }

    #[inline]
    pub(crate) fn is_deleted(&self, cref: u32) -> bool {
        self.words[cref as usize] & DELETED != 0
    }

    #[inline]
    pub(crate) fn is_learnt(&self, cref: u32) -> bool {
        self.words[cref as usize] & LEARNT != 0
    }

    /// The clause's literal codes (see [`Lit::from_raw`]); empty for a
    /// tombstone.
    #[inline]
    pub(crate) fn lits(&self, cref: u32) -> &[u32] {
        let c = cref as usize;
        let start = c + PREFIX;
        &self.words[start..start + (self.words[c] >> FLAG_BITS) as usize]
    }

    /// A live clause's literal codes, for reordering its watches in place;
    /// `None` once the clause is deleted. One header read serves both.
    #[inline]
    pub(crate) fn live_lits_mut(&mut self, cref: u32) -> Option<&mut [u32]> {
        let c = cref as usize;
        let header = self.words[c];
        if header & DELETED != 0 {
            return None;
        }
        let start = c + PREFIX;
        Some(&mut self.words[start..start + (header >> FLAG_BITS) as usize])
    }

    pub(crate) fn activity(&self, cref: u32) -> f64 {
        let c = cref as usize;
        f64::from_bits(u64::from(self.words[c + 1]) | u64::from(self.words[c + 2]) << 32)
    }

    pub(crate) fn set_activity(&mut self, cref: u32, activity: f64) {
        let c = cref as usize;
        let bits = activity.to_bits();
        self.words[c + 1] = bits as u32;
        self.words[c + 2] = (bits >> 32) as u32;
    }

    /// Multiplies the activity of every live learnt clause by `factor`.
    pub(crate) fn scale_activities(&mut self, factor: f64) {
        let mut c = 0;
        while c < self.words.len() {
            let header = self.words[c];
            let cref = c as u32;
            if header & (DELETED | LEARNT) == LEARNT {
                self.set_activity(cref, self.activity(cref) * factor);
            }
            c += record_words(header);
        }
    }

    /// Marks a clause deleted. Its words stay until the next compaction.
    pub(crate) fn delete(&mut self, cref: u32) {
        let header = &mut self.words[cref as usize];
        debug_assert_eq!(*header & DELETED, 0);
        *header |= DELETED;
        self.wasted += record_words(*header);
    }

    /// Every record's `cref`, deleted ones included, in allocation order.
    pub(crate) fn crefs(&self) -> impl Iterator<Item = u32> + '_ {
        let mut c = 0;
        std::iter::from_fn(move || {
            let cref = c;
            c += record_words(*self.words.get(c)?);
            Some(cref as u32)
        })
    }

    /// `true` once more than a fifth of the arena is dead (MiniSat's
    /// garbage fraction).
    pub(crate) fn needs_compaction(&self) -> bool {
        self.wasted * 5 > self.words.len()
    }

    /// Slides every live clause down over the dead words, keeping clause
    /// order. The deleted clauses in `pinned` (sorted, each still on some
    /// watch list) shrink to tombstones; every other deleted clause goes.
    /// The caller rewrites each `cref` it holds through the returned
    /// [`Forwarding`].
    pub(crate) fn compact(&mut self, pinned: &[u32]) -> Forwarding {
        let mut to = Vec::with_capacity(self.words.len() - self.wasted + pinned.len());
        let mut pinned = pinned.iter().copied().peekable();
        let mut tombstones = 0;
        let mut c = 0;
        while c < self.words.len() {
            let header = self.words[c];
            let size = record_words(header);
            let survivor = if header & DELETED == 0 {
                Some(&self.words[c..c + size])
            } else if pinned.next_if_eq(&(c as u32)).is_some() {
                tombstones += 1;
                Some(&[TOMBSTONE][..])
            } else {
                None
            };
            if let Some(record) = survivor {
                // `to` never outgrows the offsets already walked, which are
                // `cref`s and so fit a `u32`; the spent header then holds
                // the forwarding address.
                let moved = to.len() as u32;
                to.extend_from_slice(record);
                self.words[c] = moved;
            }
            c += size;
        }
        debug_assert!(pinned.next().is_none(), "pinned a live or unknown cref");
        self.wasted = tombstones;
        Forwarding(std::mem::replace(&mut self.words, to))
    }

    /// Arena length in words.
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// Dead words the next compaction could reclaim.
    #[cfg(test)]
    pub(crate) fn wasted(&self) -> usize {
        self.wasted
    }
}
