//! Generational slot arena for typed, stale-checked handles.
//!
//! A [`SlotMap`] hands out a [`SlotKey`] (slot index plus generation)
//! for every insert, and takes an entry out in one of two ways:
//!
//! * [`SlotMap::remove`] moves the value out and hands the slot back to
//!   the next [`SlotMap::insert`] under a bumped generation. The arena
//!   then holds about as many slots as it ever held live entries at
//!   once, not one per insert: the scheduler's running jobs live here.
//! * [`SlotMap::retire`] drops the value and takes the index out of
//!   circulation for good, so an index that was only ever retired is a
//!   stable identifier for the lifetime of the map (callers may expose
//!   `key.index()` in telemetry): the scheduler's instances live here.
//!
//! Either way, every handle issued before the removal fails every access
//! with the typed [`StaleSlot`] error, even after its slot is reused,
//! instead of silently reading another entry's data — the failure mode of
//! raw `usize` indexing. A slot whose generation would wrap on removal is
//! retired instead of reused, so no generation is ever issued twice for
//! the same index.
//!
//! Determinism: reuse takes the most recently removed slot first, and
//! nothing here depends on addresses or hashing, so the arena is safe to
//! use on simulation hot paths that must replay bit-identically.

use std::fmt;

/// A handle into a [`SlotMap`]: slot index plus the generation it was
/// issued at. Ordering is by index (no two live keys share one), so keys
/// can serve as deterministic `BTreeSet`/`BTreeMap` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotKey {
    index: u32,
    generation: u32,
}

impl SlotKey {
    /// The smallest possible key — a range endpoint for ordered-index
    /// scans, never a live handle.
    pub const MIN: SlotKey = SlotKey {
        index: 0,
        generation: 0,
    };
    /// The largest possible key — the other range endpoint.
    pub const MAX: SlotKey = SlotKey {
        index: u32::MAX,
        generation: u32::MAX,
    };

    /// The arena position this key points at. Stable for the lifetime of
    /// the map when the slot is only ever retired; a removed slot's index
    /// is handed to a later insert.
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The generation this key was issued at.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// Typed error for a handle whose entry has since been removed or
/// retired (or that belongs to a different map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleSlot {
    /// The offending key.
    pub key: SlotKey,
}

impl fmt::Display for StaleSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stale slot handle: index {} generation {}",
            self.key.index, self.key.generation
        )
    }
}

impl std::error::Error for StaleSlot {}

#[derive(Debug, Clone)]
struct Slot<T> {
    /// The generation of the key issued for the current (or, when
    /// vacant, the next) occupant.
    generation: u32,
    /// `None` while the slot is vacant: free for reuse or retired.
    value: Option<T>,
}

/// Generational arena with slot reuse; see the module docs.
#[derive(Debug, Clone)]
pub struct SlotMap<T> {
    slots: Vec<Slot<T>>,
    /// Removed slots awaiting reuse, most recently removed last.
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for SlotMap<T> {
    fn default() -> Self {
        SlotMap::new()
    }
}

impl<T> SlotMap<T> {
    /// An empty arena.
    pub fn new() -> Self {
        SlotMap {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Slots the arena holds: live, free for reuse and retired. Without
    /// [`remove`](SlotMap::remove) this is the number of `insert` calls;
    /// with it, the most entries ever live at once plus the retired ones.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot was ever created.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of live entries.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Inserts `value` and returns its handle: into the most recently
    /// removed slot, under that slot's bumped generation, or else into a
    /// fresh slot at generation 0.
    ///
    /// # Panics
    /// Panics if the arena would exceed `u32::MAX` slots.
    pub fn insert(&mut self, value: T) -> SlotKey {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none(), "free slot {index} is occupied");
            slot.value = Some(value);
            return SlotKey {
                index,
                generation: slot.generation,
            };
        }
        let index = u32::try_from(self.slots.len()).expect("slot arena overflow");
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        SlotKey {
            index,
            generation: 0,
        }
    }

    /// True when `key` still points at a live entry.
    pub fn contains(&self, key: SlotKey) -> bool {
        self.slot(key).is_some()
    }

    /// The value behind `key`, or [`StaleSlot`] if it was removed or
    /// retired.
    pub fn get(&self, key: SlotKey) -> Result<&T, StaleSlot> {
        self.slot(key)
            .and_then(|s| s.value.as_ref())
            .ok_or(StaleSlot { key })
    }

    /// Mutable access to the value behind `key`.
    pub fn get_mut(&mut self, key: SlotKey) -> Result<&mut T, StaleSlot> {
        match self.slots.get_mut(key.index()) {
            Some(s) if s.generation == key.generation => s.value.as_mut().ok_or(StaleSlot { key }),
            _ => Err(StaleSlot { key }),
        }
    }

    /// Moves the value behind `key` out and hands its slot back to
    /// [`insert`](SlotMap::insert) under the next generation, so `key`
    /// and every other handle to this entry turn stale. A slot whose
    /// generation is already `u32::MAX` is retired instead: reusing it
    /// would wrap to generation 0 and revive the slot's first key.
    pub fn remove(&mut self, key: SlotKey) -> Result<T, StaleSlot> {
        let slot = match self.slots.get_mut(key.index()) {
            Some(s) if s.generation == key.generation && s.value.is_some() => s,
            _ => return Err(StaleSlot { key }),
        };
        let value = slot.value.take().expect("checked occupied above");
        self.live -= 1;
        if let Some(next) = slot.generation.checked_add(1) {
            slot.generation = next;
            self.free.push(key.index);
        }
        Ok(value)
    }

    /// Drops the value behind `key` and takes its slot out of circulation
    /// for good: `key` and every other handle to it turn stale, and no
    /// later insert reuses its index.
    pub fn retire(&mut self, key: SlotKey) -> Result<(), StaleSlot> {
        match self.slots.get_mut(key.index()) {
            Some(s) if s.generation == key.generation && s.value.is_some() => {
                s.value = None;
                self.live -= 1;
                Ok(())
            }
            _ => Err(StaleSlot { key }),
        }
    }

    /// Live entries in index order. While no slot has been reused, that
    /// is insertion order; after a [`remove`](SlotMap::remove) it is not.
    pub fn iter(&self) -> impl Iterator<Item = (SlotKey, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            let key = SlotKey {
                index: i as u32,
                generation: s.generation,
            };
            s.value.as_ref().map(|v| (key, v))
        })
    }

    fn slot(&self, key: SlotKey) -> Option<&Slot<T>> {
        self.slots
            .get(key.index())
            .filter(|s| s.generation == key.generation && s.value.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get_roundtrips() {
        let mut m = SlotMap::new();
        let a = m.insert("a");
        let b = m.insert("b");
        assert_eq!(m.get(a), Ok(&"a"));
        assert_eq!(m.get(b), Ok(&"b"));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(m.len(), 2);
        assert_eq!(m.live_len(), 2);
    }

    #[test]
    fn retired_handles_fail_typed() {
        let mut m = SlotMap::new();
        let k = m.insert(7u32);
        assert!(m.retire(k).is_ok());
        assert_eq!(m.get(k), Err(StaleSlot { key: k }));
        assert!(m.get_mut(k).is_err());
        assert_eq!(m.retire(k), Err(StaleSlot { key: k }), "double retire");
        assert_eq!(
            m.remove(k),
            Err(StaleSlot { key: k }),
            "remove after retire"
        );
        assert!(!m.contains(k));
        assert_eq!(m.len(), 1, "slot is kept, not reused");
        assert_eq!(m.live_len(), 0);
    }

    #[test]
    fn slots_are_never_reused() {
        // Retired slots, that is; removed ones are (next test).
        let mut m = SlotMap::new();
        let a = m.insert(1);
        m.retire(a).unwrap();
        let b = m.insert(2);
        assert_ne!(a.index(), b.index(), "new inserts take fresh slots");
        assert_eq!(m.get(b), Ok(&2));
        assert!(m.get(a).is_err());
    }

    #[test]
    fn removed_slots_are_reused_under_a_new_generation() {
        let mut m = SlotMap::new();
        let a = m.insert(1);
        let b = m.insert(2);
        assert_eq!(m.remove(a), Ok(1), "remove moves the value out");
        assert_eq!(m.remove(a), Err(StaleSlot { key: a }), "double remove");
        let c = m.insert(3);
        assert_eq!(c.index(), a.index(), "the removed slot is reused");
        assert_eq!(c.generation(), a.generation() + 1);
        assert_eq!(m.get(a), Err(StaleSlot { key: a }), "old key stays stale");
        assert!(m.get_mut(a).is_err());
        assert_eq!(m.get(c), Ok(&3));
        assert_eq!(m.get(b), Ok(&2));
        assert_eq!((m.len(), m.live_len()), (2, 2));
    }

    #[test]
    fn a_slot_at_the_last_generation_is_retired_not_reused() {
        let mut m = SlotMap::new();
        let a = m.insert(1);
        m.remove(a).unwrap();
        // Fast-forward the slot to its last generation.
        m.slots[0].generation = u32::MAX;
        let last = m.insert(2);
        assert_eq!((last.index(), last.generation()), (0, u32::MAX));
        assert_eq!(m.remove(last), Ok(2));
        let fresh = m.insert(3);
        assert_eq!(fresh.index(), 1, "the exhausted slot is not reused");
        for key in [a, last] {
            assert!(!m.contains(key));
        }
        assert_eq!((m.len(), m.live_len()), (2, 1));
    }

    #[test]
    fn iteration_is_in_index_order_over_live_slots() {
        let mut m = SlotMap::new();
        let keys: Vec<_> = (0..5).map(|v| m.insert(v)).collect();
        m.retire(keys[1]).unwrap();
        m.retire(keys[3]).unwrap();
        let seen: Vec<_> = m.iter().map(|(k, &v)| (k.index(), v)).collect();
        assert_eq!(seen, vec![(0, 0), (2, 2), (4, 4)]);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut m = SlotMap::new();
        let k = m.insert(10);
        *m.get_mut(k).unwrap() += 5;
        assert_eq!(m.get(k), Ok(&15));
    }

    #[test]
    fn foreign_out_of_bounds_key_is_stale_not_a_panic() {
        let m: SlotMap<i32> = SlotMap::new();
        assert!(m.get(SlotKey::MAX).is_err());
    }

    #[test]
    fn key_ordering_follows_index() {
        let mut m = SlotMap::new();
        let a = m.insert(());
        let b = m.insert(());
        assert!(a < b);
        assert!(SlotKey::MIN <= a && b <= SlotKey::MAX);
    }

    #[test]
    fn stale_slot_displays_both_coordinates() {
        let mut m = SlotMap::new();
        let k = m.insert(());
        m.retire(k).unwrap();
        let err = m.get(k).unwrap_err();
        assert!(err.to_string().contains("index 0"));
        assert!(err.to_string().contains("generation 0"));
    }
}
