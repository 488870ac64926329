//! A sliding id window: the dense table behind the dispatcher's thread
//! and instance records.
//!
//! Thread ids and per-task instance numbers are handed out monotonically
//! and their records are short-lived, so the live ones sit in a narrow,
//! moving range of ids. [`IdWindow`] stores that range as a deque indexed
//! by `id − base`: a look-up is one subtraction and one bounds check, the
//! front is trimmed as records retire, and iteration is in ascending id
//! order. The records themselves live in a slab whose retired entries
//! are reused, so a run allocates for the most records it holds at once,
//! not once per id. A record that never retires pins the front and costs
//! one empty slot (4 bytes) per id handed out after it.

use std::collections::VecDeque;

/// A window slot that holds no record, and the end of the free list.
const EMPTY: u32 = u32::MAX;

/// One slab entry: a record, or a link in the list of free entries.
#[derive(Debug)]
enum Entry<T> {
    Held(T),
    Free { next: u32 },
}

#[derive(Debug)]
pub(crate) struct IdWindow<T> {
    /// Id of `slots[0]`; everything below it has retired.
    base: u64,
    /// Per id, the index of its record in `slab`, or [`EMPTY`].
    slots: VecDeque<u32>,
    /// The records, and the entries retired records left free.
    slab: Vec<Entry<T>>,
    /// The first free `slab` entry, or [`EMPTY`].
    free: u32,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
            slab: Vec::new(),
            free: EMPTY,
        }
    }
}

impl<T> IdWindow<T> {
    /// The id the next [`IdWindow::push`] hands out.
    pub(crate) fn next_id(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Stores `value` under the next id and returns that id.
    pub(crate) fn push(&mut self, value: T) -> u64 {
        let id = self.next_id();
        let at = if self.free == EMPTY {
            // Doubling from one entry, not from `Vec`'s four: most
            // windows (one per task) hold one or two records at a time.
            if self.slab.len() == self.slab.capacity() {
                self.slab.reserve_exact(self.slab.len().max(1));
            }
            self.slab.push(Entry::Held(value));
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 live records")
        } else {
            let at = self.free;
            match std::mem::replace(&mut self.slab[at as usize], Entry::Held(value)) {
                Entry::Free { next } => self.free = next,
                Entry::Held(_) => unreachable!("the free list names a held entry"),
            }
            at
        };
        self.slots.push_back(at);
        id
    }

    /// The slab index of `id`'s record, if it holds one.
    fn entry(&self, id: u64) -> Option<usize> {
        let slot = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.slots
            .get(slot)
            .filter(|at| **at != EMPTY)
            .map(|at| *at as usize)
    }

    /// The record in slab entry `at`, which a slot names.
    fn held(&self, at: usize) -> &T {
        match &self.slab[at] {
            Entry::Held(value) => value,
            Entry::Free { .. } => unreachable!("a slot names a free entry"),
        }
    }

    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        Some(self.held(self.entry(id)?))
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let at = self.entry(id)?;
        match &mut self.slab[at] {
            Entry::Held(value) => Some(value),
            Entry::Free { .. } => unreachable!("a slot names a free entry"),
        }
    }

    /// Takes the record of `id` out, then trims every retired id off the
    /// front.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let at = self.entry(id)?;
        self.slots[(id - self.base) as usize] = EMPTY;
        while self.slots.front() == Some(&EMPTY) {
            self.slots.pop_front();
            self.base += 1;
        }
        let next = std::mem::replace(&mut self.free, at as u32);
        match std::mem::replace(&mut self.slab[at], Entry::Free { next }) {
            Entry::Held(value) => Some(value),
            Entry::Free { .. } => unreachable!("a slot names a free entry"),
        }
    }

    /// Number of records held (counted: for reports and tests).
    pub(crate) fn len(&self) -> usize {
        self.values().count()
    }

    /// The records held, in ascending id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, value)| value)
    }

    /// The records held with their ids, in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let ids = self.base..;
        ids.zip(&self.slots)
            .filter(|(_, at)| **at != EMPTY)
            .map(|(id, at)| (id, self.held(*at as usize)))
    }

    /// Number of slots the window spans, holes included.
    #[cfg(test)]
    pub(crate) fn span(&self) -> usize {
        self.slots.len()
    }
}

impl<T> std::ops::Index<u64> for IdWindow<T> {
    type Output = T;

    fn index(&self, id: u64) -> &T {
        self.get(id).expect("no record under this id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_handed_out_in_order_and_address_their_records() {
        let mut w = IdWindow::default();
        assert_eq!(w.next_id(), 0);
        assert_eq!((w.push("a"), w.push("b"), w.push("c")), (0, 1, 2));
        assert_eq!((w.len(), w.next_id()), (3, 3));
        assert_eq!(w.get(1), Some(&"b"));
        assert_eq!(w[2], "c");
        *w.get_mut(1).unwrap() = "B";
        assert_eq!(w.remove(1), Some("B"));
        assert_eq!(w.remove(1), None, "already retired");
        assert_eq!((w.get(1), w.get(3), w.get(u64::MAX)), (None, None, None));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn the_front_is_trimmed_past_holes() {
        let mut w = IdWindow::default();
        for i in 0..5u64 {
            w.push(i);
        }
        // Holes behind a live front entry stay...
        w.remove(1);
        w.remove(2);
        assert_eq!(w.span(), 5);
        // ...and go with it, up to the next live record.
        w.remove(0);
        assert_eq!((w.span(), w.len()), (2, 2));
        assert_eq!((w.get(0), w.get(2), w.get(3)), (None, None, Some(&3)));
        w.remove(4);
        w.remove(3);
        assert_eq!((w.span(), w.len(), w.next_id()), (0, 0, 5));
        assert_eq!(w.push(50), 5, "ids go on where they left off");
    }

    #[test]
    fn a_pinned_front_entry_keeps_later_ids_addressable() {
        let mut w = IdWindow::default();
        w.push(0u64); // never retires
        for id in 1..1000u64 {
            assert_eq!(w.push(id), id);
            if id > 1 {
                assert_eq!(w.remove(id - 1), Some(id - 1));
            }
        }
        // One record is pinned, one is live, everything between is holes.
        assert_eq!((w.len(), w.span()), (2, 1000));
        assert_eq!(
            (w.get(0), w.get(500), w.get(999)),
            (Some(&0), None, Some(&999))
        );
    }

    #[test]
    fn iteration_is_in_ascending_id_order() {
        let mut w = IdWindow::default();
        for i in 0..8u64 {
            w.push(i * 10);
        }
        for id in [6, 1, 4] {
            w.remove(id);
        }
        assert_eq!(w.values().copied().collect::<Vec<_>>(), [0, 20, 30, 50, 70]);
    }
}
