//! Bounded FIFO rings with NVMe capacity semantics.
//!
//! A submission or completion queue of `size` slots holds at most
//! `size - 1` entries: the NVMe specification sacrifices one slot so
//! that `head == tail` means empty and `tail + 1 == head` (mod size)
//! means full. [`Ring`] keeps exactly that contract — capacity
//! `size - 1`, full at `len + 1 == size`, FIFO order — without modelling
//! the slot array itself. Entries live in a `VecDeque` that grows only
//! to the occupancy the ring actually reaches, so a 4096-deep queue
//! pair that never holds more than a dozen commands costs a dozen
//! entries of memory, and every push and pop stays in cache.

use std::collections::VecDeque;

/// A bounded FIFO ring.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    entries: VecDeque<T>,
    size: usize,
}

impl<T> Ring<T> {
    /// Creates a ring with capacity `size - 1` (one slot reserved, per
    /// NVMe full/empty disambiguation). Reserves no entry storage until
    /// the first push.
    ///
    /// # Panics
    ///
    /// Panics if `size < 2`.
    pub fn new(size: usize) -> Self {
        assert!(size >= 2, "ring needs at least two slots");
        Ring {
            entries: VecDeque::new(),
            size,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if one more push would be rejected.
    pub fn is_full(&self) -> bool {
        self.entries.len() + 1 == self.size
    }

    /// Usable capacity (`size - 1`).
    pub fn capacity(&self) -> usize {
        self.size - 1
    }

    /// Entries the ring has storage reserved for — its high-water
    /// occupancy so far, never the full `size`.
    pub fn reserved(&self) -> usize {
        self.entries.capacity()
    }

    /// Enqueues an entry; returns it back if the ring is full.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        if self.is_full() {
            return Err(v);
        }
        self.entries.push_back(v);
        Ok(())
    }

    /// Dequeues the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        self.entries.pop_front()
    }

    /// Discards every queued entry, keeping the reserved storage.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut r = Ring::new(4);
        r.push(1).expect("push");
        r.push(2).expect("push");
        r.push(3).expect("push");
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn capacity_is_size_minus_one() {
        let mut r = Ring::new(4);
        assert_eq!(r.capacity(), 3);
        r.push(1).expect("1");
        r.push(2).expect("2");
        r.push(3).expect("3");
        assert!(r.is_full());
        assert_eq!(r.push(4), Err(4));
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut r = Ring::new(4);
        for round in 0..10 {
            r.push(round * 2).expect("push a");
            r.push(round * 2 + 1).expect("push b");
            assert_eq!(r.pop(), Some(round * 2));
            assert_eq!(r.pop(), Some(round * 2 + 1));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn len_tracks() {
        let mut r = Ring::new(8);
        assert_eq!(r.len(), 0);
        r.push(()).expect("push");
        r.push(()).expect("push");
        assert_eq!(r.len(), 2);
        r.pop();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn clear_empties_and_keeps_storage() {
        let mut r = Ring::new(8);
        for i in 0..5 {
            r.push(i).expect("push");
        }
        let reserved = r.reserved();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.reserved(), reserved);
    }

    #[test]
    fn storage_grows_with_occupancy_not_size() {
        let mut r = Ring::new(4096);
        assert_eq!(r.reserved(), 0, "a fresh ring reserves nothing");
        for round in 0..100 {
            r.push(round).expect("push");
            r.push(round + 1).expect("push");
            r.pop();
            r.pop();
        }
        assert!(r.reserved() < 64, "reserved {}", r.reserved());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_ring_rejected() {
        Ring::<u8>::new(1);
    }
}
