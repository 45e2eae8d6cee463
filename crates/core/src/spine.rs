//! An append-only vector that readers index without a lock.
//!
//! Elements live in a fixed spine of doubling segments (2^10, 2^11, …
//! slots), allocated on first use. A slot is written exactly once and
//! never moves, so a reader holding an index below [`Spine::len`] reads
//! its element with two acquire loads (segment pointer, slot) and no
//! lock. Appends must be serialized by the caller (a writer mutex).
//! The store's arena and the symbol table are both spines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// log2 of the first segment's slot count.
pub(crate) const SEG0_BITS: u32 = 10;

/// Number of doubling segments: 2^10 + 2^11 + … covers the whole
/// `u32` index space with room to spare.
const SEGMENTS: usize = 22;

pub(crate) struct Spine<T> {
    segments: [OnceLock<Box<[OnceLock<T>]>>; SEGMENTS],
    /// Slots written. Raised (release) only by the appending writer.
    len: AtomicUsize,
}

impl<T> Spine<T> {
    pub(crate) const fn new() -> Spine<T> {
        Spine {
            segments: [const { OnceLock::new() }; SEGMENTS],
            len: AtomicUsize::new(0),
        }
    }

    /// Maps a flat index to (segment, offset). Segment k holds
    /// 2^(10+k) slots, so `i + 2^10` lands in the segment named by its
    /// highest set bit.
    pub(crate) fn locate(i: usize) -> (usize, usize) {
        let j = i + (1 << SEG0_BITS);
        let seg = (usize::BITS - 1 - j.leading_zeros() - SEG0_BITS) as usize;
        let off = j - (1usize << (seg as u32 + SEG0_BITS));
        (seg, off)
    }

    /// Elements appended so far (acquire).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The element at `i`, which must be below [`Spine::len`]. Lock-free.
    pub(crate) fn get(&self, i: usize) -> &T {
        let (seg, off) = Self::locate(i);
        self.segments[seg]
            .get()
            .expect("spine segment missing for a written index")[off]
            .get()
            .expect("spine slot missing for a written index")
    }

    /// Appends `value` and returns its index. Callers serialize appends.
    pub(crate) fn push(&self, value: T) -> usize {
        let i = self.len.load(Ordering::Relaxed);
        let (seg, off) = Self::locate(i);
        let segment = self.segments[seg].get_or_init(|| {
            (0..(1usize << (seg as u32 + SEG0_BITS)))
                .map(|_| OnceLock::new())
                .collect()
        });
        if segment[off].set(value).is_err() {
            unreachable!("spine slot {i} written twice");
        }
        self.len.store(i + 1, Ordering::Release);
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_are_readable_across_segments() {
        let spine = Spine::new();
        for i in 0..3000u32 {
            assert_eq!(spine.push(i), i as usize);
        }
        assert_eq!(spine.len(), 3000);
        assert!((0..3000).all(|i| *spine.get(i) == i as u32));
    }
}
