//! The one candidate de-duplication helper of the multi-table indexes
//! ([`crate::MihIndex`], [`crate::MultiHashTable`], [`crate::HEngine`],
//! [`crate::HmSearch`]): a row stored in `T` tables can surface in up to
//! `T` probed buckets, and must be verified and emitted once.
//!
//! A zeroed `vec![false; n]` per query makes every select cost O(n) no
//! matter how few buckets it touches. [`SeenSet`] keeps one mark byte per
//! row across queries and *stamps* instead of clearing: [`SeenSet::begin`]
//! bumps an 8-bit stamp, a row counts as seen iff its mark equals the
//! current stamp, and the marks are zeroed only when the stamp wraps (once
//! per 255 queries), so a query costs O(1) to reset plus O(candidates).
//!
//! **Exactness.** Invariant: at every `begin`, no mark equals the new
//! stamp. Stamps run 1, 2, …, 255; marks only ever hold 0 or a stamp that
//! was current when they were written, i.e. one *strictly smaller* than
//! the new stamp since the last clear — and the step from 255 back to 1
//! clears every mark first. Hence during a query `marks[row] == stamp` ⇔
//! `test_and_set(row)` already ran in *this* query, which is precisely
//! what the zeroed bitmap computed. Marks left by a larger index, another
//! index, or rows beyond the current `n` are just stale stamps under the
//! same argument.

use std::cell::RefCell;

/// Epoch-stamped visited marks (see the module docs).
#[derive(Default)]
pub(crate) struct SeenSet {
    marks: Vec<u8>,
    stamp: u8,
}

impl SeenSet {
    /// Starts a query over rows `0..n`: nothing is seen.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        if self.stamp == u8::MAX {
            self.marks.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// Marks `row` seen; returns whether it already was in this query.
    #[inline]
    pub(crate) fn test_and_set(&mut self, row: usize) -> bool {
        std::mem::replace(&mut self.marks[row], self.stamp) == self.stamp
    }
}

thread_local! {
    /// Each thread's long-lived [`SeenSet`] — one byte per row of the
    /// largest index the thread has searched.
    static SEEN: RefCell<SeenSet> = RefCell::new(SeenSet::default());
}

/// Runs `f` on this thread's [`SeenSet`], begun for `n` rows. Take/replace
/// rather than `borrow_mut` (the `ha_store::view::with_scratch` pattern) so
/// a re-entrant search sees a fresh set instead of a borrow panic.
pub(crate) fn with_seen<R>(n: usize, f: impl FnOnce(&mut SeenSet) -> R) -> R {
    SEEN.with(|cell| {
        let mut seen = cell.take();
        seen.begin(n);
        let r = f(&mut seen);
        cell.replace(seen);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_visit_is_unseen_second_is_seen() {
        let mut s = SeenSet::default();
        s.begin(8);
        assert!(!s.test_and_set(3));
        assert!(s.test_and_set(3));
        assert!(!s.test_and_set(7));
        s.begin(8);
        assert!(!s.test_and_set(3), "a new query forgets the last one");
    }

    #[test]
    fn stamp_wrap_clears_instead_of_aliasing() {
        let mut s = SeenSet::default();
        s.begin(4);
        assert!(!s.test_and_set(0)); // marked with stamp 1
        for _ in 0..254 {
            s.begin(4); // stamps 2..=255, row 0 untouched
        }
        s.begin(4); // wraps back to stamp 1: row 0's old mark must not alias
        assert!(!s.test_and_set(0));
        // Every query of two full stamp cycles stays exact.
        for q in 0..600usize {
            s.begin(4);
            let row = q % 4;
            assert!(!s.test_and_set(row), "query {q}");
            assert!(s.test_and_set(row), "query {q}");
        }
    }

    #[test]
    fn grows_and_shrinks_with_the_index_searched() {
        let mut s = SeenSet::default();
        s.begin(1000);
        assert!(!s.test_and_set(999));
        s.begin(10); // a smaller index reuses the same marks
        assert!(!s.test_and_set(9));
        s.begin(2000); // a larger one grows them, new rows unseen
        assert!(!s.test_and_set(999));
        assert!(!s.test_and_set(1999));
    }

    #[test]
    fn reentrant_use_does_not_panic_and_stays_exact() {
        let inner_saw = with_seen(16, |outer| {
            assert!(!outer.test_and_set(5));
            let inner = with_seen(16, |inner| inner.test_and_set(5));
            assert!(outer.test_and_set(5), "outer marks survive the inner query");
            inner
        });
        assert!(!inner_saw, "the inner query starts from nothing seen");
        assert!(!with_seen(16, |s| s.test_and_set(5)));
    }
}
