//! Runtime model-checking for the cache's concurrency protocols, compiled
//! in only under the `analysis` cargo feature.
//!
//! Two checkers:
//!
//! * a **thread-local lock-order tracker**: every lock acquisition inside
//!   the cache declares its level (the same levels the `// lock-order:`
//!   annotations pin and the `lock-discipline` tidy lint cross-checks), and
//!   acquiring a level ≤ one already held on the thread panics. The
//!   cache's protocol never *intends* to nest its locks, so the asserted
//!   rule is the strictest one: strictly increasing levels per thread —
//!   any accidental nesting introduced by a future change trips it, in
//!   whatever stress test first executes that path.
//! * a **pin-leak detector** ([`HtManager::assert_quiesced`]
//!   (crate::HtManager::assert_quiesced)): checkout guards
//!   increment a per-cache counter that `release`/`commit_checkin`
//!   decrement; at a quiesce point the counter must be zero and every
//!   entry unpinned, so a leaked (forgotten) guard fails the suite instead
//!   of silently pinning an entry against eviction forever.
//!
//! Both are assertions, not logs: `cargo test --features analysis` turns
//! the existing stress suites into protocol checks.

use std::cell::RefCell;

pub use crate::manager::{LEVEL_GC, LEVEL_SHARD, LEVEL_TENANT_FLOORS};

thread_local! {
    /// Levels currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Record acquiring a lock at `level`. Panics if the thread already holds
/// a lock at the same or a higher level — i.e. on *any* nesting the
/// declared order does not permit.
pub fn acquire(level: u32) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(&top) = held.last() {
            assert!(
                level > top,
                "lock-order violation: acquiring level {level} while holding level {top} \
                 (held: {:?}); see the lock-order table in README `Correctness tooling`",
                *held
            );
        }
        held.push(level);
    });
}

/// Record releasing a lock at `level` (the most recent acquisition of that
/// level on this thread).
pub fn release(level: u32) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&l| l == level) {
            held.remove(pos);
        }
    });
}

/// Number of tracked locks currently held by this thread.
pub fn held_count() -> usize {
    HELD.with(|held| held.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_levels_are_accepted() {
        acquire(LEVEL_TENANT_FLOORS);
        acquire(LEVEL_SHARD);
        acquire(LEVEL_GC);
        assert_eq!(held_count(), 3);
        release(LEVEL_GC);
        release(LEVEL_SHARD);
        release(LEVEL_TENANT_FLOORS);
        assert_eq!(held_count(), 0);
    }

    #[test]
    fn sequential_reacquisition_is_fine() {
        for _ in 0..3 {
            acquire(LEVEL_SHARD);
            release(LEVEL_SHARD);
        }
        assert_eq!(held_count(), 0);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_level_nesting_panics() {
        acquire(LEVEL_SHARD);
        acquire(LEVEL_SHARD); // two shard locks at once: forbidden
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn descending_nesting_panics() {
        acquire(LEVEL_GC);
        acquire(LEVEL_SHARD); // gc (30) then shard (20): descends
    }
}
