//! Nested-parallelism accounting shared by every parallel kernel.
//!
//! The χ⁰ quadrature loop already partitions Sternheimer systems across rayon
//! (`core::chi0::partitioned_apply`), so the kernels underneath — block
//! operator applies and GEMM — must not blindly spawn their own tasks or the
//! pool oversubscribes. This module keeps a process-global count of *outer*
//! parallel tasks currently in flight; inner kernels consult
//! [`inner_slots`] to learn how many threads the outer partition has left
//! idle and size their own splits accordingly.
//!
//! Outer loops register their width with [`outer_scope`] (an RAII guard), so
//! nesting depth is tracked without any coordination beyond two atomic ops
//! per outer region.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of outer-level parallel tasks currently registered.
static OUTER: AtomicUsize = AtomicUsize::new(0);

/// RAII guard returned by [`outer_scope`]; deregisters the outer tasks on
/// drop.
#[must_use = "the guard deregisters the outer region when dropped"]
pub struct OuterScope {
    tasks: usize,
}

impl Drop for OuterScope {
    fn drop(&mut self) {
        // ord: Relaxed — OUTER is a sizing hint for `inner_slots`, not a
        // synchronization point; a stale read only mis-sizes a work split
        OUTER.fetch_sub(self.tasks, Ordering::Relaxed);
    }
}

/// Register `tasks` outer-level parallel tasks for the lifetime of the
/// returned guard. Call this right before an outer `par_iter` with the
/// number of concurrently runnable tasks it creates.
pub fn outer_scope(tasks: usize) -> OuterScope {
    // ord: Relaxed — sizing hint only (see Drop above); no data is published through OUTER
    OUTER.fetch_add(tasks, Ordering::Relaxed);
    OuterScope { tasks }
}

/// How many threads an inner kernel may use without oversubscribing the
/// pool: all of them when no outer region is active, otherwise the fair
/// share of threads left idle by the outer partition (at least 1).
pub fn inner_slots() -> usize {
    let threads = rayon::current_num_threads();
    // ord: Relaxed — advisory snapshot; a racing guard only shifts the thread split by one
    let outer = OUTER.load(Ordering::Relaxed);
    if outer == 0 {
        threads
    } else if outer >= threads {
        1
    } else {
        // `outer` tasks occupy one thread each; share the remainder.
        1 + (threads - outer) / outer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_registers_and_releases() {
        // Tests in this crate may run in parallel; only assert relative
        // changes made by our own guards.
        // ord: Relaxed — same advisory counter the library reads; the asserts
        // below tolerate concurrent guards, so no ordering is required
        let before = OUTER.load(Ordering::Relaxed);
        {
            let _g = outer_scope(3);
            // ord: Relaxed — advisory snapshot (see `before` above)
            assert!(OUTER.load(Ordering::Relaxed) >= before + 3);
        }
        // ord: Relaxed — advisory snapshot (see `before` above)
        assert!(OUTER.load(Ordering::Relaxed) <= before + 3);
    }

    #[test]
    fn inner_slots_shrink_under_outer_load() {
        let threads = rayon::current_num_threads();
        let wide = outer_scope(threads * 2);
        assert_eq!(inner_slots(), 1);
        drop(wide);
        assert!(inner_slots() >= 1);
    }
}
