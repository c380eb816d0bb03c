//! Reusable buffer pool for allocation-free solver steady state.
//!
//! The block COCG and Chebyshev inner loops are called once per frequency
//! point and per SCF step, thousands of times in a production RPA run
//! (§III-B cost model). Their per-iteration temporaries (`U = A·P`, Gram
//! matrices, direction updates, three-term recurrence blocks) are all
//! dense column-major buffers of a handful of recurring shapes, so a tiny
//! free-list pool amortizes every one of them: after the first iteration
//! warms the pool, the steady-state loop performs no heap allocation.
//!
//! [`Workspace`] is deliberately dumb — a LIFO stack of `Vec<T>` backing
//! stores with best-fit reuse — because the solver shapes are few and
//! stable. [`with_thread_workspace`] keeps one pool per scalar type per
//! thread so independent per-frequency solver partitions never contend.

use mbrpa_linalg::{Mat, Scalar};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// A free-list pool of matrix backing buffers for one scalar type.
///
/// `take_*` methods hand out a [`Mat`] built from a recycled buffer when
/// one with sufficient capacity is available, allocating (and counting)
/// a fresh one otherwise; [`give`](Workspace::give) returns the backing
/// store for reuse. Buffers keep their high-water capacity, so a loop
/// with stable shapes allocates only on its first pass.
#[derive(Debug)]
pub struct Workspace<T: Scalar> {
    free: Vec<Vec<T>>,
    fresh_allocs: u64,
}

impl<T: Scalar> Default for Workspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> Workspace<T> {
    /// Empty pool.
    pub fn new() -> Self {
        Self {
            free: Vec::new(),
            fresh_allocs: 0,
        }
    }

    /// Number of times a `take_*` call could not be served from the free
    /// list and had to touch the allocator (fresh buffer or growth).
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }

    /// Buffers currently parked in the free list.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Pop the best-fitting free buffer for `len` elements, or allocate.
    fn take_vec(&mut self, len: usize) -> Vec<T> {
        // Best fit: smallest capacity that still holds `len`, so a small
        // Gram-matrix request does not strip the pool of an n×s block.
        let mut best: Option<(usize, usize)> = None;
        for (idx, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((idx, cap));
            }
        }
        match best {
            Some((idx, _)) => self.free.swap_remove(idx),
            None => {
                self.fresh_allocs += 1;
                mbrpa_obs::add("solver.workspace.fresh_allocs", 1);
                match self.free.pop() {
                    // Grow the most recently parked buffer (the top of
                    // the stack), so a pool that keeps missing does not
                    // keep adding buffers. Which one grows decides where
                    // the solver's vectors land, and placement alone
                    // moves a 14³ solve by ±10 %: another pick is a
                    // measured change of its own.
                    Some(mut buf) => {
                        buf.reserve(len.saturating_sub(buf.len()));
                        buf
                    }
                    None => Vec::with_capacity(len),
                }
            }
        }
    }

    /// Take a zero-filled `rows × cols` matrix from the pool.
    pub fn take_zeroed(&mut self, rows: usize, cols: usize) -> Mat<T> {
        let mut v = self.take_vec(rows * cols);
        v.clear();
        v.resize(rows * cols, T::zero());
        Mat::from_col_major(rows, cols, v)
    }

    /// Take a `rows × cols` matrix whose contents are unspecified (stale
    /// values of an earlier use, zeros where the buffer had to grow): for
    /// outputs the caller overwrites entirely — `U = A·P`, Gram matrices,
    /// `s × s` solves — where [`take_zeroed`](Workspace::take_zeroed)'s
    /// fill would be a wasted sweep.
    pub fn take_scratch(&mut self, rows: usize, cols: usize) -> Mat<T> {
        let mut v = self.take_vec(rows * cols);
        v.resize(rows * cols, T::zero());
        Mat::from_col_major(rows, cols, v)
    }

    /// Take a matrix from the pool initialized as a copy of `src`.
    pub fn take_copy(&mut self, src: &Mat<T>) -> Mat<T> {
        let mut v = self.take_vec(src.as_slice().len());
        v.clear();
        v.extend_from_slice(src.as_slice());
        Mat::from_col_major(src.rows(), src.cols(), v)
    }

    /// Return a matrix's backing buffer to the pool.
    pub fn give(&mut self, m: Mat<T>) {
        let v = m.into_vec();
        if v.capacity() > 0 {
            self.free.push(v);
        }
    }
}

/// A thread's pools of one scalar type, one per nesting depth of
/// [`with_thread_workspace`], and how many of them are checked out.
struct Parked<T: Scalar> {
    depth: usize,
    pools: Vec<Workspace<T>>,
}

thread_local! {
    /// One [`Parked<T>`] per scalar type per thread, keyed by `TypeId`.
    static WS_POOL: RefCell<BTreeMap<TypeId, Box<dyn Any>>> = RefCell::new(BTreeMap::new());
}

/// `f` on this thread's [`Parked<T>`].
fn with_parked<T: Scalar, R>(f: impl FnOnce(&mut Parked<T>) -> R) -> R {
    WS_POOL.with(|pool| {
        let mut map = pool.borrow_mut();
        let slot = map.entry(TypeId::of::<T>()).or_insert_with(|| {
            Box::new(Parked::<T> {
                depth: 0,
                pools: Vec::new(),
            }) as Box<dyn Any>
        });
        let parked = slot
            .downcast_mut::<Parked<T>>()
            // lint: allow(unwrap) — slot is keyed by TypeId::of::<T>, so the
            // downcast to Parked<T> cannot fail
            .expect("workspace slot type");
        f(parked)
    })
}

/// Run `f` with this thread's persistent [`Workspace<T>`].
///
/// The pool is checked out (moved) for the duration of `f`, so reentrant
/// calls are safe: a call made while another holds its pool (a Galerkin
/// guess under the Chebyshev filter of `ν½χ⁰ν½`) gets the pool of its own
/// nesting depth. Every depth keeps its buffers across calls, which is
/// what makes repeated per-frequency solves allocation-free — and what
/// keeps a nested call from refilling, once per outer call, a pool the
/// outer call then carries off.
pub fn with_thread_workspace<T: Scalar, R>(f: impl FnOnce(&mut Workspace<T>) -> R) -> R {
    let (depth, mut ws) = with_parked(|parked: &mut Parked<T>| {
        let depth = parked.depth;
        parked.depth += 1;
        if parked.pools.len() <= depth {
            parked.pools.push(Workspace::new());
        }
        (depth, std::mem::take(&mut parked.pools[depth]))
    });
    let out = f(&mut ws);
    with_parked(|parked: &mut Parked<T>| {
        parked.depth = depth;
        parked.pools[depth] = ws;
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbrpa_linalg::C64;

    #[test]
    fn round_trip_reuses_backing_buffer() {
        let mut ws = Workspace::<f64>::new();
        let a = ws.take_zeroed(8, 4);
        assert_eq!(ws.fresh_allocs(), 1);
        ws.give(a);
        let b = ws.take_zeroed(4, 8); // same size, different shape
        assert_eq!(ws.fresh_allocs(), 1, "shape change must not allocate");
        assert_eq!(b.shape(), (4, 8));
        ws.give(b);
        let c = ws.take_zeroed(2, 2); // smaller: still served from pool
        assert_eq!(ws.fresh_allocs(), 1);
        ws.give(c);
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let mut ws = Workspace::<f64>::new();
        let mut a = ws.take_zeroed(3, 3);
        a.fill(7.5);
        ws.give(a);
        let b = ws.take_zeroed(3, 3);
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_scratch_has_the_shape_and_skips_the_fill() {
        let mut ws = Workspace::<f64>::new();
        let mut a = ws.take_zeroed(3, 3);
        a.fill(7.5);
        ws.give(a);
        let b = ws.take_scratch(3, 2);
        assert_eq!(b.shape(), (3, 2));
        assert_eq!(ws.fresh_allocs(), 1, "served from the pool");
        assert!(b.as_slice().iter().all(|&x| x == 7.5), "no fill happened");
        ws.give(b);
        // growing past the recycled length zero-fills only the new tail
        let c = ws.take_scratch(4, 3);
        assert_eq!(c.as_slice().len(), 12);
        ws.give(c);
    }

    #[test]
    fn take_copy_matches_source() {
        let mut ws = Workspace::<C64>::new();
        let src = Mat::from_fn(5, 2, |i, j| C64::new(i as f64, j as f64));
        let cp = ws.take_copy(&src);
        assert_eq!(cp, src);
        ws.give(cp);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::<f64>::new();
        let big = ws.take_zeroed(100, 1);
        let small = ws.take_zeroed(10, 1);
        ws.give(big);
        ws.give(small);
        let m = ws.take_zeroed(10, 1);
        assert!(m.as_slice().len() <= 10);
        // the 100-element buffer must still be parked for a later big take
        let again = ws.take_zeroed(100, 1);
        assert_eq!(ws.fresh_allocs(), 2, "both takes served from the pool");
        ws.give(m);
        ws.give(again);
    }

    #[test]
    fn a_miss_grows_the_most_recently_parked_buffer() {
        let mut ws = Workspace::<f64>::new();
        let parked: Vec<Mat<f64>> = [4, 16, 8]
            .iter()
            .map(|&len| {
                let mut m = ws.take_zeroed(len, 1);
                m.fill(len as f64);
                m
            })
            .collect();
        for m in parked {
            ws.give(m);
        }
        // no parked buffer holds 32: the 8-element one, parked last, grows
        let grown = ws.take_scratch(32, 1);
        assert_eq!(grown[(0, 0)], 8.0);
        assert_eq!(ws.fresh_allocs(), 4);
        // the 4- and 16-element buffers stay parked
        assert_eq!(ws.pooled(), 2);
        assert_eq!(ws.take_scratch(16, 1)[(0, 0)], 16.0);
        assert_eq!(ws.take_scratch(4, 1)[(0, 0)], 4.0);
        assert_eq!(ws.fresh_allocs(), 4);
    }

    #[test]
    fn thread_workspace_persists_between_calls() {
        // unique shape to avoid interference from other tests on this thread
        let allocs_before = with_thread_workspace(|ws: &mut Workspace<f64>| {
            let m = ws.take_zeroed(17, 13);
            let n = ws.fresh_allocs();
            ws.give(m);
            n
        });
        let allocs_after = with_thread_workspace(|ws: &mut Workspace<f64>| {
            let m = ws.take_zeroed(17, 13);
            let n = ws.fresh_allocs();
            ws.give(m);
            n
        });
        assert_eq!(
            allocs_after, allocs_before,
            "second checkout must reuse the pooled buffer"
        );
    }

    #[test]
    fn reentrant_checkout_keeps_one_pool_per_depth() {
        // a call under a held pool gets its own, and gets the same one back
        // on the next round: neither pool grows with the number of rounds
        // (merged into one, the inner buffers were carried off by every
        // outer checkout and allocated again by the next inner call)
        let round = || {
            with_thread_workspace(|outer: &mut Workspace<C64>| {
                let held = outer.take_zeroed(6, 6);
                let inner = with_thread_workspace(|inner: &mut Workspace<C64>| {
                    let m = inner.take_zeroed(4, 4);
                    inner.give(m);
                    (inner.pooled(), inner.fresh_allocs())
                });
                outer.give(held);
                (inner, outer.pooled(), outer.fresh_allocs())
            })
        };
        let first = round();
        assert_eq!(first, ((1, 1), 1, 1));
        for _ in 0..5 {
            assert_eq!(round(), first);
        }
    }
}
