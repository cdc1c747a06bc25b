//! Fork-join helpers for the native backend's row parallelism.
//!
//! The mBSR kernels write disjoint fixed-size row blocks of their output,
//! so the natural parallel shape is a binary fork-join tree over
//! block-aligned sub-slices. Under the in-tree work-stealing pool the two
//! halves of every split run concurrently; with no pool (or `--threads 1`)
//! the tree degenerates to in-order execution with identical results.
//! Either way the traversal allocates nothing, which keeps the
//! steady-state solve loop allocation-free (see the `alloc_free` gate in
//! `amgt-bench`).
//!
//! # Entering the pool
//!
//! A fork on a pool worker is a lock-free push to that worker's own
//! deque. A fork on any other thread first moves the whole join onto the
//! global pool: an injector mutex, a condvar wake-up and a blocking wait,
//! which costs more than many of the solver's small kernels. The solver's
//! single-device entry points therefore run their whole call through
//! [`on_pool`], so a solve pays that hand-off once instead of once per
//! kernel. Never wrap work that blocks on another thread (the distributed
//! ranks wait on each other's collectives): jobs queued on the pool run
//! one per worker, so more blocked jobs than workers deadlock.
//!
//! # Determinism rule
//!
//! Every helper here splits at the midpoint of its *index range*, so the
//! tree shape is a pure function of `(range, grain)` — never of the pool
//! width or of which worker ran a leaf. Leaves compute over disjoint
//! data, and merge functions are applied in tree position order. Any
//! reduction routed through these helpers (including floating-point sums,
//! which are *not* associative) therefore produces bitwise-identical
//! results from 1 to N threads. Do not "optimize" a call site by making
//! its grain or split rule depend on `rayon::current_num_threads()` —
//! that trades the repo-wide thread-count-invariance contract for
//! nothing.

/// Run `op` on a worker of the global pool, so every fork inside it stays
/// worker-local. Runs `op` inline on a thread that already works for a
/// pool, and when no global pool of width ≥ 2 exists; otherwise moves it
/// onto the global pool once (`rayon::join`'s external path) and blocks
/// until it returns. Panics in `op` resume on the caller.
pub fn on_pool<R: Send>(op: impl FnOnce() -> R + Send) -> R {
    if rayon::current_thread_index().is_some() {
        return op();
    }
    rayon::join(op, || ()).0
}

/// Process `blocks` consecutive `block_len`-element blocks of `out` (the
/// final block may be short) by splitting recursively into `rayon::join`
/// halves until at most `grain` blocks remain, then calling
/// `leaf(first_block, n_blocks, chunk)` on each block-aligned chunk.
/// Per-leaf counter values are combined pairwise with `merge` in tree
/// order; the tree shape depends only on `(blocks, grain)`, so even
/// non-associative merges (floating-point sums) are deterministic and
/// thread-count-invariant.
pub fn join_block_chunks<R: Send>(
    out: &mut [f64],
    first_block: usize,
    blocks: usize,
    block_len: usize,
    grain: usize,
    leaf: &(dyn Fn(usize, usize, &mut [f64]) -> R + Sync),
    merge: &(dyn Fn(R, R) -> R + Sync),
) -> R {
    if blocks <= grain {
        return leaf(first_block, blocks, out);
    }
    let mid = blocks / 2;
    let split = (mid * block_len).min(out.len());
    let (lo, hi) = out.split_at_mut(split);
    let (ra, rb) = rayon::join(
        || join_block_chunks(lo, first_block, mid, block_len, grain, leaf, merge),
        || {
            join_block_chunks(
                hi,
                first_block + mid,
                blocks - mid,
                block_len,
                grain,
                leaf,
                merge,
            )
        },
    );
    merge(ra, rb)
}

/// Index-space fork-join: recursively halve `[lo, hi)` until at most
/// `grain` indices remain, run `leaf(lo, hi)` on each piece, and combine
/// leaf results pairwise with `merge` in tree order.
///
/// This is the shape for work whose output is not one contiguous `&mut
/// [f64]` — strided multi-vector writes (via [`SendPtr`]), multi-array
/// outputs sliced at irregular boundaries, or pure reductions (dot
/// products). The split point depends only on `(lo, hi, grain)`, giving
/// the same bitwise thread-count invariance as [`join_block_chunks`].
pub fn join_ranges<R: Send>(
    lo: usize,
    hi: usize,
    grain: usize,
    leaf: &(dyn Fn(usize, usize) -> R + Sync),
    merge: &(dyn Fn(R, R) -> R + Sync),
) -> R {
    if hi - lo <= grain.max(1) {
        return leaf(lo, hi);
    }
    let mid = lo + (hi - lo) / 2;
    let (ra, rb) = rayon::join(
        || join_ranges(lo, mid, grain, leaf, merge),
        || join_ranges(mid, hi, grain, leaf, merge),
    );
    merge(ra, rb)
}

/// A raw pointer that may cross `join` closures.
///
/// Used by kernels whose parallel leaves write *disjoint but strided*
/// index sets of one output buffer (e.g. `spmm_mbsr`'s per-block-row
/// writes into a column-major multi-vector), where `split_at_mut` cannot
/// express the partition.
///
/// # Safety contract
/// The caller must guarantee that concurrently running leaves write
/// disjoint index sets and that the pointee outlives the fork-join region
/// (trivially true for `join`, which returns only after both closures
/// complete).
#[derive(Clone, Copy)]
pub struct SendPtr<T>(*mut T);

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    /// Pointer to element `i`.
    ///
    /// # Safety
    /// `i` must be in bounds of the allocation, and no other thread may
    /// concurrently access element `i` (see the type-level contract).
    #[inline]
    pub unsafe fn add(self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_block_once_with_short_tail() {
        // 10 blocks of 4, but only 38 output elements (short last block).
        let mut out = vec![0.0f64; 38];
        let visited = join_block_chunks(
            &mut out,
            0,
            10,
            4,
            3,
            &|first, n, chunk| {
                for b in 0..n {
                    let lo = b * 4;
                    let hi = (lo + 4).min(chunk.len());
                    for v in &mut chunk[lo..hi] {
                        *v += (first + b) as f64;
                    }
                }
                n
            },
            &|a, b| a + b,
        );
        assert_eq!(visited, 10);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i / 4) as f64, "element {i}");
        }
    }

    #[test]
    fn single_leaf_when_grain_covers_all() {
        let mut out = vec![0.0f64; 8];
        let leaves = join_block_chunks(&mut out, 0, 2, 4, 64, &|_, _, _| 1usize, &|a, b| a + b);
        assert_eq!(leaves, 1);
    }

    #[test]
    fn join_ranges_covers_range_exactly_once() {
        let covered = join_ranges(
            3,
            117,
            8,
            &|lo, hi| {
                assert!(hi - lo <= 8);
                (hi - lo, 1usize)
            },
            &|(na, la), (nb, lb)| (na + nb, la + lb),
        );
        assert_eq!(covered.0, 114);
        assert!(covered.1 >= 114 / 8);
    }

    #[test]
    fn join_ranges_float_merge_is_topology_stable() {
        // The reference is the same recursion run with the same grain;
        // this pins the shape to (range, grain), not execution order.
        fn reference(lo: usize, hi: usize, grain: usize) -> f64 {
            if hi - lo <= grain {
                return (lo..hi).map(|i| 1.0 / (i as f64 + 0.7)).sum();
            }
            let mid = lo + (hi - lo) / 2;
            reference(lo, mid, grain) + reference(mid, hi, grain)
        }
        let got = join_ranges(
            0,
            5000,
            64,
            &|lo, hi| (lo..hi).map(|i| 1.0 / (i as f64 + 0.7)).sum::<f64>(),
            &|a, b| a + b,
        );
        assert_eq!(got.to_bits(), reference(0, 5000, 64).to_bits());
    }

    #[test]
    fn send_ptr_disjoint_strided_writes() {
        let mut out = vec![0.0f64; 100];
        let p = SendPtr::new(out.as_mut_ptr());
        join_ranges(
            0,
            10,
            1,
            &|lo, hi| {
                for r in lo..hi {
                    // Each leaf owns rows r, writing a strided pair.
                    for s in 0..2 {
                        unsafe { *p.add(s * 50 + r) = (r + s) as f64 };
                    }
                }
            },
            &|(), ()| (),
        );
        for r in 0..10 {
            assert_eq!(out[r], r as f64);
            assert_eq!(out[50 + r], (r + 1) as f64);
        }
    }
}
