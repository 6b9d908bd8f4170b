//! Simulated per-block shared memory.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::sanitizer::{BlockSanitizer, SimError, SmemShadow};
use crate::warp::{Lanes, WARP_SIZE};

/// The shared-memory pool of one thread block.
///
/// Allocation is bump-style (mirroring static `__shared__` declarations);
/// exceeding the block's budget fails the launch, the simulator's analog
/// of a CUDA launch failure — kernels are expected to check capacity
/// *before* launching, exactly the sizing discipline §3.3.2 discusses.
/// Standalone pools ([`SharedMem::new`]) panic on over-budget; pools
/// inside a launch record a [`SimError::SmemOverBudget`] that
/// [`crate::Device::try_launch`] surfaces as an `Err`.
#[derive(Debug)]
pub struct SharedMem {
    capacity: usize,
    used: Cell<usize>,
    san: Option<Rc<BlockSanitizer>>,
    fault: RefCell<Option<SimError>>,
}

impl SharedMem {
    /// Creates a pool with `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self::with_sanitizer(capacity, None)
    }

    /// Creates a pool whose allocations carry sanitizer shadow state
    /// when `san` is `Some` (the block's sanitizer, built only when its
    /// launch's mode is on).
    pub(crate) fn with_sanitizer(capacity: usize, san: Option<Rc<BlockSanitizer>>) -> Self {
        Self {
            capacity,
            used: Cell::new(0),
            san,
            fault: RefCell::new(None),
        }
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> usize {
        self.used.get()
    }

    /// Total budget in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The first over-budget allocation recorded by
    /// [`SharedMem::alloc_lenient`], if any.
    pub(crate) fn take_fault(&self) -> Option<SimError> {
        self.fault.borrow_mut().take()
    }

    fn try_alloc<T: Copy + Default>(&self, len: usize) -> Result<SharedArray<T>, SimError> {
        let bytes = len * std::mem::size_of::<T>();
        let base = self.used.get();
        if base + bytes > self.capacity {
            return Err(SimError::SmemOverBudget {
                requested: bytes,
                in_use: base,
                capacity: self.capacity,
            });
        }
        self.used.set(base + bytes);
        Ok(self.build_array(len, base))
    }

    fn build_array<T: Copy + Default>(&self, len: usize, base: usize) -> SharedArray<T> {
        let shadow = self
            .san
            .as_ref()
            .map(|san| Rc::new(SmemShadow::new(san.clone(), base, len)));
        SharedArray {
            data: Rc::new(RefCell::new(vec![T::default(); len])),
            base_byte: base,
            shadow,
        }
    }

    /// Allocates a zero-initialized array of `len` elements.
    ///
    /// # Panics
    ///
    /// Panics when the allocation would exceed the block's shared-memory
    /// budget — the simulated equivalent of
    /// `CUDA error: invalid configuration argument`.
    pub fn alloc<T: Copy + Default>(&self, len: usize) -> SharedArray<T> {
        self.try_alloc(len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Launch-internal allocation: an over-budget request records the
    /// fault (for [`crate::Device::try_launch`] to surface after the
    /// block finishes) and hands back a working array so the kernel can
    /// limp to the end of the block instead of unwinding.
    pub(crate) fn alloc_lenient<T: Copy + Default>(&self, len: usize) -> SharedArray<T> {
        match self.try_alloc(len) {
            Ok(arr) => arr,
            Err(e) => {
                let mut fault = self.fault.borrow_mut();
                if fault.is_none() {
                    *fault = Some(e);
                }
                self.build_array(len, self.used.get())
            }
        }
    }
}

/// A typed array living in a block's shared memory.
///
/// Cloning is cheap and aliases the same storage, like two pointers into
/// the same `__shared__` declaration.
#[derive(Debug, Clone)]
pub struct SharedArray<T> {
    data: Rc<RefCell<Vec<T>>>,
    base_byte: usize,
    shadow: Option<Rc<SmemShadow>>,
}

impl<T: Copy> SharedArray<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.borrow().len()
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The 4-byte word addresses an element occupies, as
    /// `(first_word, word_count)` — the unit of bank-conflict accounting.
    #[inline]
    pub(crate) fn word_span(&self, idx: usize) -> (usize, usize) {
        let elem_bytes = std::mem::size_of::<T>();
        (
            (self.base_byte + idx * elem_bytes) / 4,
            elem_bytes.div_ceil(4).max(1),
        )
    }

    /// The sanitizer shadow, when this array was allocated under an
    /// enabled sanitizer.
    pub(crate) fn shadow(&self) -> Option<&Rc<SmemShadow>> {
        self.shadow.as_ref()
    }

    /// Byte offset of the array within its block's shared-memory pool.
    pub(crate) fn base_byte(&self) -> usize {
        self.base_byte
    }

    /// Storage read bypassing the shadow (warp ops do their own shadow
    /// accounting with warp/lane identity).
    pub(crate) fn raw_get(&self, idx: usize) -> T {
        self.data.borrow()[idx]
    }

    /// Reads each active lane's element under one storage borrow,
    /// bypassing the shadow (see [`SharedArray::raw_get`]); inactive
    /// lanes get `T::default()`.
    pub(crate) fn gather_lanes(&self, idx: &Lanes<Option<usize>>) -> Lanes<T>
    where
        T: Default,
    {
        let data = self.data.borrow();
        let mut out = [T::default(); WARP_SIZE];
        for (slot, i) in out.iter_mut().zip(idx) {
            if let Some(i) = *i {
                *slot = data[i];
            }
        }
        out
    }

    /// Storage write bypassing the shadow (see [`SharedArray::raw_get`]).
    pub(crate) fn raw_set(&self, idx: usize, v: T) {
        self.data.borrow_mut()[idx] = v;
    }

    /// Fills the array with a value (host-style initialization used in
    /// tests; kernels should use [`crate::WarpCtx::smem_scatter`] or the
    /// cost-accounted [`crate::BlockCtx::fill_shared`]).
    pub fn fill(&self, v: T) {
        self.data.borrow_mut().fill(v);
        if let Some(sh) = &self.shadow {
            sh.host_bulk();
        }
    }

    /// Copies the contents out (for assertions).
    pub fn snapshot(&self) -> Vec<T> {
        self.data.borrow().clone()
    }

    /// Raw single-element read, **without** cost accounting.
    ///
    /// For serialized per-lane emulation (e.g. the insertion loop of a
    /// selection kernel): the caller is responsible for charging the
    /// equivalent hardware cost through [`crate::WarpCtx`] (`issue`,
    /// `smem_gather`, …). Under an enabled sanitizer the read still
    /// passes initcheck.
    pub fn read(&self, idx: usize) -> T {
        if let Some(sh) = &self.shadow {
            sh.host_read(idx);
        }
        self.data.borrow()[idx]
    }

    /// Raw single-element write, **without** cost accounting (see
    /// [`SharedArray::read`]).
    pub fn write(&self, idx: usize, v: T) {
        if let Some(sh) = &self.shadow {
            sh.host_write(idx);
        }
        self.data.borrow_mut()[idx] = v;
    }

    /// Scans down from `end` while `pred` holds, returning the lowest
    /// `p` such that `pred` holds for every element of `p..end`, under
    /// one storage borrow and **without** cost accounting (see
    /// [`SharedArray::read`]).
    ///
    /// Exactly the element-wise loop
    /// `while p > 0 && pred(arr.read(p - 1)) { p -= 1 }`: under an
    /// enabled sanitizer it initchecks the same elements in the same
    /// order, including the one that stops the scan.
    pub fn scan_back_while(&self, end: usize, mut pred: impl FnMut(T) -> bool) -> usize {
        let data = self.data.borrow();
        let mut p = end;
        while p > 0 {
            if let Some(sh) = &self.shadow {
                sh.host_read(p - 1);
            }
            if !pred(data[p - 1]) {
                break;
            }
            p -= 1;
        }
        p
    }

    /// Shifts `pos..end - 1` up one slot to `pos + 1..end` (dropping the
    /// old `end - 1`) and stores `v` at `pos`, under one storage borrow
    /// and **without** cost accounting (see [`SharedArray::read`]).
    ///
    /// Exactly the element-wise loop
    /// `for s in (pos + 1..end).rev() { arr.write(s, arr.read(s - 1)) }`
    /// followed by `arr.write(pos, v)`: under an enabled sanitizer it
    /// makes the same initchecks and initializations in the same order.
    ///
    /// # Panics
    ///
    /// Panics unless `pos < end <= self.len()`.
    pub fn shift_insert(&self, pos: usize, end: usize, v: T) {
        let mut data = self.data.borrow_mut();
        assert!(
            pos < end && end <= data.len(),
            "shift_insert({pos}, {end}) out of bounds for length {}",
            data.len()
        );
        if let Some(sh) = &self.shadow {
            for s in (pos + 1..end).rev() {
                sh.host_read(s - 1);
                sh.host_write(s);
            }
            sh.host_write(pos);
        }
        data.copy_within(pos..end - 1, pos + 1);
        data[pos] = v;
    }

    /// Raw read-modify-write returning the previous value; cost and
    /// shadow accounting are the caller's job (used by
    /// [`crate::WarpCtx::smem_atomic`]).
    pub(crate) fn rmw(&self, idx: usize, f: impl FnOnce(T) -> T) -> T {
        let mut d = self.data.borrow_mut();
        let old = d[idx];
        d[idx] = f(old);
        old
    }

    pub(crate) fn with_mut<R>(&self, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        let r = f(&mut self.data.borrow_mut());
        // Block-collective macro-ops (e.g. the bitonic sort) are
        // internally barrier-synchronized; treat the whole array as
        // freshly initialized with no dangling race history.
        if let Some(sh) = &self.shadow {
            sh.host_bulk();
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_tracks_usage() {
        let pool = SharedMem::new(1024);
        let a = pool.alloc::<f32>(64);
        assert_eq!(pool.used(), 256);
        let b = pool.alloc::<u32>(32);
        assert_eq!(pool.used(), 384);
        assert_eq!(a.len(), 64);
        assert_eq!(b.len(), 32);
    }

    #[test]
    #[should_panic(expected = "shared memory over budget")]
    fn over_budget_allocation_panics() {
        let pool = SharedMem::new(128);
        let _ = pool.alloc::<f64>(17);
    }

    #[test]
    fn lenient_allocation_records_fault_and_continues() {
        let pool = SharedMem::new(128);
        let arr = pool.alloc_lenient::<f64>(17);
        assert_eq!(arr.len(), 17);
        arr.write(16, 4.0);
        assert_eq!(arr.read(16), 4.0);
        match pool.take_fault() {
            Some(SimError::SmemOverBudget {
                requested,
                in_use,
                capacity,
            }) => {
                assert_eq!(requested, 136);
                assert_eq!(in_use, 0);
                assert_eq!(capacity, 128);
            }
            other => panic!("expected SmemOverBudget, got {other:?}"),
        }
        // Only the first fault is kept.
        assert!(pool.take_fault().is_none());
    }

    use proptest::prelude::*;

    /// A `u32` array under an enabled sanitizer of its own, so the
    /// initcheck reports of two arrays can be compared whole.
    fn sanitized(len: usize) -> (Rc<BlockSanitizer>, SharedArray<u32>) {
        let san = Rc::new(BlockSanitizer::new("bulk", 0, 1));
        let arr = SharedMem::with_sanitizer(4 * len, Some(san.clone())).alloc::<u32>(len);
        (san, arr)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The bulk helpers against the element-wise `read`/`write`
        /// loops they replace, on partly initialized arrays: the same
        /// scan results, the same contents after every op, and the same
        /// initcheck reports in the same order.
        #[test]
        fn bulk_helpers_match_the_elementwise_loops(
            len in 1usize..24,
            // 8 leaves the element uninitialized.
            init in proptest::collection::vec(0u32..9, 24),
            ops in proptest::collection::vec((0u8..2, 0usize..64, 0usize..64, 0u32..8), 1..16),
        ) {
            let (bulk_san, bulk) = sanitized(len);
            let (loop_san, elem) = sanitized(len);
            for (i, &v) in init.iter().take(len).enumerate() {
                if v < 8 {
                    bulk.write(i, v);
                    elem.write(i, v);
                }
            }
            for &(scan, a, b, v) in &ops {
                if scan == 1 {
                    let end = a % (len + 1);
                    let mut p = end;
                    while p > 0 && v < elem.read(p - 1) {
                        p -= 1;
                    }
                    prop_assert_eq!(bulk.scan_back_while(end, |x| v < x), p);
                } else {
                    let end = 1 + a % len;
                    let pos = b % end;
                    for s in (pos + 1..end).rev() {
                        elem.write(s, elem.read(s - 1));
                    }
                    elem.write(pos, v);
                    bulk.shift_insert(pos, end, v);
                }
                prop_assert_eq!(bulk.snapshot(), elem.snapshot());
            }
            // The same reports in the same order, and the same drops.
            prop_assert_eq!(bulk_san.take_reports(), loop_san.take_reports());
        }
    }

    #[test]
    fn bulk_helpers_without_a_shadow() {
        let pool = SharedMem::new(64);
        let a = pool.alloc::<u32>(6);
        for (i, v) in [1, 3, 3, 5, 7, 9].into_iter().enumerate() {
            a.write(i, v);
        }
        // Ties stay put: the scan stops at the first element not above 3.
        assert_eq!(a.scan_back_while(6, |x| 3 < x), 3);
        assert_eq!(a.scan_back_while(6, |x| 0 < x), 0);
        assert_eq!(a.scan_back_while(0, |_| true), 0);
        a.shift_insert(3, 6, 4);
        assert_eq!(a.snapshot(), [1, 3, 3, 4, 5, 7]);
        a.shift_insert(5, 6, 8);
        assert_eq!(a.snapshot(), [1, 3, 3, 4, 5, 8]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shift_insert_rejects_an_empty_range() {
        SharedMem::new(16).alloc::<u32>(4).shift_insert(2, 2, 0);
    }

    #[test]
    fn arrays_alias_on_clone() {
        let pool = SharedMem::new(64);
        let a = pool.alloc::<u32>(4);
        let b = a.clone();
        a.write(1, 42);
        assert_eq!(b.read(1), 42);
    }
}
