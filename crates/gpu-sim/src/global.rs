//! Simulated device (global) memory buffers.

use crate::warp::{Lanes, WARP_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(0);

/// The lockable payload of a buffer: element storage plus the optional
/// initcheck bitmap. Kept in one lock so a write marks its element
/// initialized atomically with the store.
#[derive(Debug)]
pub(crate) struct Storage<T> {
    data: Vec<T>,
    /// Initcheck bitmap: `Some` for buffers created with
    /// [`GlobalBuffer::uninit`] (like `cudaMalloc` without a memset);
    /// `None` for buffers whose construction defines every element.
    init: Option<Vec<bool>>,
}

impl<T: Copy> Storage<T> {
    fn mark_init(&mut self, idx: usize) {
        if let Some(bits) = &mut self.init {
            if let Some(b) = bits.get_mut(idx) {
                *b = true;
            }
        }
    }

    fn get(&self, idx: usize) -> T {
        self.data[idx]
    }

    fn set(&mut self, idx: usize, v: T) {
        self.mark_init(idx);
        self.data[idx] = v;
    }

    /// Applies `op(current, vals[l])` to each active lane's element in
    /// lane order — the hardware-serialized schedule of one warp-wide
    /// atomic.
    fn rmw_lanes(&mut self, idx: &Lanes<Option<usize>>, vals: &Lanes<T>, op: impl Fn(T, T) -> T) {
        for l in 0..WARP_SIZE {
            if let Some(i) = idx[l] {
                self.mark_init(i);
                self.data[i] = op(self.data[i], vals[l]);
            }
        }
    }
}

/// A cloneable handle on a buffer's storage, used by the parallel
/// executor to replay deferred atomics after all blocks finish (the
/// handle is `'static`, so the replay closures outlive the launch's
/// borrow of the buffer).
pub(crate) type SharedStorage<T> = Arc<RwLock<Storage<T>>>;

/// A buffer in simulated device memory.
///
/// All *kernel-side* access goes through [`crate::WarpCtx`] gather /
/// scatter / atomic operations so that every touch is charged to the
/// coalescing model; the `host_*` methods model `cudaMemcpy`-style
/// host-device transfers and are free of kernel-side accounting.
///
/// Interior mutability (an `RwLock`) stands in for the device's freedom
/// to write buffers from any thread. Blocks of one launch may execute on
/// concurrent host threads (see `GPU_SIM_HOST_THREADS`), but they write
/// disjoint elements — cross-block combining goes through deferred
/// atomics — so the lock only orders raw memory access, never results.
#[derive(Debug)]
pub struct GlobalBuffer<T> {
    id: u64,
    /// Element count, fixed at construction (storage never resizes), so
    /// bounds checks need no lock.
    len: usize,
    storage: SharedStorage<T>,
    /// Optional human-readable label; fault injection targets buffers by
    /// label (see [`crate::fault::FaultPlan::with_bit_flips`]).
    label: RwLock<Option<String>>,
}

/// Ignores lock poisoning: a block that panics while holding a guard
/// (an out-of-bounds lane, a panicking atomic `op`) has already aborted
/// its launch, and every element store is a single assignment, so the
/// payload is always consistent.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl<T: Copy + Default> GlobalBuffer<T> {
    /// Allocates a zero-initialized buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        Self::from_vec(vec![T::default(); len])
    }

    /// Takes ownership of host data (the simulated H2D copy).
    pub fn from_vec(data: Vec<T>) -> Self {
        Self {
            id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
            len: data.len(),
            storage: Arc::new(RwLock::new(Storage { data, init: None })),
            label: RwLock::new(None),
        }
    }

    /// Allocates a buffer whose contents are *undefined* until written —
    /// the `cudaMalloc`-without-memset case the initcheck sanitizer
    /// exists for. Reads of never-written elements under an enabled
    /// sanitizer produce initcheck reports; the storage itself is
    /// zero-filled so execution stays deterministic.
    pub fn uninit(len: usize) -> Self {
        Self {
            id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
            len,
            storage: Arc::new(RwLock::new(Storage {
                data: vec![T::default(); len],
                init: Some(vec![false; len]),
            })),
            label: RwLock::new(None),
        }
    }

    /// Process-unique allocation id (keys the per-block L2 model).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Names the buffer for diagnostics and fault targeting
    /// ([`crate::fault::FaultPlan::with_bit_flips`] selects buffers by
    /// label).
    pub fn set_label(&self, label: &str) {
        *write_lock(&self.label) = Some(label.to_string());
    }

    /// Builder-style [`GlobalBuffer::set_label`].
    pub fn with_label(self, label: &str) -> Self {
        self.set_label(label);
        self
    }

    /// The buffer's label, if one was set.
    pub fn label(&self) -> Option<String> {
        read_lock(&self.label).clone()
    }

    /// Runs `f` on the label without cloning (the fault injector's
    /// match path).
    pub(crate) fn with_label_ref<R>(&self, f: impl FnOnce(Option<&str>) -> R) -> R {
        f(read_lock(&self.label).as_deref())
    }

    /// Copies host data from a slice.
    pub fn from_slice(data: &[T]) -> Self {
        Self::from_vec(data.to_vec())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Device-memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }

    /// Copies the buffer back to the host (the simulated D2H copy).
    pub fn to_vec(&self) -> Vec<T> {
        read_lock(&self.storage).data.clone()
    }

    /// Host-side read of one element.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn host_get(&self, idx: usize) -> T {
        read_lock(&self.storage).get(idx)
    }

    /// Host-side write of one element.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn host_set(&self, idx: usize, v: T) {
        write_lock(&self.storage).set(idx, v);
    }

    /// Lanes whose element has never been written, as a bitmask over
    /// the warp (always empty for buffers constructed from data). One
    /// read guard covers the whole warp; out-of-range lanes count as
    /// initialized, leaving them to memcheck.
    pub(crate) fn uninit_lanes(&self, idx: &Lanes<Option<usize>>) -> u32 {
        let s = read_lock(&self.storage);
        let Some(bits) = &s.init else { return 0 };
        let mut mask = 0;
        for (l, slot) in idx.iter().enumerate() {
            if let Some(&false) = slot.and_then(|i| bits.get(i)) {
                mask |= 1 << l;
            }
        }
        mask
    }

    /// Reads each active lane's element under one read guard; inactive
    /// lanes get `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if an active index is out of bounds.
    pub(crate) fn gather_lanes(&self, idx: &Lanes<Option<usize>>) -> Lanes<T> {
        let s = read_lock(&self.storage);
        let mut out = [T::default(); WARP_SIZE];
        for (slot, i) in out.iter_mut().zip(idx) {
            if let Some(i) = *i {
                *slot = s.get(i);
            }
        }
        out
    }

    /// Writes each active lane's value in lane order under one write
    /// guard, so the last of several lanes on one index wins.
    ///
    /// # Panics
    ///
    /// Panics if an active index is out of bounds.
    pub(crate) fn scatter_lanes(&self, idx: &Lanes<Option<usize>>, vals: &Lanes<T>) {
        let mut s = write_lock(&self.storage);
        for (i, &v) in idx.iter().zip(vals) {
            if let Some(i) = *i {
                s.set(i, v);
            }
        }
    }

    /// One warp-wide read-modify-write under one write guard (see
    /// [`Storage::rmw_lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if an active index is out of bounds.
    pub(crate) fn rmw_lanes(
        &self,
        idx: &Lanes<Option<usize>>,
        vals: &Lanes<T>,
        op: impl Fn(T, T) -> T,
    ) {
        write_lock(&self.storage).rmw_lanes(idx, vals, op);
    }

    /// Clones the storage handle for deferred atomic replay (parallel
    /// launches log atomics per block and apply them in block order once
    /// every block has finished).
    pub(crate) fn shared_storage(&self) -> SharedStorage<T> {
        Arc::clone(&self.storage)
    }
}

/// Applies one deferred warp-wide read-modify-write through a storage
/// handle, outside any buffer borrow. Used by the block pool's ordered
/// atomic replay.
pub(crate) fn replay_rmw<T: Copy>(
    storage: &SharedStorage<T>,
    idx: &Lanes<Option<usize>>,
    vals: &Lanes<T>,
    op: impl Fn(T, T) -> T,
) {
    write_lock(storage).rmw_lanes(idx, vals, op);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_host_access() {
        let b = GlobalBuffer::<f32>::zeroed(4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.bytes(), 16);
        b.host_set(2, 7.0);
        assert_eq!(b.host_get(2), 7.0);
        assert_eq!(b.to_vec(), vec![0.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn from_slice_round_trips() {
        let b = GlobalBuffer::from_slice(&[1u32, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert!(!b.is_empty());
    }

    /// Lanes `0..n` active on `idx[l]`, the rest inactive.
    fn lanes(idx: &[usize]) -> Lanes<Option<usize>> {
        let mut out = [None; WARP_SIZE];
        for (slot, &i) in out.iter_mut().zip(idx) {
            *slot = Some(i);
        }
        out
    }

    #[test]
    fn rmw_lanes_applies_in_lane_order() {
        let b = GlobalBuffer::from_slice(&[10i64, 0]);
        let mut vals = [0i64; WARP_SIZE];
        vals[..3].copy_from_slice(&[5, 2, 7]);
        // Lanes 0 and 2 share element 0: `v * 10 + x` exposes the order.
        b.rmw_lanes(&lanes(&[0, 1, 0]), &vals, |v, x| v * 10 + x);
        assert_eq!(b.to_vec(), vec![1057, 2]);
    }

    #[test]
    fn gather_and_scatter_lanes_round_trip() {
        let b = GlobalBuffer::<u32>::zeroed(4);
        let mut vals = [0u32; WARP_SIZE];
        vals[..3].copy_from_slice(&[7, 8, 9]);
        // Duplicate index: the later lane's write wins.
        b.scatter_lanes(&lanes(&[3, 1, 3]), &vals);
        assert_eq!(b.to_vec(), vec![0, 8, 0, 9]);
        let got = b.gather_lanes(&lanes(&[1, 3]));
        assert_eq!(&got[..3], &[8, 9, 0]);
    }

    #[test]
    fn uninit_tracks_writes_per_element() {
        let b = GlobalBuffer::<f32>::uninit(3);
        let all = lanes(&[0, 1, 2, 7]);
        assert_eq!(b.uninit_lanes(&all), 0b111);
        b.scatter_lanes(&lanes(&[1]), &[2.0; WARP_SIZE]);
        assert_eq!(b.uninit_lanes(&all), 0b101);
        b.rmw_lanes(&lanes(&[2]), &[1.0; WARP_SIZE], |v, x| v + x);
        assert_eq!(b.uninit_lanes(&all), 0b001);
        // Constructed-from-data buffers are fully initialized.
        let c = GlobalBuffer::from_slice(&[1u32]);
        assert_eq!(c.uninit_lanes(&lanes(&[0])), 0);
    }

    #[test]
    fn replay_through_shared_storage_matches_direct_rmw() {
        let b = GlobalBuffer::from_slice(&[1.0f64, 2.0]);
        let handle = b.shared_storage();
        replay_rmw(&handle, &lanes(&[1]), &[10.0; WARP_SIZE], |v, x| v * x);
        assert_eq!(b.host_get(1), 20.0);
    }
}
