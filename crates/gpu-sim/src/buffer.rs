//! Device global memory: a flat address space of `f32` cells.
//!
//! Buffers live at 256-byte-aligned base addresses in a single linear
//! address space so the cache model sees realistic, non-overlapping
//! addresses. Cells are `AtomicU32` holding `f32` bit patterns: plain
//! loads/stores use relaxed atomics (race-free kernels never contend),
//! and `atomic_add` implements the device-wide `atomicAdd(float*)`
//! with a compare-exchange loop — the same read-modify-write the L2
//! atomic unit performs on Maxwell (paper §III-C, inter-thread-block
//! reduction).

use std::sync::atomic::{AtomicU32, Ordering};

/// Handle to a device buffer (index into a [`GlobalMem`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(pub(crate) usize);

enum Storage {
    /// Backed by host memory: functional kernels may load/store.
    Real(Vec<AtomicU32>),
    /// Address-space-only: traffic replay works (addresses exist) but
    /// any data access faults. Lets paper-scale problems (a 2 GB
    /// intermediate at `M = 524288`) be profiled without allocating.
    Virtual(usize),
}

struct BufferEntry {
    base_addr: u64,
    data: Storage,
}

impl BufferEntry {
    fn len(&self) -> usize {
        match &self.data {
            Storage::Real(v) => v.len(),
            Storage::Virtual(n) => *n,
        }
    }

    fn cells(&self) -> &Vec<AtomicU32> {
        match &self.data {
            Storage::Real(v) => v,
            Storage::Virtual(_) => {
                panic!("data access to a virtual (traffic-only) buffer")
            }
        }
    }
}

/// Flat device memory: allocation, upload/download, and addressing.
#[derive(Default)]
pub struct GlobalMem {
    buffers: Vec<BufferEntry>,
    next_addr: u64,
}

/// Alignment of buffer base addresses (matches `cudaMalloc`'s minimum).
pub const BUFFER_ALIGN: u64 = 256;

impl GlobalMem {
    /// Empty memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, len: usize, data: Storage) -> BufId {
        let base_addr = self.next_addr;
        self.next_addr += ((len as u64 * 4).div_ceil(BUFFER_ALIGN)) * BUFFER_ALIGN;
        // Zero-length buffers still get distinct addresses.
        self.next_addr += BUFFER_ALIGN;
        self.buffers.push(BufferEntry { base_addr, data });
        BufId(self.buffers.len() - 1)
    }

    /// Allocates `len` zero-initialised `f32` cells.
    pub fn alloc(&mut self, len: usize) -> BufId {
        let mut data = Vec::with_capacity(len);
        data.resize_with(len, || AtomicU32::new(0f32.to_bits()));
        self.push(len, Storage::Real(data))
    }

    /// Reserves `len` cells of address space with **no** backing data:
    /// traffic replay works, functional access faults — paper-scale
    /// problems can be profiled without materialising gigabytes.
    pub fn alloc_virtual(&mut self, len: usize) -> BufId {
        self.push(len, Storage::Virtual(len))
    }

    /// Allocates and fills from `src`.
    pub fn upload(&mut self, src: &[f32]) -> BufId {
        let id = self.alloc(src.len());
        let buf = &self.buffers[id.0];
        for (cell, v) in buf.cells().iter().zip(src) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
        id
    }

    /// Copies a buffer back to the host.
    ///
    /// # Panics
    /// Panics on an invalid handle.
    #[must_use]
    pub fn download(&self, id: BufId) -> Vec<f32> {
        self.entry(id)
            .cells()
            .iter()
            .map(|c| f32::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Overwrites a buffer's contents with `src`.
    ///
    /// # Panics
    /// Panics on an invalid handle or length mismatch.
    pub fn write(&self, id: BufId, src: &[f32]) {
        let buf = self.entry(id);
        assert_eq!(buf.len(), src.len(), "upload length mismatch");
        for (cell, v) in buf.cells().iter().zip(src) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Fills a buffer with a constant.
    pub fn fill(&self, id: BufId, v: f32) {
        for cell in self.entry(id).cells() {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Number of `f32` cells in the buffer.
    #[must_use]
    pub fn len(&self, id: BufId) -> usize {
        self.entry(id).len()
    }

    /// True if the buffer holds no cells.
    #[must_use]
    pub fn is_empty(&self, id: BufId) -> bool {
        self.entry(id).len() == 0
    }

    /// True if the buffer is address-space-only (no backing data) —
    /// such buffers cannot receive injected DRAM faults.
    #[must_use]
    pub fn is_virtual(&self, id: BufId) -> bool {
        matches!(self.entry(id).data, Storage::Virtual(_))
    }

    /// Base byte address of the buffer in the flat device address space.
    #[must_use]
    pub fn base_addr(&self, id: BufId) -> u64 {
        self.entry(id).base_addr
    }

    /// Byte address of element `idx` of the buffer.
    #[inline]
    #[must_use]
    pub fn addr_of(&self, id: BufId, idx: usize) -> u64 {
        self.entry(id).base_addr + idx as u64 * 4
    }

    /// Loads element `idx`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access (the simulator's equivalent of a
    /// device memory fault).
    #[inline]
    #[must_use]
    pub fn load(&self, id: BufId, idx: usize) -> f32 {
        f32::from_bits(self.entry(id).cells()[idx].load(Ordering::Relaxed))
    }

    /// Copies the `dst.len()` elements starting at `start` into `dst`:
    /// a host staging copy of one block's operand slice, so native
    /// execution never snapshots a whole buffer.
    ///
    /// # Panics
    /// Panics on an out-of-bounds range or a virtual buffer.
    pub fn read_range(&self, id: BufId, start: usize, dst: &mut [f32]) {
        let cells = &self.entry(id).cells()[start..start + dst.len()];
        for (d, cell) in dst.iter_mut().zip(cells) {
            *d = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    /// Stores `v` into element `idx`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn store(&self, id: BufId, idx: usize, v: f32) {
        self.entry(id).cells()[idx].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomic `+=` (device `atomicAdd(float*, float)`), returning the
    /// previous value.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    pub fn atomic_add(&self, id: BufId, idx: usize, v: f32) -> f32 {
        let cell = &self.entry(id).cells()[idx];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let old = f32::from_bits(cur);
            let new = (old + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return old,
                Err(actual) => cur = actual,
            }
        }
    }

    fn entry(&self, id: BufId) -> &BufferEntry {
        self.buffers.get(id.0).expect("invalid buffer handle")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_download_round_trip() {
        let mut m = GlobalMem::new();
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let id = m.upload(&data);
        assert_eq!(m.download(id), data);
        assert_eq!(m.len(id), 100);
        assert!(!m.is_empty(id));
    }

    #[test]
    fn buffers_do_not_overlap_and_are_aligned() {
        let mut m = GlobalMem::new();
        let a = m.alloc(3); // 12 bytes -> 256-byte slot
        let b = m.alloc(100);
        let c = m.alloc(0);
        let d = m.alloc(1);
        assert_eq!(m.base_addr(a) % BUFFER_ALIGN, 0);
        assert_eq!(m.base_addr(b) % BUFFER_ALIGN, 0);
        assert!(m.base_addr(b) >= m.base_addr(a) + 12);
        assert!(m.base_addr(c) > m.base_addr(b));
        assert!(
            m.base_addr(d) > m.base_addr(c),
            "zero-length buffers still get unique addresses"
        );
    }

    #[test]
    fn addr_of_is_base_plus_offset() {
        let mut m = GlobalMem::new();
        let a = m.alloc(10);
        assert_eq!(m.addr_of(a, 7), m.base_addr(a) + 28);
    }

    #[test]
    fn load_store_and_fill() {
        let mut m = GlobalMem::new();
        let a = m.alloc(4);
        m.store(a, 2, 9.5);
        assert_eq!(m.load(a, 2), 9.5);
        m.fill(a, -1.0);
        assert_eq!(m.download(a), vec![-1.0; 4]);
    }

    #[test]
    fn atomic_add_returns_previous_and_accumulates() {
        let mut m = GlobalMem::new();
        let a = m.alloc(1);
        assert_eq!(m.atomic_add(a, 0, 2.0), 0.0);
        assert_eq!(m.atomic_add(a, 0, 3.0), 2.0);
        assert_eq!(m.load(a, 0), 5.0);
    }

    #[test]
    fn atomic_add_is_correct_under_contention() {
        use rayon::prelude::*;
        let mut m = GlobalMem::new();
        let a = m.alloc(1);
        let m = &m;
        (0..10_000).into_par_iter().for_each(|_| {
            m.atomic_add(a, 0, 1.0);
        });
        assert_eq!(m.load(a, 0), 10_000.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_load_faults() {
        let mut m = GlobalMem::new();
        let a = m.alloc(2);
        let _ = m.load(a, 2);
    }

    #[test]
    fn virtual_buffers_have_addresses_but_no_data() {
        let mut m = GlobalMem::new();
        let a = m.alloc_virtual(1_000_000);
        let b = m.alloc(4);
        assert_eq!(m.len(a), 1_000_000);
        assert!(m.base_addr(b) >= m.base_addr(a) + 4_000_000);
        assert_eq!(m.addr_of(a, 10), m.base_addr(a) + 40);
    }

    #[test]
    #[should_panic(expected = "virtual")]
    fn virtual_buffer_load_faults() {
        let mut m = GlobalMem::new();
        let a = m.alloc_virtual(8);
        let _ = m.load(a, 0);
    }

    #[test]
    fn read_range_copies_a_slice() {
        let mut m = GlobalMem::new();
        let a = m.upload(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut dst = [0.0; 3];
        m.read_range(a, 1, &mut dst);
        assert_eq!(dst, [2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_range_past_the_end_faults() {
        let mut m = GlobalMem::new();
        let a = m.alloc(4);
        m.read_range(a, 2, &mut [0.0; 3]);
    }

    #[test]
    fn write_replaces_contents() {
        let mut m = GlobalMem::new();
        let a = m.upload(&[1.0, 2.0]);
        m.write(a, &[3.0, 4.0]);
        assert_eq!(m.download(a), vec![3.0, 4.0]);
    }
}
