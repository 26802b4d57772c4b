//! Typed views over global-memory regions.

use std::marker::PhantomData;

use dse_kernel::Distribution;
use dse_msg::{NodeId, RegionId};

use crate::api::ParallelApi;

/// Element types storable in global memory (explicit little-endian layout,
/// mirroring the hand-rolled wire codec).
pub trait GmElem: Copy + Send + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Write the little-endian encoding into `out` (`out.len() == SIZE`).
    fn write_le(self, out: &mut [u8]);
    /// Read the little-endian encoding from `buf` (`buf.len() == SIZE`).
    fn read_le(buf: &[u8]) -> Self;
}

macro_rules! gm_elem_int {
    ($($t:ty),*) => {$(
        impl GmElem for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            fn read_le(buf: &[u8]) -> Self {
                <$t>::from_le_bytes(buf.try_into().unwrap())
            }
        }
    )*};
}

gm_elem_int!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// A typed, distributed global array.
///
/// The handle is `Copy` and rank-agnostic: allocate it collectively once,
/// then any rank can read/write through its own context.
///
/// ```
/// use dse_api::{Distribution, DseProgram, GmArray, ParallelApi, Platform};
///
/// DseProgram::new(Platform::linux_pentium2()).run(4, |ctx| {
///     let arr = GmArray::<u64>::alloc(ctx, 4, Distribution::Blocked);
///     arr.set(ctx, ctx.rank() as usize, ctx.rank() as u64 * 10);
///     ctx.barrier();
///     assert_eq!(arr.read(ctx, 0, 4), vec![0, 10, 20, 30]);
/// });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmArray<T> {
    region: RegionId,
    len: usize,
    _elem: PhantomData<T>,
}

impl<T: GmElem> GmArray<T> {
    /// Collectively allocate an array of `len` elements (all ranks must
    /// call identically).
    ///
    /// An element-`Blocked` layout is translated to an explicit byte
    /// chunking of `ceil(len/nprocs) * size_of::<T>()` so element and home
    /// boundaries coincide: rank `r`'s elements are exactly the ones homed
    /// on node `r`, whatever `len` and `nprocs` are.
    pub fn alloc(ctx: &mut impl ParallelApi, len: usize, dist: Distribution) -> GmArray<T> {
        let dist = match dist {
            Distribution::Blocked => Distribution::BlockedBy {
                chunk: len.div_ceil(ctx.nprocs()).max(1) * T::SIZE,
            },
            other => other,
        };
        let region = ctx.gm_alloc(len * T::SIZE, dist);
        GmArray {
            region,
            len,
            _elem: PhantomData,
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying region.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Read `count` elements starting at `start`.
    pub fn read(&self, ctx: &mut impl ParallelApi, start: usize, count: usize) -> Vec<T> {
        assert!(start + count <= self.len, "GmArray read out of bounds");
        let bytes = ctx.gm_read(self.region, (start * T::SIZE) as u64, count * T::SIZE);
        bytes.chunks_exact(T::SIZE).map(|c| T::read_le(c)).collect()
    }

    /// Read elements starting at `start` into a caller-provided slice,
    /// avoiding the intermediate `Vec` allocations of [`GmArray::read`].
    pub fn read_into(&self, ctx: &mut impl ParallelApi, start: usize, out: &mut [T]) {
        assert!(start + out.len() <= self.len, "GmArray read out of bounds");
        let mut buf = ctx.take_scratch();
        buf.clear();
        buf.resize(out.len() * T::SIZE, 0);
        ctx.gm_read_into(self.region, (start * T::SIZE) as u64, &mut buf);
        for (o, c) in out.iter_mut().zip(buf.chunks_exact(T::SIZE)) {
            *o = T::read_le(c);
        }
        ctx.put_scratch(buf);
    }

    /// Write elements starting at `start`.
    pub fn write(&self, ctx: &mut impl ParallelApi, start: usize, items: &[T]) {
        assert!(
            start + items.len() <= self.len,
            "GmArray write out of bounds"
        );
        let mut bytes = vec![0u8; items.len() * T::SIZE];
        for (i, &v) in items.iter().enumerate() {
            v.write_le(&mut bytes[i * T::SIZE..(i + 1) * T::SIZE]);
        }
        ctx.gm_write(self.region, (start * T::SIZE) as u64, &bytes);
    }

    /// Read one element (through the context's scratch buffer, so the hot
    /// element-wise access pattern allocates nothing after warm-up).
    pub fn get(&self, ctx: &mut impl ParallelApi, idx: usize) -> T {
        assert!(idx < self.len, "GmArray get out of bounds");
        let mut buf = ctx.take_scratch();
        buf.clear();
        buf.resize(T::SIZE, 0);
        ctx.gm_read_into(self.region, (idx * T::SIZE) as u64, &mut buf);
        let v = T::read_le(&buf[..T::SIZE]);
        ctx.put_scratch(buf);
        v
    }

    /// Write one element (scratch-buffered like [`GmArray::get`]).
    pub fn set(&self, ctx: &mut impl ParallelApi, idx: usize, value: T) {
        assert!(idx < self.len, "GmArray set out of bounds");
        let mut buf = ctx.take_scratch();
        buf.clear();
        buf.resize(T::SIZE, 0);
        value.write_le(&mut buf[..T::SIZE]);
        ctx.gm_write(self.region, (idx * T::SIZE) as u64, &buf[..T::SIZE]);
        ctx.put_scratch(buf);
    }
}

/// A shared atomic counter homed on node 0 — the DSE idiom for dynamic task
/// queues ("get me the next job index").
///
/// ```
/// use dse_api::{DseProgram, GmCounter, Platform};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let total = Arc::new(AtomicU64::new(0));
/// let t = Arc::clone(&total);
/// DseProgram::new(Platform::sunos_sparc()).run(3, move |ctx| {
///     let jobs = GmCounter::alloc(ctx);
///     ctx.barrier();
///     while jobs.next(ctx) < 10 {
///         t.fetch_add(1, Ordering::Relaxed); // each job exactly once
///     }
/// });
/// assert_eq!(total.load(Ordering::Relaxed), 10);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GmCounter {
    region: RegionId,
}

impl GmCounter {
    /// Collectively allocate a counter starting at zero.
    pub fn alloc(ctx: &mut impl ParallelApi) -> GmCounter {
        let region = ctx.gm_alloc(8, Distribution::OnNode(NodeId(0)));
        GmCounter { region }
    }

    /// Atomically add `delta`, returning the previous value.
    pub fn fetch_add(&self, ctx: &mut impl ParallelApi, delta: i64) -> i64 {
        ctx.gm_fetch_add(self.region, 0, delta)
    }

    /// Take the next value (fetch_add 1).
    pub fn next(&self, ctx: &mut impl ParallelApi) -> i64 {
        self.fetch_add(ctx, 1)
    }

    /// Read the current value without advancing it.
    pub fn load(&self, ctx: &mut impl ParallelApi) -> i64 {
        self.fetch_add(ctx, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_roundtrip_f64() {
        let mut buf = [0u8; 8];
        (1234.5678f64).write_le(&mut buf);
        assert_eq!(f64::read_le(&buf), 1234.5678);
    }

    #[test]
    fn elem_roundtrip_signed() {
        let mut buf = [0u8; 8];
        (-99i64).write_le(&mut buf);
        assert_eq!(i64::read_le(&buf), -99);
        let mut b2 = [0u8; 2];
        (-7i16).write_le(&mut b2);
        assert_eq!(i16::read_le(&b2), -7);
    }

    #[test]
    fn elem_sizes() {
        assert_eq!(<u8 as GmElem>::SIZE, 1);
        assert_eq!(<f32 as GmElem>::SIZE, 4);
        assert_eq!(<f64 as GmElem>::SIZE, 8);
    }
}
