//! [`TrackedBuf`]: a buffer whose every access is reported to a tracer.
//!
//! Aggregation algorithms in `olive-core` hold their adversary-visible state
//! (the concatenated client gradients `G` and the dense accumulator `G*`)
//! in `TrackedBuf`s, so the recorded trace is faithful by construction —
//! there is no unsupervised access path.

use crate::tracer::{Op, RegionId, Tracer};

/// A `Vec<T>` wrapper that reports every read and write to a [`Tracer`].
///
/// `T: Copy` keeps the access API by-value, mirroring word-sized loads and
/// stores; gradient cells are `(u32, f32)` pairs or `f32` scalars.
#[derive(Clone, Debug)]
pub struct TrackedBuf<T: Copy> {
    data: Vec<T>,
    region: RegionId,
}

impl<T: Copy> TrackedBuf<T> {
    /// Wraps `data` as region `region`.
    pub fn new(region: RegionId, data: Vec<T>) -> Self {
        TrackedBuf { data, region }
    }

    /// A zero-filled buffer of `len` elements.
    pub fn zeroed(region: RegionId, len: usize) -> Self
    where
        T: Default,
    {
        TrackedBuf { data: vec![T::default(); len], region }
    }

    /// The region id this buffer reports accesses under.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline(always)]
    fn byte_off(i: usize) -> u64 {
        (i * core::mem::size_of::<T>()) as u64
    }

    /// Traced load of element `i`.
    #[inline(always)]
    pub fn read<TR: Tracer>(&self, i: usize, tr: &mut TR) -> T {
        tr.touch(self.region, Self::byte_off(i), core::mem::size_of::<T>() as u32, Op::Read);
        self.data[i]
    }

    /// Traced store of element `i`.
    #[inline(always)]
    pub fn write<TR: Tracer>(&mut self, i: usize, v: T, tr: &mut TR) {
        tr.touch(self.region, Self::byte_off(i), core::mem::size_of::<T>() as u32, Op::Write);
        self.data[i] = v;
    }

    /// Traced read of a pair `(i, j)` in one shot, used by compare-exchange
    /// networks. The trace is identical to two reads.
    #[inline(always)]
    pub fn read_pair<TR: Tracer>(&self, i: usize, j: usize, tr: &mut TR) -> (T, T) {
        (self.read(i, tr), self.read(j, tr))
    }

    /// Traced write of a pair.
    #[inline(always)]
    pub fn write_pair<TR: Tracer>(&mut self, i: usize, vi: T, j: usize, vj: T, tr: &mut TR) {
        self.write(i, vi, tr);
        self.write(j, vj, tr);
    }

    /// Untraced view of the underlying data. Only for use *outside* the
    /// adversary-observed window (e.g. checking results in tests, or
    /// enclave-private copies); never call this inside a traced algorithm.
    pub fn as_slice_untraced(&self) -> &[T] {
        &self.data
    }

    /// Untraced mutable view of the underlying data, for kernels that
    /// account for their accesses **out of band** with block events whose
    /// expansion is a pure function of `len()` (see
    /// [`Tracer::touch_cex_span`]). The caller is responsible for emitting
    /// a trace equivalent to the per-access one — never use this to skip
    /// tracing.
    pub fn as_mut_slice_untraced(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the buffer, returning the underlying vector (untraced; see
    /// [`TrackedBuf::as_slice_untraced`]).
    pub fn into_inner(self) -> Vec<T> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Access, Granularity, NullTracer, RecordingTracer};

    #[test]
    fn read_write_traced() {
        let mut tr = RecordingTracer::with_events(Granularity::Element);
        let mut buf = TrackedBuf::<u64>::zeroed(7, 4);
        buf.write(2, 99, &mut tr);
        assert_eq!(buf.read(2, &mut tr), 99);
        assert_eq!(
            tr.events().unwrap(),
            &[
                Access { region: 7, offset: 16, op: Op::Write },
                Access { region: 7, offset: 16, op: Op::Read },
            ]
        );
    }

    #[test]
    fn cacheline_offsets() {
        let mut tr = RecordingTracer::with_events(Granularity::Cacheline);
        let buf = TrackedBuf::<f32>::zeroed(1, 64);
        // f32 = 4 bytes → 16 elements per 64-byte line.
        buf.read(0, &mut tr);
        buf.read(15, &mut tr);
        buf.read(16, &mut tr);
        let lines: Vec<u64> = tr.events().unwrap().iter().map(|a| a.offset).collect();
        assert_eq!(lines, vec![0, 0, 1]);
    }

    #[test]
    fn null_tracer_works() {
        let mut buf = TrackedBuf::<u32>::zeroed(0, 8);
        buf.write(1, 5, &mut NullTracer);
        assert_eq!(buf.read(1, &mut NullTracer), 5);
        assert_eq!(buf.as_slice_untraced(), &[0, 5, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn into_inner_returns_data() {
        let mut buf = TrackedBuf::<u8>::zeroed(0, 3);
        buf.write(0, 1, &mut NullTracer);
        assert_eq!(buf.into_inner(), vec![1, 0, 0]);
    }
}
