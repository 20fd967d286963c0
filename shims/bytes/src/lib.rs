//! Offline stand-in for the `bytes` crate.
//!
//! [`BytesMut`] is a growable byte buffer implementing [`BufMut`], and
//! derefs to its written bytes as a `[u8]` (so a buffer can be sized once
//! with [`BytesMut::resize`] and filled in place); [`Bytes`] is a frozen
//! buffer with a read cursor implementing [`Buf`], as does `&[u8]`, whose
//! reads advance the slice. Only the little-endian accessors the wire
//! format uses are provided. Cheap cloning is preserved by sharing the
//! frozen storage behind an `Arc` (clones of a packet do not copy the
//! payload).

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

macro_rules! get_methods {
    ($($name:ident -> $ty:ty),+ $(,)?) => {
        $(
            /// Read one little-endian value, advancing the cursor.
            fn $name(&mut self) -> $ty {
                const N: usize = std::mem::size_of::<$ty>();
                let chunk = self.take_bytes(N);
                <$ty>::from_le_bytes(chunk.try_into().expect("sized chunk"))
            }
        )+
    };
}

macro_rules! put_methods {
    ($($name:ident($ty:ty)),+ $(,)?) => {
        $(
            /// Append one value in little-endian encoding.
            fn $name(&mut self, v: $ty) {
                self.put_slice(&v.to_le_bytes());
            }
        )+
    };
}

/// Read-side buffer trait (cursor over bytes).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes, without advancing the cursor.
    fn chunk(&self) -> &[u8];

    /// Consume and return the next `n` bytes.
    fn take_bytes(&mut self, n: usize) -> &[u8];

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        self.take_bytes(1)[0]
    }

    get_methods! {
        get_u32_le -> u32,
        get_i32_le -> i32,
        get_u64_le -> u64,
        get_i64_le -> i64,
        get_f32_le -> f32,
        get_f64_le -> f64,
    }
}

/// Write-side buffer trait (append-only).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    put_methods! {
        put_u32_le(u32),
        put_i32_le(i32),
        put_u64_le(u64),
        put_i64_le(i64),
        put_f32_le(f32),
        put_f64_le(f64),
    }
}

/// Growable, writable byte buffer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// New empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// New empty buffer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Written length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Grow or shrink the written length to `new_len`, filling new bytes
    /// with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(new_len, value);
    }

    /// Freeze into an immutable, cheaply cloneable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: Arc::new(self.data),
            pos: 0,
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Immutable shared byte buffer with a read cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    pos: usize,
}

impl Bytes {
    /// Unread length in bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when fully consumed (or empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy the unread bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data[self.pos..].to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes {
            data: Arc::new(data),
            pos: 0,
        }
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    fn take_bytes(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "buffer underrun");
        let start = self.pos;
        self.pos += n;
        &self.data[start..start + n]
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn take_bytes(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "buffer underrun");
        let (head, rest) = self.split_at(n);
        *self = rest;
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_freeze_read_roundtrip() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(7);
        buf.put_i64_le(-42);
        buf.put_u32_le(9);
        buf.put_f64_le(1.5);
        assert_eq!(buf.len(), 1 + 8 + 4 + 8);
        let mut b = buf.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_i64_le(), -42);
        assert_eq!(b.get_u32_le(), 9);
        assert_eq!(b.get_f64_le(), 1.5);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn clone_shares_storage_and_cursor_is_independent() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(11);
        buf.put_u32_le(22);
        let mut a = buf.freeze();
        assert_eq!(a.get_u32_le(), 11);
        let mut b = a.clone();
        assert_eq!(a.get_u32_le(), 22);
        assert_eq!(b.chunk(), &22u32.to_le_bytes());
        assert_eq!(b.get_u32_le(), 22);
        assert!(b.chunk().is_empty());
    }

    #[test]
    fn from_vec_and_to_vec() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "underrun")]
    fn underrun_panics() {
        let mut b = Bytes::from(vec![1u8]);
        b.get_u32_le();
    }

    #[test]
    fn a_slice_reads_like_bytes_and_advances() {
        let mut buf = BytesMut::new();
        buf.put_u8(3);
        buf.put_i64_le(-9);
        buf.put_u32_le(77);
        let frozen = buf.freeze();
        let mut s: &[u8] = frozen.chunk();
        assert_eq!(s.get_u8(), 3);
        assert_eq!(s.get_i64_le(), -9);
        assert_eq!(s.remaining(), 4);
        assert_eq!(s.chunk(), &77u32.to_le_bytes());
        assert_eq!(s.get_u32_le(), 77);
        assert!(s.is_empty());
        // The frozen buffer's own cursor did not move.
        assert_eq!(frozen.len(), 1 + 8 + 4);
    }

    #[test]
    #[should_panic(expected = "underrun")]
    fn slice_underrun_panics_as_bytes_does() {
        let mut s: &[u8] = &[1, 2, 3];
        s.get_u32_le();
    }

    #[test]
    fn resize_then_fill_in_place() {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u8(0xaa);
        buf.resize(5, 0);
        assert_eq!(buf.len(), 5);
        assert_eq!(&buf[..], &[0xaa, 0, 0, 0, 0]);
        buf[1..].copy_from_slice(&0x0403_0201u32.to_le_bytes());
        buf.put_u8(0xbb);
        assert_eq!(buf.freeze().to_vec(), vec![0xaa, 1, 2, 3, 4, 0xbb]);
        let mut shrink = BytesMut::new();
        shrink.put_u32_le(7);
        shrink.resize(1, 9);
        assert_eq!(&shrink[..], &[7]);
        shrink.resize(3, 9);
        assert_eq!(&shrink[..], &[7, 9, 9]);
    }
}
