//! A hand-rolled ref-counted byte slice for zero-copy payload plumbing.
//!
//! The wire hot path used to materialize an owned `Vec<u8>` at every
//! layer: the frame decoder copied each payload out of its reassembly
//! buffer, the message decoder copied each byte-string field out of the
//! payload, and the GM completion path copied the field into the staging
//! buffer. [`Bytes`] collapses the middle copies: it is a `(Arc<Vec<u8>>,
//! offset, length)` triple, so slicing is a refcount bump and the bytes
//! themselves are written exactly once per hop. This is the same layout as
//! the `bytes` crate's `Bytes`, hand-rolled because the repo vendors no
//! new dependencies.
//!
//! Allocation-free steady state falls out of the refcount: once every
//! view into a decoder's reassembly buffer is dropped, the decoder sees a
//! unique `Arc` again and appends in place instead of reallocating.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Payloads and frames of at least this many bytes are *bulk*.
const BULK_MIN: usize = 4096;

/// Whether `len` bytes are worth handing over whole instead of copying.
///
/// Every layer that can either copy a buffer into storage it already owns
/// or keep the buffer itself asks this one question: a frame encoder
/// (pooled buffer or one of the exact size), [`crate::FrameDecoder`] (copy
/// into the reassembly buffer or adopt the delivered one), a GM read handle
/// (copy out of the response or keep a view of it). Below the threshold the
/// copy is cheaper than the allocation it saves and a kept view would pin a
/// large buffer for a few bytes; at or above it the copy is the cost.
pub fn is_bulk(len: usize) -> bool {
    len >= BULK_MIN
}

/// An immutable, cheaply cloneable view into shared byte storage.
#[derive(Clone, Default)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty slice (no allocation beyond the shared empty `Arc`).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wrap an owned vector without copying it.
    pub fn from_vec(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            buf: Arc::new(v),
            off: 0,
            len,
        }
    }

    /// A view over `len` bytes of `buf` starting at `off`.
    ///
    /// # Panics
    ///
    /// Panics when the range falls outside `buf`.
    pub fn from_arc(buf: Arc<Vec<u8>>, off: usize, len: usize) -> Bytes {
        assert!(off + len <= buf.len(), "Bytes range out of bounds");
        Bytes { buf, off, len }
    }

    /// Copy a borrowed slice into fresh shared storage.
    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        Bytes::from_vec(s.to_vec())
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of `len` bytes starting at `at` — a refcount bump, not
    /// a copy.
    ///
    /// # Panics
    ///
    /// Panics when the range falls outside this view.
    pub fn slice(&self, at: usize, len: usize) -> Bytes {
        assert!(at + len <= self.len, "Bytes::slice out of bounds");
        Bytes {
            buf: Arc::clone(&self.buf),
            off: self.off + at,
            len,
        }
    }

    /// Recover the owned vector: without copying when this is the only
    /// view over the whole buffer, by copy otherwise.
    pub fn into_vec(self) -> Vec<u8> {
        if self.off == 0 {
            match Arc::try_unwrap(self.buf) {
                Ok(mut v) => {
                    v.truncate(self.len);
                    return v;
                }
                Err(buf) => return buf[..self.len].to_vec(),
            }
        }
        self.as_slice().to_vec()
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.into_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicing_shares_storage() {
        let b = Bytes::from_vec(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1, 3);
        assert_eq!(s, [2, 3, 4]);
        let ss = s.slice(2, 1);
        assert_eq!(ss, [4]);
        assert_eq!(Arc::strong_count(&b.buf), 3);
    }

    #[test]
    fn into_vec_avoids_copy_when_unique() {
        let v = vec![7u8; 32];
        let ptr = v.as_ptr();
        let back = Bytes::from_vec(v).into_vec();
        assert_eq!(back.as_ptr(), ptr);
        assert_eq!(back, vec![7u8; 32]);
    }

    #[test]
    fn into_vec_copies_shared_or_offset_views() {
        let b = Bytes::from_vec(vec![1, 2, 3, 4]);
        let s = b.slice(2, 2);
        assert_eq!(s.into_vec(), vec![3, 4]);
        let c = b.clone();
        assert_eq!(c.into_vec(), vec![1, 2, 3, 4]);
        assert_eq!(b, [1, 2, 3, 4]);
    }

    #[test]
    fn equality_across_representations() {
        let b = Bytes::from(&b"abc"[..]);
        assert_eq!(b, *b"abc");
        assert_eq!(b, b"abc".to_vec());
        assert_eq!(b, Bytes::from_vec(b"abc".to_vec()));
        assert!(b != Bytes::new());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_slice_panics() {
        Bytes::from_vec(vec![0; 4]).slice(2, 3);
    }
}
