//! A small, explicit binary codec.
//!
//! The HAM persists graphs and speaks its wire protocol using this codec
//! rather than a general-purpose serialization framework: the set of domains
//! is small and closed (see the paper's Appendix), and a bespoke format keeps
//! the on-disk representation auditable and stable.
//!
//! Integers are varint-encoded ([`crate::varint`]); byte strings and
//! sequences are length-prefixed. [`Encode`]/[`Decode`] are implemented for
//! the primitives the HAM needs and compose structurally for containers.

use crate::error::{Result, StorageError};
use crate::varint;
use std::sync::Arc;

/// Incremental writer that appends encoded values to a byte buffer.
///
/// Large shared payloads can be spliced in by reference with
/// [`Writer::put_bytes_shared`]: the `Arc` is recorded alongside the offset
/// it belongs at instead of being copied into the buffer, and consumers that
/// stream the encoding ([`Writer::for_each_chunk`]) never materialize a
/// contiguous copy. [`Writer::put_nested`] splices the length prefix of a
/// byte string encoded in place the same way.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Shared segments spliced into the output, as `(offset_in_buf, bytes)`:
    /// the segment's bytes belong between `buf[..offset]` and `buf[offset..]`.
    /// Offsets are non-decreasing (append-only writer).
    segments: Vec<(usize, Arc<[u8]>)>,
    /// Total bytes in `segments`, so [`Writer::len`] is O(1).
    segment_bytes: usize,
}

impl Writer {
    /// Create an empty writer.
    pub fn new() -> Self {
        Writer::with_capacity(0)
    }

    /// Create a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
            segments: Vec::new(),
            segment_bytes: 0,
        }
    }

    /// Append an unsigned varint.
    pub fn put_u64(&mut self, v: u64) {
        varint::write_u64(&mut self.buf, v);
    }

    /// Append a signed (zig-zag) varint.
    pub fn put_i64(&mut self, v: i64) {
        varint::write_i64(&mut self.buf, v);
    }

    /// Append a single raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append an IEEE-754 double, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed byte string *by reference*: only the varint
    /// length lands in the buffer; the payload `Arc` is recorded for splicing
    /// at stream-out time. Encoding a cached node version this way is a
    /// refcount bump, not a memcpy.
    pub fn put_bytes_shared(&mut self, bytes: Arc<[u8]>) {
        self.put_u64(bytes.len() as u64);
        if !bytes.is_empty() {
            self.segment_bytes += bytes.len();
            self.segments.push((self.buf.len(), bytes));
        }
    }

    /// Append a length-prefixed byte string whose contents `f` encodes in
    /// place: the same bytes as `put_bytes(&inner.to_bytes())`, without the
    /// intermediate buffer or its copy. The varint length is known only
    /// once `f` returns, so it is spliced in front of the contents as a
    /// small shared segment instead of shifting them.
    pub fn put_nested(&mut self, f: impl FnOnce(&mut Writer)) {
        let (offset, index, before) = (self.buf.len(), self.segments.len(), self.len());
        f(self);
        let mut prefix = Vec::with_capacity(varint::MAX_VARINT_LEN);
        varint::write_u64(&mut prefix, (self.len() - before) as u64);
        self.segment_bytes += prefix.len();
        // Segments `f` pushed sit at or after `offset`; the prefix precedes
        // them all.
        self.segments.insert(index, (offset, prefix.into()));
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Encode `value` into this writer.
    pub fn put<T: Encode + ?Sized>(&mut self, value: &T) {
        value.encode(self);
    }

    /// Number of bytes written so far, shared segments included.
    pub fn len(&self) -> usize {
        self.buf.len() + self.segment_bytes
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty() && self.segments.is_empty()
    }

    /// Reset the writer for reuse, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.segments.clear();
        self.segment_bytes = 0;
    }

    /// Visit the encoded bytes in order as a sequence of contiguous chunks,
    /// without materializing shared segments into one buffer.
    pub fn for_each_chunk(&self, mut f: impl FnMut(&[u8])) {
        let mut pos = 0;
        for (offset, segment) in &self.segments {
            if *offset > pos {
                f(&self.buf[pos..*offset]);
                pos = *offset;
            }
            f(segment);
        }
        if pos < self.buf.len() {
            f(&self.buf[pos..]);
        }
    }

    /// Consume the writer, returning the encoded bytes. Shared segments are
    /// copied into place here (the one deliberate materialization point).
    pub fn into_bytes(self) -> Vec<u8> {
        if self.segments.is_empty() {
            return self.buf;
        }
        let mut out = Vec::with_capacity(self.len());
        self.for_each_chunk(|chunk| out.extend_from_slice(chunk));
        out
    }

    /// Borrow the bytes written so far.
    ///
    /// Only valid while no shared segments (nested length prefixes
    /// included) are pending; use [`Writer::for_each_chunk`] or
    /// [`Writer::into_bytes`] otherwise.
    pub fn as_slice(&self) -> &[u8] {
        debug_assert!(
            self.segments.is_empty(),
            "as_slice() cannot represent pending shared segments"
        );
        &self.buf
    }
}

/// Read a little-endian `u32` at `offset`, or `None` when the input ends
/// first. File-decode paths must degrade truncated input to errors, never
/// panic (DESIGN.md §12), so they use these checked reads instead of
/// indexing.
pub fn read_u32_at(bytes: &[u8], offset: usize) -> Option<u32> {
    let chunk = bytes.get(offset..offset.checked_add(4)?)?;
    Some(u32::from_le_bytes(chunk.try_into().ok()?))
}

/// Read a little-endian `u64` at `offset`, or `None` when the input ends
/// first. See [`read_u32_at`].
pub fn read_u64_at(bytes: &[u8], offset: usize) -> Option<u64> {
    let chunk = bytes.get(offset..offset.checked_add(8)?)?;
    Some(u64::from_le_bytes(chunk.try_into().ok()?))
}

/// Cursor that decodes values from the front of a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap `input` for decoding.
    pub fn new(input: &'a [u8]) -> Self {
        Reader { input, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Whether the entire input has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    /// Current byte offset into the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Decode an unsigned varint.
    pub fn get_u64(&mut self) -> Result<u64> {
        let (v, used) = varint::read_u64(&self.input[self.pos..])?;
        self.pos += used;
        Ok(v)
    }

    /// Decode a signed (zig-zag) varint.
    pub fn get_i64(&mut self) -> Result<i64> {
        let (v, used) = varint::read_i64(&self.input[self.pos..])?;
        self.pos += used;
        Ok(v)
    }

    /// Decode one raw byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        let b = *self
            .input
            .get(self.pos)
            .ok_or(StorageError::UnexpectedEof { context: "u8" })?;
        self.pos += 1;
        Ok(b)
    }

    /// Decode a boolean; any nonzero byte other than 1 is rejected.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(StorageError::InvalidTag {
                context: "bool",
                tag: tag as u64,
            }),
        }
    }

    /// Decode a little-endian IEEE-754 double.
    pub fn get_f64(&mut self) -> Result<f64> {
        let raw = self.get_raw(8, "f64")?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(f64::from_le_bytes(arr))
    }

    /// Take exactly `n` raw bytes.
    pub fn get_raw(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::UnexpectedEof { context });
        }
        let slice = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Decode a length-prefixed byte string, borrowing from the input.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u64()? as usize;
        self.get_raw(len, "byte string")
    }

    /// Decode a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| StorageError::InvalidUtf8)
    }

    /// Decode a value of type `T`.
    pub fn get<T: Decode>(&mut self) -> Result<T> {
        T::decode(self)
    }
}

/// Types that can serialize themselves into a [`Writer`].
pub trait Encode {
    /// Append the binary form of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Encode into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Types that can deserialize themselves from a [`Reader`].
pub trait Decode: Sized {
    /// Decode one value from the front of `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Decode from a complete byte slice, requiring full consumption.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_at_end() {
            return Err(StorageError::InvalidTag {
                context: "trailing bytes",
                tag: r.remaining() as u64,
            });
        }
        Ok(v)
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}
impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.get_u64()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
}
impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let v = r.get_u64()?;
        u32::try_from(v).map_err(|_| StorageError::InvalidTag {
            context: "u32",
            tag: v,
        })
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_i64(*self);
    }
}
impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.get_i64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
}
impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.get_bool()
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
}
impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.get_f64()
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}
impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.get_str()?.to_owned())
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}
impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.get_bytes()?.to_vec())
    }
}

/// Shared byte buffers encode exactly like `Vec<u8>` on the wire but are
/// spliced by reference instead of copied.
impl Encode for Arc<[u8]> {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes_shared(self.clone());
    }
}
impl Decode for Arc<[u8]> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.get_bytes()?.into())
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(StorageError::InvalidTag {
                context: "Option",
                tag: tag as u64,
            }),
        }
    }
}

/// Sequences encode as a count followed by each element.
pub fn encode_seq<T: Encode>(items: &[T], w: &mut Writer) {
    w.put_u64(items.len() as u64);
    for item in items {
        item.encode(w);
    }
}

/// Decode a sequence written by [`encode_seq`].
pub fn decode_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>> {
    let len = r.get_u64()? as usize;
    // Guard against hostile lengths: never pre-allocate more than the
    // remaining input could possibly hold (1 byte per element minimum).
    let mut out = Vec::with_capacity(len.min(r.remaining()));
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

/// A `Vec` of encodable values is an [`encode_seq`] sequence. `u8` is not
/// `Encode`, so this never overlaps `Vec<u8>`'s byte-string form above.
impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        encode_seq(self, w);
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        decode_seq(r)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
}
impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        let mut w = Writer::new();
        w.put_u64(300);
        w.put_i64(-5);
        w.put_bool(true);
        w.put_f64(2.5);
        w.put_str("hypertext");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u64().unwrap(), 300);
        assert_eq!(r.get_i64().unwrap(), -5);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert_eq!(r.get_str().unwrap(), "hypertext");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_at_end());
    }

    #[test]
    fn option_roundtrips() {
        let some: Option<u64> = Some(9);
        let none: Option<u64> = None;
        assert_eq!(Option::<u64>::from_bytes(&some.to_bytes()).unwrap(), some);
        assert_eq!(Option::<u64>::from_bytes(&none.to_bytes()).unwrap(), none);
    }

    #[test]
    fn seq_roundtrips() {
        let items = vec!["a".to_string(), "bb".to_string(), "".to_string()];
        let mut w = Writer::new();
        encode_seq(&items, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded: Vec<String> = decode_seq(&mut r).unwrap();
        assert_eq!(decoded, items);
        assert!(r.is_at_end());
    }

    #[test]
    fn tuples_roundtrip() {
        let v = (5u64, "x".to_string(), false);
        let decoded = <(u64, String, bool)>::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = 7u64.to_bytes();
        bytes.push(0xAB);
        assert!(u64::from_bytes(&bytes).is_err());
    }

    #[test]
    fn bool_rejects_other_tags() {
        let mut r = Reader::new(&[2]);
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn hostile_length_prefix_does_not_overallocate() {
        // Claims 2^60 elements but provides none.
        let mut w = Writer::new();
        w.put_u64(1u64 << 60);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(decode_seq::<u64>(&mut r).is_err());
    }

    #[test]
    fn shared_bytes_splice_identically_to_owned() {
        // The wire form must be byte-for-byte identical whether the payload
        // was copied (put_bytes) or spliced by reference (put_bytes_shared).
        let payload = vec![7u8; 300];
        let mut owned = Writer::new();
        owned.put_u64(1);
        owned.put_bytes(&payload);
        owned.put_str("tail");

        let mut shared = Writer::new();
        shared.put_u64(1);
        shared.put_bytes_shared(Arc::<[u8]>::from(payload.clone()));
        shared.put_str("tail");

        assert_eq!(shared.len(), owned.len());
        let mut streamed = Vec::new();
        shared.for_each_chunk(|chunk| streamed.extend_from_slice(chunk));
        assert_eq!(streamed, owned.as_slice());
        assert_eq!(shared.into_bytes(), owned.into_bytes());
    }

    #[test]
    fn shared_bytes_are_not_copied_into_the_buffer() {
        let payload: Arc<[u8]> = Arc::from(vec![9u8; 1024]);
        let mut w = Writer::new();
        w.put_bytes_shared(payload.clone());
        // Only the varint length prefix lands in the internal buffer; the
        // payload itself rides as a refcount on the original allocation.
        assert_eq!(Arc::strong_count(&payload), 2);
        assert_eq!(w.len(), 1024 + 2);
        w.clear();
        assert_eq!(Arc::strong_count(&payload), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn arc_bytes_roundtrip_through_codec() {
        let v: Arc<[u8]> = Arc::from(&b"shared contents"[..]);
        let bytes = v.to_bytes();
        assert_eq!(bytes, b"shared contents".to_vec().to_bytes());
        let back = Arc::<[u8]>::from_bytes(&bytes).unwrap();
        assert_eq!(&back[..], &v[..]);
        // Empty payloads take the no-segment fast path.
        let empty: Arc<[u8]> = Arc::from(&b""[..]);
        let back = Arc::<[u8]>::from_bytes(&empty.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn interleaved_shared_segments_stream_in_order() {
        let a: Arc<[u8]> = Arc::from(&b"AAAA"[..]);
        let b: Arc<[u8]> = Arc::from(&b"BB"[..]);
        let mut w = Writer::new();
        w.put_bytes_shared(a);
        w.put_u8(b'-');
        w.put_bytes_shared(b);
        w.put_u8(b'!');
        let mut flat = Vec::new();
        w.for_each_chunk(|chunk| flat.extend_from_slice(chunk));
        assert_eq!(flat, b"\x04AAAA-\x02BB!");
        assert_eq!(w.into_bytes(), b"\x04AAAA-\x02BB!");
    }

    #[test]
    fn nested_bytes_match_put_bytes_of_the_inner_encoding() {
        // Contents encoded in place, with a shared segment and a second
        // nested string inside, against the copy-through-a-buffer form.
        let payload: Arc<[u8]> = Arc::from(vec![3u8; 200]);
        let inner = |w: &mut Writer| {
            w.put_u64(7);
            w.put_bytes_shared(payload.clone());
            w.put_nested(|w| w.put_str("deep"));
            w.put_u8(b'!');
        };
        for size in [0usize, 1, 127, 128, 20_000] {
            let mut nested = Writer::new();
            nested.put_u8(b'<');
            nested.put_nested(|w| {
                w.put_raw(&vec![1u8; size]);
                inner(w);
            });
            nested.put_u8(b'>');

            let mut body = Writer::new();
            body.put_raw(&vec![1u8; size]);
            inner(&mut body);
            let mut copied = Writer::new();
            copied.put_u8(b'<');
            copied.put_bytes(&body.into_bytes());
            copied.put_u8(b'>');

            assert_eq!(nested.len(), copied.len(), "size {size}");
            assert_eq!(nested.into_bytes(), copied.into_bytes(), "size {size}");
        }
        let mut empty = Writer::new();
        empty.put_nested(|_| {});
        assert_eq!(empty.into_bytes(), vec![0]);
    }

    #[test]
    fn u32_range_checked() {
        let bytes = (u32::MAX as u64 + 1).to_bytes();
        assert!(u32::from_bytes(&bytes).is_err());
        let ok = u32::MAX.to_bytes();
        assert_eq!(u32::from_bytes(&ok).unwrap(), u32::MAX);
    }
}
