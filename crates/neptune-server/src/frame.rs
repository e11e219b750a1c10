//! Message framing over a byte stream.
//!
//! Each message travels as `[len: u32 LE][crc32(payload): u32 LE][payload]`,
//! the same frame the write-ahead log puts on disk
//! ([`neptune_storage::frame`]). The CRC protects against a corrupted or desynchronized stream turning
//! into a silently wrong operation on the server.
//!
//! [`FrameBuf`] holds per-connection scratch state so the steady-state cost
//! of a frame is zero allocations: reads reuse one payload buffer, writes
//! reuse one encode buffer and stream shared segments
//! ([`Writer::put_bytes_shared`]) straight to the socket without ever
//! materializing the frame contiguously.

use std::io::{Read, Write};
use std::sync::Arc;

use neptune_storage::checksum::crc32;
use neptune_storage::codec::{Decode, Encode, Writer};
use neptune_storage::error::{Result, StorageError};
use neptune_storage::frame::frame_header;

/// Largest accepted frame (64 MiB): a node's contents can be large, but a
/// length beyond this indicates a desynchronized or hostile stream.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Reusable per-connection framing state: a read scratch buffer, a write
/// encode buffer, and optional byte counters
/// (`neptune_server_bytes_{in,out}_total` on the server side).
///
/// Error behavior is designed so a connection can survive a bad frame
/// without desynchronizing: an oversized length is rejected *before any
/// allocation* ([`StorageError::FrameTooLarge`]), and a CRC mismatch is
/// reported only after the full payload has been drained from the stream,
/// leaving the reader positioned at the next frame boundary.
#[derive(Default)]
pub struct FrameBuf {
    read_scratch: Vec<u8>,
    write_scratch: Writer,
    bytes_in: Option<Arc<neptune_obs::Counter>>,
    bytes_out: Option<Arc<neptune_obs::Counter>>,
}

impl FrameBuf {
    /// Scratch state with no byte accounting (client side).
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Scratch state that adds every frame's wire size (header + payload)
    /// to the given counters.
    pub fn with_counters(
        bytes_in: Arc<neptune_obs::Counter>,
        bytes_out: Arc<neptune_obs::Counter>,
    ) -> Self {
        FrameBuf {
            bytes_in: Some(bytes_in),
            bytes_out: Some(bytes_out),
            ..FrameBuf::default()
        }
    }

    /// Read one frame and decode it as `T`, reusing the scratch buffer.
    ///
    /// Returns `Err(StorageError::Io)` with `UnexpectedEof` on clean stream
    /// close before a frame starts (the caller treats that as disconnect).
    pub fn read_frame<R: Read, T: Decode>(&mut self, reader: &mut R) -> Result<T> {
        let mut header = [0u8; 8];
        reader.read_exact(&mut header)?;
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        let expected_crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if len > MAX_FRAME {
            // Reject before resizing the scratch buffer: a corrupt length
            // field must not drive a giant allocation.
            return Err(StorageError::FrameTooLarge {
                len: len as u64,
                max: MAX_FRAME as u64,
            });
        }
        self.read_scratch.resize(len as usize, 0);
        reader.read_exact(&mut self.read_scratch)?;
        if let Some(c) = &self.bytes_in {
            c.add(8 + len as u64);
        }
        let actual = crc32(&self.read_scratch);
        if actual != expected_crc {
            return Err(StorageError::ChecksumMismatch {
                expected: expected_crc,
                actual,
            });
        }
        T::from_bytes(&self.read_scratch)
    }

    /// Write one encodable message as a frame, reusing the encode buffer,
    /// then flush the writer. See [`FrameBuf::queue_frame`] for the
    /// pipelined (unflushed) variant.
    pub fn write_frame<W: Write, T: Encode>(&mut self, writer: &mut W, message: &T) -> Result<()> {
        self.queue_frame(writer, message)?;
        writer.flush()?;
        Ok(())
    }

    /// Write one frame *without* flushing, so a pipelining caller can queue
    /// N frames into a buffered writer and pay one flush for all of them.
    ///
    /// The payload is never assembled contiguously: the CRC is computed
    /// incrementally over the encoder's chunks (shared segments included)
    /// and the same chunks are then streamed to `writer`.
    pub fn queue_frame<W: Write, T: Encode>(&mut self, writer: &mut W, message: &T) -> Result<()> {
        self.write_scratch.clear();
        message.encode(&mut self.write_scratch);
        let header = frame_header(&self.write_scratch, MAX_FRAME)?;
        let len = self.write_scratch.len();
        writer.write_all(&header)?;
        let mut io_err: Option<std::io::Error> = None;
        self.write_scratch.for_each_chunk(|chunk| {
            if io_err.is_none() {
                if let Err(e) = writer.write_all(chunk) {
                    io_err = Some(e);
                }
            }
        });
        if let Some(e) = io_err {
            return Err(e.into());
        }
        if let Some(c) = &self.bytes_out {
            c.add(8 + len as u64);
        }
        // Drop shared segments now rather than at the next call: holding
        // them would pin large payload allocations between frames.
        self.write_scratch.clear();
        Ok(())
    }
}

/// Write one encodable message as a frame (one-shot convenience; hot paths
/// keep a [`FrameBuf`] instead).
pub fn write_frame<W: Write, T: Encode>(writer: &mut W, message: &T) -> Result<()> {
    FrameBuf::new().write_frame(writer, message)
}

/// Read one frame and decode it as `T` (one-shot convenience; hot paths
/// keep a [`FrameBuf`] instead).
pub fn read_frame<R: Read, T: Decode>(reader: &mut R) -> Result<T> {
    FrameBuf::new().read_frame(reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &"hello hypertext".to_string()).unwrap();
        write_frame(&mut buf, &42u64).unwrap();
        let mut cursor = Cursor::new(buf);
        let s: String = read_frame(&mut cursor).unwrap();
        assert_eq!(s, "hello hypertext");
        let n: u64 = read_frame(&mut cursor).unwrap();
        assert_eq!(n, 42);
    }

    #[test]
    fn reused_framebuf_roundtrips_and_counts_bytes() {
        let registry = neptune_obs::Registry::new(true);
        let mut fb = FrameBuf::with_counters(
            registry.counter("test_bytes_in"),
            registry.counter("test_bytes_out"),
        );
        let mut buf = Vec::new();
        fb.write_frame(&mut buf, &"first".to_string()).unwrap();
        fb.write_frame(&mut buf, &"second, longer".to_string())
            .unwrap();
        let wire_len = buf.len() as u64;
        let mut cursor = Cursor::new(buf);
        let a: String = fb.read_frame(&mut cursor).unwrap();
        let b: String = fb.read_frame(&mut cursor).unwrap();
        assert_eq!((a.as_str(), b.as_str()), ("first", "second, longer"));
        assert_eq!(registry.counter("test_bytes_out").get(), wire_len);
        assert_eq!(registry.counter("test_bytes_in").get(), wire_len);
    }

    #[test]
    fn shared_segments_stream_without_materializing() {
        // An Arc'd payload goes out by reference and arrives intact.
        let payload: Arc<[u8]> = Arc::from(vec![0xABu8; 100_000]);
        let mut fb = FrameBuf::new();
        let mut buf = Vec::new();
        fb.write_frame(&mut buf, &payload).unwrap();
        assert_eq!(
            Arc::strong_count(&payload),
            1,
            "write must not retain the payload"
        );
        let mut cursor = Cursor::new(buf);
        let back: Arc<[u8]> = fb.read_frame(&mut cursor).unwrap();
        assert_eq!(&back[..], &payload[..]);
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &"payload".to_string()).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_frame::<_, String>(&mut cursor),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn crc_mismatch_leaves_stream_frame_aligned() {
        // A CRC-failed frame is fully drained, so the *next* frame still
        // decodes — the connection can report the error and keep going
        // instead of desynchronizing.
        let mut buf = Vec::new();
        write_frame(&mut buf, &"corrupt me".to_string()).unwrap();
        let after_first = buf.len();
        write_frame(&mut buf, &"survivor".to_string()).unwrap();
        buf[after_first - 1] ^= 0xFF; // flip a byte in frame 1's payload
        let mut fb = FrameBuf::new();
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            fb.read_frame::<_, String>(&mut cursor),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        let s: String = fb.read_frame(&mut cursor).unwrap();
        assert_eq!(s, "survivor");
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut fb = FrameBuf::new();
        let mut cursor = Cursor::new(buf);
        let err = fb.read_frame::<_, String>(&mut cursor).unwrap_err();
        assert!(
            matches!(err, StorageError::FrameTooLarge { len, max }
                if len == (MAX_FRAME + 1) as u64 && max == MAX_FRAME as u64),
            "want FrameTooLarge, got {err:?}"
        );
        assert_eq!(
            fb.read_scratch.capacity(),
            0,
            "hostile length must be rejected before any allocation"
        );
        // A max-length header is also rejected at *write* time, so a peer
        // never emits a frame the other side won't accept.
        let huge = vec![0u8; MAX_FRAME as usize + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            fb.write_frame(&mut sink, &huge),
            Err(StorageError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn truncated_stream_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &"payload".to_string()).unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = Cursor::new(buf);
        assert!(read_frame::<_, String>(&mut cursor).is_err());
    }
}
