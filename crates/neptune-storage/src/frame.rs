//! The length-and-checksum frame shared by the write-ahead log and the
//! wire protocol.
//!
//! Both put every record or message on its byte stream as
//!
//! ```text
//! [ body_len: u32 LE ][ crc32(body): u32 LE ][ body ]
//! ```
//!
//! [`frame_header`] is the one place that header is computed, so a WAL
//! record and a wire message of the same body carry the same eight bytes.

use crate::checksum::Crc32;
use crate::codec::Writer;
use crate::error::{Result, StorageError};

/// Bytes of the `[len][crc]` header in front of every frame body.
pub const FRAME_HEADER_LEN: usize = 8;

/// The `[len][crc]` header framing `body`'s encoded bytes. The CRC runs
/// over the writer's chunks, shared segments included, so the body is
/// never assembled to be hashed. Bodies longer than `max` bytes are
/// refused with [`StorageError::FrameTooLarge`] before any hashing.
pub fn frame_header(body: &Writer, max: u32) -> Result<[u8; FRAME_HEADER_LEN]> {
    let len = body.len();
    if len > max as usize {
        return Err(StorageError::FrameTooLarge {
            len: len as u64,
            max: max as u64,
        });
    }
    let mut hasher = Crc32::new();
    body.for_each_chunk(|chunk| hasher.update(chunk));
    let [l0, l1, l2, l3] = (len as u32).to_le_bytes();
    let [c0, c1, c2, c3] = hasher.finish().to_le_bytes();
    Ok([l0, l1, l2, l3, c0, c1, c2, c3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::crc32;
    use std::sync::Arc;

    #[test]
    fn header_is_length_then_crc_of_the_whole_body() {
        let mut w = Writer::new();
        w.put_str("hyper");
        w.put_bytes_shared(Arc::from(&b"text"[..]));
        let body = w.into_bytes();
        let mut w = Writer::new();
        w.put_str("hyper");
        w.put_bytes_shared(Arc::from(&b"text"[..]));
        let header = frame_header(&w, u32::MAX).unwrap();
        assert_eq!(header[..4], (body.len() as u32).to_le_bytes());
        assert_eq!(header[4..], crc32(&body).to_le_bytes());
    }

    #[test]
    fn oversized_body_is_refused() {
        let mut w = Writer::new();
        w.put_raw(&[0; 9]);
        assert!(matches!(
            frame_header(&w, 8),
            Err(StorageError::FrameTooLarge { len: 9, max: 8 })
        ));
        assert!(frame_header(&w, 9).is_ok());
    }
}
