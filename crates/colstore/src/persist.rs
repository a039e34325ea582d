//! CRC-framed record streams.
//!
//! In-memory databases keep the primary copy in RAM and use disk as
//! secondary storage for durability (paper §2.1; Fig. 5 step 4: "The
//! storage management of the in-memory database stores all data on disk for
//! persistency and additionally loads it into main memory"). What rests on
//! disk here is written by the layers above — sealed snapshots, a
//! write-ahead log, a manifest (`encdbdb::server::format`), dictionary
//! blobs (`encdict::persist`), all laid out with [`crate::codec`]. This
//! module is the envelope they share: a self-delimiting record format
//! that can distinguish a torn tail (a crash mid-write — expected,
//! recoverable) from corruption (bit rot or tampering — reported). Each
//! frame is `[len u32][crc32 u32][payload]`, both integers little-endian,
//! the checksum over the payload only.

use crate::codec::{Reader, Writer};

/// Bytes of framing overhead per frame (`len` + `crc` prefix).
pub const FRAME_HEADER_BYTES: usize = 8;

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3 polynomial) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Wraps `payload` in a `[len][crc][payload]` frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.put_len32(payload.len());
    out.put_u32(crc32(payload));
    out.put(payload);
    out
}

/// How parsing a frame stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameTail {
    /// Every byte belonged to a complete, checksum-valid frame.
    Clean,
    /// The final frame is incomplete — the classic torn write of a crash.
    /// `offset` is where the torn frame starts, i.e. where to truncate.
    Torn {
        /// Byte offset of the start of the incomplete frame.
        offset: usize,
    },
    /// A complete frame failed its checksum — corruption, not a torn tail.
    /// `offset` is where the corrupt frame starts.
    Corrupt {
        /// Byte offset of the start of the corrupt frame.
        offset: usize,
    },
}

impl FrameTail {
    /// The prefix length of the stream that parsed cleanly.
    pub fn valid_prefix(&self, total: usize) -> usize {
        match *self {
            FrameTail::Clean => total,
            FrameTail::Torn { offset } | FrameTail::Corrupt { offset } => offset,
        }
    }
}

/// Parses consecutive frames out of `bytes`.
///
/// Returns the payload slices of every frame up to the first problem, plus
/// a [`FrameTail`] describing how the stream ended. A declared length that
/// overruns the remaining bytes is reported as [`FrameTail::Torn`] (it is
/// indistinguishable from an interrupted write); a checksum mismatch on a
/// complete frame is [`FrameTail::Corrupt`]. Parsing never panics.
pub fn read_frames(bytes: &[u8]) -> (Vec<&[u8]>, FrameTail) {
    let mut frames = Vec::new();
    let mut r = Reader::new(bytes);
    while r.remaining() > 0 {
        let offset = bytes.len() - r.remaining();
        // A header or length that overruns the stream is an interrupted
        // write as far as anyone can tell.
        let (Ok(len), Ok(crc)) = (r.u32(), r.u32()) else {
            return (frames, FrameTail::Torn { offset });
        };
        let Ok(payload) = r.take(len as usize) else {
            return (frames, FrameTail::Torn { offset });
        };
        if crc32(payload) != crc {
            return (frames, FrameTail::Corrupt { offset });
        }
        frames.push(payload);
    }
    (frames, FrameTail::Clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_stream_roundtrip() {
        let payloads: [&[u8]; 3] = [b"alpha", b"", b"gamma-delta"];
        let mut stream = Vec::new();
        for p in payloads {
            stream.extend_from_slice(&frame(p));
        }
        let (frames, tail) = read_frames(&stream);
        assert_eq!(frames, payloads.to_vec());
        assert_eq!(tail, FrameTail::Clean);
        assert_eq!(tail.valid_prefix(stream.len()), stream.len());
    }

    #[test]
    fn torn_tail_detected_at_every_cut() {
        let mut stream = frame(b"first-record");
        let second_start = stream.len();
        stream.extend_from_slice(&frame(b"second"));
        for cut in second_start + 1..stream.len() {
            let (frames, tail) = read_frames(&stream[..cut]);
            assert_eq!(frames, vec![b"first-record" as &[u8]], "cut {cut}");
            assert_eq!(
                tail,
                FrameTail::Torn {
                    offset: second_start
                },
                "cut {cut}"
            );
        }
    }

    #[test]
    fn payload_corruption_detected() {
        let mut stream = frame(b"first");
        let second_start = stream.len();
        stream.extend_from_slice(&frame(b"second"));
        stream[second_start + FRAME_HEADER_BYTES] ^= 0x01;
        let (frames, tail) = read_frames(&stream);
        assert_eq!(frames, vec![b"first" as &[u8]]);
        assert_eq!(
            tail,
            FrameTail::Corrupt {
                offset: second_start
            }
        );
        assert_eq!(tail.valid_prefix(stream.len()), second_start);
    }

    #[test]
    fn oversized_declared_length_is_torn_not_panic() {
        let mut stream = frame(b"ok");
        let bad_start = stream.len();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(&[0u8; 12]);
        let (frames, tail) = read_frames(&stream);
        assert_eq!(frames.len(), 1);
        assert_eq!(tail, FrameTail::Torn { offset: bad_start });
    }
}
