//! The length-prefixed binary wire protocol (DESIGN.md §16.1).
//!
//! Every frame is
//!
//! ```text
//! [u32 len LE][u8 version][u8 msg_type][u64 request_id LE][payload]
//! ```
//!
//! where `len` counts everything after the length field itself (so the
//! minimum frame is 10 bytes of header plus an empty payload). Request
//! ids let a client pipeline requests and match replies; the server
//! echoes the id of the request a frame answers. Strings and byte
//! strings are encoded as a `u32` little-endian length followed by the
//! raw bytes.
//!
//! [`FrameCodec`] owns one reusable encode buffer and one reusable
//! decode buffer per connection, so the hot path allocates nothing per
//! message once the buffers have grown to the connection's working set.
//! Decoding is an incremental state machine: [`FrameCodec::poll_recv`]
//! accepts partial reads (a read timeout used as a poll tick returns
//! [`Recv::Idle`] without losing buffered bytes), which is what lets
//! the server multiplex shutdown checks with blocking sockets.

use crate::error::DbError;
use crate::obs::now_ns;
use colstore::codec::{CodecError, Reader, Writer};
use std::io::{Read, Write};

/// Protocol version carried in every frame header.
pub(crate) const WIRE_VERSION: u8 = 1;

/// Frame header bytes after the length field: version + type + request id.
const HEADER_AFTER_LEN: usize = 1 + 1 + 8;

/// Hard ceiling on a frame's declared length — a malformed or malicious
/// length prefix must not drive an unbounded allocation.
const MAX_FRAME: usize = 256 << 20;

/// The ceiling while [`FrameCodec::pre_auth`] is set: room for any HELLO
/// with a tenant name and token under 32 KiB each, and the most one
/// unauthenticated connection can make the server allocate.
const PRE_AUTH_FRAME: usize = 64 << 10;

/// Error code: malformed or unexpected frame.
pub(crate) const ERR_PROTOCOL: u16 = 1;
/// Error code: authentication / provisioning rejection.
pub(crate) const ERR_AUTH: u16 = 2;
/// Error code: the query itself failed (relayed [`DbError`] text).
pub(crate) const ERR_QUERY: u16 = 3;
/// Error code: a per-tenant quota was exceeded.
pub(crate) const ERR_QUOTA: u16 = 4;

/// One protocol message (the decoded payload of a frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Message {
    /// Client → server: authenticate as `tenant` with a provisioning
    /// token. Must be the first frame on a connection.
    Hello {
        /// The tenant namespace to bind this connection to.
        tenant: String,
        /// The tenant's shared provisioning token.
        token: String,
    },
    /// Server → client: handshake accepted.
    HelloOk,
    /// Client → server: execute one SQL statement.
    Query {
        /// The statement text.
        sql: String,
    },
    /// Server → client: a query's decrypted result set.
    Result {
        /// Result column names (tenant prefix already stripped).
        columns: Vec<String>,
        /// Result rows; plaintext cell values in column order.
        rows: Vec<Vec<Vec<u8>>>,
    },
    /// Server → client: the request failed.
    Error {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable failure description.
        message: String,
    },
    /// Server → client: admission control shed this request; retry
    /// after the indicated backoff instead of queueing server-side.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// Client → server: orderly connection close.
    Goodbye,
}

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::HelloOk => 2,
            Message::Query { .. } => 3,
            Message::Result { .. } => 4,
            Message::Error { .. } => 5,
            Message::Busy { .. } => 6,
            Message::Goodbye => 7,
        }
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Hello { tenant, token } => {
                buf.put_bytes32(tenant.as_bytes());
                buf.put_bytes32(token.as_bytes());
            }
            Message::HelloOk | Message::Goodbye => {}
            Message::Query { sql } => buf.put_bytes32(sql.as_bytes()),
            Message::Result { columns, rows } => {
                buf.put_seq32(columns, |buf, c| buf.put_bytes32(c.as_bytes()));
                buf.put_seq32(rows, |buf, row| {
                    buf.put_seq32(row, |buf, cell| buf.put_bytes32(cell));
                });
            }
            Message::Error { code, message } => {
                buf.put_u16(*code);
                buf.put_bytes32(message.as_bytes());
            }
            Message::Busy { retry_after_ms } => buf.put_u32(*retry_after_ms),
        }
    }

    fn decode(msg_type: u8, payload: &[u8]) -> Result<Message, DbError> {
        Self::parse(msg_type, payload).map_err(|Malformed(why)| DbError::Net(why))
    }

    fn parse(msg_type: u8, payload: &[u8]) -> Result<Message, Malformed> {
        let mut r = Reader::new(payload);
        let msg = match msg_type {
            1 => Message::Hello {
                tenant: string(&mut r)?,
                token: string(&mut r)?,
            },
            2 => Message::HelloOk,
            3 => Message::Query {
                sql: string(&mut r)?,
            },
            // A string, a row and a cell each cost at least their
            // four-byte prefix.
            4 => Message::Result {
                columns: r.seq32(4, string)?,
                rows: r.seq32(4, |r| {
                    r.seq32(4, |r| r.bytes32(usize::MAX).map(<[u8]>::to_vec))
                })?,
            },
            5 => Message::Error {
                code: r.u16()?,
                message: string(&mut r)?,
            },
            6 => Message::Busy {
                retry_after_ms: r.u32()?,
            },
            7 => Message::Goodbye,
            other => return Err(Malformed(format!("unknown message type {other}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Why a payload is not a message. The decoder's own error, so that a `?`
/// on a codec failure cannot pick `DbError`'s durable-storage conversion.
struct Malformed(String);

impl From<CodecError> for Malformed {
    fn from(e: CodecError) -> Self {
        Malformed(format!("malformed message payload: {e}"))
    }
}

/// A frame is already bounded by [`MAX_FRAME`], so a field may be as long
/// as the payload that carries it.
fn string(r: &mut Reader<'_>) -> Result<String, Malformed> {
    String::from_utf8(r.bytes32(usize::MAX)?.to_vec())
        .map_err(|_| Malformed("string field is not valid UTF-8".into()))
}

/// What one [`FrameCodec::poll_recv`] call produced.
#[derive(Debug)]
pub(crate) enum Recv {
    /// A complete frame was decoded.
    Frame {
        /// The frame's request id.
        request_id: u64,
        /// The decoded message.
        msg: Message,
        /// Total frame size on the wire, length prefix included.
        frame_bytes: u64,
        /// When this frame's first byte arrived, on the process clock.
        first_byte_ns: u64,
    },
    /// No bytes available within the read timeout (poll tick elapsed).
    Idle,
    /// The peer closed the connection at a frame boundary.
    Eof,
}

/// Per-connection encoder/decoder with reusable buffers; see the module
/// docs for the frame layout.
#[derive(Debug, Default)]
pub(crate) struct FrameCodec {
    encode_buf: Vec<u8>,
    recv_buf: Vec<u8>,
    filled: usize,
    first_byte_ns: u64,
    /// Caps frames at [`PRE_AUTH_FRAME`] instead of [`MAX_FRAME`]; the
    /// server sets it until the connection's HELLO is accepted.
    pub(crate) pre_auth: bool,
}

impl FrameCodec {
    pub(crate) fn new() -> Self {
        FrameCodec::default()
    }

    /// Encodes and writes one frame; returns the bytes written.
    pub(crate) fn send(
        &mut self,
        w: &mut impl Write,
        request_id: u64,
        msg: &Message,
    ) -> Result<u64, DbError> {
        let buf = &mut self.encode_buf;
        buf.clear();
        buf.put_u32(0); // The length, patched in below.
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(msg.type_byte());
        buf.put_u64(request_id);
        msg.encode_payload(buf);
        let len = (buf.len() - 4) as u32;
        buf[0..4].copy_from_slice(&len.to_le_bytes());
        w.write_all(buf).map_err(net_io)?;
        Ok(buf.len() as u64)
    }

    /// Advances the incremental decoder with whatever bytes the stream
    /// has. With a read timeout set on the stream this doubles as a poll
    /// tick: a timeout surfaces as [`Recv::Idle`] with all buffered
    /// partial-frame bytes intact.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Net`] for I/O failures, version mismatches,
    /// over-limit or malformed frames, and mid-frame disconnects.
    pub(crate) fn poll_recv(&mut self, r: &mut impl Read) -> Result<Recv, DbError> {
        loop {
            let target = if self.filled < 4 {
                4
            } else {
                let len =
                    u32::from_le_bytes(self.recv_buf[0..4].try_into().expect("4 bytes")) as usize;
                let max = if self.pre_auth {
                    PRE_AUTH_FRAME
                } else {
                    MAX_FRAME
                };
                if !(HEADER_AFTER_LEN..=max).contains(&len) {
                    return Err(DbError::Net(format!("invalid frame length {len}")));
                }
                4 + len
            };
            if self.filled >= 4 && self.filled == target {
                let version = self.recv_buf[4];
                if version != WIRE_VERSION {
                    return Err(DbError::Net(format!(
                        "unsupported protocol version {version} (expected {WIRE_VERSION})"
                    )));
                }
                let msg_type = self.recv_buf[5];
                let request_id =
                    u64::from_le_bytes(self.recv_buf[6..14].try_into().expect("8 bytes"));
                let msg = Message::decode(msg_type, &self.recv_buf[14..target])?;
                self.filled = 0;
                return Ok(Recv::Frame {
                    request_id,
                    msg,
                    frame_bytes: target as u64,
                    first_byte_ns: self.first_byte_ns,
                });
            }
            if self.recv_buf.len() < target {
                self.recv_buf.resize(target, 0);
            }
            match r.read(&mut self.recv_buf[self.filled..target]) {
                Ok(0) => {
                    return if self.filled == 0 {
                        Ok(Recv::Eof)
                    } else {
                        Err(DbError::Net("peer closed the connection mid-frame".into()))
                    };
                }
                Ok(n) => {
                    if self.filled == 0 {
                        self.first_byte_ns = now_ns();
                    }
                    self.filled += n;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Recv::Idle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(net_io(e)),
            }
        }
    }
}

/// Wraps a socket I/O error as a [`DbError::Net`].
pub(crate) fn net_io(e: std::io::Error) -> DbError {
    DbError::Net(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) -> (u64, Message) {
        let mut codec = FrameCodec::new();
        let mut wire = Vec::new();
        codec.send(&mut wire, 42, &msg).expect("encode");
        let mut reader = wire.as_slice();
        match codec.poll_recv(&mut reader).expect("decode") {
            Recv::Frame {
                request_id, msg, ..
            } => (request_id, msg),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    /// One message of every variant.
    fn samples() -> [Message; 7] {
        [
            Message::Hello {
                tenant: "acme".into(),
                token: "s3cret".into(),
            },
            Message::HelloOk,
            Message::Query {
                sql: "SELECT v FROM t WHERE v >= 'a'".into(),
            },
            Message::Result {
                columns: vec!["v".into(), "w".into()],
                rows: vec![
                    vec![b"one".to_vec(), vec![0u8, 255, 7]],
                    vec![Vec::new(), b"x".to_vec()],
                ],
            },
            Message::Error {
                code: ERR_QUERY,
                message: "table not found: t".into(),
            },
            Message::Busy { retry_after_ms: 15 },
            Message::Goodbye,
        ]
    }

    #[test]
    fn all_message_shapes_roundtrip() {
        for msg in samples() {
            let (id, decoded) = roundtrip(msg.clone());
            assert_eq!(id, 42);
            assert_eq!(decoded, msg);
        }
    }

    /// The wire format is frozen at `WIRE_VERSION` 1: digests of one whole
    /// frame per message variant, recorded before the decoder moved onto
    /// `colstore::codec`.
    #[test]
    fn frames_keep_their_pinned_digests() {
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let mut codec = FrameCodec::new();
        let digests: Vec<u64> = samples()
            .iter()
            .map(|msg| {
                let mut wire = Vec::new();
                codec
                    .send(&mut wire, 0x0102_0304_0506_0708, msg)
                    .expect("encode");
                fnv1a(&wire)
            })
            .collect();
        let pins = [
            0x383c_3082_913a_bbfd,
            0xd14c_24ac_fb82_69f0,
            0xff22_5bf7_3bc6_b9f2,
            0xbb5a_ab3a_8e88_58b9,
            0xa170_dfff_2fc9_2fa1,
            0x0aed_21d4_d744_e4bf,
            0x8277_1633_9833_d31f,
        ];
        assert_eq!(digests, pins, "got {digests:#018x?}");
    }

    /// Every single-byte flip and every truncation of every valid payload
    /// ends in the message it now spells or in `DbError::Net` — never a
    /// panic, never another variant (a stray `?` on a codec error would
    /// surface as `DbError::Durability`).
    #[test]
    fn mutated_payloads_decode_to_a_message_or_a_net_error() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x77_1e);
        for msg in samples() {
            let mut payload = Vec::new();
            msg.encode_payload(&mut payload);
            let ty = msg.type_byte();
            assert_eq!(Message::decode(ty, &payload).expect("valid"), msg);
            for at in 0..payload.len() {
                let cut = Message::decode(ty, &payload[..at]).expect_err("truncated");
                assert!(matches!(cut, DbError::Net(_)), "{msg:?} cut at {at}: {cut}");
                let mut flipped = payload.clone();
                flipped[at] ^= rng.gen_range(1..=255u8);
                if let Err(e) = Message::decode(ty, &flipped) {
                    assert!(matches!(e, DbError::Net(_)), "{msg:?} flip at {at}: {e}");
                }
            }
        }
    }

    #[test]
    fn non_utf8_cells_survive_the_wire() {
        let cell = vec![0u8, 1, 2, 0xFF, 0xFE, b'\'', b'"'];
        let (_, decoded) = roundtrip(Message::Result {
            columns: vec!["c".into()],
            rows: vec![vec![cell.clone()]],
        });
        let Message::Result { rows, .. } = decoded else {
            panic!("expected result");
        };
        assert_eq!(rows, vec![vec![cell]]);
    }

    #[test]
    fn partial_reads_reassemble_one_frame() {
        let mut codec = FrameCodec::new();
        let mut wire = Vec::new();
        codec
            .send(
                &mut wire,
                7,
                &Message::Query {
                    sql: "SELECT 1".into(),
                },
            )
            .expect("encode");
        // Feed the frame one byte at a time through a reader that yields
        // WouldBlock between bytes — the codec must keep partial state.
        struct Trickle<'a> {
            data: &'a [u8],
            pos: usize,
            just_served: bool,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.just_served {
                    self.just_served = false;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                if self.pos == self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                self.just_served = true;
                Ok(1)
            }
        }
        let mut trickle = Trickle {
            data: &wire,
            pos: 0,
            just_served: false,
        };
        let mut idles = 0usize;
        loop {
            match codec.poll_recv(&mut trickle).expect("poll") {
                Recv::Frame {
                    request_id, msg, ..
                } => {
                    assert_eq!(request_id, 7);
                    assert_eq!(
                        msg,
                        Message::Query {
                            sql: "SELECT 1".into()
                        }
                    );
                    // Every byte but the frame-completing one paused the
                    // decoder at least once.
                    assert_eq!(idles, wire.len() - 1);
                    return;
                }
                Recv::Idle => idles += 1,
                Recv::Eof => panic!("unexpected eof"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut codec = FrameCodec::new();
        let mut wire = Vec::new();
        codec.send(&mut wire, 1, &Message::HelloOk).expect("encode");
        wire[4] = 99;
        let mut reader = wire.as_slice();
        let err = codec.poll_recv(&mut reader).expect_err("bad version");
        assert!(matches!(err, DbError::Net(_)), "{err}");
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn oversized_and_undersized_lengths_are_rejected() {
        for bad_len in [0u32, 5, (MAX_FRAME as u32) + 1] {
            let mut codec = FrameCodec::new();
            let mut wire = Vec::new();
            codec.send(&mut wire, 1, &Message::HelloOk).expect("encode");
            wire[0..4].copy_from_slice(&bad_len.to_le_bytes());
            let mut reader = wire.as_slice();
            let err = codec.poll_recv(&mut reader).expect_err("bad length");
            assert!(err.to_string().contains("frame length"), "{err}");
        }
    }

    /// While `pre_auth` is set a prefix declaring 1 MiB is refused before
    /// the receive buffer grows toward it; once the HELLO is in, the same
    /// frame decodes.
    #[test]
    fn frames_over_the_pre_auth_cap_wait_for_the_handshake() {
        let big = Message::Query {
            sql: "x".repeat(1 << 20),
        };
        let hello = Message::Hello {
            tenant: "acme".into(),
            token: "tok".into(),
        };
        let (mut hello_wire, mut big_wire) = (Vec::new(), Vec::new());
        let mut sender = FrameCodec::new();
        sender.send(&mut hello_wire, 1, &hello).expect("encode");
        sender.send(&mut big_wire, 2, &big).expect("encode");

        let mut refusing = FrameCodec::new();
        refusing.pre_auth = true;
        let err = refusing
            .poll_recv(&mut big_wire.as_slice())
            .expect_err("capped");
        assert!(err.to_string().contains("frame length"), "{err}");
        assert!(refusing.recv_buf.capacity() <= PRE_AUTH_FRAME);

        let mut codec = FrameCodec::new();
        codec.pre_auth = true;
        let frames = [(hello_wire, hello), (big_wire, big)];
        for (wire, sent) in frames {
            match codec.poll_recv(&mut wire.as_slice()).expect("decode") {
                Recv::Frame { msg, .. } => assert_eq!(msg, sent),
                other => panic!("expected frame, got {other:?}"),
            }
            codec.pre_auth = false;
        }
    }

    #[test]
    fn eof_at_boundary_vs_mid_frame() {
        let mut codec = FrameCodec::new();
        let mut empty: &[u8] = &[];
        assert!(matches!(codec.poll_recv(&mut empty).unwrap(), Recv::Eof));
        let mut wire = Vec::new();
        codec.send(&mut wire, 1, &Message::Goodbye).expect("encode");
        let mut truncated = &wire[..wire.len() - 3];
        let err = codec.poll_recv(&mut truncated).expect_err("mid-frame eof");
        assert!(err.to_string().contains("mid-frame"), "{err}");
    }

    #[test]
    fn truncated_payload_and_unknown_type_are_rejected() {
        assert!(Message::decode(3, &[5, 0, 0, 0, b'a']).is_err());
        assert!(Message::decode(200, &[]).is_err());
        // Trailing garbage after a well-formed payload is a protocol
        // error, not silently ignored.
        assert!(Message::decode(2, &[0]).is_err());
    }
}
