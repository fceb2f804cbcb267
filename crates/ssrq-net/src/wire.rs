//! The frame layer: length-prefixed binary frames and the little-endian
//! primitive codecs every message is built from.
//!
//! # Frame format
//!
//! Every message travels as one frame.  The header carries a **frame
//! id**: a response echoes the id of the request it answers, so a client
//! that reads a frame under any other id knows its connection is out of
//! step with the server:
//!
//! | offset | size | field                                    |
//! |-------:|-----:|------------------------------------------|
//! |      0 |    4 | magic `b"SSRQ"`                          |
//! |      4 |    1 | protocol version ([`VERSION`])           |
//! |      5 |    1 | message type tag                         |
//! |      6 |    4 | frame id (u32 little-endian)             |
//! |     10 |    4 | payload length `n` (u32 little-endian)   |
//! |     14 |  `n` | payload                                  |
//!
//! The header has one fixed size ([`HEADER_LEN`]), so a reader pulls it in
//! one read.  Coordinator and shard servers are built from one commit; a
//! frame whose version byte is not [`VERSION`] is refused before any of
//! its payload is interpreted.
//!
//! All multi-byte integers are little-endian; `f64` values travel as their
//! IEEE-754 bit pattern ([`f64::to_bits`]), so encode→decode is
//! **bit-identical** — including signed zeros, infinities and subnormals.
//! Strings are a u32 byte length followed by UTF-8 bytes.  Optionals are a
//! presence byte (0/1) followed by the value.  Vectors are a u32 count
//! followed by the elements; pairs are their two halves in order.  These
//! shapes are the crate's `Wire` impls: one per type, encoding and
//! decoding it, so a layout is written once ([`proto`](crate::proto)
//! adds the records built from them).
//!
//! Decoding is total: malformed input of any shape — truncation, bad
//! magic, unknown version or tag, trailing bytes, invalid UTF-8,
//! out-of-range presence bytes, oversized payloads — returns a typed
//! [`WireError`], never panics.

use std::time::Duration;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SSRQ";

/// The protocol version: frames that carry a frame id (since 2),
/// relocation replies that say whether the shard held the user plus
/// answers that name the origin they resolved (since 3), no
/// `Locate`/`Located` pair (tags 0x05/0x06 retired in 4), a handshake
/// that sends `Refresh` (the `Hello` tag 0x01 retired in 5), and no gauge
/// metric value (value tag 1 retired in 6).  A peer
/// speaking any other version is rejected with
/// [`WireError::UnsupportedVersion`] before any payload is interpreted,
/// so a mixed deployment fails at the handshake rather than partway
/// through a relocation.
pub const VERSION: u8 = 6;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 14;

/// Upper bound on a frame payload (64 MiB) — a corrupt length prefix must
/// not make a peer allocate unbounded memory.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// A typed decoding failure; the complete taxonomy of malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the field being decoded.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u8),
    /// The message type tag names no known message.
    UnknownMessage(u8),
    /// The payload declares a length above [`MAX_PAYLOAD`].
    Oversize(u32),
    /// The payload decoded cleanly but bytes were left over — the frame
    /// was produced by a peer with a different idea of the schema.
    TrailingBytes(usize),
    /// A structurally well-formed field carried an invalid value (bad
    /// UTF-8, presence byte outside {0,1}, unknown enum tag, …).
    Invalid(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownMessage(t) => write!(f, "unknown message type 0x{t:02x}"),
            WireError::Oversize(n) => {
                write!(f, "payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the payload"),
            WireError::Invalid(msg) => write!(f, "invalid payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Message type tag.
    pub tag: u8,
    /// The sender's number for this frame; a response echoes its
    /// request's.
    pub frame_id: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
}

impl FrameHeader {
    /// Header size in bytes: the payload starts at this offset.
    pub fn header_len(&self) -> usize {
        HEADER_LEN
    }
}

/// Builds one frame carrying the given frame id.
pub fn frame_with_id(msg_type: u8, frame_id: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(msg_type);
    out.extend_from_slice(&frame_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parses a frame header.
///
/// # Errors
///
/// [`WireError::Truncated`] for a short header, [`WireError::BadMagic`],
/// [`WireError::UnsupportedVersion`], or [`WireError::Oversize`] for a
/// length above [`MAX_PAYLOAD`].  (An unknown message *type* is left to the
/// payload decoder, which knows the tag table.)
pub fn parse_header(bytes: &[u8]) -> Result<FrameHeader, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: bytes.len(),
        });
    }
    if bytes[..4] != MAGIC {
        return Err(WireError::BadMagic([
            bytes[0], bytes[1], bytes[2], bytes[3],
        ]));
    }
    if bytes[4] != VERSION {
        return Err(WireError::UnsupportedVersion(bytes[4]));
    }
    let len = u32::from_le_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize(len));
    }
    Ok(FrameHeader {
        tag: bytes[5],
        frame_id: u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]),
        payload_len: len,
    })
}

/// Little-endian payload writer; a thin, infallible builder over `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a string as u32 byte length + UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Little-endian payload reader over a borrowed buffer; every accessor
/// fails with a typed [`WireError`] instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a u64 that must fit a `usize` on this platform.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?)
            .map_err(|_| WireError::Invalid("count exceeds this platform's usize".into()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is [`WireError::Invalid`].
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Invalid(format!("bool byte 0x{b:02x}"))),
        }
    }

    /// Reads a u32-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Invalid(format!("invalid UTF-8 string: {e}")))
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// A value with one wire layout: [`Wire::put`] writes it and [`Wire::get`]
/// reads it back, so each type's layout is written once.
pub(crate) trait Wire: Sized {
    /// Appends the value.
    fn put(&self, w: &mut Writer);
    /// Reads one value.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! primitive {
    ($($ty:ty => $method:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                w.$method(*self);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$method()
            }
        }
    )*};
}

primitive!(u8 => u8, u32 => u32, u64 => u64, f64 => f64, bool => bool);

/// Travels as a `u64`.
impl Wire for usize {
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.usize()
    }
}

/// Travels as whole nanoseconds.
impl Wire for Duration {
    fn put(&self, w: &mut Writer) {
        w.u64(self.as_nanos() as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Duration::from_nanos(r.u64()?))
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.str()
    }
}

// The container impls are `#[inline]`: without the hint, decoding an
// `Answer` of ten entries measured 1.5x slower (2-vCPU Intel Xeon).
impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.u32(self.len() as u32);
        for v in self {
            v.put(w);
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.u32()? as usize;
        // Every element takes at least one byte, so a corrupt count cannot
        // make the reader allocate more than the payload holds.
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64(f64::INFINITY);
        w.f64(f64::MIN_POSITIVE / 2.0); // subnormal
        w.bool(true);
        w.str("héllo");
        Some(7u32).put(&mut w);
        None::<u32>.put(&mut w);
        vec![(3u8, 9u64)].put(&mut w);
        usize::MAX.put(&mut w);
        Duration::from_nanos(421).put(&mut w);
        let payload = w.finish();

        let mut r = Reader::new(&payload);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert_eq!(r.f64().unwrap(), f64::MIN_POSITIVE / 2.0);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(<Option<u32>>::get(&mut r).unwrap(), Some(7));
        assert_eq!(<Option<u32>>::get(&mut r).unwrap(), None);
        assert_eq!(<Vec<(u8, u64)>>::get(&mut r).unwrap(), vec![(3, 9)]);
        assert_eq!(usize::get(&mut r).unwrap(), usize::MAX);
        assert_eq!(Duration::get(&mut r).unwrap(), Duration::from_nanos(421));
        r.finish().unwrap();
    }

    #[test]
    fn header_round_trips_and_rejects_corruption() {
        let framed = frame_with_id(0x03, 0xCAFE, &[1, 2, 3]);
        assert_eq!(
            parse_header(&framed).unwrap(),
            FrameHeader {
                tag: 0x03,
                frame_id: 0xCAFE,
                payload_len: 3,
            }
        );

        assert!(matches!(
            parse_header(&framed[..HEADER_LEN - 1]),
            Err(WireError::Truncated { .. })
        ));
        let mut bad = framed.clone();
        bad[0] = b'X';
        assert!(matches!(parse_header(&bad), Err(WireError::BadMagic(_))));
        let mut bad = framed.clone();
        bad[4] = 99;
        assert!(matches!(
            parse_header(&bad),
            Err(WireError::UnsupportedVersion(99))
        ));
        let mut bad = framed;
        bad[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(parse_header(&bad), Err(WireError::Oversize(_))));
    }

    #[test]
    fn reader_reports_truncation_and_trailing_bytes() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(
            r.u32(),
            Err(WireError::Truncated { needed: 4, have: 2 })
        ));

        let r = Reader::new(&[0, 0]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(2)));

        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool(), Err(WireError::Invalid(_))));

        // A length prefix pointing past the buffer is truncation, not a
        // panic or an over-allocation.
        let mut w = Writer::new();
        w.u32(1_000_000);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str(), Err(WireError::Truncated { .. })));
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            <Vec<u64>>::get(&mut r),
            Err(WireError::Truncated { .. })
        ));
        // A presence byte other than 0/1 is invalid.
        let mut r = Reader::new(&[2, 0, 0, 0, 0]);
        assert!(matches!(
            <Option<u32>>::get(&mut r),
            Err(WireError::Invalid(_))
        ));
    }
}
