//! The one byte codec behind every log, wire and carver format.
//!
//! Three things live here and nowhere else: a bounds-checked
//! little-endian cursor ([`Reader`] plus the `put_*` writers),
//! [`crc32`], and the frame layer — `magic | [version] | len | payload
//! | [crc32]` — with its four entry points: [`Format::encode`], the
//! lazy resyncing [`scan`] over a byte slice (what crash recovery and a
//! forensic carver both run), the strict sequential [`walk`] that stops
//! at the first non-frame (torn-tail repair), and the incremental
//! [`StreamDecoder`] for sockets. All of them sit on one `probe`
//! and one resync loop, so a stolen file and a packet capture of the
//! same bytes carve to the same frames — by construction, not by
//! keeping five hand-written loops in step.
//!
//! Framing is itself a leakage decision: magic, length and the sealed
//! bit survive AEAD. The five `const` [`Format`]s below are therefore
//! the complete list of what an attacker can delimit without a key.

use std::fmt;

/// Upper bound on one frame's payload, shared by every format. Readers
/// treat a longer claim as garbage (skip that magic, resync), so a
/// corrupt or hostile length field can neither balloon a decode buffer
/// nor swallow the rest of a log; writers that take outside input check
/// against it before framing.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after
/// byte `b` followed by `k` zero bytes. Built at compile time.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected), slice-by-8: eight table lookups per
/// eight input bytes. Zero-dependency; every log, wire and trace frame
/// trailer is this function.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][lo as u8 as usize]
            ^ t[6][(lo >> 8) as u8 as usize]
            ^ t[5][(lo >> 16) as u8 as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

// ---------------------------------------------------------------- cursor

/// Why a [`Reader`] call failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// Fewer bytes remain than the field needs.
    Truncated,
    /// A string field is not valid UTF-8.
    Utf8,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReadError::Truncated => "truncated input",
            ReadError::Utf8 => "invalid utf-8 in string",
        })
    }
}

impl std::error::Error for ReadError {}

/// One `Reader` method per little-endian integer type, named after it.
macro_rules! le_readers {
    ($($ty:ident),*) => {$(
        #[doc = concat!("`", stringify!($ty), "`, little-endian.")]
        #[inline]
        pub fn $ty(&mut self) -> Result<$ty, ReadError> {
            self.array().map($ty::from_le_bytes)
        }
    )*};
}

/// Bounds-checked little-endian cursor over a byte slice. Every read
/// either returns the value and advances, or fails without panicking —
/// the bytes come from sockets, stolen disks and snapshot files.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let end = self.pos.checked_add(n).ok_or(ReadError::Truncated)?;
        let b = self.buf.get(self.pos..end).ok_or(ReadError::Truncated)?;
        self.pos = end;
        Ok(b)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.array::<1>()?[0])
    }

    le_readers!(u16, u32, u64, i64, u128);

    /// Bytes behind a `u32` length prefix.
    pub fn bytes32(&mut self) -> Result<&'a [u8], ReadError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Bytes behind a `u64` length prefix.
    pub fn bytes64(&mut self) -> Result<&'a [u8], ReadError> {
        let n = usize::try_from(self.u64()?).map_err(|_| ReadError::Truncated)?;
        self.take(n)
    }

    /// UTF-8 string behind a `u16` length prefix.
    pub fn str16(&mut self) -> Result<String, ReadError> {
        let n = self.u16()? as usize;
        utf8(self.take(n)?)
    }

    /// UTF-8 string behind a `u32` length prefix.
    pub fn str32(&mut self) -> Result<String, ReadError> {
        utf8(self.bytes32()?)
    }

    /// UTF-8 string behind a `u64` length prefix.
    pub fn str64(&mut self) -> Result<String, ReadError> {
        utf8(self.bytes64()?)
    }
}

fn utf8(b: &[u8]) -> Result<String, ReadError> {
    std::str::from_utf8(b)
        .map(str::to_owned)
        .map_err(|_| ReadError::Utf8)
}

macro_rules! le_writers {
    ($($name:ident: $ty:ty),*) => {$(
        #[doc = concat!("Appends a little-endian `", stringify!($ty), "`.")]
        pub fn $name(out: &mut Vec<u8>, v: $ty) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    )*};
}
le_writers!(put_u16: u16, put_u32: u32, put_u64: u64, put_i64: i64);

/// Appends `s` behind a `u16` length prefix, cut at 65535 bytes.
pub fn put_str16(out: &mut Vec<u8>, s: &str) {
    let n = s.len().min(u16::MAX as usize);
    put_u16(out, n as u16);
    out.extend_from_slice(&s.as_bytes()[..n]);
}

/// Appends `b` behind a `u32` length prefix.
pub fn put_bytes32(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Appends `b` behind a `u64` length prefix.
pub fn put_bytes64(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

// ---------------------------------------------------------------- frames

/// What a format's CRC-32 trailer covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crc {
    /// No trailer.
    None,
    /// The payload alone.
    Payload,
    /// Everything between magic and trailer: `version | len | payload`.
    Header,
}

/// The byte layout of one frame family:
/// `magic | [version u8] | len u32 LE | payload | [crc32 u32 LE]`.
#[derive(Debug)]
pub struct Format {
    /// The magic every frame kind of this format may carry.
    pub magic: [u8; 4],
    /// The alternate magic of a format with two frame kinds; a frame
    /// reports which one it carried ([`Frame::alt`]).
    pub alt_magic: Option<[u8; 4]>,
    /// Accepted version bytes; empty when the layout has no version byte.
    pub versions: &'static [u8],
    /// CRC trailer coverage.
    pub crc: Crc,
}

/// Redo, undo and binlog records: `0xD1DEC0DE` (LE) heads a plaintext
/// record, the alternate `0x5EA1C0DE` a sealed `logenc` one.
pub const WAL: Format = Format {
    magic: 0xD1DE_C0DE_u32.to_le_bytes(),
    alt_magic: Some(0x5EA1_C0DE_u32.to_le_bytes()),
    versions: &[],
    crc: Crc::None,
};

/// Relay log and `binlog.divergent` sidecar: byte-identical to the
/// binlog by design — which is why a replica image carves like a
/// stolen binlog.
pub const RELAY: Format = WAL;

/// The replication stream: binlog framing, plaintext magic only (the
/// sealed bit of each shipped event travels inside the payload).
pub const REPL_WIRE: Format = Format {
    magic: WAL.magic,
    alt_magic: None,
    versions: &[],
    crc: Crc::None,
};

/// The client/server SQL protocol: `MSRV` (v1) or the alternate `MSV2`
/// (payload starts with a trace-context slot); CRC over the payload.
pub const SERVER: Format = Format {
    magic: *b"MSRV",
    alt_magic: Some(*b"MSV2"),
    versions: &[],
    crc: Crc::Payload,
};

/// Slow-log trace records: `MTRC`, version byte 1 or 2, CRC over
/// `version | len | payload`.
pub const TRACE: Format = Format {
    magic: *b"MTRC",
    alt_magic: None,
    versions: &[1, 2],
    crc: Crc::Header,
};

/// One frame located in a byte slice or stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Offset of the magic (from the slice start, or from the first
    /// byte ever fed to a [`StreamDecoder`]).
    pub offset: usize,
    /// Offset one past the frame's last byte.
    pub end: usize,
    /// Whether it carried [`Format::alt_magic`].
    pub alt: bool,
    /// Version byte (0 when the format has none).
    pub version: u8,
    /// The payload bytes.
    pub payload: &'a [u8],
}

/// A frame whose CRC trailer did not match. [`scan`] skips these
/// silently; a [`StreamDecoder`] reports each once, then resyncs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrcMismatch {
    /// CRC computed over the received bytes.
    pub expected: u32,
    /// CRC carried in the trailer.
    pub found: u32,
}

/// Most bytes a frame adds around its payload: magic, version, length
/// and CRC trailer.
const MAX_OVERHEAD: usize = 4 + 1 + 4 + 4;

impl Format {
    /// Serializes one frame. Infallible: callers that frame outside
    /// input check `payload.len()` against [`MAX_PAYLOAD`] first.
    ///
    /// # Panics
    ///
    /// Panics if `alt` is set on a format without an alternate magic.
    pub fn encode(&self, alt: bool, version: u8, payload: &[u8]) -> Vec<u8> {
        self.encode_with(alt, version, payload.len(), |out| {
            out.extend_from_slice(payload)
        })
    }

    /// [`Format::encode`] for a payload written in place: `write`
    /// appends the payload to the frame buffer (sized for `capacity`
    /// payload bytes), then the length field is patched and the CRC
    /// trailer computed over the bytes where they already lie — one
    /// buffer, one pass, no intermediate payload `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `alt` is set on a format without an alternate magic.
    pub fn encode_with(
        &self,
        alt: bool,
        version: u8,
        capacity: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let magic = match alt {
            false => self.magic,
            true => self.alt_magic.expect("format has an alternate magic"),
        };
        let mut out = Vec::with_capacity(capacity + MAX_OVERHEAD);
        out.extend_from_slice(&magic);
        if !self.versions.is_empty() {
            out.push(version);
        }
        let len_at = out.len();
        put_u32(&mut out, 0);
        let body = out.len();
        write(&mut out);
        let len = (out.len() - body) as u32;
        out[len_at..body].copy_from_slice(&len.to_le_bytes());
        let crc = match self.crc {
            Crc::None => return out,
            Crc::Payload => crc32(&out[body..]),
            Crc::Header => crc32(&out[4..]),
        };
        put_u32(&mut out, crc);
        out
    }
}

/// Where a frame sits relative to the magic `probe` was pointed at.
#[derive(Clone, Copy)]
struct Head {
    alt: bool,
    version: u8,
    body: usize,
    len: usize,
    total: usize,
}

enum Probe {
    Frame(Head),
    /// Consistent so far, but `buf` ends before the frame does.
    Short,
    /// Not a frame: wrong magic or version, or a length past the cap.
    Bad,
    BadCrc(CrcMismatch),
}

/// Judges the bytes at the front of `buf` as one frame of `fmt`.
fn probe(fmt: &Format, buf: &[u8]) -> Probe {
    let alt_magic = fmt.alt_magic.unwrap_or(fmt.magic);
    let alt = match buf.get(..4) {
        Some(lead) if lead == fmt.magic => false,
        Some(lead) if lead == alt_magic => true,
        Some(_) => return Probe::Bad,
        // The magic-prefix-keep rule: a tail too short to hold a magic
        // is worth waiting on only while it could still become one.
        None if fmt.magic.starts_with(buf) || alt_magic.starts_with(buf) => return Probe::Short,
        None => return Probe::Bad,
    };
    let mut r = Reader::new(&buf[4..]);
    let version = if fmt.versions.is_empty() {
        0
    } else {
        match r.u8() {
            Ok(v) if fmt.versions.contains(&v) => v,
            Ok(_) => return Probe::Bad,
            Err(_) => return Probe::Short,
        }
    };
    let Ok(len) = r.u32() else {
        return Probe::Short;
    };
    let len = len as usize;
    if len > MAX_PAYLOAD {
        return Probe::Bad;
    }
    let body = 4 + r.pos();
    let Ok(payload) = r.take(len) else {
        return Probe::Short;
    };
    if fmt.crc != Crc::None {
        let Ok(found) = r.u32() else {
            return Probe::Short;
        };
        let expected = crc32(match fmt.crc {
            Crc::Header => &buf[4..body + len],
            _ => payload,
        });
        if found != expected {
            return Probe::BadCrc(CrcMismatch { expected, found });
        }
    }
    Probe::Frame(Head {
        alt,
        version,
        body,
        len,
        total: 4 + r.pos(),
    })
}

/// The resync loop: advances `*pos` past garbage to the next frame in
/// `buf` and past that frame, returning where it starts. A magic that
/// does not head a valid frame costs one byte and the search resumes
/// at the next byte that could start a magic. `Ok(None)` leaves `*pos`
/// where a later call should resume: at a frame (or magic prefix)
/// still arriving when `more_coming`, else at the end of `buf`.
/// A CRC failure is reported once; the call after it resyncs.
fn next_head(
    fmt: &Format,
    buf: &[u8],
    pos: &mut usize,
    more_coming: bool,
) -> Result<Option<(usize, Head)>, CrcMismatch> {
    let first = fmt.magic[0];
    let alt_first = fmt.alt_magic.map_or(first, |m| m[0]);
    while *pos < buf.len() {
        match probe(fmt, &buf[*pos..]) {
            Probe::Frame(head) => {
                let at = *pos;
                *pos += head.total;
                return Ok(Some((at, head)));
            }
            Probe::Short if more_coming => break,
            Probe::BadCrc(e) => {
                *pos += 1;
                return Err(e);
            }
            Probe::Short | Probe::Bad => {
                let rest = &buf[*pos + 1..];
                let skip = find_either(rest, first, alt_first);
                *pos += 1 + skip.unwrap_or(rest.len());
            }
        }
    }
    Ok(None)
}

/// Where the first byte equal to `a` or `b` sits in `buf`: what
/// `buf.iter().position(|&x| x == a || x == b)` returns, eight bytes at
/// a time. Resync runs it over whole log rings, most of them zeros.
fn find_either(buf: &[u8], a: u8, b: u8) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // The high bit of every zero byte of `x`, and of none below the
    // first: a borrow can only mark bytes above a zero byte.
    let zeros = |x: u64| x.wrapping_sub(ONES) & !x & HIGHS;
    let (words, tail) = buf.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        let hits = zeros(word ^ (ONES * u64::from(a))) | zeros(word ^ (ONES * u64::from(b)));
        if hits != 0 {
            return Some(i * 8 + hits.trailing_zeros() as usize / 8);
        }
    }
    let at = tail.iter().position(|&x| x == a || x == b)?;
    Some(words.len() * 8 + at)
}

fn frame_at(buf: &[u8], at: usize, head: Head) -> Frame<'_> {
    Frame {
        offset: at,
        end: at + head.total,
        alt: head.alt,
        version: head.version,
        payload: &buf[at + head.body..at + head.body + head.len],
    }
}

/// Carves every intact frame out of `raw`, lazily and in offset order,
/// resyncing on the next magic after garbage, truncation or a failed
/// CRC — so damage costs at most the frames it touches.
pub fn scan<'a>(fmt: &'a Format, raw: &'a [u8]) -> Scan<'a> {
    Scan { fmt, raw, pos: 0 }
}

/// The iterator behind [`scan`].
pub struct Scan<'a> {
    fmt: &'a Format,
    raw: &'a [u8],
    pos: usize,
}

impl Scan<'_> {
    fn head(&mut self) -> Option<(usize, Head)> {
        loop {
            // A CRC failure is just more garbage to a carver.
            if let Ok(found) = next_head(self.fmt, self.raw, &mut self.pos, false) {
                return found;
            }
        }
    }
}

impl<'a> Iterator for Scan<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        self.head().map(|(at, head)| frame_at(self.raw, at, head))
    }

    /// `skip(n)` lands here: hopping a frame reads its header only, so
    /// a cursor deep into a long binlog never materialises the frames
    /// before it.
    fn nth(&mut self, n: usize) -> Option<Frame<'a>> {
        for _ in 0..n {
            self.head()?;
        }
        self.next()
    }
}

/// Walks `raw` frame by frame from offset 0 and stops at the first
/// byte that does not start a complete, valid frame. Exact for
/// append-only files: the last frame's `end` is where a torn tail
/// begins.
pub fn walk<'a>(fmt: &'a Format, raw: &'a [u8]) -> impl Iterator<Item = Frame<'a>> + 'a {
    let mut pos = 0;
    std::iter::from_fn(move || match probe(fmt, &raw[pos..]) {
        Probe::Frame(head) => {
            let frame = frame_at(raw, pos, head);
            pos = frame.end;
            Some(frame)
        }
        _ => None,
    })
}

/// Incremental [`scan`] for byte streams: feed what the socket
/// delivers, pop whole frames. Yields exactly the frames `scan` finds
/// in the concatenated input, except that a frame running past the end
/// of the input is awaited rather than skipped. Buffers at most one
/// frame ([`MAX_PAYLOAD`] plus framing) beyond the last `feed`.
pub struct StreamDecoder {
    fmt: &'static Format,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`, dropped on the next `feed`.
    pos: usize,
    /// Stream offset of `buf[0]`.
    base: usize,
}

impl StreamDecoder {
    /// A decoder for `fmt` with nothing buffered.
    pub fn new(fmt: &'static Format) -> Self {
        StreamDecoder {
            fmt,
            buf: Vec::new(),
            pos: 0,
            base: 0,
        }
    }

    /// Appends raw bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.base += self.pos;
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if one is buffered. The payload
    /// borrows the decoder's buffer until the next call.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, CrcMismatch> {
        let found = next_head(self.fmt, &self.buf, &mut self.pos, true)?;
        Ok(found.map(|(at, head)| {
            let mut frame = frame_at(&self.buf, at, head);
            frame.offset += self.base;
            frame.end += self.base;
            frame
        }))
    }

    /// Bytes buffered and not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_either_is_position_eight_bytes_at_a_time() {
        let bytewise = |buf: &[u8], a: u8, b: u8| buf.iter().position(|&x| x == a || x == b);
        let mut seed = 0x5EED_F1ADu64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // The first bytes of the WAL's and the binlog's magics.
        let (a, b) = (0xDE, b'M');
        // Every length through three words and a tail, filled with
        // bytes next to the magic bytes (where a borrow could lie), with
        // either magic byte at every offset and another after it.
        for len in 0..27 {
            for fill in [0x00, 0x80, 0xFF, a - 1, a + 1, b - 1, b + 1] {
                let base = vec![fill; len];
                assert_eq!(find_either(&base, a, b), bytewise(&base, a, b));
                for at in 0..len {
                    for (x, y) in [(a, b), (b, a), (a, a)] {
                        for later in at..len {
                            let mut buf = base.clone();
                            buf[later] = y;
                            buf[at] = x;
                            assert_eq!(find_either(&buf, a, b), bytewise(&buf, a, b), "{buf:?}");
                        }
                    }
                }
            }
        }
        // Random buffers over a small alphabet, so matches are common,
        // and over all bytes, so they are rare.
        for round in 0..4_000 {
            let len = (next() % 70) as usize;
            let alphabet = if round % 2 == 0 { 4 } else { 256 };
            let buf: Vec<u8> = (0..len)
                .map(|_| (next() % alphabet) as u8 + if alphabet == 4 { a - 1 } else { 0 })
                .collect();
            let (x, y) = (next() as u8, next() as u8);
            assert_eq!(find_either(&buf, a, b), bytewise(&buf, a, b), "{buf:?}");
            assert_eq!(
                find_either(&buf, x, y),
                bytewise(&buf, x, y),
                "{buf:?} {x} {y}"
            );
            assert_eq!(find_either(&buf, x, x), bytewise(&buf, x, x), "{buf:?} {x}");
        }
    }

    /// The bitwise CRC-32 the tables replaced: the reference they must
    /// equal bit for bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    /// Deterministic test bytes (xorshift64*).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_equals_the_bitwise_reference() {
        // Every length through two words plus a tail, at every
        // alignment of the 8-byte loop.
        let buf = noise(7, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
        for (seed, len) in [(1, 1_000), (2, 4_097), (3, 12_455), (4, 65_536)] {
            let s = noise(seed, len);
            assert_eq!(crc32(&s), crc32_bitwise(&s), "seed {seed} len {len}");
        }
    }

    #[test]
    fn encode_with_equals_encode_for_every_format() {
        for (fmt, alts, version) in [
            (&WAL, &[false, true][..], 0),
            (&RELAY, &[false, true], 0),
            (&REPL_WIRE, &[false], 0),
            (&SERVER, &[false, true], 0),
            (&TRACE, &[false], 2),
        ] {
            for &alt in alts {
                for len in [0, 1, 7, 8, 9, 300] {
                    let payload = noise(len as u64, len);
                    let framed = fmt.encode(alt, version, &payload);
                    // A wrong capacity hint changes nothing but allocation.
                    for capacity in [0, len, 2 * len + 5] {
                        let built = fmt.encode_with(alt, version, capacity, |out| {
                            out.extend_from_slice(&payload)
                        });
                        assert_eq!(built, framed, "{:?} alt {alt} len {len}", fmt.magic);
                    }
                    let got = walk(fmt, &framed).next().expect("one frame");
                    assert_eq!(
                        (got.alt, got.version, got.payload),
                        (alt, version, &payload[..])
                    );
                }
            }
        }
    }

    #[test]
    fn reader_is_bounds_checked_and_put_round_trips() {
        let mut out = Vec::new();
        put_u16(&mut out, 0xBEEF);
        put_i64(&mut out, -2);
        put_str16(&mut out, "é");
        put_bytes32(&mut out, b"ab");
        put_bytes64(&mut out, b"c");
        let mut r = Reader::new(&out);
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.i64(), Ok(-2));
        assert_eq!(r.str16().as_deref(), Ok("é"));
        assert_eq!(r.bytes32(), Ok(&b"ab"[..]));
        assert_eq!(r.str64().as_deref(), Ok("c"));
        assert_eq!((r.pos(), r.remaining()), (out.len(), 0));
        assert_eq!(r.u8(), Err(ReadError::Truncated));
        // A hostile length neither wraps nor allocates.
        let mut r = Reader::new(&[0xFF; 12]);
        assert_eq!(r.bytes64(), Err(ReadError::Truncated));
        assert_eq!(Reader::new(&[1, 0, 0xFF]).str16(), Err(ReadError::Utf8));
    }

    #[test]
    fn an_over_cap_length_is_garbage_not_a_pending_frame() {
        let mut bytes = WAL.magic.to_vec();
        put_u32(&mut bytes, MAX_PAYLOAD as u32 + 1);
        bytes.extend_from_slice(&WAL.encode(true, 0, b"next"));
        let mut dec = StreamDecoder::new(&WAL);
        dec.feed(&bytes);
        let got = dec.next_frame().unwrap().unwrap();
        assert_eq!((got.offset, got.alt, got.payload), (8, true, &b"next"[..]));
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.buffered(), 0);
        assert_eq!(scan(&WAL, &bytes).count(), 1);
        assert_eq!(walk(&WAL, &bytes).count(), 0);
    }
}
