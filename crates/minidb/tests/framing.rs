//! The one framing suite: every property of `mdb_trace::codec`'s frame
//! layer, run over all five format descriptions. It lives here because
//! `mdb-trace` is zero-dependency (no proptest) and `minidb` is the
//! lowest crate that has both. Message-level properties (what a payload
//! means) stay with the crate that owns the message.

use mdb_trace::codec::{self, scan, walk, Crc, Format, StreamDecoder};
use proptest::prelude::*;

const FORMATS: [&Format; 5] = [
    &codec::WAL,
    &codec::RELAY,
    &codec::REPL_WIRE,
    &codec::SERVER,
    &codec::TRACE,
];

/// A frame as found: `(offset, end, alt, version, payload)`.
type Found = (usize, usize, bool, u8, Vec<u8>);

fn found(f: codec::Frame<'_>) -> Found {
    (f.offset, f.end, f.alt, f.version, f.payload.to_vec())
}

/// No byte that starts a magic (`0xDE`, `M`): payloads and garbage built
/// from these cannot forge a frame when the scan lands inside them.
fn inert() -> impl Strategy<Value = u8> {
    any::<u8>().prop_map(|b| if b == 0xDE || b == b'M' { 0 } else { b })
}

/// `(garbage before, alt magic?, version pick, payload)` per frame.
fn frames() -> impl Strategy<Value = Vec<(Vec<u8>, bool, usize, Vec<u8>)>> {
    let garbage = prop_oneof![
        2 => Just(Vec::new()),
        1 => proptest::collection::vec(inert(), 1..24),
    ];
    let frame = (
        garbage,
        any::<bool>(),
        0usize..2,
        proptest::collection::vec(inert(), 0..40),
    );
    proptest::collection::vec(frame, 1..10)
}

/// Writes the stream and returns it with the frames a reader must find.
fn build(fmt: &Format, plan: &[(Vec<u8>, bool, usize, Vec<u8>)]) -> (Vec<u8>, Vec<Found>) {
    let (mut bytes, mut want) = (Vec::new(), Vec::new());
    for (garbage, alt, pick, payload) in plan {
        bytes.extend_from_slice(garbage);
        let alt = *alt && fmt.alt_magic.is_some();
        let version = fmt.versions.get(pick % fmt.versions.len().max(1));
        let version = version.copied().unwrap_or(0);
        let offset = bytes.len();
        bytes.extend_from_slice(&fmt.encode(alt, version, payload));
        want.push((offset, bytes.len(), alt, version, payload.clone()));
    }
    (bytes, want)
}

/// Feeds `bytes` to a `StreamDecoder` in `chunk`-sized pieces and checks
/// it against `scan` of the same bytes: identical frames, in order, up
/// to the frame the stream is still waiting on — and nothing `scan`
/// finds beyond that starts before it. Returns `(frames, crc errors)`.
fn stream(fmt: &'static Format, bytes: &[u8], chunk: usize) -> (Vec<Found>, usize) {
    let mut dec = StreamDecoder::new(fmt);
    let (mut got, mut crc_errors) = (Vec::new(), 0);
    for piece in bytes.chunks(chunk) {
        dec.feed(piece);
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => got.push(found(f)),
                Ok(None) => break,
                Err(_) => crc_errors += 1,
            }
        }
    }
    let carved: Vec<Found> = scan(fmt, bytes).map(found).collect();
    let pending = bytes.len() - dec.buffered();
    assert_eq!(got, carved[..got.len()], "stream and scan disagree");
    assert!(carved[got.len()..].iter().all(|f| f.0 >= pending));
    (got, crc_errors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Round trip, mixed magics and versions in order, garbage skipped,
    /// chunked feed ≡ whole feed ≡ scan, and `walk` stops at the first
    /// byte of garbage.
    #[test]
    fn intact_streams_decode_in_order(which in 0usize..5, plan in frames(), chunk in 1usize..17) {
        let fmt = FORMATS[which];
        let (bytes, want) = build(fmt, &plan);
        prop_assert_eq!(&scan(fmt, &bytes).map(found).collect::<Vec<_>>(), &want);
        prop_assert_eq!(&stream(fmt, &bytes, chunk), &(want.clone(), 0));
        prop_assert_eq!(&stream(fmt, &bytes, bytes.len()).0, &want);
        let clean = plan.iter().take_while(|(garbage, ..)| garbage.is_empty()).count();
        prop_assert_eq!(walk(fmt, &bytes).map(found).collect::<Vec<_>>(), want[..clean].to_vec());
    }

    /// Truncation keeps exactly what is whole: cut the tail (a torn
    /// append — the stream holds the torn frame instead of inventing
    /// one) or the head (a circular log lapped mid-frame).
    #[test]
    fn truncation_keeps_the_intact_frames(which in 0usize..5, plan in frames(), cut in any::<u16>()) {
        let fmt = FORMATS[which];
        let (bytes, want) = build(fmt, &plan);
        let cut = cut as usize % (bytes.len() + 1);
        let head: Vec<Found> = want.iter().filter(|f| f.1 <= cut).cloned().collect();
        prop_assert_eq!(&scan(fmt, &bytes[..cut]).map(found).collect::<Vec<_>>(), &head);
        prop_assert_eq!(stream(fmt, &bytes[..cut], 7).0, head);
        let tail = want.into_iter().filter(|f| f.0 >= cut);
        let tail: Vec<Found> = tail.map(|f| (f.0 - cut, f.1 - cut, f.2, f.3, f.4)).collect();
        prop_assert_eq!(stream(fmt, &bytes[cut..], 7).0, tail);
    }

    /// A frame cut short mid-stream (a dropped connection, then new
    /// traffic) never costs what came before it — and with a CRC it
    /// costs nothing after it either: the torn frame fails its check and
    /// the scan resyncs on the next magic.
    #[test]
    fn a_torn_frame_mid_stream_is_contained(which in 0usize..5, plan in frames(), cut in any::<u16>()) {
        let fmt = FORMATS[which];
        let (mut bytes, want) = build(fmt, &plan);
        let cut = cut as usize % bytes.len();
        let Some(torn) = want.iter().position(|f| (f.0 + 1..f.1).contains(&cut)) else {
            return Ok(()); // Landed in garbage or on a boundary: nothing torn.
        };
        bytes.drain(cut..want[torn].1);
        stream(fmt, &bytes, 3);
        let got: Vec<Found> = scan(fmt, &bytes).map(found).collect();
        prop_assert_eq!(&got[..torn], &want[..torn]);
        if fmt.crc != Crc::None {
            let shift = want[torn].1 - cut;
            let after = want[torn + 1..].iter().cloned();
            let after: Vec<Found> = after.map(|f| (f.0 - shift, f.1 - shift, f.2, f.3, f.4)).collect();
            prop_assert_eq!(&got[torn..], &after[..]);
        }
    }

    /// Damage — one flipped bit, or a run of overwritten bytes — costs
    /// at most the frames it touches. With a CRC a damaged frame is
    /// rejected (never decoded altered) and the scan resyncs; without
    /// one, only damage to a length field can take a neighbour with it
    /// — and even then nothing before it is lost.
    #[test]
    fn damage_is_contained(
        which in 0usize..5,
        plan in frames(),
        at in any::<u16>(),
        mask in prop_oneof![
            (0u8..8).prop_map(|bit| vec![1u8 << bit]),
            proptest::collection::vec(any::<u8>(), 1..24),
        ],
    ) {
        let fmt = FORMATS[which];
        let (mut bytes, want) = build(fmt, &plan);
        let at = at as usize % bytes.len();
        let hit = at..(at + mask.len()).min(bytes.len());
        for (b, m) in bytes[hit.clone()].iter_mut().zip(&mask) {
            *b ^= m;
        }
        let touches = |lo: usize, hi: usize| lo < hit.end && hit.start < hi;
        let crc_errors = stream(fmt, &bytes, 5).1;
        let got: Vec<Found> = scan(fmt, &bytes).map(found).collect();
        let before = want.iter().filter(|f| f.1 <= at).count();
        prop_assert_eq!(&got[..before], &want[..before]);
        let len_at = 4 + fmt.versions.len().min(1);
        let in_len = want.iter().any(|f| touches(f.0 + len_at, f.0 + len_at + 4));
        if fmt.crc != Crc::None || !in_len {
            let mut spared = want.iter().filter(|f| !touches(f.0, f.1));
            prop_assert!(spared.all(|f| got.contains(f)), "an untouched frame was lost");
        }
        if fmt.crc != Crc::None {
            prop_assert!(got.iter().all(|f| want.contains(f)), "a damaged frame decoded");
            let in_payload = |f: &Found| f.0 + len_at + 4 <= hit.start && hit.end + 4 <= f.1;
            if mask[0] != 0 && want.iter().any(in_payload) {
                prop_assert!(crc_errors >= 1, "payload damage must surface as a CRC error");
            }
        } else {
            prop_assert_eq!(crc_errors, 0);
        }
    }
}
