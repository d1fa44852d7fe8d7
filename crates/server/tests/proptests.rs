//! Property-based tests for the server wire protocol's messages:
//! unicode round-trips and mixed v1/v2 (trace-context) streams through
//! the typed decoder. Frame-level properties (chunking, cuts, CRC
//! rejection, resync) live in the one framing suite,
//! `crates/minidb/tests/framing.rs`.

use mdb_server::wire::Envelope;
use mdb_server::{FrameDecoder, WireMessage, WireResultSet};
use mdb_trace::TraceContext;
use minidb::value::Value;
use proptest::prelude::*;

fn arb_text() -> impl Strategy<Value = String> {
    // Unicode-heavy but free of the bytes `M S R V` so a cut payload
    // cannot alias the frame magic (multi-byte UTF-8 is all >= 0x80).
    "[a-z0-9 éß❤'=(),]{0,48}".prop_map(|s| s)
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        arb_text().prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::Bytes),
    ]
}

fn arb_message() -> impl Strategy<Value = WireMessage> {
    prop_oneof![
        arb_text().prop_map(|user| WireMessage::Hello { user }),
        arb_text().prop_map(|sql| WireMessage::Query { sql }),
        (arb_text(), arb_text()).prop_map(|(name, sql)| WireMessage::Prepare { name, sql }),
        arb_text().prop_map(|name| WireMessage::ExecutePrepared { name }),
        Just(WireMessage::Quit),
        (any::<u64>(), arb_text())
            .prop_map(|(session_id, server)| WireMessage::Greeting { session_id, server }),
        (
            proptest::collection::vec(arb_text(), 0..4),
            proptest::collection::vec(proptest::collection::vec(arb_value(), 0..4), 0..6),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(columns, rows, rows_examined, rows_affected)| {
                WireMessage::Result(WireResultSet {
                    columns,
                    rows,
                    rows_examined,
                    rows_affected,
                })
            }),
        arb_text().prop_map(|message| WireMessage::Error { message }),
        Just(WireMessage::Bye),
    ]
}

fn arb_ctx() -> impl Strategy<Value = Option<TraceContext>> {
    prop_oneof![
        2 => Just(None),
        3 => (any::<u128>(), any::<u64>(), any::<bool>()).prop_map(|(trace_id, span_id, sampled)| {
            Some(TraceContext { trace_id, span_id, sampled })
        }),
    ]
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (arb_message(), arb_ctx()).prop_map(|(msg, ctx)| Envelope { msg, ctx })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn payloads_round_trip(m in arb_message()) {
        prop_assert_eq!(WireMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn mixed_v1_v2_streams_decode_in_order(
        envs in proptest::collection::vec(arb_envelope(), 1..8),
        chunk in 1usize..17,
    ) {
        // A single decoder must handle interleaved protocol versions:
        // context-free envelopes frame as byte-identical v1 `MSRV`
        // frames, context-carrying ones as v2 `MSV2` frames, in any
        // order, fed in arbitrary chunk sizes.
        let mut stream = Vec::new();
        for e in &envs {
            stream.extend_from_slice(&e.to_frame());
        }
        let mut dec = FrameDecoder::default();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            while let Some(e) = dec.next_envelope().unwrap() {
                got.push(e);
            }
        }
        prop_assert_eq!(got, envs);
    }

    #[test]
    fn next_message_drops_ctx_but_keeps_the_payload(
        m in arb_message(),
        ctx in arb_ctx(),
    ) {
        // A v1-era consumer (`next_message`) pointed at a v2 stream
        // still sees every message — the context slot is versioned
        // out, not a hard break.
        let env = Envelope { msg: m.clone(), ctx };
        let mut dec = FrameDecoder::default();
        dec.feed(&env.to_frame());
        prop_assert_eq!(dec.next_message().unwrap(), Some(m));
        prop_assert_eq!(dec.next_message().unwrap(), None);
    }

}
