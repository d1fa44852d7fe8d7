//! Golden byte vectors, captured at the commit *before* the shared codec
//! (`mdb_trace::codec`) replaced the per-crate frame writers and readers.
//! The encoders must still produce exactly these bytes and the scanners
//! must still parse them: the on-disk and on-wire formats are frozen.

use mdb_repl::wire::{SequencedEvent, WireMessage as Repl};
use mdb_server::wire::{Envelope, WireMessage as Srv, WireResultSet};
use mdb_trace::codec::{self, scan, Format};
use mdb_trace::{record, StatementTrace, TraceBuilder, TraceContext};
use minidb::value::Value;
use minidb::wal::{frame, frame_enc, BinlogEvent, OpKind, RedoRecord, UndoRecord, WalCrypto};

/// `name hex` per line.
const GOLDEN: &str = "\
WAL_REDO dec0ded124000000020500000000000000020000000000000001000000040000000300050000006166746572\n\
WAL_UNDO dec0ded1270000000305000000000000000200000000000000010000004d00000000000000060000006265666f7265\n\
WAL_BINLOG dec0ded1530000000700000000000000030000000000000000f15365000000001e000000494e5345525420494e544f20742056414c5545532028312c2027c3a92729ffeeddccbbaa99887766554433221100080706050403020101\n\
WAL_SEALED dec0a15e740000000301000000000000000000000000000000d05092bad0d530bffb55a56cf47b0a8c3ebdaf40646ed3a9c7995a70ff9030f48054b1abc80ccb3639324ba9387880f16f9c5e7e33d7359cf26ab5cb66196ba8c44c7d66df1d7cf37f80fbf517ce7917ea828fee5858225337eb61291ffc0bbd03ca4b\n\
REPL_EVENTS dec0ded1780000000202000000040000000000000000530000000700000000000000030000000000000000f15365000000001e000000494e5345525420494e544f20742056414c5545532028312c2027c3a92729ffeeddccbbaa9988776655443322110008070605040302010105000000000000000106000000dec0a15e0001\n\
MSRV_RESULT 4d5352564a0000001102000000020000006964040000006e616d65020000000200000001ffffffffffffffff020400000062c3b3620200000000030300000000ff07090000000000000002000000000000002b141bbf\n\
MSV2_QUERY 4d5356323a00000001ffeeddccbbaa99887766554433221100080706050403020101021b00000053454c454354207365637265742046524f4d206163636f756e7473761c09b1\n\
MTRC_V2 4d54524302da000000090000000000000080466858000000002c010000000000002a000000000000001c0053454c454354202a2046524f4d2074205748455245206964203d2031050064303030310100010074090073746174656d656e7400000000000000002c01000000000000000002000500706172736500000000000000001e000000000000000000000004007363616e1e000000000000000e0100000000000001000d00726f77735f6578616d696e65640a00000000000000000009007265706c6963612d3001ffeeddccbbaa9988776655443322110008070605040302010120cb643e\n\
MTRC_V1 4d54524301b5000000090000000000000080466858000000002c010000000000002a000000000000001c0053454c454354202a2046524f4d2074205748455245206964203d2031050064303030310100010074090073746174656d656e7400000000000000002c01000000000000000002000500706172736500000000000000001e000000000000000000000004007363616e1e000000000000000e0100000000000001000d00726f77735f6578616d696e65640a000000000000000000aa4bf0d5\n\
";

/// Asserts `bytes` is the golden vector `name` and that `fmt`'s scanner
/// finds it as exactly one frame; returns that frame's payload.
fn check<'a>(name: &str, fmt: &'a Format, bytes: &'a [u8]) -> &'a [u8] {
    let golden = GOLDEN
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(Some(hex.as_str()), golden, "{name}: bytes drifted");
    let frames: Vec<_> = scan(fmt, bytes).collect();
    assert_eq!(frames.len(), 1, "{name}");
    assert_eq!(
        (frames[0].offset, frames[0].end),
        (0, bytes.len()),
        "{name}"
    );
    frames[0].payload
}

fn ctx() -> TraceContext {
    TraceContext {
        trace_id: 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff,
        span_id: 0x0102_0304_0506_0708,
        sampled: true,
    }
}

fn event() -> BinlogEvent {
    BinlogEvent {
        lsn: 7,
        txn: 3,
        timestamp: 1_700_000_000,
        statement: "INSERT INTO t VALUES (1, 'é')".into(),
        ctx: Some(ctx()),
    }
}

fn trace() -> StatementTrace {
    let mut b = TraceBuilder::new(9, 1_483_228_800, "SELECT * FROM t WHERE id = 1", "d0001");
    b.table("t");
    b.begin("parse");
    b.end(30);
    b.begin("scan");
    b.attr("rows_examined", 10);
    b.end_elastic();
    let mut t = b.finish(300);
    t.trace_id = 42;
    t.node = "replica-0".into();
    t.ctx = Some(ctx());
    t
}

#[test]
fn wal_frames_plain_and_sealed() {
    let redo = RedoRecord {
        lsn: 5,
        txn: 2,
        op: OpKind::Update,
        table_id: 1,
        page_no: 4,
        slot: 3,
        after: b"after".to_vec(),
    };
    let undo = UndoRecord {
        lsn: 5,
        txn: 2,
        op: OpKind::Delete,
        table_id: 1,
        row_id: 77,
        before: b"before".to_vec(),
    };
    let p = check("WAL_REDO", &codec::WAL, &frame(&redo.encode())).to_vec();
    assert_eq!(RedoRecord::decode(&p).unwrap(), redo);
    let p = check("WAL_UNDO", &codec::WAL, &frame(&undo.encode())).to_vec();
    assert_eq!(UndoRecord::decode(&p).unwrap(), undo);
    let p = check("WAL_BINLOG", &codec::RELAY, &frame(&event().encode())).to_vec();
    assert_eq!(BinlogEvent::decode(&p).unwrap(), event());
    let crypto = WalCrypto::new([0x5A; 32], 1);
    let sealed = crypto.seal(edb_crypto::logenc::STREAM_BINLOG, 0, &event().encode());
    let framed = frame_enc(&sealed);
    assert_eq!(check("WAL_SEALED", &codec::WAL, &framed), &sealed[..]);
    assert!(scan(&codec::WAL, &framed).all(|f| f.alt), "sealed magic");
    assert_eq!(crypto.open(&sealed).unwrap().3, event().encode());
}

#[test]
fn replication_stream_frame() {
    let sealed = SequencedEvent {
        seq: 5,
        sealed: true,
        payload: vec![0xDE, 0xC0, 0xA1, 0x5E, 0, 1],
    };
    let msg = Repl::Events {
        events: vec![SequencedEvent::plain(4, &event()), sealed],
    };
    let framed = msg.to_frame();
    let payload = check("REPL_EVENTS", &codec::REPL_WIRE, &framed);
    assert_eq!(Repl::decode(payload).unwrap(), msg);
}

#[test]
fn server_frames_v1_and_v2() {
    let result = Srv::Result(WireResultSet {
        columns: vec!["id".into(), "name".into()],
        rows: vec![
            vec![Value::Int(-1), Value::Text("bób".into())],
            vec![Value::Null, Value::Bytes(vec![0, 255, 7])],
        ],
        rows_examined: 9,
        rows_affected: 2,
    });
    let framed = result.to_frame();
    assert_eq!(framed, result.to_reply_frame());
    let payload = check("MSRV_RESULT", &codec::SERVER, &framed);
    assert_eq!(Srv::decode(payload).unwrap(), result);
    let v2 = Envelope {
        msg: Srv::Query {
            sql: "SELECT secret FROM accounts".into(),
        },
        ctx: Some(ctx()),
    };
    let framed = v2.to_frame();
    check("MSV2_QUERY", &codec::SERVER, &framed);
    let mut dec = mdb_server::FrameDecoder::default();
    dec.feed(&framed);
    assert_eq!(dec.next_envelope().unwrap(), Some(v2));
}

#[test]
fn trace_records_v1_and_v2() {
    let t = trace();
    let v2 = record::encode_record(&t);
    check("MTRC_V2", &codec::TRACE, &v2);
    assert_eq!(record::carve(&v2)[0].trace, t);
    // v1: the same payload minus the v2 tail (empty node string + ctx
    // flag = 3 bytes), under version byte 1. Nothing writes v1 any more;
    // old slow logs must still carve.
    let bare = StatementTrace {
        node: String::new(),
        ctx: None,
        ..t
    };
    let mut payload = Vec::new();
    record::encode_payload(&bare, &mut payload);
    payload.truncate(payload.len() - 3);
    let v1 = codec::TRACE.encode(false, record::VERSION_V1, &payload);
    check("MTRC_V1", &codec::TRACE, &v1);
    assert_eq!(record::carve(&v1)[0].trace, bare);
}
