//! The `Result` reply as the server sends it: the engine's row block,
//! spliced. Its frame must be byte for byte the frame of the decoded
//! result, over random tables and SELECTs (cache misses and hits alike),
//! and a heap cell the block cannot vouch for must fail the statement
//! on the engine, so the client gets an `Error` frame and never a
//! `Result` it cannot decode.

use mdb_server::wire::answer_reply_frame;
use mdb_server::{ClientError, MdbClient, MdbServer, ServerOptions, WireMessage};
use minidb::engine::{Connection, Db, DbConfig};
use minidb::row::ROW_HEADER_LEN;
use minidb::storage::{Page, PAGE_SIZE};
use minidb::value::Value;
use minidb::DbError;
use proptest::prelude::*;

/// SplitMix64: one generated seed drives a whole case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

const TYPES: [&str; 3] = ["INT", "TEXT", "BYTES"];

fn value_of(rng: &mut Rng, ty: &str) -> Value {
    if rng.chance(15) {
        return Value::Null;
    }
    match ty {
        "INT" => Value::Int(rng.index(40) as i64 - 20),
        "TEXT" => {
            let stem = ["", "a", "b'q", "é", "東京"][rng.index(5)];
            Value::Text(format!("{stem}{}", "x".repeat(rng.index(30))))
        }
        _ => Value::Bytes(vec![rng.index(256) as u8; rng.index(12)]),
    }
}

/// A random SELECT over `t`: `*`, a column list with repeats, or an
/// aggregate; an index range, a scan predicate or none; ORDER BY and
/// LIMIT, or not.
fn select(rng: &mut Rng, types: &[&str]) -> String {
    let col = |rng: &mut Rng| format!("c{}", rng.index(types.len()));
    let items = match rng.index(6) {
        0 | 1 => "*".to_string(),
        2 => "COUNT(*)".to_string(),
        _ => (0..1 + rng.index(2 * types.len()))
            .map(|_| col(rng))
            .collect::<Vec<_>>()
            .join(", "),
    };
    let lo = rng.index(60) as i64 - 5;
    let filter = match rng.index(4) {
        0 => String::new(),
        1 | 2 => format!(" WHERE c0 >= {lo} AND c0 < {}", lo + rng.index(40) as i64),
        // Not sargable: a heap scan.
        _ => {
            let c = col(rng);
            format!(" WHERE {c} = {c} OR c0 > {lo}")
        }
    };
    let order = match rng.chance(30) {
        true => format!(" ORDER BY {}{}", col(rng), [" DESC", ""][rng.index(2)]),
        false => String::new(),
    };
    let limit = match rng.chance(30) {
        true => format!(" LIMIT {}", rng.index(8)),
        false => String::new(),
    };
    format!("SELECT {items} FROM t{filter}{order}{limit}")
}

/// The spliced frame, after checking it against the decoded result's.
fn spliced(conn: &Connection, sql: &str) -> Result<Vec<u8>, TestCaseError> {
    let Ok(answer) = conn.execute_encoded(sql, None) else {
        return Ok(Vec::new());
    };
    let frame = answer_reply_frame(&answer);
    let decoded = answer
        .decode()
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(
        &frame,
        &WireMessage::Result(decoded).to_reply_frame(),
        "{}",
        sql
    );
    Ok(frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spliced_replies_equal_encoded_replies(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let types: Vec<&str> = (0..1 + rng.index(4))
            .map(|i| if i == 0 { "INT" } else { TYPES[rng.index(3)] })
            .collect();
        let db = Db::open(DbConfig::default());
        let conn = db.connect("app");
        let columns: Vec<String> = types
            .iter()
            .enumerate()
            .map(|(i, ty)| format!("c{i} {ty}{}", if i == 0 { " PRIMARY KEY" } else { "" }))
            .collect();
        conn.execute(&format!("CREATE TABLE t ({})", columns.join(", "))).unwrap();
        for id in 0..rng.index(60) {
            let values: Vec<String> = std::iter::once(id.to_string())
                .chain(types[1..].iter().map(|ty| value_of(&mut rng, ty).to_sql()))
                .collect();
            conn.execute(&format!("INSERT INTO t VALUES ({})", values.join(", "))).unwrap();
        }
        for _ in 0..12 {
            let sql = select(&mut rng, &types);
            // A miss, then (for a committed read) the cached block.
            let miss = spliced(&conn, &sql)?;
            let hit = spliced(&conn, &sql)?;
            prop_assert_eq!(miss.len(), hit.len(), "{}", sql);
            // Snapshot reads answer with rows, encoded once.
            conn.execute("BEGIN").unwrap();
            spliced(&conn, &sql)?;
            conn.execute("COMMIT").unwrap();
        }
    }
}

/// How a live heap cell is damaged.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// The `name` value's tag becomes one no value has.
    BadTag,
    /// The `name` value's length claims more bytes than the cell holds.
    LongLength,
    /// The `name` value's first text byte is not UTF-8.
    BadUtf8,
}

const HEAP: &str = "table_t.ibd";
const ROWS: i64 = 2_000;

/// An engine whose table `t (id, name, v)` has one damaged live cell
/// on disk, in a page the buffer pool does not hold; returns the id of
/// the damaged row.
fn damaged(seed: u64, damage: Damage) -> (Db, i64) {
    let db = Db::open(DbConfig {
        buffer_pool_pages: 8,
        bufpool_shards: 1,
        ..DbConfig::default()
    });
    let conn = db.connect("setup");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, v INT)")
        .unwrap();
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(100) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, 'name-{i:060}', {})", i % 7))
            .collect();
        conn.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
    }
    // Every page on disk, then a scan in page order: the pool's eight
    // frames end up holding the heap's last pages, and none of its
    // first four.
    db.shutdown();
    conn.execute("SELECT COUNT(*) FROM t").unwrap();
    let mut file = db.read_server_file(HEAP).unwrap();
    assert!(file.len() >= 12 * PAGE_SIZE, "the heap outgrows the pool");
    let mut rng = Rng(seed);
    let page_no = rng.index(4);
    let page = file[page_no * PAGE_SIZE..].first_chunk().unwrap();
    let cells: Vec<(usize, i64)> = Page::new(page)
        .iter()
        .map(Result::unwrap)
        .map(|(_, cell)| {
            let at = cell.as_ptr() as usize - file.as_ptr() as usize;
            let id = i64::from_le_bytes(cell[ROW_HEADER_LEN + 1..][..8].try_into().unwrap());
            (at, id)
        })
        .collect();
    let (cell, id) = cells[rng.index(cells.len())];
    // `id` is an INT value (tag and 8 bytes); `name` follows it.
    let name = cell + ROW_HEADER_LEN + 9;
    assert_eq!(file[name], 2, "name is a TEXT value");
    match damage {
        Damage::BadTag => file[name] = 9,
        Damage::LongLength => file[name + 1..name + 5].copy_from_slice(&4_000u32.to_le_bytes()),
        Damage::BadUtf8 => file[name + 5] = 0xFF,
    }
    db.write_server_file(HEAP, &file);
    (db, id)
}

/// Statements that read the damaged row: index and heap scans on the
/// block path, and an index range through ORDER BY's decoded rows.
fn reads_of(id: i64) -> [String; 3] {
    let (lo, hi) = (id - 3, id + 3);
    [
        format!("SELECT * FROM t WHERE id >= {lo} AND id < {hi}"),
        "SELECT name, id, name FROM t WHERE v >= 0".to_string(),
        format!("SELECT * FROM t WHERE id >= {lo} AND id < {hi} ORDER BY v DESC"),
    ]
}

#[test]
fn damaged_heap_cells_fail_closed_in_the_engine_and_on_the_wire() {
    for seed in 1..=2 {
        for damage in [Damage::BadTag, Damage::LongLength, Damage::BadUtf8] {
            let (db, id) = damaged(seed, damage);
            let conn = db.connect("app");
            for sql in reads_of(id) {
                // The engine refuses the cell under its lock: no block
                // is built for a decode (or a client) to trip on.
                let got = conn.execute_encoded(&sql, None);
                assert!(
                    matches!(got, Err(DbError::Storage(_))),
                    "{damage:?} seed {seed}: {sql}: {got:?}"
                );
            }
            let srv = MdbServer::start(db.clone(), ServerOptions::default()).unwrap();
            let mut client = MdbClient::connect(srv.local_addr(), "app").unwrap();
            for sql in reads_of(id) {
                let got = client.query(&sql);
                assert!(
                    matches!(&got, Err(ClientError::Server(m)) if m.starts_with("storage error")),
                    "{damage:?} seed {seed}: {sql}: {got:?}"
                );
            }
            // The rows around the damage still read.
            let r = client.query("SELECT id FROM t WHERE id >= 1990").unwrap();
            assert_eq!(r.rows.len(), 10);
            client.close().unwrap();
        }
    }
}
