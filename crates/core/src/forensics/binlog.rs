//! Binlog forensics (§3): every data-modifying statement, verbatim, with
//! its commit timestamp — the attacker's `mysqlbinlog`.

use minidb::wal::{carve_frames, BinlogEvent};

/// Parses every intact event from raw binlog bytes, in file order.
pub fn parse_binlog(raw: &[u8]) -> Vec<BinlogEvent> {
    carve_frames(raw)
        .into_iter()
        .filter_map(|(_, p)| BinlogEvent::decode(p).ok())
        .collect()
}

/// A coarse classification of a recovered statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatementKind {
    /// `INSERT …`
    Insert,
    /// `UPDATE …`
    Update,
    /// `DELETE …`
    Delete,
    /// Anything else.
    Other,
}

/// Classifies a statement by its leading keyword.
pub fn classify(statement: &str) -> StatementKind {
    let s = statement.trim_start();
    if s.len() >= 6 {
        match s[..6].to_ascii_uppercase().as_str() {
            "INSERT" => return StatementKind::Insert,
            "UPDATE" => return StatementKind::Update,
            "DELETE" => return StatementKind::Delete,
            _ => {}
        }
    }
    StatementKind::Other
}

/// Extracts hex literals (`X'…'`) from a statement — how an attacker
/// pulls ciphertexts and *query tokens* out of recovered SQL text.
pub fn extract_hex_literals(statement: &str) -> Vec<Vec<u8>> {
    let bytes = statement.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < bytes.len() {
        if let Some([b'X' | b'x', b'\'', ..]) = bytes.get(i..) {
            if let Some(end) = statement[i + 2..].find('\'') {
                let hex = &statement[i + 2..i + 2 + end];
                if hex.len().is_multiple_of(2) {
                    if let Ok(v) = decode_hex(hex) {
                        out.push(v);
                    }
                }
                i += 2 + end + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn decode_hex(s: &str) -> Result<Vec<u8>, ()> {
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 2);
    for &[hi, lo] in b.as_chunks().0 {
        out.push(hex_val(hi)? << 4 | hex_val(lo)?);
    }
    Ok(out)
}

fn hex_val(c: u8) -> Result<u8, ()> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::{Db, DbConfig};
    use minidb::wal::BINLOG_FILE;

    #[test]
    fn binlog_yields_statements_and_timestamps() {
        let config = DbConfig {
            redo_capacity: 1 << 16,
            undo_capacity: 1 << 16,
            ..DbConfig::default()
        };
        let db = Db::open(config);
        let conn = db.connect("app");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
        db.advance_time(3600);
        conn.execute("UPDATE t SET v = 'b' WHERE id = 1").unwrap();

        let disk = db.disk_image();
        let events = parse_binlog(disk.file(BINLOG_FILE).unwrap());
        // DDL is binlogged too (implicit commit), so CREATE rides along.
        assert_eq!(events.len(), 3);
        assert_eq!(classify(&events[0].statement), StatementKind::Other);
        assert_eq!(classify(&events[1].statement), StatementKind::Insert);
        assert_eq!(classify(&events[2].statement), StatementKind::Update);
        assert!(
            events[2].timestamp - events[1].timestamp >= 3600,
            "timestamps reflect the hour gap"
        );
        assert!(events[1]
            .statement
            .contains("INSERT INTO t VALUES (1, 'a')"));
    }

    #[test]
    fn classify_kinds() {
        assert_eq!(classify("  insert into x"), StatementKind::Insert);
        assert_eq!(classify("DELETE FROM t"), StatementKind::Delete);
        assert_eq!(classify("SELECT 1"), StatementKind::Other);
        assert_eq!(classify(""), StatementKind::Other);
    }

    #[test]
    fn hex_literal_extraction() {
        let lits = extract_hex_literals("UPDATE t SET ct = X'0aFF' WHERE id = x'00'");
        assert_eq!(lits, vec![vec![0x0A, 0xFF], vec![0x00]]);
        assert!(extract_hex_literals("no literals here").is_empty());
        assert!(extract_hex_literals("X'zz'").is_empty());
        assert!(extract_hex_literals("X'abc").is_empty(), "unterminated");
    }
}
