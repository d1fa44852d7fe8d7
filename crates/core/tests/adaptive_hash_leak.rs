//! §5: the adaptive hash index betrays *which key values were searched
//! frequently* to a memory-snapshot attacker — even for values that no
//! longer appear in any log or history ring.

use minidb::engine::{Db, DbConfig};
use minidb::value::Value;
use snapshot_attack::threat::{capture, AttackVector};

#[test]
fn hot_search_keys_appear_in_the_memory_image() {
    let config = DbConfig {
        redo_capacity: 2 << 20,
        undo_capacity: 2 << 20,
        query_cache_enabled: false, // Force every search to the index.
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
        .unwrap();
    for i in 0..2_000 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
            .unwrap();
    }
    // The victim hammers one key and touches others once.
    for _ in 0..40 {
        conn.execute("SELECT v FROM t WHERE k = 777").unwrap();
    }
    conn.execute("SELECT v FROM t WHERE k = 3").unwrap();

    // Drown the statement history and heap in noise so the only place the
    // hot key survives is the adaptive hash index.
    for i in 0..200 {
        conn.execute(&format!("SELECT v FROM t WHERE k = {}", 1000 + i))
            .unwrap();
    }

    let obs = capture(&db, AttackVector::VmSnapshotLeak);
    let mem = obs.volatile_db.unwrap();
    assert!(
        !mem.adaptive_hash_keys.is_empty(),
        "hot pages must have indexed keys"
    );
    // Decode the indexed keys back to values: the hot key is among them.
    let mut decoded = Vec::new();
    for (key_bytes, _page) in &mem.adaptive_hash_keys {
        let mut pos = 0;
        if let Ok(v) = Value::decode(key_bytes, &mut pos) {
            decoded.push(v);
        }
    }
    assert!(
        decoded.contains(&Value::Int(777)),
        "the frequently searched key leaks from the AHI: {decoded:?}"
    );
    // Per-page access counters are part of the image as well.
    assert!(!mem.page_access_counts.is_empty());
}
