//! A CryptDB/Mylar-style encrypted-database proxy.
//!
//! The proxy sits between the application and the (untrusted) DBMS. Each
//! logical column is stored under the weakest encryption its queries need:
//!
//! * `Plain` — stored as-is (public identifiers);
//! * `Det` — deterministic encryption; equality predicates run natively
//!   on ciphertext bytes;
//! * `Ore` — Lewi–Wu: the table stores *right* ciphertexts plus an RND
//!   copy for retrieval; range predicates ship a *left* ciphertext (the
//!   token) inside the rewritten SQL, evaluated by the `ORE_*` UDFs;
//! * `Search` — SWP searchable encryption over the words of a text value,
//!   plus an RND copy; keyword queries ship a trapdoor to the `SWP_MATCH`
//!   UDF.
//!
//! Everything the server evaluates is a ciphertext or a token — the
//! textbook design. The §6 observation is that those tokens *are in the
//! SQL text*, and the SQL text is everywhere: processlist, statement
//! history, the query cache, the heap.

use std::collections::HashMap;
use std::sync::Arc;

use edb_crypto::ore::{self, OreKey, OreParams};
use edb_crypto::swp::{SwpClient, Trapdoor, WordCiphertext, CIPHERTEXT_LEN};
use edb_crypto::{det, rnd, Key};
use minidb::engine::{Connection, Db};
use minidb::value::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::{hex_literal, EdbError, EdbResult};

/// Encryption mode of one logical column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnCrypto {
    /// Stored in the clear (INT).
    PlainInt,
    /// Deterministic encryption (equality-searchable).
    Det,
    /// Lewi–Wu ORE (range-searchable); plaintexts are `u32`.
    Ore,
    /// SWP word-searchable text.
    Search,
}

/// One logical column declaration.
#[derive(Clone, Debug)]
pub struct EncColumn {
    /// Logical column name.
    pub name: String,
    /// Encryption mode.
    pub crypto: ColumnCrypto,
    /// Whether this column is the (plaintext) primary key. Only valid for
    /// [`ColumnCrypto::PlainInt`].
    pub primary_key: bool,
}

/// A plaintext predicate the application asks the proxy to evaluate.
#[derive(Clone, Debug)]
pub enum Query {
    /// All rows.
    All,
    /// `col = value` on a DET (Text) or PlainInt column.
    Eq(String, Value),
    /// `lo <= col AND col <= hi` on an ORE column.
    Range(String, u32, u32),
    /// `col` contains the word (Search column).
    Contains(String, String),
}

struct TableState {
    columns: Vec<EncColumn>,
}

/// The client-side proxy. Holds all keys; the DBMS sees only ciphertexts
/// and query tokens.
pub struct CryptDbProxy {
    conn: Connection,
    master: Key,
    ore_key: OreKey,
    tables: HashMap<String, TableState>,
    rng: StdRng,
}

impl CryptDbProxy {
    /// Creates a proxy over `db`, registering the ciphertext-evaluation
    /// UDFs the rewritten queries rely on.
    pub fn new(db: &Db, master: Key, rng_seed: u64) -> EdbResult<CryptDbProxy> {
        let ore_key = OreKey::new(&Key::derive(&master, "ore"), OreParams::PAPER)?;
        register_udfs(db);
        Ok(CryptDbProxy {
            conn: db.connect("cryptdb-proxy"),
            master,
            ore_key,
            tables: HashMap::new(),
            rng: StdRng::seed_from_u64(rng_seed),
        })
    }

    fn det_key(&self, table: &str, col: &str) -> Key {
        Key::derive(&self.master, &format!("det:{table}.{col}"))
    }

    fn rnd_key(&self, table: &str, col: &str) -> Key {
        Key::derive(&self.master, &format!("rnd:{table}.{col}"))
    }

    fn swp_client(&self, table: &str, col: &str) -> SwpClient {
        SwpClient::new(&Key::derive(&self.master, &format!("swp:{table}.{col}")))
    }

    /// Creates an encrypted table.
    pub fn create_table(&mut self, table: &str, columns: Vec<EncColumn>) -> EdbResult<()> {
        let mut phys = Vec::new();
        for c in &columns {
            match c.crypto {
                ColumnCrypto::PlainInt => {
                    phys.push(format!(
                        "{} INT{}",
                        c.name,
                        if c.primary_key { " PRIMARY KEY" } else { "" }
                    ));
                }
                ColumnCrypto::Det => phys.push(format!("{}_det BYTES", c.name)),
                ColumnCrypto::Ore => {
                    phys.push(format!("{}_ore BYTES", c.name));
                    phys.push(format!("{}_rnd BYTES", c.name));
                }
                ColumnCrypto::Search => {
                    phys.push(format!("{}_swp BYTES", c.name));
                    phys.push(format!("{}_rnd BYTES", c.name));
                }
            }
            if c.primary_key && c.crypto != ColumnCrypto::PlainInt {
                return Err(EdbError::Client(
                    "primary keys must be PlainInt in this proxy".into(),
                ));
            }
        }
        self.conn
            .execute(&format!("CREATE TABLE {table} ({})", phys.join(", ")))?;
        // DET enables native equality, so the proxy indexes DET columns —
        // the very reason CryptDB uses DET instead of RND for them.
        for c in &columns {
            if c.crypto == ColumnCrypto::Det {
                self.conn.execute(&format!(
                    "CREATE INDEX ix_{table}_{col} ON {table} ({col}_det)",
                    col = c.name
                ))?;
            }
        }
        self.tables
            .insert(table.to_string(), TableState { columns });
        Ok(())
    }

    fn table(&self, name: &str) -> EdbResult<&TableState> {
        self.tables
            .get(name)
            .ok_or_else(|| EdbError::Client(format!("unknown encrypted table {name}")))
    }

    /// Inserts one logical row (values in declaration order).
    pub fn insert(&mut self, table: &str, values: &[Value]) -> EdbResult<()> {
        let state = self.table(table)?;
        if values.len() != state.columns.len() {
            return Err(EdbError::Client(format!(
                "expected {} values, got {}",
                state.columns.len(),
                values.len()
            )));
        }
        let columns = state.columns.clone();
        let mut literals = Vec::new();
        for (c, v) in columns.iter().zip(values) {
            match (c.crypto, v) {
                (ColumnCrypto::PlainInt, Value::Int(i)) => literals.push(i.to_string()),
                (ColumnCrypto::Det, Value::Text(s)) => {
                    let ct = det::encrypt(&self.det_key(table, &c.name), s.as_bytes());
                    literals.push(hex_literal(&ct));
                }
                (ColumnCrypto::Ore, Value::Int(i)) => {
                    let x = u32::try_from(*i)
                        .map_err(|_| EdbError::Client(format!("ORE plaintext {i} outside u32")))?;
                    let right = self.ore_key.encrypt_right(x as u64, &mut self.rng)?;
                    literals.push(hex_literal(&right.to_bytes()));
                    let ct = rnd::encrypt(
                        &self.rnd_key(table, &c.name),
                        &x.to_le_bytes(),
                        &mut self.rng,
                    );
                    literals.push(hex_literal(&ct));
                }
                (ColumnCrypto::Search, Value::Text(s)) => {
                    let swp = self.swp_client(table, &c.name);
                    let row_nonce: u64 = rand::Rng::gen(&mut self.rng);
                    let words: Vec<&str> = s.split_whitespace().collect();
                    let mut blob = Vec::with_capacity(2 + words.len() * CIPHERTEXT_LEN);
                    blob.extend_from_slice(&(words.len() as u16).to_le_bytes());
                    for (pos, w) in words.iter().enumerate() {
                        let ct = swp.encrypt_word(row_nonce, pos as u32, &w.to_lowercase());
                        blob.extend_from_slice(&ct.0);
                    }
                    literals.push(hex_literal(&blob));
                    let ct =
                        rnd::encrypt(&self.rnd_key(table, &c.name), s.as_bytes(), &mut self.rng);
                    literals.push(hex_literal(&ct));
                }
                (crypto, v) => {
                    return Err(EdbError::Client(format!(
                        "value {v:?} does not fit column mode {crypto:?}"
                    )))
                }
            }
        }
        self.conn.execute(&format!(
            "INSERT INTO {table} VALUES ({})",
            literals.join(", ")
        ))?;
        Ok(())
    }

    /// Rewrites a plaintext query into ciphertext SQL. Exposed separately
    /// so experiments can inspect exactly what the DBMS gets to see.
    pub fn rewrite(&mut self, table: &str, q: &Query) -> EdbResult<String> {
        let state = self.table(table)?;
        let col_mode = |name: &str| -> EdbResult<ColumnCrypto> {
            state
                .columns
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.crypto)
                .ok_or_else(|| EdbError::Client(format!("unknown column {name}")))
        };
        let where_clause = match q {
            Query::All => String::new(),
            Query::Eq(col, v) => match (col_mode(col)?, v) {
                (ColumnCrypto::PlainInt, Value::Int(i)) => format!(" WHERE {col} = {i}"),
                (ColumnCrypto::Det, Value::Text(s)) => {
                    let ct = det::encrypt(&self.det_key(table, col), s.as_bytes());
                    format!(" WHERE {col}_det = {}", hex_literal(&ct))
                }
                (mode, v) => {
                    return Err(EdbError::Client(format!(
                        "Eq not supported on {mode:?} with {v:?}"
                    )))
                }
            },
            Query::Range(col, lo, hi) => {
                if col_mode(col)? != ColumnCrypto::Ore {
                    return Err(EdbError::Client(format!("{col} is not an ORE column")));
                }
                // Two tokens: one per bound. These left ciphertexts are the
                // §6 leakage objects.
                let lo_tok = self.ore_key.encrypt_left(*lo as u64)?;
                let hi_tok = self.ore_key.encrypt_left(*hi as u64)?;
                format!(
                    " WHERE ORE_GE({col}_ore, {}) AND ORE_LE({col}_ore, {})",
                    hex_literal(&lo_tok.to_bytes()),
                    hex_literal(&hi_tok.to_bytes())
                )
            }
            Query::Contains(col, word) => {
                if col_mode(col)? != ColumnCrypto::Search {
                    return Err(EdbError::Client(format!("{col} is not a Search column")));
                }
                let td = self.swp_client(table, col).trapdoor(&word.to_lowercase());
                format!(
                    " WHERE SWP_MATCH({col}_swp, {})",
                    hex_literal(&td.to_bytes())
                )
            }
        };
        Ok(format!("SELECT * FROM {table}{where_clause}"))
    }

    /// Executes a plaintext query end-to-end: rewrite, run on the DBMS,
    /// decrypt the result rows.
    pub fn select(&mut self, table: &str, q: &Query) -> EdbResult<Vec<Vec<Value>>> {
        let sql = self.rewrite(table, q)?;
        let result = self.conn.execute(&sql)?;
        let columns = self.table(table)?.columns.clone();
        let mut out = Vec::with_capacity(result.rows.len());
        for row in result.rows {
            out.push(self.decrypt_row(table, &columns, &row)?);
        }
        Ok(out)
    }

    fn decrypt_row(
        &self,
        table: &str,
        columns: &[EncColumn],
        phys: &[Value],
    ) -> EdbResult<Vec<Value>> {
        let mut out = Vec::with_capacity(columns.len());
        let mut i = 0;
        for c in columns {
            match c.crypto {
                ColumnCrypto::PlainInt => {
                    out.push(phys[i].clone());
                    i += 1;
                }
                ColumnCrypto::Det => {
                    let Value::Bytes(ct) = &phys[i] else {
                        return Err(EdbError::Client("expected bytes in det column".into()));
                    };
                    let pt = det::decrypt(&self.det_key(table, &c.name), ct)?;
                    out.push(Value::Text(String::from_utf8_lossy(&pt).into_owned()));
                    i += 1;
                }
                ColumnCrypto::Ore => {
                    let Value::Bytes(ct) = &phys[i + 1] else {
                        return Err(EdbError::Client("expected bytes in rnd column".into()));
                    };
                    let pt = rnd::decrypt(&self.rnd_key(table, &c.name), ct)?;
                    let arr: [u8; 4] = pt
                        .as_slice()
                        .try_into()
                        .map_err(|_| EdbError::Client("bad ORE rnd payload".into()))?;
                    out.push(Value::Int(u32::from_le_bytes(arr) as i64));
                    i += 2;
                }
                ColumnCrypto::Search => {
                    let Value::Bytes(ct) = &phys[i + 1] else {
                        return Err(EdbError::Client("expected bytes in rnd column".into()));
                    };
                    let pt = rnd::decrypt(&self.rnd_key(table, &c.name), ct)?;
                    out.push(Value::Text(String::from_utf8_lossy(&pt).into_owned()));
                    i += 2;
                }
            }
        }
        Ok(out)
    }
}

/// Registers the ciphertext-evaluation UDFs (`ORE_GE`, `ORE_LE`,
/// `SWP_MATCH`) on the DBMS. These run *server-side* and need no keys —
/// only the tokens the rewritten queries carry.
pub fn register_udfs(db: &Db) {
    // Every ciphertext operation the server performs is counted in the
    // engine registry: the number of ORE comparisons is `rows × range
    // predicates`, so the counter alone reveals the range-query volume.
    let telemetry = db.telemetry();
    let ore_cmp_count = telemetry.counter("edb.ore.comparisons");
    let swp_match_count = telemetry.counter("edb.swp.word_matches");
    // ORE comparison is keyless by construction: anyone with the two
    // ciphertexts can compare. The UDFs parse bytes and run `compare`.
    let ore_cmps = ore_cmp_count.clone();
    let ge = move |args: &[Value]| -> minidb::DbResult<Value> {
        ore_cmps.inc();
        let (stored, token) = parse_ore_args(args)?;
        let leak = ore::compare_leak(&token, &stored)
            .map_err(|e| minidb::DbError::Eval(format!("ORE compare: {e}")))?;
        // stored >= token  ⇔  token <= stored  ⇔  compare(token, stored) is
        // Less or Equal.
        Ok(Value::Int(matches!(
            leak.ordering,
            core::cmp::Ordering::Less | core::cmp::Ordering::Equal
        ) as i64))
    };
    let ore_cmps = ore_cmp_count;
    let le = move |args: &[Value]| -> minidb::DbResult<Value> {
        ore_cmps.inc();
        let (stored, token) = parse_ore_args(args)?;
        let leak = ore::compare_leak(&token, &stored)
            .map_err(|e| minidb::DbError::Eval(format!("ORE compare: {e}")))?;
        Ok(Value::Int(matches!(
            leak.ordering,
            core::cmp::Ordering::Greater | core::cmp::Ordering::Equal
        ) as i64))
    };
    db.register_function("ORE_GE", Arc::new(ge));
    db.register_function("ORE_LE", Arc::new(le));
    db.register_function(
        "SWP_MATCH",
        Arc::new(move |args: &[Value]| -> minidb::DbResult<Value> {
            swp_match_count.inc();
            let (Value::Bytes(blob), Value::Bytes(td_bytes)) = (&args[0], &args[1]) else {
                return Err(minidb::DbError::Eval("SWP_MATCH expects bytes".into()));
            };
            let td = Trapdoor::from_bytes(td_bytes)
                .ok_or_else(|| minidb::DbError::Eval("bad trapdoor".into()))?;
            let matched = parse_swp_blob(blob)
                .map_err(minidb::DbError::Eval)?
                .iter()
                .any(|ct| edb_crypto::swp::server_match(&td, ct));
            Ok(Value::Int(matched as i64))
        }),
    );
}

fn parse_ore_args(args: &[Value]) -> minidb::DbResult<(ore::RightCiphertext, ore::LeftCiphertext)> {
    let (Value::Bytes(stored), Value::Bytes(token)) = (&args[0], &args[1]) else {
        return Err(minidb::DbError::Eval(
            "ORE UDF expects two byte args".into(),
        ));
    };
    let right = ore::RightCiphertext::from_bytes(stored)
        .map_err(|e| minidb::DbError::Eval(format!("bad right ct: {e}")))?;
    let left = ore::LeftCiphertext::from_bytes(token)
        .map_err(|e| minidb::DbError::Eval(format!("bad token: {e}")))?;
    Ok((right, left))
}

/// Parses the `count || word-cts` blob a Search column stores.
pub fn parse_swp_blob(blob: &[u8]) -> Result<Vec<WordCiphertext>, String> {
    if blob.len() < 2 {
        return Err("short swp blob".into());
    }
    let n = u16::from_le_bytes([blob[0], blob[1]]) as usize;
    if blob.len() != 2 + n * CIPHERTEXT_LEN {
        return Err("swp blob length mismatch".into());
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let off = 2 + i * CIPHERTEXT_LEN;
        let mut ct = [0u8; CIPHERTEXT_LEN];
        ct.copy_from_slice(&blob[off..off + CIPHERTEXT_LEN]);
        out.push(WordCiphertext(ct));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::DbConfig;

    fn proxy() -> (Db, CryptDbProxy) {
        let db = Db::open(DbConfig::default());
        let p = CryptDbProxy::new(&db, Key([3u8; 32]), 42).unwrap();
        (db, p)
    }

    fn docs_table(p: &mut CryptDbProxy) {
        p.create_table(
            "docs",
            vec![
                EncColumn {
                    name: "id".into(),
                    crypto: ColumnCrypto::PlainInt,
                    primary_key: true,
                },
                EncColumn {
                    name: "state".into(),
                    crypto: ColumnCrypto::Det,
                    primary_key: false,
                },
                EncColumn {
                    name: "salary".into(),
                    crypto: ColumnCrypto::Ore,
                    primary_key: false,
                },
                EncColumn {
                    name: "body".into(),
                    crypto: ColumnCrypto::Search,
                    primary_key: false,
                },
            ],
        )
        .unwrap();
        for (id, state, salary, body) in [
            (1i64, "IN", 55_000u32, "meeting about gas prices"),
            (2, "AZ", 72_000, "energy trading desk update"),
            (3, "IN", 48_000, "lunch plans and gas receipts"),
            (4, "CA", 120_000, "quarterly energy results"),
        ] {
            p.insert(
                "docs",
                &[
                    Value::Int(id),
                    Value::Text(state.into()),
                    Value::Int(salary as i64),
                    Value::Text(body.into()),
                ],
            )
            .unwrap();
        }
    }

    #[test]
    fn det_equality_round_trip() {
        let (_db, mut p) = proxy();
        docs_table(&mut p);
        let rows = p
            .select("docs", &Query::Eq("state".into(), Value::Text("IN".into())))
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[1] == Value::Text("IN".into())));
        // Full decryption restored all logical columns.
        assert!(matches!(rows[0][3], Value::Text(_)));
    }

    #[test]
    fn det_equality_uses_an_index() {
        let (db, mut p) = proxy();
        docs_table(&mut p);
        let conn = db.connect("check");
        let r = conn
            .execute("EXPLAIN SELECT * FROM docs WHERE state_det = X'00'")
            .unwrap();
        let plan = r.rows[0][0].to_string();
        assert!(plan.contains("index scan on ix_docs_state"), "{plan}");
    }

    #[test]
    fn ore_range_round_trip() {
        let (_db, mut p) = proxy();
        docs_table(&mut p);
        let rows = p
            .select("docs", &Query::Range("salary".into(), 50_000, 80_000))
            .unwrap();
        let ids: Vec<i64> = rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(rows[0][2], Value::Int(55_000));
    }

    #[test]
    fn search_round_trip() {
        let (_db, mut p) = proxy();
        docs_table(&mut p);
        let rows = p
            .select("docs", &Query::Contains("body".into(), "energy".into()))
            .unwrap();
        assert_eq!(rows.len(), 2);
        let rows = p
            .select("docs", &Query::Contains("body".into(), "gas".into()))
            .unwrap();
        assert_eq!(rows.len(), 2);
        let rows = p
            .select("docs", &Query::Contains("body".into(), "absent".into()))
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn server_never_sees_plaintext() {
        // Small logs keep the byte scan fast; the leakage property is
        // capacity-independent.
        let config = DbConfig {
            redo_capacity: 1 << 20,
            undo_capacity: 1 << 20,
            ..DbConfig::default()
        };
        let db = Db::open(config);
        let mut p = CryptDbProxy::new(&db, Key([3u8; 32]), 42).unwrap();
        docs_table(&mut p);
        let _ = p
            .select("docs", &Query::Contains("body".into(), "energy".into()))
            .unwrap();
        db.shutdown();
        // No disk file contains the (distinctive) plaintexts.
        let disk = db.disk_image();
        for name in disk.file_names() {
            let data = disk.file(name).unwrap();
            for secret in [&b"energy"[..], b"meeting", b"quarterly"] {
                assert!(
                    !data.windows(secret.len()).any(|w| w == secret),
                    "plaintext {:?} leaked into {name}",
                    String::from_utf8_lossy(secret)
                );
            }
        }
    }

    #[test]
    fn rewritten_sql_carries_tokens() {
        let (_db, mut p) = proxy();
        docs_table(&mut p);
        let sql = p
            .rewrite("docs", &Query::Range("salary".into(), 10, 20))
            .unwrap();
        assert!(sql.contains("ORE_GE(salary_ore, X'"), "{sql}");
        assert!(sql.contains("ORE_LE(salary_ore, X'"), "{sql}");
        let sql = p
            .rewrite("docs", &Query::Contains("body".into(), "gas".into()))
            .unwrap();
        assert!(sql.contains("SWP_MATCH(body_swp, X'"), "{sql}");
    }

    #[test]
    fn misuse_rejected() {
        let (_db, mut p) = proxy();
        docs_table(&mut p);
        assert!(p
            .select("docs", &Query::Range("state".into(), 0, 1))
            .is_err());
        assert!(p
            .select("docs", &Query::Eq("salary".into(), Value::Int(1)))
            .is_err());
        assert!(p.select("nope", &Query::All).is_err());
        assert!(p.insert("docs", &[Value::Int(9)]).is_err());
        assert!(p
            .insert(
                "docs",
                &[
                    Value::Int(9),
                    Value::Int(1), // Wrong type for Det column.
                    Value::Int(1),
                    Value::Text("x".into()),
                ],
            )
            .is_err());
    }

    #[test]
    fn select_all_decrypts_everything() {
        let (_db, mut p) = proxy();
        docs_table(&mut p);
        let rows = p.select("docs", &Query::All).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3][2], Value::Int(120_000));
        assert_eq!(rows[3][3], Value::Text("quarterly energy results".into()));
    }
}
