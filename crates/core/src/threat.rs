//! The threat model: four concrete attack vectors and what each yields
//! (the paper's Figure 1).
//!
//! System state is split along two axes — DB vs OS, persistent vs
//! volatile — and each attack vector reveals a characteristic subset:
//!
//! | Vector                | pers. DB | vol. DB | pers. OS | vol. OS |
//! |-----------------------|----------|---------|----------|---------|
//! | Disk theft            | ✓        |         | ✓        |         |
//! | SQL injection         | ✓        | ✓       |          |         |
//! | VM snapshot leak      | ✓        | ✓       | ✓        | ✓       |
//! | Full-system compromise| ✓        | ✓       | ✓        | ✓       |
//!
//! (§2: disk theft "yields the persistent OS and DB state, but not any
//! volatile state"; SQL injection yields the persistent and volatile
//! DB state"; a full-state VM snapshot and a full compromise yield all
//! four.)
//!
//! **Replication multiplies the matrix.** With statement-shipping
//! replication every row of Figure 1 applies *per host*: a 1-primary /
//! N-replica deployment offers N+1 independent snapshot surfaces, and
//! each replica's disk adds a relay log that duplicates the primary's
//! binlog — outliving a primary-side `PURGE BINARY LOGS`. See
//! [`capture_replicated`] and `forensics::relay`.

use minidb::engine::{Connection, Db};
use minidb::snapshot::{DiskImage, MemoryImage};

/// The four concrete attacks of §2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackVector {
    /// Theft of the persistent storage (no FDE).
    DiskTheft,
    /// SQL injection escalated to code execution in the DB process.
    SqlInjection,
    /// A leaked full-state VM image (memory + disk).
    VmSnapshotLeak,
    /// Rooting the host ("smash-and-grab" single observation).
    FullCompromise,
}

impl AttackVector {
    /// All four vectors, in the paper's order.
    pub const ALL: [AttackVector; 4] = [
        AttackVector::DiskTheft,
        AttackVector::SqlInjection,
        AttackVector::VmSnapshotLeak,
        AttackVector::FullCompromise,
    ];

    /// Human-readable name as used in Figure 1.
    pub fn name(&self) -> &'static str {
        match self {
            AttackVector::DiskTheft => "Disk theft",
            AttackVector::SqlInjection => "SQL injection",
            AttackVector::VmSnapshotLeak => "VM snapshot leak",
            AttackVector::FullCompromise => "Full-system compromise",
        }
    }
}

/// Persistent OS-level state about the DBMS host: filesystem metadata and
/// a boot journal. Coarse, but enough to betray file sizes and activity
/// windows even when file *contents* are encrypted.
#[derive(Clone, Debug)]
pub struct OsPersistent {
    /// `(file name, size in bytes)` for every file on the data volume.
    pub file_metadata: Vec<(String, usize)>,
}

/// Volatile OS-level state: the page cache, which holds clean copies of
/// recently touched file bytes independent of the DB process.
#[derive(Clone, Debug)]
pub struct OsVolatile {
    /// Names of files with pages resident in the OS page cache. (MiniDB
    /// models residency coarsely: every disk file that exists is
    /// cacheable; recency lives in the DB-level buffer pool.)
    pub page_cache_files: Vec<String>,
}

/// What one attack yields. Fields are `None` when the vector does not
/// reveal that state category.
pub struct Observation {
    /// Which attack produced this observation.
    pub vector: AttackVector,
    /// Persistent DB state: every file on disk.
    pub persistent_db: Option<DiskImage>,
    /// Volatile DB state: the process memory image.
    pub volatile_db: Option<MemoryImage>,
    /// Persistent OS state.
    pub persistent_os: Option<OsPersistent>,
    /// Volatile OS state.
    pub volatile_os: Option<OsVolatile>,
    /// Live SQL access (SQL injection only): the attacker can run
    /// statements as the application user, reaching diagnostic tables.
    pub sql: Option<Connection>,
}

impl Observation {
    /// Figure 1 row: which of the four state categories are visible.
    pub fn visibility(&self) -> [bool; 4] {
        [
            self.persistent_db.is_some(),
            self.volatile_db.is_some(),
            self.persistent_os.is_some(),
            self.volatile_os.is_some(),
        ]
    }
}

/// Performs the attack against a running MiniDB instance, returning
/// exactly the state Figure 1 assigns to the vector.
pub fn capture(db: &Db, vector: AttackVector) -> Observation {
    let disk = db.disk_image();
    let os_persistent = OsPersistent {
        file_metadata: disk
            .files
            .iter()
            .map(|(n, d)| (n.clone(), d.len()))
            .collect(),
    };
    let os_volatile = OsVolatile {
        page_cache_files: disk.file_names().iter().map(|s| s.to_string()).collect(),
    };
    match vector {
        AttackVector::DiskTheft => Observation {
            vector,
            persistent_db: Some(disk),
            volatile_db: None,
            persistent_os: Some(os_persistent),
            volatile_os: None,
            sql: None,
        },
        AttackVector::SqlInjection => Observation {
            vector,
            persistent_db: Some(disk),
            volatile_db: Some(db.memory_image()),
            persistent_os: None,
            volatile_os: None,
            sql: Some(db.connect("webapp")),
        },
        AttackVector::VmSnapshotLeak | AttackVector::FullCompromise => Observation {
            vector,
            persistent_db: Some(disk),
            volatile_db: Some(db.memory_image()),
            persistent_os: Some(os_persistent),
            volatile_os: Some(os_volatile),
            sql: (vector == AttackVector::FullCompromise).then(|| db.connect("root")),
        },
    }
}

/// Which host in a replicated topology a snapshot was taken from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CaptureSite {
    /// The write primary.
    Primary,
    /// Read replica by index (0-based).
    Replica(usize),
}

impl CaptureSite {
    /// Human-readable site label ("primary", "replica-0"...).
    pub fn name(&self) -> String {
        match self {
            CaptureSite::Primary => "primary".to_string(),
            CaptureSite::Replica(i) => format!("replica-{i}"),
        }
    }
}

/// One observation from one host of a replicated deployment.
pub struct ReplicatedObservation {
    /// Which host was snapshotted.
    pub site: CaptureSite,
    /// What the attack yielded there.
    pub observation: Observation,
}

/// Performs the same attack against every host of a replicated
/// topology. The threat model takes plain [`Db`] handles — replication
/// wiring lives in `mdb-repl`; a compromised host is a compromised host.
pub fn capture_replicated(
    primary: &Db,
    replicas: &[&Db],
    vector: AttackVector,
) -> Vec<ReplicatedObservation> {
    let mut out = Vec::with_capacity(1 + replicas.len());
    out.push(ReplicatedObservation {
        site: CaptureSite::Primary,
        observation: capture(primary, vector),
    });
    for (i, r) in replicas.iter().enumerate() {
        out.push(ReplicatedObservation {
            site: CaptureSite::Replica(i),
            observation: capture(r, vector),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::DbConfig;

    fn small_db() -> Db {
        let config = DbConfig {
            redo_capacity: 1 << 16,
            undo_capacity: 1 << 16,
            ..DbConfig::default()
        };
        let db = Db::open(config);
        let conn = db.connect("app");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        conn.execute("INSERT INTO t VALUES (1)").unwrap();
        db
    }

    #[test]
    fn figure1_matrix() {
        let db = small_db();
        let expect = [
            (AttackVector::DiskTheft, [true, false, true, false]),
            (AttackVector::SqlInjection, [true, true, false, false]),
            (AttackVector::VmSnapshotLeak, [true, true, true, true]),
            (AttackVector::FullCompromise, [true, true, true, true]),
        ];
        for (vector, want) in expect {
            let obs = capture(&db, vector);
            assert_eq!(obs.visibility(), want, "{}", vector.name());
        }
    }

    #[test]
    fn disk_theft_has_no_live_sql() {
        let db = small_db();
        assert!(capture(&db, AttackVector::DiskTheft).sql.is_none());
        assert!(capture(&db, AttackVector::SqlInjection).sql.is_some());
    }

    #[test]
    fn sql_injection_reaches_diagnostic_tables() {
        let db = small_db();
        let obs = capture(&db, AttackVector::SqlInjection);
        let conn = obs.sql.unwrap();
        let r = conn
            .execute("SELECT * FROM information_schema.processlist")
            .unwrap();
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn telemetry_is_visible_to_injection_and_vm_snapshot() {
        let db = small_db();
        // Live SQL: the metrics registry is one injected SELECT away.
        let obs = capture(&db, AttackVector::SqlInjection);
        let conn = obs.sql.unwrap();
        let r = conn
            .execute("SELECT metric, kind, value FROM information_schema.metrics")
            .unwrap();
        assert!(r
            .rows
            .iter()
            .any(|row| row[0].to_string() == "sql.table_access.t"));
        // VM snapshot: the same state arrives pre-aggregated in the
        // memory image, no SQL needed.
        db.connect("app").execute("SELECT * FROM t").unwrap();
        let obs = capture(&db, AttackVector::VmSnapshotLeak);
        let metrics = &obs.volatile_db.unwrap().metrics;
        let dist = crate::forensics::telemetry::table_access_distribution(metrics);
        assert!(dist.iter().any(|d| d.table == "t" && d.count >= 2));
    }

    #[test]
    fn replicated_capture_covers_every_host() {
        let primary = small_db();
        let r0 = small_db();
        let r1 = small_db();
        let obs = capture_replicated(&primary, &[&r0, &r1], AttackVector::DiskTheft);
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].site, CaptureSite::Primary);
        assert_eq!(obs[2].site, CaptureSite::Replica(1));
        assert_eq!(obs[2].site.name(), "replica-1");
        for o in &obs {
            assert_eq!(o.observation.visibility(), [true, false, true, false]);
        }
    }

    #[test]
    fn os_metadata_matches_disk() {
        let db = small_db();
        let obs = capture(&db, AttackVector::DiskTheft);
        let os = obs.persistent_os.unwrap();
        let disk = obs.persistent_db.unwrap();
        assert_eq!(os.file_metadata.len(), disk.files.len());
        for (name, size) in &os.file_metadata {
            assert_eq!(disk.file(name).unwrap().len(), *size);
        }
    }
}
