//! E19 (extension) — distributed tracing as *cross-node correlation
//! glue*.
//!
//! PR 7's fleet (client → server → engine → replica) gets the feature
//! every operator asks for next: end-to-end distributed tracing. Each
//! client statement travels under a 128-bit trace id that rides the v2
//! wire frame, the engine's trace records, and the binlog — so one
//! logical request leaves spans on the client, the server, and every
//! replica, and `trace merge` joins them into one timeline with
//! NTP-style clock-offset estimation from the wire spans.
//!
//! The attack is the feature read backwards. The same id that makes a
//! request followable for the operator makes it *joinable* for an
//! attacker: a cold image of one replica yields trace ids from the
//! relay log and the replica's own slow log, and any copy of the
//! primary's slow log maps those ids to client connection ids. The
//! carved write history of E14 is thereby attributed — statement text,
//! timing, and volume, per client session — which is exactly the
//! correlation step the volume-attack literature assumes as given.
//!
//! The experiment runs the full TCP topology under four variants:
//! tracing on, client-side 1-in-4 sampling, `trace_id_hashing` (the
//! primary rehashes ids with a process-local key at the replication
//! boundary), and tracing off — measuring attribution rate, exposure of
//! the executed workload, how many process lanes a probe statement
//! appears on after a merge, and what tracing costs the client loop in
//! wall-clock time (a measured cell). `--trace` exports the tracing-on
//! variant's merged lanes as `e19.trace.json`.

use std::time::Duration;

use mdb_repl::router::{ReplicaSet, ReplicaSetConfig};
use mdb_server::{MdbClient, MdbServer, ServerOptions};
use mdb_trace::merge::{lanes_with_trace, merge_chrome_json, offsets_us, NodeTraces};
use mdb_trace::Recorder;
use minidb::engine::{DbConfig, START_TIME_UNIX};
use snapshot_attack::forensics::xtrace;
use snapshot_attack::report::Table;

use crate::{pct, Options};

/// The client's clock runs this many seconds *behind* the fleet —
/// deliberately unsynchronized, so the merge has a real offset to
/// estimate from the wire spans.
pub const CLIENT_CLOCK_SKEW_S: i64 = -7;

/// One variant's full outcome.
pub struct VariantOutcome {
    /// Variant label.
    pub name: &'static str,
    /// Client statements executed (DDL + DML).
    pub executed: usize,
    /// Distinct trace ids carved from the replica image.
    pub carved: usize,
    /// Carved ids joined to a primary session.
    pub matched: usize,
    /// `matched / carved` — attribution among what was carved.
    pub attribution_rate: f64,
    /// `matched / executed` — how much of the workload was attributed.
    pub exposure: f64,
    /// Process lanes holding the probe statement's trace after a merge.
    pub probe_lanes: usize,
    /// Estimated per-node clock offsets against the client lane, µs.
    pub offsets_us: Vec<(String, i64)>,
    /// The per-node trace collections the merge consumed.
    pub nodes: Vec<NodeTraces>,
    /// Wall-clock time of the client statement loop.
    pub wall: Duration,
}

/// Runs one topology variant: a 1-primary/1-replica `ReplicaSet`, the
/// primary served over TCP, one traced client running `writes` inserts.
pub fn run_variant(
    name: &'static str,
    tracing: bool,
    hashing: bool,
    sample_every: u64,
    writes: usize,
) -> VariantOutcome {
    let base = DbConfig {
        // Everything lands in the slow log: the artifact under attack.
        slow_query_threshold_us: 0,
        trace_id_hashing: hashing,
        query_cache_enabled: false,
        // "tracing off" means the whole fleet: with the engine recorder
        // left on, the engine self-generates root ids for unsampled
        // statements and the binlog carries them anyway.
        trace_enabled: tracing,
        ..DbConfig::default()
    };
    let mut set = ReplicaSet::start(ReplicaSetConfig {
        replicas: 1,
        max_read_lag: 1_000,
        base,
        ..ReplicaSetConfig::default()
    })
    .expect("replica set starts");
    set.primary().trace_recorder().set_node("primary");
    set.replica(0).trace_recorder().set_node("replica-0");
    let srv =
        MdbServer::start(set.primary().clone(), ServerOptions::default()).expect("server binds");

    let client_rec = Recorder::new(4096);
    client_rec.set_node("client");
    let mut client = MdbClient::connect(srv.local_addr(), "victim").expect("client connects");
    client.set_tracing(tracing);
    client.set_trace_sampling(sample_every);
    client.attach_recorder(client_rec.clone());
    // The engine's cost model stamps a statement at clock+1 (it
    // advances, then records); the client stamps at clock (it records,
    // then advances). The +1 aligns the two conventions so the *modeled*
    // skew between the lanes is exactly CLIENT_CLOCK_SKEW_S.
    client.set_clock(START_TIME_UNIX + CLIENT_CLOCK_SKEW_S + 1);

    let started = std::time::Instant::now();
    client
        .query("CREATE TABLE visits (id INT PRIMARY KEY, patient TEXT, ward INT)")
        .unwrap();
    let mut probe_trace_id = None;
    for i in 0..writes {
        client
            .query(&format!(
                "INSERT INTO visits VALUES ({i}, 'patient-{i}', {})",
                i % 20
            ))
            .unwrap();
        // Probe: the last *sampled* statement's trace id.
        if let Some(c) = client.last_ctx() {
            if c.sampled {
                probe_trace_id = Some(c.trace_id);
            }
        }
    }
    let wall = started.elapsed();
    let executed = writes + 1;
    assert!(
        set.wait_for_sync(Duration::from_secs(30)),
        "replica catches up"
    );

    // ===== the attack: image the replica, join against the primary =====
    let replica_disk = set.replica(0).disk_image();
    let carved = xtrace::carve_replica_trace_ids(&replica_disk);
    let index = xtrace::primary_session_index(&set.primary().disk_image());
    let attribution = xtrace::attribute(&carved, &index);

    // ===== the feature: merge the three nodes' traces into one view ====
    let nodes = vec![
        NodeTraces {
            node: "client".into(),
            traces: client_rec.traces(),
        },
        NodeTraces {
            node: "primary".into(),
            traces: set.primary().query_traces(),
        },
        NodeTraces {
            node: "replica-0".into(),
            traces: set.replica(0).query_traces(),
        },
    ];
    let probe_lanes = probe_trace_id.map_or(0, |id| lanes_with_trace(&nodes, id));
    let offsets = offsets_us(&nodes);
    set.shutdown();

    VariantOutcome {
        name,
        executed,
        carved: attribution.carved,
        matched: attribution.matched,
        attribution_rate: attribution.rate(),
        exposure: attribution.matched as f64 / executed as f64,
        probe_lanes,
        offsets_us: offsets,
        nodes,
        wall,
    }
}

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let writes = if opts.quick { 24 } else { 120 };
    let variants = [
        run_variant("tracing on", true, false, 1, writes),
        run_variant("sampling 1-in-4", true, false, 4, writes),
        run_variant("trace_id_hashing", true, true, 1, writes),
        run_variant("tracing off", false, false, 1, writes),
    ];
    // The tracing-on variant's node-tagged traces feed the `--trace`
    // Chrome export: one process lane per node.
    for n in &variants[0].nodes {
        opts.traces.absorb(n.traces.clone());
    }

    let mut attribution = Table::new(
        "E19 - session attribution from a cold replica image",
        &[
            "variant",
            "executed",
            "ids carved",
            "attributed",
            "attribution rate",
            "workload exposure",
            "probe lanes",
            "client loop",
        ],
    );
    for v in &variants {
        attribution
            .row(&[
                v.name.into(),
                v.executed.to_string(),
                v.carved.to_string(),
                v.matched.to_string(),
                pct(v.attribution_rate),
                pct(v.exposure),
                v.probe_lanes.to_string(),
                format!("{:.1} ms", v.wall.as_secs_f64() * 1e3),
            ])
            .measured(&[7]);
    }
    let [on, _, hashed, off] = &variants;
    attribution.claim(
        "tracing on: relay and slow log carve every id, >= 90% attributed and exposed",
        on.carved >= on.executed && on.attribution_rate >= 0.9 && on.exposure >= 0.9,
    );
    attribution.claim(
        "trace_id_hashing leaves ids carvable but joins none",
        hashed.carved > 0 && hashed.matched == 0 && hashed.attribution_rate == 0.0,
    );
    attribution.claim("tracing off leaves no id to carve", off.carved == 0);
    // The replica lane falls out of a hashed probe's trace; the client
    // and primary lanes, which never cross the rehash boundary, keep it.
    attribution.claim(
        "a probe statement sits on 3 lanes traced, 2 hashed, 0 off",
        on.probe_lanes == 3 && hashed.probe_lanes == 2 && off.probe_lanes == 0,
    );

    let mut merge = Table::new(
        "E19 - merged timeline: estimated clock offsets vs client lane",
        &["variant", "node", "offset estimate", "true offset"],
    );
    for v in &variants {
        for (node, off) in &v.offsets_us {
            if node == "client" {
                continue;
            }
            merge.row(&[
                v.name.into(),
                node.clone(),
                format!("{:+.1} s", *off as f64 / 1e6),
                // The fleet runs 7 s ahead of the client clock, so
                // landing fleet spans on the client lane subtracts 7 s.
                if v.name == "tracing off" || (v.name == "trace_id_hashing" && node != "primary") {
                    "n/a (no shared ids)".into()
                } else {
                    format!("{:+.1} s", CLIENT_CLOCK_SKEW_S as f64)
                },
            ]);
        }
    }
    merge.claim(
        "tracing on: the merge recovers the -7 s client skew within 1.5 s on every node",
        on.offsets_us
            .iter()
            .filter(|(node, _)| node != "client")
            .all(|(_, off)| (*off as f64 / 1e6 - CLIENT_CLOCK_SKEW_S as f64).abs() < 1.5),
    );
    let merged = merge_chrome_json(&on.nodes);
    merge.claim(
        "tracing on: the merged document names the client, primary and replica lanes",
        ["client", "primary", "replica-0"]
            .iter()
            .all(|lane| merged.contains(&format!("\"args\":{{\"name\":\"{lane}\"}}"))),
    );

    vec![attribution, merge]
}
