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
//! the executed workload, and how many process lanes a probe statement
//! appears on after a merge.

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
    /// The merged multi-node Chrome `trace_event` document.
    pub merged_chrome_json: String,
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
    let merged = merge_chrome_json(&nodes);
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
        merged_chrome_json: merged,
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
        ],
    );
    for v in &variants {
        attribution.row(&[
            v.name.into(),
            v.executed.to_string(),
            v.carved.to_string(),
            v.matched.to_string(),
            pct(v.attribution_rate),
            pct(v.exposure),
            v.probe_lanes.to_string(),
        ]);
    }

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

    vec![attribution, merge]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_on_attributes_and_merges_three_lanes() {
        let v = run_variant("t", true, false, 1, 16);
        assert!(v.carved >= v.executed, "relay + slow log both carve");
        assert!(v.attribution_rate >= 0.9, "{}", v.attribution_rate);
        assert!(v.exposure >= 0.9, "{}", v.exposure);
        assert_eq!(v.probe_lanes, 3, "client, primary, replica");
        // The merge recovers the deliberate -7 s client clock skew.
        for (node, off) in &v.offsets_us {
            if node != "client" {
                let secs = *off as f64 / 1e6;
                assert!(
                    (secs - CLIENT_CLOCK_SKEW_S as f64).abs() < 1.5,
                    "{node}: {secs}"
                );
            }
        }
        assert!(v.merged_chrome_json.contains("\"client\""));
        assert!(v.merged_chrome_json.contains("\"replica-0\""));
    }

    #[test]
    fn hashing_zeroes_the_join() {
        let v = run_variant("h", true, true, 1, 8);
        assert!(v.carved > 0, "ids still present, just unjoinable");
        assert_eq!(v.matched, 0);
        assert_eq!(v.attribution_rate, 0.0);
        // The replica lane falls out of the probe's trace; the client
        // and primary lanes (which never cross the rehash boundary)
        // keep it.
        assert_eq!(v.probe_lanes, 2);
    }

    #[test]
    fn tracing_off_leaves_nothing_to_carve() {
        let v = run_variant("off", false, false, 1, 8);
        assert_eq!(v.carved, 0);
        assert_eq!(v.probe_lanes, 0);
    }
}
