#!/usr/bin/env python3
"""The perf-trajectory gate: each committed BENCH_e16..e21.json against
the BENCH_e*.current.json a quick run just wrote. From the repo root:

    cargo run --release -p bench --bin experiments -- --quick \
      --bench-json BENCH_e16.current.json --obs-bench-json BENCH_e17.current.json \
      --server-bench-json BENCH_e18.current.json --xtrace-bench-json BENCH_e19.current.json \
      --wal-bench-json BENCH_e20.current.json --chaos-bench-json BENCH_e21.current.json
    python3 .github/ci/perf_trajectory.py
"""
import json

def load(path):
    return json.load(open(path))

failures = []

def gate(name, baseline, current, direction):
    """direction 'min': current must not drop >25% below baseline;
    'max': current must not grow >25% above baseline."""
    if direction == 'min':
        limit = baseline * 0.75
        ok = current >= limit
    else:
        limit = baseline * 1.25
        ok = current <= limit
    status = 'ok' if ok else 'REGRESSION'
    print(f'{name}: baseline={baseline} current={current} limit={limit:.3f} [{status}]')
    if not ok:
        failures.append(name)

# E16 scan bench: the pruning itself is a page count and must
# repeat exactly; pruned / full is wall-clock over wall-clock
# and moves whenever either path gets faster, so it gets an
# absolute floor, not a band around the baseline.
b16, c16 = load('BENCH_e16.json'), load('BENCH_e16.current.json')
for key in ('pages_pruned', 'pages_decoded', 'pruned_fraction'):
    ok = b16[key] == c16[key]
    print(f"e16.{key}: baseline={b16[key]} current={c16[key]} [{'ok' if ok else 'MISMATCH'}]")
    if not ok:
        failures.append(f'e16.{key}')
# The fixture's PK index: ascending inserts leave full leaves
# (32 to a leaf, ~31 to a page with the internal nodes).
ok = c16['index_keys_per_page'] >= 30.0
print(f"e16.index_keys_per_page: baseline={b16['index_keys_per_page']} "
      f"current={c16['index_keys_per_page']} floor=30.0 [{'ok' if ok else 'REGRESSION'}]")
if not ok:
    failures.append('e16.index_keys_per_page')
ok = c16['speedup'] >= 2.0
print(f"e16.speedup: baseline={b16['speedup']} current={c16['speedup']} floor=2.0 "
      f"[{'ok' if ok else 'REGRESSION'}]")
if not ok:
    failures.append('e16.speedup')
print(f"e16.rows_per_sec (informational): full {c16['full_rows_per_sec']:.0f}, "
      f"pruned {c16['pruned_rows_per_sec']:.0f}")

# E17 obs bench: exposition shape is deterministic for the
# seeded workload — growth means someone bloated the scrape
# channel; shrinkage of the scrub cut means the mitigation
# got weaker.
b17, c17 = load('BENCH_e17.json'), load('BENCH_e17.current.json')
gate('e17.series', b17['series'], c17['series'], 'max')
gate('e17.body_bytes', b17['body_bytes'], c17['body_bytes'], 'max')
gate('e17.scrub_bytes_ratio', b17['scrub_bytes_ratio'], c17['scrub_bytes_ratio'], 'max')
print(f"e17 timing (informational): scrape {c17['scrape_roundtrip_us']:.0f}us, "
      f"encode {c17['encode_us']:.1f}us, parse {c17['parse_us']:.1f}us")

# E18 server bench: the sharded pool's fault-overlap speedup is
# sleep-dominated, not CPU-dominated, so the ratio is stable
# across runners; absolute ops/sec are not.
b18, c18 = load('BENCH_e18.json'), load('BENCH_e18.current.json')
gate('e18.speedup', b18['speedup'], c18['speedup'], 'min')
print(f"e18.ops_per_sec (informational): single {c18['single_ops_per_sec']:.0f}, "
      f"sharded {c18['sharded_ops_per_sec']:.0f}")

# E19 xtrace bench: the correlation metrics are deterministic
# joins for the fixed workload — these are exact, not 25%
# bands. Wall-clock overhead is machine-dependent context.
b19, c19 = load('BENCH_e19.json'), load('BENCH_e19.current.json')
if c19['traced_attribution'] < b19['traced_attribution']:
    failures.append('e19.traced_attribution')
if c19['hashed_attribution'] != 0.0:
    failures.append('e19.hashed_attribution')
if c19['traced_probe_lanes'] != b19['traced_probe_lanes']:
    failures.append('e19.traced_probe_lanes')
print(f"e19: attribution traced={c19['traced_attribution']} "
      f"hashed={c19['hashed_attribution']} lanes={c19['traced_probe_lanes']}")
print(f"e19.tracing_overhead (informational): {c19['tracing_overhead']:.2f}x")

# E20 WAL bench: both ratios are sleep-overlap dominated (the
# simulated fsync wait swamps crypto and engine CPU), so they
# are stable across runner speeds. Buyback shrinking means the
# group-commit pipeline coalesces less; crypto tax growing
# means sealing got slower relative to the device wait.
b20, c20 = load('BENCH_e20.json'), load('BENCH_e20.current.json')
gate('e20.buyback_at_8', b20['buyback_at_8'], c20['buyback_at_8'], 'min')
gate('e20.crypto_tax_at_1', b20['crypto_tax_at_1'], c20['crypto_tax_at_1'], 'max')
print(f"e20.fsyncs_per_stmt_at_8 (informational): {c20['fsyncs_per_stmt_at_8']:.3f}")

# E21 chaos bench: every gate key is a deterministic verdict
# (checker violations, promotion counts, carve coverage), not
# a timing ratio — these are exact, never 25% bands. Quick
# mode only shortens each seed's schedule; the verdicts must
# match the full-mode committed baseline.
b21, c21 = load('BENCH_e21.json'), load('BENCH_e21.current.json')
for key in ('violations_total', 'kill_seeds', 'kill_seeds_promoted',
            'plaintext_carve_coverage', 'sealed_carved_statements',
            'sealed_keyholder_coverage'):
    if c21[key] != b21[key]:
        failures.append(f'e21.{key}')
if c21['sealed_frames'] == 0:
    failures.append('e21.sealed_frames')
print(f"e21: violations={c21['violations_total']} "
      f"promoted={c21['kill_seeds_promoted']}/{c21['kill_seeds']} "
      f"plaintext_carve={c21['plaintext_carve_coverage']} "
      f"sealed_carve={c21['sealed_carved_statements']} "
      f"keyholder={c21['sealed_keyholder_coverage']}")

assert not failures, f'perf regressions: {failures}'
