#!/usr/bin/env bash
# Validates the committed BENCH_*.json artifacts: each file must parse as
# JSON and carry the fields BENCHMARKS.md promises, so a bench refactor
# that silently drops a field (or a hand-edit that breaks the format) fails
# CI instead of bit-rotting the perf audit trail. Requires jq.
set -u

cd "$(dirname "$0")/.."

if ! command -v jq >/dev/null 2>&1; then
    echo "jq is required to validate BENCH_*.json (install jq and re-run)"
    exit 1
fi

status=0

# need FILE JQ_EXPR DESCRIPTION — the expression must select a truthy value.
need() {
    if ! jq -e "$2" "$1" >/dev/null 2>&1; then
        echo "MISSING: $1: $2 ($3)"
        status=1
    fi
}

for f in BENCH_kernels.json BENCH_e2e.json BENCH_serving.json BENCH_perf.json; do
    if [ ! -f "$f" ]; then
        echo "MISSING FILE: $f"
        status=1
        continue
    fi
    if ! jq empty "$f" >/dev/null 2>&1; then
        echo "PARSE ERROR: $f is not valid JSON"
        status=1
        continue
    fi
    need "$f" '.unit == "ms"' "timing unit"
    need "$f" '.scenarios | length > 0' "non-empty scenarios"
done

# BENCH_kernels.json: geometry + legacy/opt timings + speedups per scenario,
# including the acceptance row.
need BENCH_kernels.json \
    '[.scenarios[] | has("m") and has("k") and has("n") and has("density")
      and has("legacy_total_ms") and has("opt_total_ms") and has("speedup_total")] | all' \
    "kernels per-scenario fields"
need BENCH_kernels.json \
    '.scenarios[] | select(.name | startswith("acceptance"))' \
    "kernels acceptance row"
need BENCH_kernels.json 'has("threads_effective")' "kernels threads_effective"

# Parallel must not lose to serial — but only when the recording run
# actually had more than one worker thread; a single-core run records
# threads_effective == 1 and is exempt (10% tolerance for timer noise).
need BENCH_kernels.json \
    '.threads_effective <= 1
     or ([.scenarios[] | .opt_total_ms <= .opt_serial_total_ms * 1.1] | all)' \
    "kernels parallel >= serial (threads_effective > 1 only)"

# BENCH_perf.json: allocation counts and the snapshot encode throughput.
need BENCH_perf.json 'has("threads_effective")' "perf threads_effective"
need BENCH_perf.json \
    '.scenarios[] | select(.name == "alloc_steady_state")
     | has("steps") and has("allocs_total") and has("step_ms")' \
    "perf alloc_steady_state fields"
need BENCH_perf.json \
    '.scenarios[] | select(.name == "alloc_steady_state") | .allocs_per_step == 0' \
    "perf steady-state serving allocations == 0"
need BENCH_perf.json \
    '.scenarios[] | select(.name == "snapshot_encode")
     | has("bytes") and has("plans") and has("encode_ms") and has("mb_per_s")' \
    "perf snapshot_encode fields"
need BENCH_perf.json \
    '.scenarios[] | select(.name == "snapshot_encode") | .allocs_warm == 0' \
    "perf warm snapshot encode allocations == 0"

# BENCH_e2e.json: naive-vs-engine timings and session stats per scenario.
need BENCH_e2e.json \
    '[.scenarios[] | has("gemms") and has("naive_ms") and has("engine_ms")
      and has("speedup") and has("hit_rate")] | all' \
    "e2e per-scenario fields"
for name in correlated_trace fig8_spikingbert attention_stream; do
    need BENCH_e2e.json ".scenarios[] | select(.name == \"$name\")" "e2e $name row"
done
need BENCH_e2e.json 'has("threads_effective")' "e2e threads_effective"

# BENCH_serving.json: the documented scenario set, stats blocks included.
for name in shared_cache_2 shared_cache_4 shared_cache_8 fig8_admission warm_start qos preemption shard_tuning resilience fleet; do
    need BENCH_serving.json ".scenarios[] | select(.name == \"$name\")" "serving $name row"
done
need BENCH_serving.json 'has("threads_effective")' "serving threads_effective"
need BENCH_serving.json \
    '[.scenarios[] | select(.name | startswith("shared_cache_"))
      | has("private_ms") and has("shared_rr_ms")
      and has("merged") and has("private_merged") and has("shared_cache") and has("sessions")] | all' \
    "shared_cache row fields"
need BENCH_serving.json \
    '[.scenarios[] | select(.name | startswith("shared_cache_")) | .shared_cache
      | has("hits") and has("misses") and has("insertions") and has("evictions")
      and has("bypasses") and has("dedups") and has("restored_hits")
      and has("resident") and has("restored_resident") and has("tenants")
      and has("shards") and has("capacity") and has("shard_resets")] | all' \
    "SharedCacheStats block fields"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "fig8_admission")
     | has("admission_off_ms") and has("admission_on_ms") and has("stats_off") and has("stats_on")' \
    "fig8_admission fields"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "warm_start")
     | has("snapshot_plans") and has("snapshot_bytes") and has("cold_ms") and has("warm_ms")
     and has("cold_hit_curve") and has("warm_hit_curve")' \
    "warm_start fields"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "qos") | .weighted
     | has("weights") and has("rr_ms") and has("weighted_ms")
     and has("throughput_ratio") and has("share_ratio") and has("lane_steps")' \
    "qos weighted fields"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "qos") | .deadline
     | has("budgets") and has("edf_misses") and has("rr_misses")
     and has("edf_completion") and has("rr_completion")' \
    "qos deadline fields"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "qos") | .rr_skew
     | has("lengths") and has("gemms") and has("rr_ms")' \
    "qos rr_skew fields"

# The recorded qos row must also satisfy its acceptance thresholds: the
# weight-4 tenant gets >= 2.5x the weight-1 step share at ~unchanged
# aggregate throughput, and EDF meets the budget mix round-robin misses.
need BENCH_serving.json \
    '.scenarios[] | select(.name == "qos") | .weighted.share_ratio >= 2.5' \
    "qos weighted share >= 2.5x"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "qos")
     | .weighted.throughput_ratio >= 0.95 and .weighted.throughput_ratio <= 1.05' \
    "qos weighted throughput within 5% of round-robin"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "qos") | .deadline.edf_misses == 0' \
    "qos EDF meets the feasible mix"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "qos") | .deadline.rr_misses >= 1' \
    "qos round-robin misses the tight budget"

# The preemption row: fields, plus its acceptance thresholds — slicing the
# scheduling quantum below the GeMM must at least halve short-tenant
# completion latency under the 1000:10:10 size skew while keeping aggregate
# throughput within 5% of whole-GeMM dispatch.
need BENCH_serving.json \
    '.scenarios[] | select(.name == "preemption")
     | has("lengths") and has("monster_row_tiles")
     and has("whole_short_ms") and has("whole_total_ms") and has("sweep")
     and has("knee_quantum") and has("knee_short_ms") and has("knee_total_ms")
     and has("latency_improvement") and has("throughput_ratio")' \
    "preemption fields"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "preemption")
     | ([.sweep[] | has("quantum") and has("short_ms") and has("total_ms")] | all)
       and (.sweep | length > 0)' \
    "preemption sweep entries"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "preemption") | .latency_improvement >= 2' \
    "preemption short-tenant completion >= 2x better than whole-GeMM"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "preemption") | .throughput_ratio >= 0.95' \
    "preemption throughput within 5% of whole-GeMM dispatch"

# The shard_tuning row: the measured lock-hold sweep behind the derived
# shard-count default.
need BENCH_serving.json \
    '.scenarios[] | select(.name == "shard_tuning")
     | has("recommended_shards")
     and ([.sweep[] | has("shards") and has("ms") and has("lock_hold_ns")] | all)
     and (.sweep | length > 0)' \
    "shard_tuning fields"

# The resilience row: fields, plus its acceptance thresholds — every
# injected fault left a trace in the counters, and the surviving lanes kept
# >= 0.9x the throughput of a fault-free fleet doing the same work.
need BENCH_serving.json \
    '.scenarios[] | select(.name == "resilience")
     | has("clean_ms") and has("faulted_ms") and has("surviving_throughput_ratio")
     and has("lane_faults") and has("shard_resets") and has("snapshot_saves")
     and has("snapshots_quarantined") and has("recovered_plans")' \
    "resilience fields"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "resilience") | .lane_faults >= 1' \
    "resilience records the lane fault"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "resilience") | .snapshots_quarantined >= 1' \
    "resilience quarantines the rotted snapshot"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "resilience") | .recovered_plans >= 1' \
    "resilience recovers from the previous good snapshot"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "resilience") | .surviving_throughput_ratio >= 0.9' \
    "resilience surviving-lane throughput >= 0.9x fault-free"

# The fleet row: fields, plus its acceptance thresholds — a cold process
# joining a warm fleet must reach steady-state hit rate in strictly fewer
# steps than starting alone, and the cross-process duplicate-plan savings
# must be recorded and real (gossip adopted plans the joiner never
# computed).
need BENCH_serving.json \
    '.scenarios[] | select(.name == "fleet")
     | has("nodes") and has("steady_hit_rate")
     and has("cold_alone_steps_to_steady") and has("warm_join_steps_to_steady")
     and has("duplicate_plans_saved") and has("gossip_imports")
     and has("gossip_plans_adopted") and has("restored_hits")
     and has("cold_ms") and has("warm_ms") and has("bootstrap_ms")
     and has("cold_hit_curve") and has("warm_hit_curve")' \
    "fleet fields"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "fleet")
     | .warm_join_steps_to_steady < .cold_alone_steps_to_steady' \
    "fleet warm join reaches steady state in strictly fewer steps"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "fleet") | .duplicate_plans_saved >= 1' \
    "fleet records cross-process duplicate-plan savings"
need BENCH_serving.json \
    '.scenarios[] | select(.name == "fleet")
     | .gossip_plans_adopted >= 1 and .gossip_imports >= 1' \
    "fleet gossip adopted peer plans"

if [ $status -eq 0 ]; then
    echo "all BENCH_*.json artifacts parse and carry the documented fields"
fi
exit $status
