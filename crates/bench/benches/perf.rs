//! Perf regression bench for the allocation-free serving hot path.
//!
//! Two scenarios, written to `BENCH_perf.json` (override with
//! `BENCH_PERF_OUT`) and held to thresholds by
//! `scripts/check_bench_json.sh`:
//!
//! * `alloc_steady_state` — warm `gemm_into` steps under a counting
//!   `#[global_allocator]`; steady-state allocations per step must be 0.
//! * `snapshot_encode` — warm-buffer [`PlanSnapshot::encode_into`]
//!   throughput in MB/s (and its steady-state allocation count, also 0).
//!
//! Run with:
//!
//! ```text
//! cargo bench -p prosperity-bench --bench perf
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use prosperity_bench::time_ms;
use prosperity_core::engine::{EngineConfig, PlanSnapshot, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikemat::gemm::{OutputMatrix, WeightMatrix};
use spikemat::{SpikeMatrix, TileShape};

/// Counts allocations (alloc, alloc_zeroed, realloc) while armed.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

// SAFETY: pure pass-through to `System`; the wrapper adds only atomic
// counter updates and upholds `GlobalAlloc`'s contract by delegation.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System::alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: delegates to `System::alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    // SAFETY: delegates to `System::realloc`; ptr/layout come from `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: delegates to `System::dealloc`; ptr/layout come from `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed, returning its count.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

const REPS: usize = 25;

fn main() {
    println!("ProSparsity perf bench");

    // --- Steady-state serving steps under the counting allocator.
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut engine = Session::<i64>::new(EngineConfig::new(TileShape::new(64, 64), 256));
    let weights = WeightMatrix::from_fn(192, 32, |r, c| (r * 7 + c) as i64 - 100);
    let inputs: Vec<SpikeMatrix> = (0..4)
        .map(|_| SpikeMatrix::random(128, 192, 0.2, &mut rng))
        .collect();
    let mut out = OutputMatrix::zeros(0, 0);
    for s in &inputs {
        engine.gemm_into(s, &weights, &mut out);
        engine.gemm_into(s, &weights, &mut out);
    }
    const STEPS: usize = 64;
    let step_allocs = count_allocs(|| {
        for i in 0..STEPS {
            engine.gemm_into(&inputs[i % inputs.len()], &weights, &mut out);
        }
    });
    let step_ms = time_ms(REPS, || {
        for i in 0..STEPS {
            engine.gemm_into(&inputs[i % inputs.len()], &weights, &mut out);
        }
    }) / STEPS as f64;
    println!(
        "alloc_steady_state   {} allocs over {} steps ({:.4} ms/step)",
        step_allocs, STEPS, step_ms
    );

    // --- Warm-buffer snapshot encode throughput.
    let snapshot: PlanSnapshot = engine.export_snapshot(256);
    assert!(!snapshot.is_empty(), "warmup must leave cached plans");
    let mut buf = bytes::BytesMut::new();
    snapshot.encode_into(&mut buf); // warm the buffer
    let image_bytes = buf.len();
    let encode_allocs = count_allocs(|| snapshot.encode_into(&mut buf));
    let encode_ms = time_ms(REPS, || snapshot.encode_into(&mut buf));
    let mb_per_s = image_bytes as f64 / 1e6 / (encode_ms / 1e3);
    println!(
        "snapshot_encode      {} bytes, {} plans, {:.3} ms ({:.0} MB/s, {} allocs warm)",
        image_bytes,
        snapshot.len(),
        encode_ms,
        mb_per_s,
        encode_allocs
    );

    let out_path = std::env::var("BENCH_PERF_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json").to_string()
    });
    let json = format!(
        "{{\n  \"bench\": \"perf\",\n  \"unit\": \"ms\",\n  \"timing\": \"best_of_reps\",\n  \
         \"threads_effective\": {threads},\n  \"scenarios\": [\n    \
         {{\"name\": \"alloc_steady_state\", \"steps\": {steps}, \"allocs_total\": {allocs}, \
         \"allocs_per_step\": {per_step:.1}, \"step_ms\": {step_ms:.4}}},\n    \
         {{\"name\": \"snapshot_encode\", \"bytes\": {bytes}, \"plans\": {plans}, \
         \"encode_ms\": {encode_ms:.4}, \"mb_per_s\": {mbps:.1}, \
         \"allocs_warm\": {encode_allocs}}}\n  ]\n}}\n",
        threads = prosperity_core::parallel_threads(),
        steps = STEPS,
        allocs = step_allocs,
        per_step = step_allocs as f64 / STEPS as f64,
        step_ms = step_ms,
        bytes = image_bytes,
        plans = snapshot.len(),
        encode_ms = encode_ms,
        mbps = mb_per_s,
        encode_allocs = encode_allocs,
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("\nwrote {out_path}");
}
