//! Steady-state allocation regression harness.
//!
//! A counting `#[global_allocator]` wraps the system allocator; once the
//! serving hot path is warm (plan cache populated, output/scratch/encode
//! buffers at working-set capacity), repeated GeMM steps and snapshot
//! encodes must perform **zero** heap allocations. Any allocation smuggled
//! back into the hot loops fails this test with an exact count.
//!
//! One `#[test]` function only: the counter is process-global, so a second
//! concurrently running test would pollute the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use prosperity::core::engine::{AdmissionConfig, EngineConfig, Session, SharedPlanCache};
use prosperity::spikemat::gemm::{OutputMatrix, WeightMatrix};
use prosperity::spikemat::{SpikeMatrix, TileShape};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Runs `f` with the counter armed, returning the allocations it made.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Warms `engine` on `inputs` (plans every tile, sizes every buffer), then
/// asserts that eight more rounds over them allocate nothing, miss nothing
/// and stay correct.
fn assert_steady_gemms_allocation_free(
    label: &str,
    engine: &mut Session<i64>,
    inputs: &[SpikeMatrix],
    weights: &WeightMatrix<i64>,
) {
    let mut out = OutputMatrix::zeros(0, 0);
    for s in inputs {
        engine.gemm_into(s, weights, &mut out); // plan + size buffers
        engine.gemm_into(s, weights, &mut out); // warm the arena
    }
    // The counted loop below ends on the last input of the rotation.
    let reference = engine.gemm(inputs.last().unwrap(), weights);
    let misses = engine.stats().cache_misses;

    let gemm_allocs = count_allocs(|| {
        for _ in 0..8 {
            for s in inputs {
                engine.gemm_into(s, weights, &mut out);
            }
        }
    });
    assert_eq!(
        gemm_allocs, 0,
        "{label}: steady-state GeMM steps must not allocate"
    );
    assert_eq!(
        engine.stats().cache_misses,
        misses,
        "{label}: the counted steps must all be cache hits"
    );
    assert_eq!(
        out.as_slice(),
        reference.as_slice(),
        "{label}: hot path stayed correct while counted"
    );
}

#[test]
fn steady_state_serving_hot_path_is_allocation_free() {
    // --- GeMM steady state through `gemm_into`, which runs every row-tile
    // on the calling thread. Each leg's GeMMs span two row-tiles and run a
    // small rotation of inputs, all planned and cached during warmup, so
    // steady-state steps alternate tiles while hitting the cache.
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut random_inputs = |rows, cols| -> Vec<SpikeMatrix> {
        (0..4)
            .map(|_| SpikeMatrix::random(rows, cols, 0.2, &mut rng))
            .collect()
    };

    // 64×64 tiles: every key window starts on a limb boundary.
    let config = EngineConfig::new(TileShape::new(64, 64), 256);
    let mut engine = Session::<i64>::new(config);
    let weights = WeightMatrix::from_fn(192, 32, |r, c| (r * 7 + c) as i64 - 100);
    assert_steady_gemms_allocation_free("64x64", &mut engine, &random_inputs(128, 192), &weights);

    // The repository benchmark's 256×16 tiles: key windows fall inside a
    // limb at every shift, through a private and through a shared cache.
    let narrow = EngineConfig::new(TileShape::new(256, 16), 256);
    let narrow_weights = WeightMatrix::from_fn(256, 16, |r, c| (r * 3 + c) as i64 - 50);
    let narrow_inputs = random_inputs(512, 256);
    let mut private = Session::<i64>::new(narrow);
    assert_steady_gemms_allocation_free(
        "256x16 private",
        &mut private,
        &narrow_inputs,
        &narrow_weights,
    );
    // The same session widened to 128 output columns: the arena holds one
    // 16-column strip per tile row whatever the width, and the output
    // buffer grows during warmup only.
    let wide_weights = WeightMatrix::from_fn(256, 128, |r, c| (r * 5 + c) as i64 - 300);
    assert_steady_gemms_allocation_free(
        "256x16 private, N = 128",
        &mut private,
        &narrow_inputs,
        &wide_weights,
    );
    let shared = Arc::new(SharedPlanCache::with_shards(
        256,
        4,
        Some(AdmissionConfig::default()),
    ));
    let mut tenant = Session::<i64>::with_shared_tenant(narrow, shared, 3);
    assert_steady_gemms_allocation_free(
        "256x16 shared",
        &mut tenant,
        &narrow_inputs,
        &narrow_weights,
    );

    // --- Snapshot encode steady state: `encode_into` reuses the caller's
    // buffer, so a warm buffer encodes the working set allocation-free.
    let snapshot = engine.export_snapshot(256);
    assert!(!snapshot.is_empty(), "warmup must leave cached plans");
    let mut buf = bytes::BytesMut::new();
    snapshot.encode_into(&mut buf); // warm the buffer to image size
    let reference_image = buf.to_vec();
    let encode_allocs = count_allocs(|| {
        for _ in 0..8 {
            snapshot.encode_into(&mut buf);
        }
    });
    assert_eq!(encode_allocs, 0, "warm snapshot encode must not allocate");
    assert_eq!(
        &buf[..],
        &reference_image[..],
        "encode stayed bit-identical"
    );
}
