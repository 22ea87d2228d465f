//! Release-mode gate for the memory shape of the streaming schedule, the
//! state budget and the release circuit — the four claims no other test makes:
//!
//! * with the budget at a quarter of the store bytes, the stores' resident
//!   peak stays under the budget plus one segment per store, and the run
//!   really spills;
//! * peak heap is sub-linear in the edge count;
//! * once per-block state dominates, the bounded-window schedule needs
//!   well under the materialised schedule's heap;
//! * the release circuit, which grows with N, peaks at no more than
//!   15 B per gate while it is built and layered (the bound was 19 B
//!   while a gate was stored in 12 B, and 32 B before the circuit
//!   dropped its gadget trace and its layering's operand copy, and the
//!   builder its doubling slack).  At N = 4 000 it has 376 864 gates and
//!   peaks at 5 358 876 B (14.2 B per gate), against 6 974 724 B (18.5)
//!   with 12 B gates, 9 497 344 B (25.2) with the trace and the copy
//!   kept besides and 20 088 556 B (53.3) with `usize` wire ids on top.
//!   The build sets the peak: the builder's 8 B gates with their growth
//!   slack, beside the aggregation circuit's gadget trace until it is
//!   dropped; layering (8 B gate, 4 B schedule entry, 2 B depth) stays
//!   below it.
//!
//! The workload is the benchmark's `stream-spill` shape (scale-free
//! stream, counter program, block size 3, accounted transfers); the
//! benchmark reports its time and heap with spreads, this file holds the
//! thresholds.  One `#[ignore]`d test, so the process-wide heap counters
//! below see one run at a time; ci.sh runs it with `--release -- --ignored`.

use dstress::core::engine::release_circuit;
use dstress::core::store::packed_bytes;
use dstress::core::{
    ConcurrencyMode, CounterProgram, DStressConfig, DStressRuntime, SecureVertexProgram,
    SEGMENT_ROWS,
};
use dstress::graph::stream::BarabasiAlbertStream;
use dstress::graph::Graph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes, and their maximum since [`peak_during`] last reset it.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`] plus the two counters (the shape of `benchmark/src/alloc.rs`).
struct Counting;

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates never
// touch the returned pointers or the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (that is, from `System`) with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: the caller guarantees the (ptr, layout) pair and a valid
        // `new_size`; forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak of live heap bytes it
/// reached, on all threads, above where it started.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let result = f();
    (result, PEAK.load(Ordering::Relaxed).saturating_sub(start))
}

const PROGRAM: CounterProgram = CounterProgram {
    width: 8,
    rounds: 2,
};

/// Block size 3, accounted transfers, 8-bit messages.
fn config(threads: usize) -> DStressConfig {
    let mut config = DStressConfig::benchmark(2);
    config.message_bits = 8;
    config.seed = 0x5CA1_E5EE;
    if threads > 1 {
        config = config.with_concurrency(ConcurrencyMode::Threaded { threads });
    }
    config
}

/// A Barabási–Albert graph with `m` out-edges per vertex, built in CSR
/// form from its stream.
fn scale_free(n: usize, m: usize) -> Graph {
    let mut stream = BarabasiAlbertStream::new(n, m, (4 * m).max(8), 0x5CA1_E5EE);
    Graph::from_edge_stream(&mut stream).expect("the generator emits valid edges")
}

#[test]
#[ignore = "release-mode memory gate; ci.sh runs it with --release -- --ignored"]
fn streaming_memory_is_bounded_by_the_budget_and_sublinear_in_edges() {
    // (a) Past the 10,000-vertex line with the budget at a quarter of what
    // the three stores (state + double-buffered inbox) would keep
    // resident: real spill-file bytes, and a resident peak under the
    // budget up to the segment granularity — each store may round its
    // share up to one whole segment.
    let graph = scale_free(12_000, 2);
    let (state_bits, message_bits) = (PROGRAM.state_bits() as usize, 8);
    let block = config(2).block_size();
    let budget = (packed_bytes(graph.vertex_count() * block, state_bits)
        + 2 * packed_bytes(graph.edge_count() * block, message_bits))
        / 4;
    let segment = |width: usize| SEGMENT_ROWS * width.div_ceil(64) * 8;
    let slack = segment(state_bits) + 2 * segment(message_bits);
    let run = DStressRuntime::new(config(2).with_state_budget(budget))
        .execute_streaming(&graph, &PROGRAM)
        .expect("budgeted run succeeds");
    assert!(run.spill_file_bytes > 0, "a quarter budget must spill");
    assert!(
        run.store_resident_peak_bytes <= budget + slack,
        "resident peak {} exceeds budget {budget} + slack {slack}",
        run.store_resident_peak_bytes
    );
    drop((run, graph));

    // (b) Peak heap over graph build + run is sub-linear in the edge
    // count: the persistent state is bit-packed and the in-flight window
    // is bounded by the worker count, so ~4x the edges at fixed n must
    // cost far less than double the peak.
    let build_and_run = |m: usize| {
        peak_during(|| {
            let graph = scale_free(2_000, m);
            DStressRuntime::new(config(1))
                .execute_streaming(&graph, &PROGRAM)
                .expect("streaming run succeeds");
            graph.edge_count()
        })
    };
    let (sparse_edges, sparse_peak) = build_and_run(1);
    let (dense_edges, dense_peak) = build_and_run(4);
    assert!(
        dense_edges >= 3 * sparse_edges,
        "edges {dense_edges} vs {sparse_edges}"
    );
    assert!(
        (dense_peak as f64) < 1.6 * sparse_peak as f64,
        "peak grew {sparse_peak} -> {dense_peak} over a ~4x edge increase"
    );

    // (c) Once per-block state dominates (high degree bound), the
    // bounded-window schedule beats the fully materialised one outright.
    let graph = scale_free(2_500, 12);
    let runtime = DStressRuntime::new(config(1));
    let ((), materialised) = peak_during(|| {
        runtime
            .execute(&graph, &PROGRAM)
            .expect("materialised run succeeds");
    });
    let ((), streaming) = peak_during(|| {
        runtime
            .execute_streaming(&graph, &PROGRAM)
            .expect("streaming run succeeds");
    });
    assert!(
        (streaming as f64) * 1.5 < materialised as f64,
        "streaming peak {streaming} vs materialised peak {materialised}"
    );
    drop(graph);

    // (d) The release circuit reads every vertex's final state, so its IR
    // grows with N: built and layered at the benchmark's `stream-spill`
    // size (376 864 gates), it must peak at no more than 15 B per gate,
    // and it carries no gadget trace.
    let ((gates, gadgets), ir_peak) = peak_during(|| {
        let circuit = release_circuit(&PROGRAM, 4_000).expect("the release circuit composes");
        circuit.layers();
        (circuit.len(), circuit.gadgets().len())
    });
    assert_eq!(gadgets, 0, "the release circuit carries no gadget trace");
    assert!(
        ir_peak <= 15 * gates,
        "release circuit of {gates} gates peaked at {ir_peak} B while built and layered"
    );
}
