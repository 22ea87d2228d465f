//! Criterion bench for Figure 3: GMW execution time of the five DStress
//! MPC circuits at small block sizes (the full sweep lives in `repro`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dstress_bench::mpc_micro::{deep_narrow_point, run_mpc_micro, MpcCircuitKind};

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_mpc_time");
    group.sample_size(10);
    for kind in MpcCircuitKind::all() {
        for block_size in [4usize, 8] {
            group.bench_with_input(
                BenchmarkId::new(kind.label(), block_size),
                &block_size,
                |b, &bs| b.iter(|| run_mpc_micro(kind, bs, 20, 50, 0xF13)),
            );
        }
    }
    // The per-message-overhead point: ≈ 500 layers of ≈ 18 AND gates.
    group.bench_function("EN step deep-narrow D=5/8", |b| {
        b.iter(|| deep_narrow_point(1))
    });
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
