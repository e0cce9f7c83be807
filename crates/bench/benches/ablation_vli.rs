//! Ablation: variable-length intervals (VLI) versus fixed-length
//! intervals at coarse granularity. The paper's §V-A argues that "the
//! variable length interval only makes the phase boundaries more
//! natural but does not gain performance" — what matters is the
//! *granularity*, not whether boundaries follow loop iterations. This
//! bench pits real COASTS (loop-iteration VLIs) against a fixed-length
//! coarse sampler using the same Kmax and earliest-instance selection.

use criterion::{criterion_group, criterion_main, Criterion};
use mlpa_core::pipeline::plan_from_points;
use mlpa_core::prelude::*;
use mlpa_phase::simpoint::select;
use mlpa_sim::MachineConfig;
use mlpa_workloads::{suite, CompiledBenchmark};
use std::hint::black_box;

fn bench_ablation_vli(c: &mut Criterion) {
    let spec = suite::benchmark_with_iters("facerec", 2).expect("facerec").scaled(0.5);
    let cb = CompiledBenchmark::compile(&spec).expect("compiles");
    let config = MachineConfig::table1_base();
    let truth = ground_truth(&cb, &config).estimate();
    let baseline = simpoint_baseline(
        &cb,
        FINE_INTERVAL,
        &SimPointConfig::fine_10m(),
        &ProjectionSettings::default(),
    )
    .expect("baseline");
    let model = CostModel::paper_implied();

    // Mean outer-iteration size — the fixed-length sampler gets the
    // same granularity without the loop-boundary knowledge.
    let mean_iter = spec.script.iter().map(|e| e.insts).sum::<u64>() / spec.script.len() as u64;

    let mut group = c.benchmark_group("ablation_vli");
    group.sample_size(10);
    group.bench_function("fixed_coarse_facerec", |b| {
        b.iter(|| {
            let mut ctx =
                ProfilingContext::new(black_box(&cb), ProjectionSettings::default(), mean_iter);
            select(ctx.fine_intervals(), &SimPointConfig::coasts())
        });
    });
    group.finish();

    println!("\nAblation: VLI (loop-boundary) vs fixed-length coarse intervals (facerec)");
    println!(
        "{:<26} {:>8} {:>9} {:>11} {:>9} {:>9}",
        "variant", "points", "detail%", "functional%", "dCPI%", "speedup"
    );

    let coasts_out = coasts(&cb, &CoastsConfig::default()).expect("coasts");
    let est = execute_plan(&cb, &config, &coasts_out.plan, WarmupMode::Warmed).estimate;
    let dev = est.deviation_from(&truth);
    println!(
        "{:<26} {:>8} {:>8.3}% {:>10.2}% {:>8.2}% {:>8.2}x",
        "COASTS (VLI iterations)",
        coasts_out.plan.len(),
        coasts_out.plan.detail_fraction() * 100.0,
        coasts_out.plan.functional_fraction() * 100.0,
        dev.cpi * 100.0,
        model.speedup(&baseline.plan, &coasts_out.plan)
    );

    for frac in [0.5f64, 1.0, 2.0] {
        let len = ((mean_iter as f64 * frac) as u64).max(10_000);
        let mut ctx = ProfilingContext::new(&cb, ProjectionSettings::default(), len);
        let sp = select(ctx.fine_intervals(), &SimPointConfig::coasts());
        let plan = plan_from_points(&sp).expect("valid plan");
        let est = execute_plan(&cb, &config, &plan, WarmupMode::Warmed).estimate;
        let dev = est.deviation_from(&truth);
        println!(
            "{:<26} {:>8} {:>8.3}% {:>10.2}% {:>8.2}% {:>8.2}x",
            format!("fixed {:.1}x mean-iter", frac),
            plan.len(),
            plan.detail_fraction() * 100.0,
            plan.functional_fraction() * 100.0,
            dev.cpi * 100.0,
            model.speedup(&baseline.plan, &plan)
        );
    }
    println!(
        "(the paper's §V-A claim: similar cost profiles — granularity matters, boundaries don't)"
    );
}

criterion_group!(benches, bench_ablation_vli);
criterion_main!(benches);
