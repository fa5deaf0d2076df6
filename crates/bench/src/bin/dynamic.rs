//! Incremental re-mapping benchmark: warm re-map vs cold re-solve over
//! a stream of task arrival/departure epochs, emitted as a
//! machine-readable JSON artefact (`BENCH_dynamic.json`) for CI trend
//! tracking.
//!
//! ```text
//! cargo run -p match-bench --release --bin dynamic
//! cargo run -p match-bench --release --bin dynamic -- --quick
//! cargo run -p match-bench --release --bin dynamic -- --json out.json --check
//! ```
//!
//! Each epoch perturbs a sparse large-family instance through
//! [`match_sim::DynamicWorkload`] (arrivals/departures plus the changed
//! subgraph they touch), then maps it twice: **cold**, a full
//! multilevel re-solve that forgets the previous epoch, and
//! **incremental**, a [`match_core::remap_incremental`] pass that keeps
//! the prior mapping and refines only the changed subgraph. The full
//! grid runs n ∈ {256, 512, 2048}; `--quick`, which CI runs, only
//! n = 256. The gate (`--check`) requires the incremental path at every
//! n ≥ 256 to be at least 2× faster than the cold re-solve at the
//! median epoch while landing within 1.05× of the cold cost —
//! re-mapping must be cheap *and* must not quietly rot the mapping —
//! and, at every n, the median epoch to peek at most a quarter of the
//! `changed · (n − 1) · refine_passes` swaps a scan over every partner
//! would: refinement must keep skipping the swaps that cannot lower
//! Eq. 2.

use match_core::{
    remap_incremental, Mapper, MappingInstance, MultilevelConfig, RemapConfig, RemapStrategy,
    StopToken,
};
use match_graph::gen::InstanceGenerator;
use match_multilevel::MultilevelMapper;
use match_sim::DynamicWorkload;
use match_telemetry::NullRecorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Measured epochs per size (epoch 0, the shared cold start, is extra).
const EPOCHS: usize = 5;

/// Arrival/departure events drawn per epoch.
const EVENTS_PER_EPOCH: usize = 8;

/// Migration weight for the incremental path (power of two: exact).
const MU: f64 = 0.5;

/// Largest median share of the full scan's peeks an epoch may take.
const MAX_PEEK_SHARE: f64 = 0.25;

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results/BENCH_dynamic.json".to_string());

    let sizes: &[usize] = if quick { &[256] } else { &[256, 512, 2048] };
    let threads = match_par::default_threads();

    let mut size_entries = Vec::new();
    let mut failures = Vec::new();
    for &n in sizes {
        let base = MappingInstance::from_pair(
            &InstanceGenerator::large_family(n).generate(&mut StdRng::seed_from_u64(40)),
        );
        let ml = MultilevelMapper::new(MultilevelConfig {
            threads,
            ..MultilevelConfig::default()
        });
        // Epoch 0: one shared cold solve seeds the incremental chain;
        // it is identical work on both sides, so it is not measured.
        let mut prior = ml
            .map(&base, &mut StdRng::seed_from_u64(71))
            .mapping
            .as_slice()
            .to_vec();
        let remap_cfg = RemapConfig {
            strategy: RemapStrategy::RefineOnly,
            mu: MU,
            ..RemapConfig::default()
        };
        let mut workload = DynamicWorkload::new(&base);
        let mut event_rng = StdRng::seed_from_u64(50 + n as u64);
        let mut epoch_entries = Vec::new();
        let mut speedups = Vec::new();
        let mut cost_ratios = Vec::new();
        let mut peek_shares = Vec::new();
        for epoch in 1..=EPOCHS {
            let events = workload.generate_events(EVENTS_PER_EPOCH, &mut event_rng);
            let changed = workload.apply(&events);
            let inst = workload.instance();

            let start = Instant::now();
            let cold = ml.map(&inst, &mut StdRng::seed_from_u64(100 + epoch as u64));
            let cold_ms = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let inc = remap_incremental(
                &inst,
                Some(&prior),
                &changed,
                &remap_cfg,
                &mut StdRng::seed_from_u64(200 + epoch as u64),
                &mut NullRecorder,
                &StopToken::never(),
            );
            let inc_ms = start.elapsed().as_secs_f64() * 1e3;
            prior = inc.mapping.as_slice().to_vec();

            let speedup = cold_ms / inc_ms.max(1e-6);
            let cost_ratio = inc.cost / cold.cost;
            let full_scan = changed.len() * (n - 1) * remap_cfg.refine_passes;
            speedups.push(speedup);
            cost_ratios.push(cost_ratio);
            peek_shares.push(inc.evaluations as f64 / full_scan.max(1) as f64);
            eprintln!(
                "[dynamic] n={n:>4} epoch {epoch}: {} events, {} changed | \
                 cold {cold_ms:>8.1} ms (cost {:.1}) | incremental {inc_ms:>7.2} ms \
                 (cost {:.1}, {} migrated)  ({speedup:.1}x, cost {cost_ratio:.3}x)",
                events.len(),
                changed.len(),
                cold.cost,
                inc.cost,
                inc.migrated,
            );
            epoch_entries.push(format!(
                "        {{\"epoch\":{epoch},\"events\":{},\"changed\":{},\
                 \"cold\":{{\"ms\":{cold_ms:.2},\"cost\":{:.3}}},\
                 \"incremental\":{{\"ms\":{inc_ms:.3},\"cost\":{:.3},\
                 \"migrated\":{},\"evaluations\":{}}},\
                 \"speedup\":{speedup:.3},\"cost_ratio\":{cost_ratio:.4}}}",
                events.len(),
                changed.len(),
                cold.cost,
                inc.cost,
                inc.migrated,
                inc.evaluations,
            ));
        }
        let med_speedup = median(&speedups);
        let med_ratio = median(&cost_ratios);
        let med_share = median(&peek_shares);
        eprintln!(
            "[dynamic] n={n:>4} medians: {med_speedup:.1}x faster, {med_ratio:.3}x cost, \
             {:.1}% of the full scan's peeks",
            med_share * 100.0
        );
        if check && n >= 256 {
            if med_speedup < 2.0 {
                failures.push(format!(
                    "n={n}: median incremental speedup {med_speedup:.2}x is below the 2x gate"
                ));
            }
            if med_ratio > 1.05 {
                failures.push(format!(
                    "n={n}: median incremental cost ratio {med_ratio:.3}x exceeds the 1.05x gate"
                ));
            }
        }
        if check && med_share > MAX_PEEK_SHARE {
            failures.push(format!(
                "n={n}: the median epoch peeks {:.1}% of the full scan's swaps, above the {:.0}% gate",
                med_share * 100.0,
                MAX_PEEK_SHARE * 100.0
            ));
        }
        size_entries.push(format!(
            "    {{\"n\":{n},\"family\":\"large\",\"mu\":{MU},\
             \"events_per_epoch\":{EVENTS_PER_EPOCH},\"epochs\":[\n{}\n      ],\
             \"median_speedup\":{med_speedup:.3},\"median_cost_ratio\":{med_ratio:.4},\
             \"median_peek_share\":{med_share:.4}}}",
            epoch_entries.join(",\n"),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"dynamic\",\n  \"threads\": {threads},\n  \"sizes\": [\n{}\n  ]\n}}\n",
        size_entries.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("[dynamic] wrote {json_path}"),
        Err(e) => {
            eprintln!("[dynamic] could not write {json_path}: {e}");
            std::process::exit(2);
        }
    }
    print!("{json}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[dynamic] FAIL: {f}");
        }
        std::process::exit(1);
    }
}
