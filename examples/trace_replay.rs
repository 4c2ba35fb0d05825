//! Generates a synthetic ng4T-like signaling trace (the paper's proprietary
//! input, §6.1), archives it as JSON lines, reloads it, and replays it
//! through the simulated Neutrino deployment.
//!
//! ```text
//! cargo run --example trace_replay --release
//! ```

use neutrino::prelude::*;
use neutrino_trafficgen::{Trace, TraceGenerator, TraceParams};

fn main() {
    let params = TraceParams {
        devices: 3_000,
        duration: Duration::from_secs(120),
        seed: 42,
        ..TraceParams::default()
    };
    let trace = TraceGenerator::new(params).generate();
    println!(
        "generated trace: {} records from {} devices over {:.0}s",
        trace.records.len(),
        params.devices,
        params.duration.as_secs_f64()
    );
    println!(
        "mean service-request inter-arrival: {:.1}s (published statistic: 106.9s)",
        trace.mean_sr_interarrival_secs()
    );

    // Archive and reload — runs replay bit-for-bit from the file.
    let path = std::env::temp_dir().join("neutrino_trace.jsonl");
    std::fs::write(&path, trace.to_jsonl().expect("serialize trace")).expect("write trace");
    let reloaded =
        Trace::from_jsonl(&std::fs::read_to_string(&path).expect("read")).expect("parse trace");
    assert_eq!(reloaded.records.len(), trace.records.len());
    println!("archived + reloaded from {}", path.display());

    for config in [SystemConfig::existing_epc(), SystemConfig::neutrino()] {
        let name = config.name;
        let mut spec = ExperimentSpec::new(config, reloaded.workload());
        spec.horizon = Duration::from_secs(200);
        let mut results = run_experiment(spec);
        println!("\n=== {name} ===");
        println!(
            "  completed {} of {} procedures ({} re-attaches)",
            results.completed, results.started, results.re_attached
        );
        for kind in [
            ProcedureKind::InitialAttach,
            ProcedureKind::ServiceRequest,
            ProcedureKind::TrackingAreaUpdate,
        ] {
            let s = results.summary(kind);
            if s.count > 0 {
                println!(
                    "  {:<22} p50={:>8.3}ms  p95={:>8.3}ms  n={}",
                    kind.name(),
                    s.p50,
                    s.p95,
                    s.count
                );
            }
        }
    }
}
