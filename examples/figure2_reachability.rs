//! The paper's motivating example (§3.1, Figure 2), live: a CPF fails right
//! after a UE attaches, then downlink data (a voice call) arrives for the
//! now-idle UE. Can the core still reach it?
//!
//! ```text
//! cargo run --example figure2_reachability --release
//! ```

use neutrino::prelude::*;
use neutrino_core::experiment;
use neutrino_geo::RegionLayout;

fn run(config: SystemConfig) {
    let name = config.name;
    let ue = UeId::new(0);
    let victim =
        neutrino_core::experiment::primary_cpf_for(&config, RegionLayout::default(), ue).unwrap();

    let arrivals: Vec<Arrival> = (0..30u64)
        .map(|u| Arrival {
            at: Instant::from_micros(u * 300),
            ue: UeId::new(u),
            kind: ProcedureKind::InitialAttach,
        })
        .collect();
    let mut cluster = experiment::build(ExperimentSpec::new(config, Workload::from_vec(arrivals)));

    // (1) UE attaches; (2) it goes idle; (3) its CPF fails before anyone
    // notices; (4) a call comes in, retried every 50 ms by the caller.
    cluster.run_until(Instant::from_millis(100));
    cluster.release_ue_to_idle(ue);
    cluster.fail_cpf_at(Instant::from_millis(120), victim);
    for k in 0..40u64 {
        cluster.inject_downlink_data_at(Instant::from_millis(150 + k * 50), ue);
    }
    cluster.run_until(Instant::from_secs(30));

    let first_delivery = cluster
        .downlink_log()
        .iter()
        .find(|(_, u, ok)| *u == ue && *ok)
        .map(|(t, _, _)| *t);
    let results = cluster.take_results();
    println!("=== {name} ===");
    println!("  UE attached, went idle, then {victim} crashed at t=120ms");
    println!("  downlink data first arrived at t=150ms, retried every 50ms");
    match first_delivery {
        Some(t) => println!(
            "  -> delivered at t={:.1}ms ({} pages sent, {} re-attaches)",
            t.as_millis_f64(),
            results.paged,
            results.re_attached
        ),
        None => println!("  -> NEVER delivered (the §3.1 disruption)"),
    }
    println!();
}

fn main() {
    println!("Figure 2 (§3.1): downlink reachability after a CPF failure\n");
    run(SystemConfig::neutrino());
    run(SystemConfig::existing_epc());
    println!("Neutrino's backup already holds the UE state (per-procedure");
    println!("checkpoint), so it pages the UE immediately; the EPC must wake");
    println!("the UE through a full re-attach before the call can connect.");
}
