//! Property-based tests of the CTA message log: byte accounting and the
//! completed index never drift from the entries, replay sets rebuild the
//! logged envelopes in order, and pruning matches ACK coverage over random
//! operation sequences.

use neutrino_common::clock::ClockTick;
use neutrino_common::time::Instant;
use neutrino_common::{CpfId, CtaId, ProcedureId, UeId};
use neutrino_cta::MessageLog;
use neutrino_messages::{Envelope, MessageKind, ProcedureKind};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Append { ue: u8, proc: u8, bytes: u16 },
    Complete { ue: u8, proc: u8, awaits_acks: bool },
    Ack { ue: u8, proc: u8, replica: u8 },
    Drop { ue: u8, proc: u8 },
    Purge { replica: u8 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 1u8..5, 1u16..300).prop_map(|(ue, proc, bytes)| Op::Append { ue, proc, bytes }),
        (0u8..4, 1u8..5, 0u8..8).prop_map(|(ue, proc, coin)| Op::Complete {
            ue,
            proc,
            awaits_acks: coin != 0,
        }),
        (0u8..4, 1u8..5, 0u8..3).prop_map(|(ue, proc, replica)| Op::Ack { ue, proc, replica }),
        (0u8..4, 1u8..5).prop_map(|(ue, proc)| Op::Drop { ue, proc }),
        (0u8..3).prop_map(|replica| Op::Purge { replica }),
    ]
}

fn env(ue: u8, proc: u8, clock: u64) -> Envelope {
    let mut e = Envelope::uplink(
        UeId::new(u64::from(ue)),
        ProcedureId::new(u64::from(proc)),
        ProcedureKind::ServiceRequest,
        MessageKind::ServiceRequest.sample(u64::from(ue)),
    );
    e.clock = ClockTick(clock);
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn byte_total_and_completed_index_never_drift(ops in proptest::collection::vec(op(), 1..120)) {
        let mut log = MessageLog::new();
        let replicas = [CpfId::new(0), CpfId::new(1), CpfId::new(2)];
        let mut clock = 0u64;
        // Shadow model of each logged procedure: bytes, ACK set, completion.
        // ACKs are cumulative, so the model must retro-ACK completed
        // predecessors exactly like `MessageLog::ack` does.
        #[derive(Default)]
        struct Entry {
            bytes: usize,
            acks: std::collections::BTreeSet<u8>,
            completed: bool,
        }
        let mut shadow: std::collections::BTreeMap<(u8, u8), Entry> =
            std::collections::BTreeMap::new();
        for o in &ops {
            match *o {
                Op::Append { ue, proc, bytes } => {
                    clock += 1;
                    log.ue_mut(UeId::new(u64::from(ue)))
                        .append(&env(ue, proc, clock), bytes as usize);
                    shadow.entry((ue, proc)).or_default().bytes += bytes as usize;
                }
                Op::Complete { ue, proc, awaits_acks } => {
                    log.ue_mut(UeId::new(u64::from(ue))).complete(
                        ProcedureId::new(u64::from(proc)),
                        ClockTick(clock),
                        Instant::ZERO,
                        awaits_acks,
                    );
                    if awaits_acks {
                        // `complete` materializes the entry even if nothing
                        // was appended — mirror that.
                        shadow.entry((ue, proc)).or_default().completed = true;
                    } else {
                        // Nobody will ACK it: it leaves the log at once.
                        shadow.remove(&(ue, proc));
                    }
                }
                Op::Ack { ue, proc, replica } => {
                    // Expect replicas {0, 1}: pruning needs either that exact
                    // set ACKed or two distinct ACKs (count-based convergence
                    // — replica 2 substitutes after a failover re-targets
                    // checkpoints); a single ACK must never prune.
                    log.ue_mut(UeId::new(u64::from(ue))).ack(
                        ProcedureId::new(u64::from(proc)),
                        replicas[replica as usize],
                        &replicas[..2],
                    );
                    let covered: Vec<(u8, u8)> = shadow
                        .keys()
                        .filter(|&&(u, p)| u == ue && p <= proc)
                        .copied()
                        .collect();
                    for key in covered {
                        let e = shadow.get_mut(&key).expect("collected");
                        if key.1 == proc || e.completed {
                            e.acks.insert(replica);
                            if e.acks.len() >= 2 {
                                shadow.remove(&key);
                            }
                        }
                    }
                }
                Op::Drop { ue, proc } => {
                    log.ue_mut(UeId::new(u64::from(ue)))
                        .drop_procedure(ProcedureId::new(u64::from(proc)));
                    shadow.remove(&(ue, proc));
                }
                Op::Purge { replica } => {
                    log.purge_replica_acks(replicas[replica as usize]);
                    for e in shadow.values_mut() {
                        e.acks.remove(&replica);
                    }
                }
            }
            let expected: usize = shadow.values().map(|e| e.bytes).sum();
            prop_assert_eq!(log.bytes(), expected, "byte accounting drifted");
            prop_assert!(log.max_bytes() >= log.bytes());
            // The log's own totals against a brute-force walk of its
            // entries: the byte count is their sum, and the completed index
            // is exactly the entries with a completion time.
            let entries = || {
                log.ues()
                    .flat_map(|(ue, l)| l.procedures().iter().map(move |(p, e)| (*ue, *p, e)))
            };
            prop_assert_eq!(log.bytes(), entries().map(|(_, _, e)| e.bytes).sum::<usize>());
            let completed: Vec<_> = entries()
                .filter(|(_, _, e)| e.completed.is_some())
                .map(|(ue, p, _)| (ue, p))
                .collect();
            prop_assert_eq!(log.completed().collect::<Vec<_>>(), completed);
        }
    }

    #[test]
    fn replay_sets_are_clock_ordered_and_scoped(
        appends in proptest::collection::vec((0u8..3, 1u8..6), 1..60),
        since in 0u8..6,
    ) {
        // The CTA stamps every uplink it logs with its id and a clock.
        let via = CtaId::new(7);
        let mut log = MessageLog::new();
        let mut logged = Vec::new();
        for (clock, &(ue, proc)) in (1u64..).zip(&appends) {
            let mut e = env(ue, proc, clock);
            e.via_cta = Some(via);
            log.ue_mut(e.ue).append(&e, 10);
            logged.push(e);
        }
        // Procedures in ascending order, clock order within each.
        logged.sort_by_key(|e| (e.procedure, e.clock));
        let since = ProcedureId::new(u64::from(since));
        for ue in (0u64..3).map(UeId::new) {
            let set = log.ue(ue).map(|l| l.replay_set(ue, via, since)).unwrap_or_default();
            // Exactly the UE's logged envelopes after `since`, field for
            // field.
            let expected: Vec<&Envelope> =
                logged.iter().filter(|e| e.ue == ue && e.procedure > since).collect();
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), expected);
        }
    }
}
