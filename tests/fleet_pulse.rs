//! Fleet-level harbor-pulse integration: the pipeline profiler is
//! strictly observational (telemetry byte-identical with pulse off/on,
//! serial/parallel), its timer and ledger invariants reconcile on a real
//! dissemination run, and the idle-work ledger exactly matches a
//! host-side census of pending work taken independently of the recorder.

mod common;

use common::seed;
use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, ModuleImage, NetConfig};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};

const NODES: usize = 24;
const ROUNDS: u64 = 20;

/// Default test seed; `HARBOR_SEED=n` overrides it for reproduction.
const SEED: u64 = 0x9a15e;

/// Blink everywhere with a mid-run Tree Routing dissemination: radio
/// traffic, OTA reassembly and kernel timers all land in the ledger.
fn run(pulse: bool, threads: usize) -> Fleet {
    let cfg = FleetConfig {
        nodes: NODES,
        protection: Protection::Umpu,
        seed: seed(SEED),
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads,
        pulse,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
    for round in 0..ROUNDS {
        if round % 4 == 0 {
            fleet.post_all(DomainId::num(0), MSG_TIMER);
        }
        if round == 4 {
            let image =
                ModuleImage::assemble(&modules::tree_routing(3), &fleet.layout(), cfg.protection)
                    .expect("image assembles");
            fleet.disseminate(&image);
        }
        fleet.step_round();
    }
    fleet
}

#[test]
fn pulse_is_observational() {
    let baseline = run(false, 1).telemetry().comparable_json();
    for (pulse, threads) in [(true, 1), (true, 4), (false, 4)] {
        let mut fleet = run(pulse, threads);
        assert_eq!(
            fleet.telemetry().comparable_json(),
            baseline,
            "pulse={pulse} threads={threads} perturbed the machines"
        );
    }
}

#[test]
fn report_reconciles_and_accounts_every_node_step() {
    for threads in [1, 4] {
        let fleet = run(true, threads);
        let report = fleet.pulse_report().expect("pulse enabled");
        assert_eq!(report.rounds, ROUNDS);
        assert_eq!(report.ledger.stepped, NODES as u64 * ROUNDS);
        let bad = report.reconcile();
        assert!(bad.is_empty(), "threads={threads}: {bad:?}");
        assert_eq!(report.timeline.len(), ROUNDS as usize, "all rounds retained");
    }
}

#[test]
fn ledger_matches_independent_census() {
    // Count pending work by hand before every round, serial so the
    // census and the recorder see the same pre-step state; the ledger
    // must agree exactly — it is a pure function of node state.
    let cfg = FleetConfig {
        nodes: NODES,
        protection: Protection::Umpu,
        seed: seed(SEED),
        net: NetConfig { loss: 0.0, ..NetConfig::default() },
        threads: 1,
        pulse: true,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
    let mut census = Vec::new();
    for round in 0..8u64 {
        if round % 3 == 0 {
            fleet.post_all(DomainId::num(0), MSG_TIMER);
        }
        let busy =
            (0..NODES).filter(|&i| fleet.with_node(i, |n| n.pending_work().any())).count() as u64;
        census.push(busy);
        fleet.step_round();
    }
    let report = fleet.pulse_report().expect("pulse enabled");
    for (r, &expect) in report.timeline.iter().zip(&census) {
        assert_eq!(r.ledger.busy, expect, "round {}", r.round);
        assert_eq!(r.ledger.stepped, NODES as u64, "round {}", r.round);
    }
}

#[test]
fn serial_and_parallel_ledgers_are_byte_identical() {
    let serial = run(true, 1).pulse_report().expect("pulse enabled");
    let parallel = run(true, 4).pulse_report().expect("pulse enabled");
    assert_eq!(serial.ledger_json(), parallel.ledger_json());
    for (s, p) in serial.timeline.iter().zip(&parallel.timeline) {
        assert_eq!(s.ledger, p.ledger, "round {}", s.round);
        assert_eq!(s.cycles_delta, p.cycles_delta, "round {}", s.round);
    }
}

#[test]
fn disabled_pulse_has_no_report() {
    assert!(run(false, 1).pulse_report().is_none());
}
