//! Fleet-level harbor-scope integration: per-node ring sinks must not
//! perturb any node's simulation, the scope aggregate must appear in the
//! telemetry JSON exactly when sinks are attached, and a serial and a
//! parallel run of the same seed must still agree byte-for-byte.

mod common;

use common::seed;
use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, NetConfig};
use harbor_scope::{EventKind, SinkSpec};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};

const NODES: usize = 8;
const ROUNDS: u64 = 24;

/// Default test seed; `HARBOR_SEED=n` overrides it for reproduction.
const SEED: u64 = 0x5c09e;

fn run(scope: Option<SinkSpec>, threads: usize) -> harbor_fleet::FleetTelemetry {
    let cfg = FleetConfig {
        nodes: NODES,
        protection: Protection::Umpu,
        seed: seed(SEED),
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads,
        scope,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
    for _ in 0..ROUNDS {
        fleet.post_all(DomainId::num(0), MSG_TIMER);
        fleet.step_round();
    }
    fleet.telemetry()
}

#[test]
fn per_node_sinks_do_not_perturb_the_fleet() {
    let bare = run(None, 1);
    let traced = run(Some(SinkSpec::Ring(64)), 1);
    // Every machine-level counter agrees; only the sink's own bookkeeping
    // (the scope reduction and the per-node ring-drop mirror) differs.
    let mut traced_wiped = traced.clone();
    traced_wiped.scope = None;
    for n in &mut traced_wiped.per_node {
        n.metrics = harbor_scope::MetricsRegistry::new();
        n.ring_dropped = 0;
    }
    let mut bare_wiped = bare.clone();
    for n in &mut bare_wiped.per_node {
        n.metrics = harbor_scope::MetricsRegistry::new();
    }
    assert_eq!(bare_wiped, traced_wiped, "sinks changed fleet behaviour");
    assert_eq!(bare.comparable_json(), {
        let mut t = traced.clone();
        t.scope = None;
        for n in &mut t.per_node {
            n.ring_dropped = 0;
        }
        t.comparable_json()
    });
}

#[test]
fn scope_aggregate_appears_only_when_sinks_attached() {
    let bare = run(None, 1);
    assert!(bare.scope.is_none());
    assert!(!bare.to_json().contains("\"scope\""));

    let traced = run(Some(SinkSpec::Ring(64)), 1);
    let agg = traced.scope.as_ref().expect("aggregate present");
    assert!(agg.recorded > 0, "nodes recorded events");
    assert!(agg.max_recorded <= agg.recorded);
    assert!(agg.p99_recorded <= agg.max_recorded);
    // Identical nodes on an identical workload: per-kind sums divide evenly.
    let calls = agg.kinds[EventKind::CrossDomainCall.index()];
    assert!(
        calls > 0 && calls.is_multiple_of(NODES as u64),
        "uniform workload, uniform counts: {calls}"
    );
    assert!(traced.to_json().contains("\"scope\":{\"recorded\":"));
}

#[test]
fn serial_and_parallel_scoped_runs_are_byte_identical() {
    let serial = run(Some(SinkSpec::Ring(64)), 1);
    let parallel = run(Some(SinkSpec::Ring(64)), 4);
    assert_eq!(serial.comparable_json(), parallel.comparable_json());
    assert_eq!(serial.scope, parallel.scope);
}
