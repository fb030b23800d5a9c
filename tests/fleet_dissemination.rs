//! Over-the-air dissemination must be indistinguishable from a local load:
//! a module shipped in chunks through a lossy radio and reassembled on N
//! nodes yields bit-identical flash, jump-table and memory-map state to the
//! same module loaded directly via `SosSystem::load_module`.

mod common;

use common::seed;
use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, ModuleImage, NetConfig};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, SosSystem};

const NODES: usize = 5;
const TREE_DOM: u8 = 3;

/// Default test seed; `HARBOR_SEED=n` overrides it for reproduction.
const SEED: u64 = 0x5eed;

/// A directly-loaded reference system with the same module set and the same
/// amount of scheduling as a converged fleet node.
fn reference(protection: Protection) -> SosSystem {
    let mut sys = SosSystem::build(protection, &[modules::surge(1, TREE_DOM)], |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("reference builds");
    sys.boot().expect("reference boots");
    sys.run_slice(1_000_000).expect("surge init");
    sys.load_module(&modules::tree_routing(TREE_DOM)).expect("direct load");
    sys.run_slice(1_000_000).expect("tree init");
    sys
}

#[test]
fn disseminated_module_is_bit_identical_to_direct_load() {
    for protection in [Protection::None, Protection::Umpu, Protection::Sfi] {
        let cfg = FleetConfig {
            nodes: NODES,
            protection,
            seed: seed(SEED),
            net: NetConfig { loss: 0.25, ..NetConfig::default() },
            threads: 4, // exercise the real parallel step path
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(&cfg, &[modules::surge(1, TREE_DOM)]).expect("fleet builds");
        let layout = fleet.layout();
        let image = ModuleImage::assemble(&modules::tree_routing(TREE_DOM), &layout, protection)
            .expect("image assembles");
        fleet.disseminate(&image);
        fleet.run_until_converged(400).expect("converges under 25% loss");
        // Two more rounds so every node processes the post-install init
        // message (the reference ran its scheduler after loading too).
        fleet.run_rounds(2);

        let slot = layout.slot_for(TREE_DOM);
        let words = image.words.len() as u32;
        let reference = reference(protection);
        let ref_flash = reference.flash_words(slot, words);
        let ref_jt = reference.jt_page_words(TREE_DOM);
        let ref_map = reference.memory_map_bytes();
        let tree_state = layout.state_addr(TREE_DOM);

        for v in 0..NODES {
            fleet.with_node(v, |node| {
                assert!(node.has_installed(1), "{protection:?}: node {v} installed");
                assert_eq!(
                    node.sys.flash_words(slot, words),
                    ref_flash,
                    "{protection:?}: node {v} flash slot"
                );
                assert_eq!(
                    node.sys.jt_page_words(TREE_DOM),
                    ref_jt,
                    "{protection:?}: node {v} jump table"
                );
                assert_eq!(
                    node.sys.memory_map_bytes(),
                    ref_map,
                    "{protection:?}: node {v} memory map"
                );
                // And the module actually ran: init marked the state.
                assert_eq!(node.sys.sram(tree_state), reference.sram(tree_state));
                assert_eq!(node.sys.sram(tree_state + 1), 1, "{protection:?}: node {v} init ran");
            });
        }
    }
}

#[test]
fn load_policy_quarantines_over_budget_module_on_every_node() {
    // A 6-byte allotment admits nothing (the inbound cross-domain frame
    // alone is 5 bytes and every entry adds a 2-byte save-ret frame): the
    // disseminated image must complete reassembly on every node and then
    // be quarantined by the admission gate — never burned into flash.
    let cfg = FleetConfig {
        nodes: NODES,
        protection: Protection::Sfi,
        seed: seed(SEED),
        threads: 4,
        load_policy: Some(mini_sos::LoadPolicy::with_allotment(6)),
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg, &[modules::surge(1, TREE_DOM)]).expect("fleet builds");
    let layout = fleet.layout();
    let image = ModuleImage::assemble(&modules::tree_routing(TREE_DOM), &layout, Protection::Sfi)
        .expect("image assembles");
    let id = fleet.disseminate(&image);
    fleet.run_rounds(200);

    assert!(!fleet.converged(), "a quarantined image never converges");
    let slot = layout.slot_for(TREE_DOM);
    for v in 0..NODES {
        fleet.with_node(v, |node| {
            assert!(node.has_quarantined(id), "node {v} quarantined the image");
            assert!(!node.has_installed(id), "node {v} must not install it");
            assert_eq!(node.telemetry.quarantined(), 1, "node {v} counted one quarantine");
            assert!(
                node.sys.modules.iter().all(|m| m.domain != DomainId::num(TREE_DOM)),
                "node {v}: nothing occupies the target domain"
            );
            // The flash slot was never written (still erased).
            assert!(
                node.sys.flash_words(slot, image.words.len() as u32).iter().all(|&w| w == 0xffff),
                "node {v}: flash slot untouched"
            );
        });
    }

    // The same image under a generous policy converges normally — the gate
    // itself does not disturb dissemination.
    let cfg = FleetConfig {
        nodes: NODES,
        protection: Protection::Sfi,
        seed: seed(SEED),
        threads: 4,
        load_policy: Some(mini_sos::LoadPolicy::with_allotment(128)),
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg, &[modules::surge(1, TREE_DOM)]).expect("fleet builds");
    let image =
        ModuleImage::assemble(&modules::tree_routing(TREE_DOM), &fleet.layout(), Protection::Sfi)
            .expect("image assembles");
    let id = fleet.disseminate(&image);
    fleet.run_until_converged(400).expect("gated fleet still converges");
    for v in 0..NODES {
        fleet.with_node(v, |node| {
            assert!(node.has_installed(id), "node {v} installed under the roomy policy");
            assert_eq!(node.telemetry.quarantined(), 0, "node {v}: no quarantines");
        });
    }
}

#[test]
fn fleet_runs_are_reproducible_from_the_seed_across_schedules() {
    let run = |threads: usize| {
        let cfg = FleetConfig {
            nodes: 12,
            protection: Protection::Umpu,
            seed: seed(SEED),
            net: NetConfig { loss: 0.3, latency_min: 1, latency_max: 3 },
            threads,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
        let image = ModuleImage::assemble(
            &modules::tree_routing(TREE_DOM),
            &fleet.layout(),
            cfg.protection,
        )
        .expect("image assembles");
        fleet.disseminate(&image);
        for _ in 0..30 {
            fleet.post_all(DomainId::num(0), MSG_TIMER);
            fleet.step_round();
        }
        fleet.telemetry().comparable_json()
    };
    let serial = run(1);
    assert_eq!(serial, run(1), "same seed, same schedule");
    assert_eq!(serial, run(4), "serial and parallel runs must be byte-identical");
    assert_eq!(serial, run(8), "worker count must not leak into results");
}

#[test]
fn hostile_wire_images_are_quarantined_before_flash() {
    // Checksum-valid images no honest base station assembles, each aimed at
    // the free domain next to a live module: one built for the neighbour's
    // slot, one exporting more entries than a jump-table page holds, one
    // three slots long. Installing any of them would trip a host assert or
    // write into the neighbour's flash slot or jump-table page; every build
    // must quarantine them before flash instead.
    for protection in [Protection::None, Protection::Umpu, Protection::Sfi] {
        let boot = [modules::blink(0), modules::tree_routing(TREE_DOM + 1)];
        let layout = Fleet::new(&FleetConfig { nodes: 1, ..FleetConfig::default() }, &boot)
            .expect("fleet builds")
            .layout();
        let good = ModuleImage::assemble(&modules::tree_routing(TREE_DOM), &layout, protection)
            .expect("image assembles");
        let mut oversized = good.words.clone();
        oversized.resize(3 * layout.slot_words as usize, 0);
        let hostile = [
            ("wrong origin", ModuleImage { origin: layout.slot_for(TREE_DOM + 1), ..good.clone() }),
            (
                "129 entries",
                ModuleImage { entry_addrs: vec![good.entry_addrs[0]; 129], ..good.clone() },
            ),
            ("3-slot image", ModuleImage { words: oversized, ..good.clone() }),
        ];
        // Every jump-table page and every module slot.
        let (start, end) = (layout.prot.jt_base as u32, layout.slot_for(7));
        for (what, image) in hostile {
            let cfg = FleetConfig {
                nodes: NODES,
                protection,
                seed: seed(SEED),
                ..FleetConfig::default()
            };
            let mut fleet = Fleet::new(&cfg, &boot).expect("fleet builds");
            let before: Vec<Vec<u16>> = (0..NODES)
                .map(|v| fleet.with_node(v, |node| node.sys.flash_words(start, end - start)))
                .collect();
            let id = fleet.disseminate(&image);
            fleet.run_rounds(400);
            for (v, before) in before.iter().enumerate() {
                fleet.with_node(v, |node| {
                    assert!(
                        node.has_quarantined(id),
                        "{protection:?} {what}: node {v} quarantines"
                    );
                    assert!(!node.has_installed(id), "{protection:?} {what}: node {v} installs");
                    assert_eq!(node.telemetry.quarantined(), 1, "{protection:?} {what}: node {v}");
                    assert!(
                        node.sys.modules.iter().all(|m| m.domain != DomainId::num(TREE_DOM)),
                        "{protection:?} {what}: node {v}: nothing occupies the target domain"
                    );
                    assert!(
                        node.sys.flash_words(start, end - start) == *before,
                        "{protection:?} {what}: node {v}: jump tables and slots untouched"
                    );
                });
            }
        }
    }
}
