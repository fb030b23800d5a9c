//! Outside-in micro timings for the traced run. Each one calls a public
//! function of one layer on clones of a workload prototype, so the
//! measured fleet is never perturbed.

use crate::stats::median;
use crate::workload::{prototype, Workload, GOOD_DOM, OTA_DOM};
use harbor::DomainId;
use harbor_fleet::ModuleImage;
use mini_sos::{modules, SosSystem, MSG_TIMER};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each micro timing; the median is reported.
const REPS: usize = 9;

/// Scheduler slices per engine in the engine ladder.
const SLICES: usize = 400;

fn time_ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Median of `REPS` timings of `f`, in ns.
fn median_ns(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

/// The prototype set-up sub-steps `Fleet::new` performs, in ms (clone in
/// µs per node).
pub struct SetupSteps {
    pub build_boot_ms: f64,
    pub prove_ms: f64,
    pub turbo_prime_ms: f64,
    pub clone_us_per_node: f64,
}

pub fn setup_steps(w: Workload) -> SetupSteps {
    let cfg = w.config(0);
    let build_boot_ms = median_ns(|| time_ns(|| drop(black_box(prototype(w, &cfg))))) / 1e6;
    let proto = prototype(w, &cfg);
    // Prove before turbo, as the fleet does: primed pages bake the
    // elision bit.
    let prove_ms = if cfg.prove {
        median_ns(|| {
            let mut s = proto.clone();
            time_ns(|| s.set_prove(true))
        }) / 1e6
    } else {
        0.0
    };
    let mut primed = proto.clone();
    if cfg.prove {
        primed.set_prove(true);
    }
    let turbo_prime_ms = if cfg.turbo {
        median_ns(|| {
            let mut s = primed.clone();
            time_ns(|| s.set_turbo(true))
        }) / 1e6
    } else {
        0.0
    };
    if cfg.turbo {
        primed.set_turbo(true);
    }
    const CLONES: usize = 64;
    let clone_us_per_node = median_ns(|| {
        time_ns(|| {
            let v: Vec<SosSystem> = (0..CLONES).map(|_| primed.clone()).collect();
            black_box(v);
        })
    }) / CLONES as f64
        / 1e3;
    SetupSteps { build_boot_ms, prove_ms, turbo_prime_ms, clone_us_per_node }
}

/// The engine ladder: host ns per simulated instruction of
/// `SosSystem::run_slice` on clones of the `active` prototype with the
/// workload's messages posted, under the reference interpreter, turbo,
/// and turbo + prove. Returns the three in that order.
pub fn engine_ladder() -> [f64; 3] {
    let cfg = Workload::Active.config(0);
    let proto = prototype(Workload::Active, &cfg);
    let engines: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];
    engines.map(|(turbo, prove)| {
        let mut sys = proto.clone();
        if prove {
            sys.set_prove(true);
        }
        if turbo {
            sys.set_turbo(true);
        }
        let mut per_slice = Vec::with_capacity(SLICES);
        for _ in 0..SLICES {
            for d in 0..4 {
                sys.try_post(DomainId::num(d), MSG_TIMER);
            }
            let before = sys.instructions();
            let ns = time_ns(|| {
                black_box(sys.run_slice(cfg.cycle_budget)).expect("active slice never faults");
            });
            let instr = sys.instructions() - before;
            if instr > 0 {
                per_slice.push(ns / instr as f64);
            }
        }
        median(&per_slice)
    })
}

/// `SosSystem::install_module` of the healthy canary image on clones of
/// the canary prototype, without and with turbo + prove, in µs.
pub fn install_us() -> (f64, f64) {
    let cfg = Workload::Canary.config(0);
    let proto = prototype(Workload::Canary, &cfg);
    let image =
        ModuleImage::assemble(&modules::surge_fixed(GOOD_DOM, 1), &proto.layout, cfg.protection)
            .expect("canary image assembles");
    let mut fast = proto.clone();
    fast.set_prove(true);
    fast.set_turbo(true);
    let install = |base: &SosSystem| {
        median_ns(|| {
            let mut s = base.clone();
            let loaded = image.to_loaded();
            time_ns(|| s.install_module(loaded))
        }) / 1e3
    };
    (install(&proto), install(&fast))
}

/// `SosSystem::admit_module` (the node's load-policy gate) of the OTA
/// image under the `ota` policy, in µs.
pub fn admit_us() -> f64 {
    let cfg = Workload::Ota.config(0);
    let proto = prototype(Workload::Ota, &cfg);
    let loaded = assemble_ota(&proto).to_loaded();
    median_ns(|| time_ns(|| proto.admit_module(&loaded).expect("ota image is admitted"))) / 1e3
}

/// `ModuleImage::assemble` of the OTA image (SFI rewrite), in ms.
pub fn assemble_ms() -> f64 {
    let cfg = Workload::Ota.config(0);
    let proto = prototype(Workload::Ota, &cfg);
    median_ns(|| time_ns(|| drop(black_box(assemble_ota(&proto))))) / 1e6
}

fn assemble_ota(proto: &SosSystem) -> ModuleImage {
    ModuleImage::assemble(
        &modules::tree_routing(OTA_DOM),
        &proto.layout,
        Workload::Ota.config(0).protection,
    )
    .expect("ota image assembles")
}
