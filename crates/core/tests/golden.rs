//! Golden hashes of the fleet simulator's serialized window stats.
//!
//! Each configuration runs twelve windows at threads 1 and 4, serializes
//! the `FleetWindowStats` to JSON, and FNV-1a-hashes the bytes. The
//! constants pin the exact trajectory: a refactor of the per-window
//! far-memory accounting must leave every byte unchanged, and a change
//! that moves one of these hashes has to name the behaviour it fixes.

use sdfm_core::fleet_sim::{FleetSim, FleetSimConfig};
use sdfm_kernel::{ChainPolicy, PrefetchMode, PrefetchPolicy};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run_hash(configure: fn(&mut FleetSimConfig), threads: usize) -> u64 {
    let mut cfg = FleetSimConfig::new(2);
    cfg.noise_sigma = 0.1;
    cfg.threads = threads;
    configure(&mut cfg);
    let mut sim = FleetSim::new(cfg, 61);
    let windows = sim.run_windows(12).expect("fleet windows step");
    fnv1a(
        serde_json::to_string(&windows)
            .expect("fleet stats serialize")
            .as_bytes(),
    )
}

fn assert_golden(name: &str, configure: fn(&mut FleetSimConfig), golden: u64) {
    for threads in [1, 4] {
        let got = run_hash(configure, threads);
        assert_eq!(
            got, golden,
            "{name} at threads {threads}: hash {got:#018x}, expected {golden:#018x}"
        );
    }
}

fn chain(cfg: &mut FleetSimConfig) {
    cfg.chain = Some(ChainPolicy::paper_default(64));
}

fn prefetch(cfg: &mut FleetSimConfig) {
    cfg.prefetch = Some(PrefetchPolicy::paper_default(PrefetchMode::StrideMarkov));
}

#[test]
fn two_tier_default_matches_golden() {
    assert_golden("two-tier default", |_| {}, 0x3eec_4c11_1dcb_f1c6);
}

#[test]
fn chain_matches_golden() {
    assert_golden("chain", chain, 0x2c0a_70fc_9aca_5526);
}

#[test]
fn prefetch_matches_golden() {
    assert_golden("prefetch", prefetch, 0x9314_a5c9_8a52_715c);
}

#[test]
fn chain_and_prefetch_match_golden() {
    assert_golden(
        "chain + prefetch",
        |cfg| {
            chain(cfg);
            prefetch(cfg);
        },
        0xcda8_3d03_5903_ffc3,
    );
}

#[test]
fn fidelity_cutoff_matches_golden() {
    assert_golden(
        "fidelity cutoff 2",
        |cfg| cfg.fidelity_cutoff = 2,
        0x88dc_e1d9_3846_b84c,
    );
}
