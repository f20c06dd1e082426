//! Golden hashes of the fleet simulator's serialized window stats.
//!
//! Each configuration runs twelve windows at threads 1 and 4, serializes
//! the `FleetWindowStats` to JSON, and FNV-1a-hashes the bytes. The
//! constants pin the exact trajectory: a refactor of the per-window
//! far-memory accounting must leave every byte unchanged, and a change
//! that moves one of these hashes has to name the behaviour it fixes.
//!
//! Recorded after the stat-tier rounding change: `StatJobModel::observe`
//! sums each age's expected pages and promotions over the rate buckets
//! and stochastically rounds once per age, instead of once per (bucket,
//! age). The expectations are unchanged; the rounding draws, and so the
//! bytes, moved.

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
    assert_golden("two-tier default", |_| {}, 0xe4e6_30dd_17c0_4553);
}

#[test]
fn chain_matches_golden() {
    assert_golden("chain", chain, 0x2905_4fe1_9890_7acf);
}

#[test]
fn prefetch_matches_golden() {
    assert_golden("prefetch", prefetch, 0x9468_8c57_f43d_9f16);
}

#[test]
fn chain_and_prefetch_match_golden() {
    assert_golden(
        "chain + prefetch",
        |cfg| {
            chain(cfg);
            prefetch(cfg);
        },
        0xbead_9fc7_13fe_c3ef,
    );
}

#[test]
fn fidelity_cutoff_matches_golden() {
    assert_golden(
        "fidelity cutoff 2",
        |cfg| cfg.fidelity_cutoff = 2,
        0xc3a6_8100_1409_256d,
    );
}
