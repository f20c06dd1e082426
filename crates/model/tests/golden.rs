//! Golden hashes of replayed job outcomes.
//!
//! A steady trace (fully compressible, with a three-window dip in its
//! cold mass so device pages fault back) replays under every
//! combination of the demotion chain and the prefetcher. Every field of
//! every `WindowOutcome` is FNV-1a-hashed; the constants pin the exact
//! outcome, so a refactor of the replay recurrence must leave them
//! unchanged.

use sdfm_agent::{AgentParams, TraceRecord};
use sdfm_kernel::{ChainPolicy, PrefetchMode, PrefetchPolicy};
use sdfm_model::{replay_job, JobReplayOutcome, JobTrace, ModelConfig};
use sdfm_types::histogram::{ColdAgeHistogram, PageAge, PromotionHistogram};
use sdfm_types::ids::JobId;
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime};

/// 64-bit FNV-1a, fed one `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash(out: &JobReplayOutcome) -> u64 {
    let mut h = Fnv::new();
    for w in &out.windows {
        for v in [
            w.at.as_secs(),
            w.enabled as u64,
            w.threshold.as_scans() as u64,
            w.cold_pages,
            w.potential_cold_pages,
            w.promotions,
            w.working_set,
            w.normalized_rate.fraction_per_min().to_bits(),
            w.store_pages,
            w.store_frames,
            w.ssd_pages,
            w.remote_pages,
            w.prefetch_issued,
            w.prefetch_used,
            w.prefetch_wasted,
            w.prefetch_late,
        ] {
            h.add(v);
        }
    }
    h.0
}

/// 24 five-minute windows: 6k hot pages, 1k pages at age 3 and a deep
/// cold mass at age 10 (3k pages, 1k during windows 14-16), with 10
/// promotions per window at age 5.
fn steady_trace() -> JobTrace {
    let records = (1..=24u64)
        .map(|i| {
            let deep = if (14..=16).contains(&i) { 1_000 } else { 3_000 };
            let mut cold = ColdAgeHistogram::new();
            cold.record_page(PageAge::from_scans(0), 6_000);
            cold.record_page(PageAge::from_scans(3), 1_000);
            cold.record_page(PageAge::from_scans(10), deep);
            let mut promo = PromotionHistogram::new();
            promo.record_promotion(PageAge::from_scans(5), 10);
            TraceRecord {
                job: JobId::new(1),
                at: SimTime::from_secs(i * 300),
                window: SimDuration::from_secs(300),
                working_set: PageCount::new(6_000),
                cold_hist: cold,
                promo_delta: promo,
                incompressible_fraction: 0.0,
            }
        })
        .collect();
    JobTrace::new(JobId::new(1), records)
}

fn replay_hash(chain: Option<ChainPolicy>, prefetch: Option<PrefetchPolicy>) -> u64 {
    let params = AgentParams::new(98.0, SimDuration::from_secs(900)).expect("valid params");
    let config = ModelConfig {
        chain,
        prefetch,
        ..ModelConfig::new(params)
    };
    hash(&replay_job(&steady_trace(), &config))
}

fn chain() -> Option<ChainPolicy> {
    Some(ChainPolicy::paper_default(500))
}

fn prefetch() -> Option<PrefetchPolicy> {
    Some(PrefetchPolicy::paper_default(PrefetchMode::StrideMarkov))
}

#[test]
fn plain_replay_matches_golden() {
    assert_eq!(replay_hash(None, None), 0x9b2e_4e2a_20bc_dcb3);
}

#[test]
fn chain_replay_matches_golden() {
    assert_eq!(replay_hash(chain(), None), 0xd7a8_5e03_2cb2_5f2c);
}

#[test]
fn prefetch_replay_matches_golden() {
    assert_eq!(replay_hash(None, prefetch()), 0xdd74_b448_12bb_644b);
}

#[test]
fn chain_and_prefetch_replay_matches_golden() {
    assert_eq!(replay_hash(chain(), prefetch()), 0x57b4_5896_1c6e_d9c4);
}
