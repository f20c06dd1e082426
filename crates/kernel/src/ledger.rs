//! The per-job far-memory ledger of the fast models.
//!
//! The fleet simulator's stat tier and the offline trace replay (§5.3)
//! never touch pages: each control window they see a job's cold-age and
//! promotion histograms plus the controller's decision, and derive from
//! them where the job's far memory sits and what moving it cost. That
//! window recurrence lives here, once, so the fast model replays exactly
//! the accounting the fleet simulator runs:
//!
//! * the stored share: the zswap cutoff accepts only a per-mille share of
//!   the cold mass and of the promotions it would fault;
//! * the prefetch split ([`PrefetchPolicy::window_counts`]);
//! * the enabled-window store target, with device pages faulting back
//!   (SSD before remote) when the cold mass shrinks below them;
//! * the store lifecycle of a disabled job (writeback, or demotion when a
//!   chain is attached) and the chain's demotion trickle;
//! * the compress, reject, and decompress event counts the CPU ledger
//!   charges.
//!
//! Everything is exact integer arithmetic on per-job state, so a window
//! step is a pure function of its inputs and scheduling never reaches
//! the output.

use crate::backend::ChainPolicy;
use crate::prefetch::{PrefetchPolicy, PrefetchWindowCounts};
use crate::writeback::StorePressure;
use sdfm_types::arith::permille_of;
use sdfm_types::histogram::{ColdAgeHistogram, PageAge, PromotionHistogram};

/// One control window as the ledger sees it: the controller's decision
/// and the job's histograms for the window.
#[derive(Debug, Clone, Copy)]
pub struct FarWindow<'a> {
    /// Whether zswap ran this window (the job is past its S warmup).
    pub enabled: bool,
    /// The cold-age threshold in force.
    pub threshold: PageAge,
    /// The job's instantaneous cold-age histogram.
    pub cold_hist: &'a ColdAgeHistogram,
    /// The window's promotions, by the age the page had reached.
    pub promo_delta: &'a PromotionHistogram,
    /// Share of the job's pages the compression cutoff accepts, per
    /// mille. The rest is rejected: it neither occupies far memory nor
    /// faults.
    pub stored_permille: u32,
}

/// What one window step did to a job's far memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FarWindowEvents {
    /// Pages in far memory this window (store plus device tiers; zero
    /// while disabled).
    pub far_pages: u64,
    /// Demand promotions the job stalled on (prefetch-hidden faults
    /// excluded).
    pub promotions: u64,
    /// The prefetcher's issued/used/wasted/late split.
    pub prefetch: PrefetchWindowCounts,
    /// Pages compressed into the store: growth beyond what is still
    /// stored, plus every page that left the store and went cold again.
    pub compress_events: u64,
    /// Compression attempts the cutoff rejected for the first time.
    pub rejected_events: u64,
    /// Store departures, each one decompression: demand promotions,
    /// issued prefetches, writebacks, and demotions.
    pub decompress_events: u64,
    /// Pages a disabled job's store wrote back to DRAM.
    pub writeback_events: u64,
    /// Store pages demoted onto the SSD tier.
    pub ssd_demotions: u64,
    /// Store pages that overflowed the SSD quota onto the remote tier.
    pub remote_demotions: u64,
    /// Device pages faulted back from the SSD tier.
    pub ssd_faults: u64,
    /// Device pages faulted back from the remote tier.
    pub remote_faults: u64,
}

/// One job's far-memory state between windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobFarLedger {
    /// Pages in the zswap store. Tracks the far footprint (less device
    /// residency) while enabled; decays under the lifecycle policy while
    /// disabled, so a re-enable only pays for growth beyond it.
    store_pages: u64,
    /// Pages parked on the SSD tier (chain runs only).
    ssd_pages: u64,
    /// Pages parked on the remote tier (chain runs only).
    remote_pages: u64,
    /// High-water mark of cold pages already attempted and rejected: the
    /// kernel marks incompressible pages, so their wasted compression is
    /// charged once, not every window (§5.1).
    rejected_marked: u64,
}

impl JobFarLedger {
    /// Pages in the zswap store.
    pub fn store_pages(&self) -> u64 {
        self.store_pages
    }

    /// Pages parked on the SSD tier.
    pub fn ssd_pages(&self) -> u64 {
        self.ssd_pages
    }

    /// Pages parked on the remote tier.
    pub fn remote_pages(&self) -> u64 {
        self.remote_pages
    }

    /// Advances the job's far memory by one window.
    ///
    /// `pressure` is the store-lifecycle policy of a disabled job;
    /// `chain` adds the SSD and remote tiers below the store; `prefetch`
    /// promotes predicted pages ahead of demand. With `chain` and
    /// `prefetch` both `None` this is the two-tier zswap recurrence.
    pub fn step(
        &mut self,
        window: FarWindow<'_>,
        pressure: StorePressure,
        chain: Option<ChainPolicy>,
        prefetch: Option<PrefetchPolicy>,
    ) -> FarWindowEvents {
        let mut ev = FarWindowEvents::default();
        // Only the stored share of the cold mass lands in far memory and
        // can fault; the rest becomes rejection candidates.
        let stored_permille = window.stored_permille as u64;
        let (far, promos, reject_candidates) = if window.enabled {
            let cold_at_thr = window.cold_hist.pages_colder_than(window.threshold);
            let promos_at_thr = window.promo_delta.promotions_colder_than(window.threshold);
            let far = permille_of(cold_at_thr, stored_permille);
            (
                far,
                permille_of(promos_at_thr, stored_permille),
                cold_at_thr.saturating_sub(far),
            )
        } else {
            (0, 0, 0)
        };
        // Of the would-be promotions, `used` are hidden by prefetching
        // (`used ≤ promos` by construction); `late` still stall.
        let pf = match prefetch {
            Some(p) if window.enabled => p.window_counts(promos),
            _ => PrefetchWindowCounts::default(),
        };
        ev.far_pages = far;
        ev.promotions = promos - pf.used;
        ev.prefetch = pf;
        if window.enabled {
            // `far` is the job's whole far footprint: device residency
            // comes off the top and the store holds the rest, so demoted
            // pages are never recompressed.
            let device = self.ssd_pages + self.remote_pages;
            let store_target = if far >= device {
                far - device
            } else {
                // The cold mass shrank below the device residency: the
                // warmest device pages fault back, SSD before remote.
                let mut need = device - far;
                ev.ssd_faults = need.min(self.ssd_pages);
                self.ssd_pages -= ev.ssd_faults;
                need -= ev.ssd_faults;
                ev.remote_faults = need.min(self.remote_pages);
                self.remote_pages -= ev.remote_faults;
                0
            };
            // Every page that left the store goes cold again and
            // recompresses: demand promotions plus issued prefetches,
            // i.e. `promos + wasted`.
            ev.compress_events = store_target.saturating_sub(self.store_pages) + promos + pf.wasted;
            self.store_pages = store_target;
            ev.rejected_events = reject_candidates.saturating_sub(self.rejected_marked);
            self.rejected_marked = self.rejected_marked.max(reject_candidates);
        } else if chain.is_none() {
            // Bare zswap writes a dead store back to DRAM window by
            // window, so a long-disabled job's store reaches zero; with a
            // chain the trickle below demotes it instead (the kernel's
            // `store_lifecycle_tick` demote path).
            ev.writeback_events = pressure.decay_step(self.store_pages);
            self.store_pages -= ev.writeback_events;
        }
        // Demotion trickle: one decay step of the store's coldest pages
        // sinks to the SSD tier up to the per-job quota and overflows to
        // remote — under the chain's policy while enabled, under the
        // lifecycle pressure while disabled. Each demotion loads the page
        // out of the store (a decompression) and stores it on the device,
        // like the kernel's `demote_coldest`.
        if let Some(cp) = chain {
            let policy = if window.enabled { cp.demote } else { pressure };
            let step = policy.decay_step(self.store_pages);
            ev.ssd_demotions = step.min(cp.ssd_quota_pages.saturating_sub(self.ssd_pages));
            ev.remote_demotions = step - ev.ssd_demotions;
            self.store_pages -= step;
            self.ssd_pages += ev.ssd_demotions;
            self.remote_pages += ev.remote_demotions;
        }
        ev.decompress_events = ev.promotions
            + pf.issued
            + ev.writeback_events
            + ev.ssd_demotions
            + ev.remote_demotions;
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 90 cold pages at age 10 and 20 promotions at age 5.
    fn hists() -> (ColdAgeHistogram, PromotionHistogram) {
        let mut cold = ColdAgeHistogram::new();
        cold.record_page(PageAge::from_scans(10), 90);
        let mut promo = PromotionHistogram::new();
        promo.record_promotion(PageAge::from_scans(5), 20);
        (cold, promo)
    }

    fn window<'a>(
        enabled: bool,
        cold: &'a ColdAgeHistogram,
        promo: &'a PromotionHistogram,
        stored_permille: u32,
    ) -> FarWindow<'a> {
        FarWindow {
            enabled,
            threshold: PageAge::from_scans(1),
            cold_hist: cold,
            promo_delta: promo,
            stored_permille,
        }
    }

    #[test]
    fn stored_share_scales_far_pages_and_rejects_the_rest_once() {
        let (cold, promo) = hists();
        let mut ledger = JobFarLedger::default();
        let p = StorePressure::PAPER_DEFAULT;
        let ev = ledger.step(window(true, &cold, &promo, 700), p, None, None);
        assert_eq!(ev.far_pages, 63);
        assert_eq!(ev.promotions, 14);
        assert_eq!(ev.rejected_events, 27);
        assert_eq!(ev.compress_events, 63 + 14);
        assert_eq!(ledger.store_pages(), 63);
        // The rejected mass is marked: a steady window rejects nothing new.
        let ev = ledger.step(window(true, &cold, &promo, 700), p, None, None);
        assert_eq!(ev.rejected_events, 0);
        assert_eq!(
            ev.compress_events, 14,
            "only the promotion trickle recompresses"
        );
    }

    #[test]
    fn shrinking_cold_mass_faults_device_pages_back_ssd_first() {
        let (cold, promo) = hists();
        let p = StorePressure::PAPER_DEFAULT;
        // A 5-page SSD quota so the trickle overflows to remote.
        let cp = ChainPolicy {
            demote: StorePressure {
                decay_per_mille: 500,
                min_decay_pages: 1,
            },
            ..ChainPolicy::paper_default(5)
        };
        let mut ledger = JobFarLedger::default();
        for _ in 0..4 {
            ledger.step(window(true, &cold, &promo, 1000), p, Some(cp), None);
        }
        let (ssd, remote) = (ledger.ssd_pages(), ledger.remote_pages());
        assert_eq!(ssd, 5);
        assert!(remote > 0);
        // The cold mass collapses to 2 pages: all device pages but two
        // fault back, the SSD's first.
        let mut small = ColdAgeHistogram::new();
        small.record_page(PageAge::from_scans(10), 2);
        let ev = ledger.step(window(true, &small, &promo, 1000), p, Some(cp), None);
        assert_eq!(ev.ssd_faults, 5);
        assert_eq!(ev.remote_faults, remote - 2);
        assert_eq!(ledger.store_pages(), 0);
        assert_eq!(ledger.ssd_pages() + ledger.remote_pages(), 2);
    }
}
