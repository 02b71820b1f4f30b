//! [`FeedState`]: the per-asset snapshot cache readers are served from.
//!
//! The protocol pipeline must never wait on a reader. The publisher task
//! (the only writer) pushes each agreed `(epoch, asset)` value in here;
//! any number of HTTP handlers read concurrently:
//!
//! - the hot scalars — latest `(epoch, value)` per asset — live in a
//!   [`StatsCell`], the single-writer seqlock of plain atomics the
//!   service's live counters use too, so [`latest_value`]
//!   (`FeedState::latest_value`) never takes a lock and never blocks the
//!   writer;
//! - the full update (value plus its [`FeedAttestation`]) is shared as an
//!   `Arc` swap under a short mutex, so readers clone a pointer, not the
//!   certificate;
//! - a bounded per-asset history ring backs the `/v0/history` route.
//!
//! [`latest_value`]: FeedState::latest_value

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use delphi_dora::FeedAttestation;
use delphi_primitives::{EpochId, InstanceId, StatsCell};

/// One served value: the agreement for an `(epoch, asset)` slot plus the
/// quorum attestation a light client verifies offline.
#[derive(Clone, Debug, PartialEq)]
pub struct FeedUpdate {
    /// The epoch the value was agreed in.
    pub epoch: EpochId,
    /// The asset within the epoch's basket.
    pub asset: InstanceId,
    /// The agreed value (this node's output; ε-close to every honest
    /// peer's).
    pub value: f64,
    /// Slot-bound certificate over the rounded value, when the serving
    /// layer was configured with signing material.
    pub attestation: Option<FeedAttestation>,
}

delphi_primitives::counter_group! {
    /// One asset's latest agreement, as the seqlock holds it.
    struct Latest {
        /// The epoch, `EMPTY` before the first publish.
        epoch: u64,
        /// The value as IEEE-754 bits.
        bits: u64,
    }
}

/// Sentinel for "no epoch published yet" in [`Latest::epoch`].
const EMPTY: u64 = u64::MAX;

/// Per-asset slot: seqlocked hot scalars plus the Arc-swapped rich view.
#[derive(Debug)]
struct Slot {
    latest: StatsCell<Latest>,
    full: Mutex<SlotFull>,
}

#[derive(Debug, Default)]
struct SlotFull {
    latest: Option<Arc<FeedUpdate>>,
    history: VecDeque<Arc<FeedUpdate>>,
}

impl Slot {
    fn new() -> Slot {
        let latest = StatsCell::new(Latest { epoch: EMPTY, bits: 0 });
        Slot { latest, full: Mutex::new(SlotFull::default()) }
    }

    /// Every update under the lock leaves whole data (a push, a pop, an
    /// assignment), so a poisoned guard still holds a valid view.
    fn full(&self) -> MutexGuard<'_, SlotFull> {
        self.full.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The snapshot cache: one [`Slot`] per asset, single writer (the
/// publisher task), any number of lock-free or short-lock readers.
#[derive(Debug)]
pub struct FeedState {
    slots: Vec<Slot>,
    history_cap: usize,
    published: AtomicU64,
}

impl FeedState {
    /// A cache for an `assets`-sized basket keeping `history_cap` past
    /// updates per asset (at least 1 — the latest value is always
    /// retained).
    pub fn new(assets: u16, history_cap: usize) -> FeedState {
        FeedState {
            slots: (0..assets).map(|_| Slot::new()).collect(),
            history_cap: history_cap.max(1),
            published: AtomicU64::new(0),
        }
    }

    /// Basket size this cache serves.
    pub fn assets(&self) -> u16 {
        self.slots.len() as u16
    }

    /// Total updates published since start (the `/v0/health` liveness
    /// number).
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    /// Publishes one update, returning the shared handle fan-out layers
    /// (the subscriber hub) can reuse without another allocation.
    ///
    /// Single-writer: only the publisher task may call this.
    ///
    /// # Panics
    ///
    /// Panics if `update.asset` is outside the basket.
    pub fn publish(&self, update: FeedUpdate) -> Arc<FeedUpdate> {
        let slot = &self.slots[update.asset.index()];
        let update = Arc::new(update);
        {
            let mut full = slot.full();
            if full.history.len() == self.history_cap {
                full.history.pop_front();
            }
            full.history.push_back(update.clone());
            full.latest = Some(update.clone());
        }
        let epoch = u64::from(update.epoch.0);
        slot.latest.publish(&Latest { epoch, bits: update.value.to_bits() });
        self.published.fetch_add(1, Ordering::SeqCst);
        update
    }

    /// The latest `(epoch, value)` for `asset` without taking any lock —
    /// the hot-path read. `None` for an unknown asset or before the first
    /// publish.
    pub fn latest_value(&self, asset: InstanceId) -> Option<(EpochId, f64)> {
        match self.slots.get(asset.index())?.latest.snapshot() {
            Latest { epoch: EMPTY, .. } => None,
            Latest { epoch, bits } => Some((EpochId(epoch as u32), f64::from_bits(bits))),
        }
    }

    /// The latest full update (attestation included) for `asset`.
    pub fn latest(&self, asset: InstanceId) -> Option<Arc<FeedUpdate>> {
        self.slots.get(asset.index())?.full().latest.clone()
    }

    /// Up to `limit` most recent updates for `asset`, newest first.
    pub fn history(&self, asset: InstanceId, limit: usize) -> Vec<Arc<FeedUpdate>> {
        let Some(slot) = self.slots.get(asset.index()) else { return Vec::new() };
        slot.full().history.iter().rev().take(limit).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(epoch: u32, asset: u16, value: f64) -> FeedUpdate {
        FeedUpdate { epoch: EpochId(epoch), asset: InstanceId(asset), value, attestation: None }
    }

    #[test]
    fn latest_and_history_reflect_publishes_newest_first() {
        let feed = FeedState::new(2, 3);
        assert_eq!(feed.latest_value(InstanceId(0)), None);
        assert_eq!(feed.latest(InstanceId(0)), None);
        for e in 0..5u32 {
            feed.publish(update(e, 0, 100.0 + f64::from(e)));
        }
        feed.publish(update(0, 1, 7.0));
        assert_eq!(feed.latest_value(InstanceId(0)), Some((EpochId(4), 104.0)));
        assert_eq!(feed.latest(InstanceId(0)).unwrap().value, 104.0);
        // Ring bounded at 3, newest first, limit respected.
        let hist: Vec<u32> = feed.history(InstanceId(0), 10).iter().map(|u| u.epoch.0).collect();
        assert_eq!(hist, vec![4, 3, 2]);
        assert_eq!(feed.history(InstanceId(0), 1).len(), 1);
        assert_eq!(feed.latest_value(InstanceId(1)), Some((EpochId(0), 7.0)));
        // Out-of-basket reads are None/empty, not panics.
        assert_eq!(feed.latest_value(InstanceId(9)), None);
        assert!(feed.history(InstanceId(9), 4).is_empty());
        assert_eq!(feed.published(), 6);
    }

    #[test]
    fn lock_free_reads_never_observe_torn_updates() {
        // The writer publishes (epoch, value) pairs with value = f(epoch);
        // a torn read would pair an epoch with another epoch's value.
        let feed = Arc::new(FeedState::new(1, 1));
        let writer = {
            let feed = feed.clone();
            std::thread::spawn(move || {
                for e in 0..20_000u32 {
                    feed.publish(update(e, 0, f64::from(e) * 3.0 + 1.0));
                }
            })
        };
        let mut last = 0u32;
        while last < 19_999 {
            if let Some((epoch, value)) = feed.latest_value(InstanceId(0)) {
                assert_eq!(value, f64::from(epoch.0) * 3.0 + 1.0, "torn read at {epoch}");
                assert!(epoch.0 >= last, "latest went backwards");
                last = epoch.0;
            }
        }
        writer.join().unwrap();
    }
}
