//! One shard of the router: its routing bounds and counters ([`Shard`]),
//! and the cell that builds its manager eagerly or hydrates it on first
//! touch, quarantining a shard whose hydration fails ([`ShardCell`]).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use deltagraph::{DgError, DgResult};
use kvstore::KeyValueStore;
use tgraph::Timestamp;

use super::{build_shard, Inner};
use crate::durable::{SealedShard, ShardPlan};
use crate::manager::{seeded_start, GraphManager};
use crate::shared::SharedGraphManager;

/// One time-range shard: a complete manager plus its routing bounds.
pub(super) struct Shard {
    pub(super) cell: ShardCell,
    /// Inclusive lower bound of the owned range; `None` for the first shard
    /// (unbounded below).
    pub(super) lower: Option<Timestamp>,
    /// Real (non-seed) events this shard holds, counted against the roll
    /// budget.
    pub(super) events: AtomicUsize,
    /// Queries routed to this shard (skew accounting; see
    /// [`ShardInfo::queries`](super::ShardInfo::queries)).
    pub(super) queries: AtomicU64,
    /// Events appended to this shard through the router.
    pub(super) appends: AtomicU64,
}

impl Shard {
    pub(super) fn new(cell: ShardCell, lower: Option<Timestamp>, events: usize) -> Shard {
        Shard {
            cell,
            lower,
            events: AtomicUsize::new(events),
            queries: AtomicU64::new(0),
            appends: AtomicU64::new(0),
        }
    }

    /// The shard's serving manager, hydrating a lazily recovered shard on
    /// first touch (see [`ShardCell::get`]).
    pub(super) fn shared(&self, inner: &Inner) -> DgResult<SharedGraphManager> {
        self.cell.get(inner, &self.events)
    }
}

/// A shard's serving manager: built eagerly on every fresh-build path, or
/// deferred to first touch on the recovery path
/// ([`ShardedGraphManager::open`](super::ShardedGraphManager::open)) so
/// restart-to-first-query pays for the one shard the query lands on, not
/// for the whole history. Every shard,
/// the tail included, stays cold until a query or append touches it. A
/// sealed shard's first touch assembles a read-only index over its opened
/// segment — skeleton from the file, payloads fetched on demand, nothing
/// rebuilt; the tail's first touch rebuilds its index from its seed and
/// WAL events.
pub(super) struct ShardCell {
    built: OnceLock<SharedGraphManager>,
    /// `Some` while hydration is pending; taken by the first toucher and
    /// restored if its build fails, so a later touch can retry. The mutex
    /// serializes hydrators — concurrent touchers of one cold shard block
    /// here and then read the winner's manager.
    pending: Mutex<Option<PendingShard>>,
    /// Set when the last hydration attempt failed; cleared by a successful
    /// one. While set, touches within the retry window fast-fail with
    /// [`DgError::ShardQuarantined`] instead of re-running the build, so a
    /// shard with a broken plan cannot stall every query that routes to it.
    pub(super) quarantined: AtomicBool,
    /// Hydration attempts that have failed, ever (monotonic — survives a
    /// later successful build, so health counters never run backwards).
    pub(super) failures: AtomicU64,
    /// Process-clock milliseconds before which a quarantined shard is not
    /// re-hydrated.
    retry_at: AtomicU64,
    /// The error that caused the last failed hydration attempt.
    last_error: Mutex<String>,
    /// Microseconds the successful hydration took; `0` while cold and for
    /// a shard that was built eagerly.
    pub(super) hydrate_us: AtomicU64,
}

/// Milliseconds on a process-local monotonic clock (first call = 0).
fn clock_ms() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Deferred construction input of a lazily recovered shard.
struct PendingShard {
    index: usize,
    source: PendingSource,
}

/// What a cold shard hydrates from.
pub(super) enum PendingSource {
    /// A sealed shard's opened segment and decoded image.
    Sealed(SealedShard),
    /// The tail's seed and WAL events, rebuilt on first touch; it carries
    /// the crash-healing retry (see [`hydrate_tail`]).
    Tail(ShardPlan),
}

impl ShardCell {
    pub(super) fn eager(shared: SharedGraphManager) -> Self {
        ShardCell {
            built: OnceLock::from(shared),
            pending: Mutex::new(None),
            quarantined: AtomicBool::new(false),
            failures: AtomicU64::new(0),
            retry_at: AtomicU64::new(0),
            last_error: Mutex::new(String::new()),
            hydrate_us: AtomicU64::new(0),
        }
    }

    pub(super) fn lazy(index: usize, source: PendingSource) -> Self {
        ShardCell {
            built: OnceLock::new(),
            pending: Mutex::new(Some(PendingShard { index, source })),
            quarantined: AtomicBool::new(false),
            failures: AtomicU64::new(0),
            retry_at: AtomicU64::new(0),
            last_error: Mutex::new(String::new()),
            hydrate_us: AtomicU64::new(0),
        }
    }

    /// The built manager, without hydrating: `None` means the shard is
    /// still cold. Stats and cache probes use this so a metrics scrape or
    /// a speculative cache peek never forces an index build.
    pub(super) fn peek(&self) -> Option<&SharedGraphManager> {
        self.built.get()
    }

    /// The built manager, hydrating on first touch. Lock order here is
    /// `pending` → `storage` → `keys` (callers already hold the router's
    /// shard read lock);
    /// [`register_key`](super::ShardedGraphManager::register_key) takes
    /// `keys` without `pending`, and the manager is published *inside* the
    /// `keys` critical section, so a key registered concurrently with hydration
    /// lands either via the registry replay or via the direct registration
    /// — never neither.
    fn get(&self, inner: &Inner, events: &AtomicUsize) -> DgResult<SharedGraphManager> {
        if let Some(shared) = self.built.get() {
            return Ok(shared.clone());
        }
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(shared) = self.built.get() {
            return Ok(shared.clone());
        }
        let shard_index = pending.as_ref().map(|p| p.index).unwrap_or(0);
        // Quarantine fast path: the last hydration attempt failed and the
        // retry window has not elapsed yet — fail without touching storage
        // so a broken shard costs its callers an error, not a rebuild.
        if self.quarantined.load(Ordering::Relaxed)
            && clock_ms() < self.retry_at.load(Ordering::Relaxed)
        {
            return Err(DgError::ShardQuarantined {
                shard: shard_index,
                failures: self.failures.load(Ordering::Relaxed),
                reason: self
                    .last_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            });
        }
        let mut p = pending
            .take()
            .expect("an unbuilt shard holds a pending source");
        let started = Instant::now();
        let built = match &mut p.source {
            PendingSource::Sealed(sealed) => Ok(GraphManager::open_sealed(
                sealed.image.clone(),
                Arc::clone(&sealed.segment) as Arc<dyn KeyValueStore>,
                inner.config.manager.clone(),
            )),
            PendingSource::Tail(plan) => hydrate_tail(plan, p.index, inner, events),
        }
        .map(SharedGraphManager::new);
        match built {
            Ok(shared) => {
                self.quarantined.store(false, Ordering::Relaxed);
                let keys = inner.keys.lock().unwrap_or_else(PoisonError::into_inner);
                {
                    let mut gm = shared.write();
                    for (key, node) in keys.iter() {
                        gm.register_key(key.clone(), *node);
                    }
                }
                let _ = self.built.set(shared.clone());
                drop(keys);
                self.hydrate_us.store(
                    (started.elapsed().as_micros() as u64).max(1),
                    Ordering::Relaxed,
                );
                Ok(shared)
            }
            Err(e) => {
                // Quarantine the shard: restore the plan for a later retry,
                // remember why it failed, and fast-fail further touches
                // until the retry window elapses. Other shards are
                // untouched and keep serving.
                let failures = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
                let reason = e.to_string();
                *self
                    .last_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = reason.clone();
                self.retry_at.store(
                    clock_ms().saturating_add(inner.config.quarantine_retry_ms),
                    Ordering::Relaxed,
                );
                self.quarantined.store(true, Ordering::Relaxed);
                *pending = Some(p);
                Err(DgError::ShardQuarantined {
                    shard: shard_index,
                    failures,
                    reason,
                })
            }
        }
    }

    /// Earliest event time this shard holds, without hydrating.
    pub(super) fn start_time(&self) -> Option<Timestamp> {
        if let Some(shared) = self.built.get() {
            return shared.read().index().history_range().ok().map(|(s, _)| s);
        }
        let pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        match pending.as_ref().map(|p| &p.source) {
            // Where the hydrated index anchors leaf 0, so the cold estimate
            // and the hydrated value are the same.
            Some(PendingSource::Sealed(sealed)) => sealed.image.skeleton.history_start().ok(),
            Some(PendingSource::Tail(plan)) => seeded_start(&plan.seed, &plan.events),
            // Hydrated between the peek and the lock.
            None => self
                .built
                .get()
                .and_then(|s| s.read().index().history_range().ok())
                .map(|(s, _)| s),
        }
    }

    /// Latest event time this shard holds, without hydrating.
    pub(super) fn end_time(&self) -> Option<Timestamp> {
        if let Some(shared) = self.built.get() {
            return shared.read().index().history_range().ok().map(|(_, e)| e);
        }
        let pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        match pending.as_ref().map(|p| &p.source) {
            Some(PendingSource::Sealed(sealed)) => sealed.image.skeleton.history_end().ok(),
            Some(PendingSource::Tail(plan)) => {
                plan.events.last().or(plan.seed.last()).map(|e| e.time)
            }
            // Hydrated between the peek and the lock.
            None => self
                .built
                .get()
                .and_then(|s| s.read().index().history_range().ok())
                .map(|(_, e)| e),
        }
    }
}

/// Rebuilds the recovered tail from its seed and WAL events. A crash
/// between the WAL write-ahead and the rollback of a rejected apply leaves
/// exactly one never-applied record at the very end of the log: when the
/// build fails, drop that record and rebuild once; any deeper failure is
/// real corruption.
fn hydrate_tail(
    plan: &mut ShardPlan,
    index: usize,
    inner: &Inner,
    events: &AtomicUsize,
) -> DgResult<GraphManager> {
    let first_err = match build_shard(plan, index, &inner.config, &inner.make_store) {
        Ok(gm) => return Ok(gm),
        Err(e) => e,
    };
    match (plan.events.pop(), inner.storage.as_ref()) {
        (Some(last), Some(storage)) => storage
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drop_last_wal_record(kvstore::wal_record_len(&last))
            .and_then(|()| {
                // The record is gone from the log and the plan, whatever the
                // rebuild does — keep the counter in step with both.
                events.fetch_sub(1, Ordering::Relaxed);
                build_shard(plan, index, &inner.config, &inner.make_store)
            }),
        _ => Err(first_err),
    }
}
