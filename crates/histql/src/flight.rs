//! Single-flight coalescing for point-query renders.
//!
//! When N concurrent sessions ask for the same `(t, AttrOptions, WireFormat)`
//! while nothing is cached yet, the naive outcome is N identical snapshot
//! computations and N identical renders. A [`FlightTable`] shared by every
//! session collapses that: the first request becomes the **leader** and
//! renders once; the rest become **followers** that block on the flight and
//! receive the leader's framed bytes.
//!
//! Staleness is guarded exactly like the point cache's byte slots: the leader
//! records which shard produced the snapshot and that shard's append epoch
//! at computation time. A follower only accepts the shared bytes if the
//! shard owning `t` is still the *same* manager (the tail may have rolled)
//! and its epoch is unchanged — otherwise it falls back to a fresh render,
//! so a coalesced render that raced an `APPEND` is never shared stale.
//!
//! Flights are removed from the table as soon as the leader publishes (or
//! fails), so sequential requests never coalesce and never observe stale
//! flights; only genuinely concurrent requests share a render.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use historygraph::{SharedGraphManager, WireFormat};
use tgraph::{AttrOptions, Timestamp};

/// Flight identity: the point cache's key plus the wire format of the
/// byte slot the leader's render fills. A rendezvous for concurrent renders,
/// not a cache: a flight lives only while its leader renders.
pub type FlightKey = (Timestamp, AttrOptions, WireFormat);

/// How long a follower waits for its leader before giving up and rendering
/// itself. Renders are sub-second; this bound only matters if the leader's
/// thread is wedged.
const FOLLOWER_WAIT: Duration = Duration::from_secs(30);

/// What a completed flight hands its followers.
#[derive(Clone)]
pub struct FlightResult {
    /// The complete framed reply (text lines + `END`, or one binary frame).
    pub bytes: Arc<[u8]>,
    /// The shard whose snapshot produced the bytes.
    pub shard: SharedGraphManager,
    /// That shard's append epoch at computation time.
    pub epoch: u64,
}

enum FlightState {
    Pending,
    Done(FlightResult),
    /// The leader's render errored (or its guard was dropped mid-flight);
    /// followers render for themselves.
    Failed,
}

/// One in-progress render that followers can block on.
pub struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the leader publishes or fails (bounded by
    /// `FOLLOWER_WAIT`). `None` means render-it-yourself.
    pub fn wait(&self) -> Option<FlightResult> {
        let deadline = Instant::now() + FOLLOWER_WAIT;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*state {
                FlightState::Done(result) => return Some(result.clone()),
                FlightState::Failed => return None,
                FlightState::Pending => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    state = self
                        .cv
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }
}

/// Counters describing the table's behavior, for `STATS SERVER`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Renders that led a flight (one per coalescible miss).
    pub leaders: u64,
    /// Follower requests served the leader's bytes.
    pub coalesced: u64,
    /// Follower requests that re-rendered because the shared result was
    /// stale (append or tail roll raced the flight) or the leader failed.
    pub stale_rerenders: u64,
}

/// The shared single-flight table, one per server.
#[derive(Default)]
pub struct FlightTable {
    flights: Mutex<HashMap<FlightKey, Arc<Flight>>>,
    leaders: AtomicU64,
    coalesced: AtomicU64,
    stale_rerenders: AtomicU64,
}

/// Outcome of joining the table for a key.
pub enum Joined {
    /// This request renders; it must publish or fail the guard.
    Leader(LeaderGuard),
    /// Another request is already rendering this key; wait on the flight.
    Follower(Arc<Flight>),
}

impl FlightTable {
    /// Creates an empty table.
    pub fn new() -> FlightTable {
        FlightTable::default()
    }

    /// Joins the flight for `key`, creating it (as leader) if absent.
    pub fn join(self: &Arc<Self>, key: FlightKey) -> Joined {
        let mut map = self.flights.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(flight) = map.get(&key) {
            return Joined::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        map.insert(key.clone(), Arc::clone(&flight));
        self.leaders.fetch_add(1, Ordering::Relaxed);
        Joined::Leader(LeaderGuard {
            table: Arc::clone(self),
            key,
            flight,
        })
    }

    /// Records a follower served with shared bytes.
    pub fn note_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a follower that had to re-render.
    pub fn note_stale(&self) {
        self.stale_rerenders.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of the behavior counters.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            leaders: self.leaders.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            stale_rerenders: self.stale_rerenders.load(Ordering::Relaxed),
        }
    }

    /// Flights currently pending (for tests and diagnostics).
    pub fn in_flight(&self) -> usize {
        self.flights
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// Leader handle for one flight. Publish the result (or an explicit
/// failure); merely dropping the guard fails the flight, so followers are
/// always released even if the leader's render panics.
pub struct LeaderGuard {
    table: Arc<FlightTable>,
    key: FlightKey,
    flight: Arc<Flight>,
}

impl LeaderGuard {
    /// Broadcasts the render to all waiting followers.
    pub fn publish(self, result: FlightResult) {
        self.finish(FlightState::Done(result));
    }

    /// Releases followers without a result (the render errored).
    pub fn fail(self) {
        self.finish(FlightState::Failed);
    }

    /// Number of follower handles currently joined to this flight (the
    /// table's and this guard's own references excluded). Tests use this
    /// to publish only after every expected waiter has joined.
    pub fn waiters(&self) -> usize {
        Arc::strong_count(&self.flight).saturating_sub(2)
    }

    fn finish(self, state: FlightState) {
        {
            let mut slot = self
                .flight
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *slot = state;
        }
        self.flight.cv.notify_all();
        // Dropping `self` removes the key (and finds the state no longer
        // Pending, so it does not overwrite it with Failed).
    }
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        {
            let mut slot = self
                .flight
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if matches!(*slot, FlightState::Pending) {
                *slot = FlightState::Failed;
                self.flight.cv.notify_all();
            }
        }
        self.table
            .flights
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use historygraph::{GraphManager, GraphManagerConfig};
    use std::thread;

    fn shard() -> SharedGraphManager {
        let gm = GraphManager::build_in_memory(
            &datagen::toy_trace().events,
            GraphManagerConfig::default(),
        )
        .unwrap();
        SharedGraphManager::new(gm)
    }

    fn key(t: i64) -> FlightKey {
        (
            Timestamp(t),
            AttrOptions::parse("").unwrap(),
            WireFormat::Text,
        )
    }

    #[test]
    fn leader_broadcasts_to_followers() {
        let table = Arc::new(FlightTable::new());
        let Joined::Leader(guard) = table.join(key(6)) else {
            panic!("first join must lead");
        };
        let Joined::Follower(flight) = table.join(key(6)) else {
            panic!("second join must follow");
        };
        let shard = shard();
        let epoch = shard.read().append_epoch();
        let waiter = thread::spawn(move || flight.wait());
        guard.publish(FlightResult {
            bytes: Arc::from(&b"OK PONG\nEND\n"[..]),
            shard,
            epoch,
        });
        let result = waiter.join().unwrap().expect("published result");
        assert_eq!(result.bytes.as_ref(), b"OK PONG\nEND\n");
        assert_eq!(result.epoch, epoch);
        assert_eq!(table.in_flight(), 0, "flight removed after publish");
        // The next join for the same key starts a fresh flight.
        assert!(matches!(table.join(key(6)), Joined::Leader(_)));
        assert_eq!(table.stats().leaders, 2);
    }

    #[test]
    fn dropped_leader_fails_followers_instead_of_hanging() {
        let table = Arc::new(FlightTable::new());
        let Joined::Leader(guard) = table.join(key(1)) else {
            panic!("first join must lead");
        };
        let Joined::Follower(flight) = table.join(key(1)) else {
            panic!("second join must follow");
        };
        drop(guard);
        assert!(flight.wait().is_none(), "followers released on failure");
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let table = Arc::new(FlightTable::new());
        let a = table.join(key(1));
        let b = table.join(key(2));
        assert!(matches!(a, Joined::Leader(_)));
        assert!(matches!(b, Joined::Leader(_)));
        assert_eq!(table.in_flight(), 2);
    }
}
