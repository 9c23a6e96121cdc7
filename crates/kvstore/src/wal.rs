//! Append-only write-ahead log of graph events.
//!
//! The tail shard of a sharded deployment is the only mutable piece of the
//! history; this log makes its ingest durable. Every append writes one
//! [`RecordLog`] record holding a `tgraph::codec`-encoded [`Event`]
//! *before* the event is applied in memory, so an acknowledged append
//! survives a crash (under [`WalSyncPolicy::Always`]; the other policies
//! trade the tail of the log for throughput).
//!
//! Replay ([`Wal::open`]) is the record log's scan: a *torn tail* (an
//! incomplete or checksum-failing final record from a crash mid-write) is
//! truncated away, and a bad record that is *not* the last one is
//! corruption and fails the open — recovery never builds a silently wrong
//! graph.

use std::path::Path;
use std::time::{Duration, Instant};

use tgraph::codec::{Decode, Encode};
use tgraph::Event;

use crate::faults;
use crate::log::{record_len, RecordLog};
use crate::store::StoreResult;

/// When the log forces its bytes to durable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalSyncPolicy {
    /// `fsync` after every append: an acknowledged append is durable.
    Always,
    /// `fsync` at most once per interval: a crash can lose the last
    /// interval's worth of acknowledged appends, never more.
    Interval(Duration),
    /// Never `fsync` explicitly: durability is whenever the OS writes back.
    Off,
}

impl WalSyncPolicy {
    /// Parses the `--wal-sync` flag grammar: `always`, `off`, `interval`
    /// (100 ms default), or `interval=<millis>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "always" => Ok(WalSyncPolicy::Always),
            "off" | "none" => Ok(WalSyncPolicy::Off),
            "interval" => Ok(WalSyncPolicy::Interval(Duration::from_millis(100))),
            _ => match lower.strip_prefix("interval=") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| WalSyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("bad interval millis in wal-sync policy {s:?}")),
                None => Err(format!(
                    "unknown wal-sync policy {s:?} (expected always, interval[=ms], or off)"
                )),
            },
        }
    }
}

impl std::fmt::Display for WalSyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalSyncPolicy::Always => f.write_str("always"),
            WalSyncPolicy::Interval(d) => write!(f, "interval={}", d.as_millis()),
            WalSyncPolicy::Off => f.write_str("off"),
        }
    }
}

/// What [`Wal::open`] recovered from an existing log file.
pub struct WalReplay {
    /// The reopened log, positioned to append after the last good record.
    pub wal: Wal,
    /// Every complete, checksum-valid event in log order.
    pub events: Vec<Event>,
    /// Bytes of torn final record truncated away (0 = the log was clean).
    pub torn_bytes: u64,
}

/// An append-only, CRC-checked log of [`Event`]s.
pub struct Wal {
    log: RecordLog,
    policy: WalSyncPolicy,
    last_sync: Instant,
    dirty: bool,
    appends: u64,
    fsyncs: u64,
}

/// On-disk size in bytes of the record [`Wal::append`] writes for `event`.
/// Exposed so tests can compute which acked events survive a log truncated
/// at an arbitrary byte offset.
pub fn wal_record_len(event: &Event) -> u64 {
    record_len(event.to_bytes().len())
}

impl Wal {
    fn new(log: RecordLog, policy: WalSyncPolicy) -> Self {
        Wal {
            log,
            policy,
            last_sync: Instant::now(),
            dirty: false,
            appends: 0,
            fsyncs: 0,
        }
    }

    /// Creates a new, empty log at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>, policy: WalSyncPolicy) -> StoreResult<Self> {
        faults::check("wal.create", path.as_ref())?;
        Ok(Wal::new(RecordLog::create(path)?, policy))
    }

    /// Opens an existing log, replaying every intact record. A torn final
    /// record (incomplete, or complete-length with a failing checksum) is
    /// truncated away and reported in [`WalReplay::torn_bytes`]; a bad
    /// record followed by more log is a [`crate::StoreError::Corruption`].
    pub fn open(path: impl AsRef<Path>, policy: WalSyncPolicy) -> StoreResult<WalReplay> {
        let mut events = Vec::new();
        let (log, torn_bytes) = RecordLog::open(path, |payload| {
            events.push(Event::from_bytes(payload).map_err(|e| e.to_string())?);
            Ok(())
        })?;
        Ok(WalReplay {
            wal: Wal::new(log, policy),
            events,
            torn_bytes,
        })
    }

    /// Appends one event record and applies the sync policy. Returns the log
    /// length *before* the record, which [`Wal::truncate_to`] accepts to
    /// roll the write back if the in-memory apply then fails.
    pub fn append(&mut self, event: &Event) -> StoreResult<u64> {
        let before = self.log.append(&event.to_bytes(), "wal.append")?;
        self.appends += 1;
        self.dirty = true;
        self.maybe_sync()?;
        Ok(before)
    }

    /// Cuts the log back to `offset` (an offset previously returned by
    /// [`Wal::append`]): the rollback half of write-ahead logging.
    pub fn truncate_to(&mut self, offset: u64) -> StoreResult<()> {
        faults::check("wal.truncate", self.log.path())?;
        self.log.truncate_to(offset)?;
        self.dirty = true;
        Ok(())
    }

    /// Forces buffered bytes to durable storage now.
    pub fn sync(&mut self) -> StoreResult<()> {
        if self.dirty {
            faults::check("wal.sync", self.log.path())?;
            self.log.sync()?;
            self.fsyncs += 1;
            self.dirty = false;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    fn maybe_sync(&mut self) -> StoreResult<()> {
        match self.policy {
            WalSyncPolicy::Always => self.sync(),
            WalSyncPolicy::Interval(every) => {
                if self.last_sync.elapsed() >= every {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            WalSyncPolicy::Off => Ok(()),
        }
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.log.len()
    }

    /// `true` if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Records appended through this handle (not counting replayed ones).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// `fsync` calls issued by this handle.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The sync policy this log applies on append.
    pub fn policy(&self) -> WalSyncPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreError;
    use std::path::PathBuf;
    use tgraph::AttrValue;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wal-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::add_node(1, 10),
            Event::add_node(2, 11),
            Event::set_node_attr(
                3,
                tgraph::NodeId(10),
                "name",
                None,
                Some(AttrValue::from("alice")),
            ),
            Event::add_edge(4, 100, 10, 11),
            Event::delete_edge(
                5,
                tgraph::EdgeId(100),
                tgraph::NodeId(10),
                tgraph::NodeId(11),
            ),
        ]
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(WalSyncPolicy::parse("always"), Ok(WalSyncPolicy::Always));
        assert_eq!(WalSyncPolicy::parse("OFF"), Ok(WalSyncPolicy::Off));
        assert_eq!(
            WalSyncPolicy::parse("interval"),
            Ok(WalSyncPolicy::Interval(Duration::from_millis(100)))
        );
        assert_eq!(
            WalSyncPolicy::parse("interval=250"),
            Ok(WalSyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert!(WalSyncPolicy::parse("sometimes").is_err());
        assert!(WalSyncPolicy::parse("interval=abc").is_err());
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmpdir("roundtrip").join("wal.log");
        let events = sample_events();
        {
            let mut wal = Wal::create(&path, WalSyncPolicy::Always).unwrap();
            for ev in &events {
                wal.append(ev).unwrap();
            }
            assert_eq!(wal.appends(), events.len() as u64);
            assert!(wal.fsyncs() >= events.len() as u64);
        }
        let replay = Wal::open(&path, WalSyncPolicy::Always).unwrap();
        assert_eq!(replay.events, events);
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_log_replays_empty() {
        let path = tmpdir("empty").join("wal.log");
        Wal::create(&path, WalSyncPolicy::Off).unwrap();
        let replay = Wal::open(&path, WalSyncPolicy::Off).unwrap();
        assert!(replay.events.is_empty());
        assert_eq!(replay.torn_bytes, 0);
        assert!(replay.wal.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_offset_yields_a_prefix() {
        // Cutting the log anywhere must recover exactly the records wholly
        // before the cut — never a wrong event, never a record after a gap.
        let path = tmpdir("prefix").join("wal.log");
        let events = sample_events();
        {
            let mut wal = Wal::create(&path, WalSyncPolicy::Always).unwrap();
            for ev in &events {
                wal.append(ev).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        let mut boundaries = vec![0u64];
        for ev in &events {
            boundaries.push(boundaries.last().unwrap() + wal_record_len(ev));
        }
        assert_eq!(*boundaries.last().unwrap(), full.len() as u64);
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = Wal::open(&path, WalSyncPolicy::Off).unwrap();
            let survivors = boundaries
                .iter()
                .filter(|&&b| b > 0 && b <= cut as u64)
                .count();
            assert_eq!(replay.events, events[..survivors], "cut={cut}");
            let expected_torn = cut as u64 - boundaries[survivors];
            assert_eq!(replay.torn_bytes, expected_torn, "cut={cut}");
            // The torn bytes are gone from disk after the open.
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                boundaries[survivors],
                "cut={cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_final_record_is_torn_but_earlier_corruption_is_fatal() {
        let path = tmpdir("corrupt").join("wal.log");
        let events = sample_events();
        {
            let mut wal = Wal::create(&path, WalSyncPolicy::Always).unwrap();
            for ev in &events {
                wal.append(ev).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // Flip the last payload byte: a torn final record, truncated away.
        let mut torn = full.clone();
        *torn.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&path, &torn).unwrap();
        let replay = Wal::open(&path, WalSyncPolicy::Off).unwrap();
        assert_eq!(replay.events, events[..events.len() - 1]);
        assert!(replay.torn_bytes > 0);
        // Flip a byte inside the FIRST record: corruption mid-log, fatal.
        let mut mid = full.clone();
        mid[record_len(0) as usize + 1] ^= 0xFF;
        std::fs::write(&path, &mid).unwrap();
        match Wal::open(&path, WalSyncPolicy::Off) {
            Err(StoreError::Corruption(_)) => {}
            Err(other) => panic!("expected corruption, got {other}"),
            Ok(_) => panic!("expected corruption, got a successful open"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_torn() {
        // Flipping any one byte must either (a) error out, or (b) recover a
        // strict prefix of the original events — never a different stream.
        let path = tmpdir("flips").join("wal.log");
        let events = sample_events();
        {
            let mut wal = Wal::create(&path, WalSyncPolicy::Always).unwrap();
            for ev in &events {
                wal.append(ev).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        for i in 0..full.len() {
            let mut mutated = full.clone();
            mutated[i] ^= 0x01;
            std::fs::write(&path, &mutated).unwrap();
            if let Ok(replay) = Wal::open(&path, WalSyncPolicy::Off) {
                assert!(
                    replay.events.len() <= events.len()
                        && replay.events == events[..replay.events.len()],
                    "byte {i}: recovered stream is not a prefix"
                );
                assert!(
                    replay.events.len() < events.len(),
                    "byte {i}: a flipped byte cannot leave every record intact"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rollback_truncates_the_last_record() {
        let path = tmpdir("rollback").join("wal.log");
        let mut wal = Wal::create(&path, WalSyncPolicy::Always).unwrap();
        wal.append(&Event::add_node(1, 10)).unwrap();
        let before = wal.append(&Event::add_node(2, 11)).unwrap();
        wal.truncate_to(before).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let replay = Wal::open(&path, WalSyncPolicy::Off).unwrap();
        assert_eq!(replay.events, vec![Event::add_node(1, 10)]);
        // The log stays appendable after a rollback.
        let mut wal = replay.wal;
        wal.append(&Event::add_node(3, 12)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let replay = Wal::open(&path, WalSyncPolicy::Off).unwrap();
        assert_eq!(
            replay.events,
            vec![Event::add_node(1, 10), Event::add_node(3, 12)]
        );
        std::fs::remove_file(&path).ok();
    }
}
