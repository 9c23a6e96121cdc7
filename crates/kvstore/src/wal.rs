//! Append-only write-ahead log of graph events.
//!
//! The tail shard of a sharded deployment is the only mutable piece of the
//! history; this log makes its ingest durable. Every append writes one
//! length-prefixed, CRC-32-protected record holding a `tgraph::codec`-encoded
//! [`Event`] *before* the event is applied in memory, so an acknowledged
//! append survives a crash (under [`WalSyncPolicy::Always`]; the other
//! policies trade the tail of the log for throughput).
//!
//! Replay ([`Wal::open`]) tolerates exactly one failure shape: a *torn tail*,
//! i.e. an incomplete or checksum-failing final record from a crash
//! mid-write, which is truncated away. A bad record that is *not* the last
//! one is corruption and fails the open — recovery never builds a silently
//! wrong graph.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tgraph::codec::{Decode, Encode};
use tgraph::Event;

use crate::disk::crc32;
use crate::faults;
use crate::store::{StoreError, StoreResult};

/// Magic byte starting every WAL record (distinct from the disk store's).
const WAL_RECORD_MAGIC: u8 = 0xA1;
/// Fixed-size record prefix: magic + payload length + payload CRC.
const WAL_HEADER_LEN: usize = 1 + 4 + 4;

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
    file: File,
    path: PathBuf,
    len: u64,
    policy: WalSyncPolicy,
    last_sync: Instant,
    dirty: bool,
    appends: u64,
    fsyncs: u64,
}

/// Encodes one WAL record for `event`.
fn build_record(event: &Event) -> Vec<u8> {
    let payload = event.to_bytes();
    let mut record = Vec::with_capacity(WAL_HEADER_LEN + payload.len());
    record.push(WAL_RECORD_MAGIC);
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// On-disk size in bytes of the record [`Wal::append`] writes for `event`.
/// Exposed so tests can compute which acked events survive a log truncated
/// at an arbitrary byte offset.
pub fn wal_record_len(event: &Event) -> u64 {
    (WAL_HEADER_LEN + event.to_bytes().len()) as u64
}

/// Strictly replays a log that is known to be complete (e.g. one a clean
/// shutdown closed): any torn or corrupt byte is an error, never a silent
/// truncation.
pub fn read_wal_events(path: impl AsRef<Path>) -> StoreResult<Vec<Event>> {
    let path = path.as_ref();
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let mut events = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        let torn = || {
            StoreError::Corruption(format!(
                "torn record at offset {pos} in a log expected to be complete"
            ))
        };
        if pos + WAL_HEADER_LEN > data.len() {
            return Err(torn());
        }
        if data[pos] != WAL_RECORD_MAGIC {
            return Err(StoreError::Corruption(format!(
                "bad wal record magic {:#x} at offset {pos}",
                data[pos]
            )));
        }
        let len = u32::from_le_bytes(data[pos + 1..pos + 5].try_into().unwrap()) as usize;
        let crc_stored = u32::from_le_bytes(data[pos + 5..pos + 9].try_into().unwrap());
        let payload_start = pos + WAL_HEADER_LEN;
        let payload_end = match payload_start.checked_add(len) {
            Some(end) if end <= data.len() => end,
            _ => return Err(torn()),
        };
        let payload = &data[payload_start..payload_end];
        if crc32(payload) != crc_stored {
            return Err(StoreError::Corruption(format!(
                "wal crc mismatch at offset {pos}"
            )));
        }
        events.push(Event::from_bytes(payload).map_err(|e| {
            StoreError::Corruption(format!("undecodable wal event at offset {pos}: {e}"))
        })?);
        pos = payload_end;
    }
    Ok(events)
}

impl Wal {
    /// Creates a new, empty log at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>, policy: WalSyncPolicy) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        faults::check("wal.create", &path)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Wal {
            file,
            path,
            len: 0,
            policy,
            last_sync: Instant::now(),
            dirty: false,
            appends: 0,
            fsyncs: 0,
        })
    }

    /// Opens an existing log, replaying every intact record. A torn final
    /// record (incomplete, or complete-length with a failing checksum) is
    /// truncated away and reported in [`WalReplay::torn_bytes`]; a bad
    /// record followed by more log is a [`StoreError::Corruption`].
    pub fn open(path: impl AsRef<Path>, policy: WalSyncPolicy) -> StoreResult<WalReplay> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let file_len = file.metadata()?.len();
        let mut data = Vec::with_capacity(file_len as usize);
        file.read_to_end(&mut data)?;

        let mut events = Vec::new();
        let mut pos = 0usize;
        let mut valid_end = 0u64;
        while pos < data.len() {
            if pos + WAL_HEADER_LEN > data.len() {
                break; // torn header
            }
            if data[pos] != WAL_RECORD_MAGIC {
                return Err(StoreError::Corruption(format!(
                    "bad wal record magic {:#x} at offset {pos}",
                    data[pos]
                )));
            }
            let len = u32::from_le_bytes(data[pos + 1..pos + 5].try_into().unwrap()) as usize;
            let crc_stored = u32::from_le_bytes(data[pos + 5..pos + 9].try_into().unwrap());
            let payload_start = pos + WAL_HEADER_LEN;
            let payload_end = match payload_start.checked_add(len) {
                Some(end) if end <= data.len() => end,
                _ => break, // torn payload
            };
            let payload = &data[payload_start..payload_end];
            if crc32(payload) != crc_stored {
                if payload_end == data.len() {
                    break; // torn final record: length landed, bytes did not
                }
                return Err(StoreError::Corruption(format!(
                    "wal crc mismatch at offset {pos} with {} bytes of log after it",
                    data.len() - payload_end
                )));
            }
            let event = Event::from_bytes(payload).map_err(|e| {
                StoreError::Corruption(format!("undecodable wal event at offset {pos}: {e}"))
            })?;
            events.push(event);
            pos = payload_end;
            valid_end = payload_end as u64;
        }
        let torn_bytes = file_len - valid_end;
        if torn_bytes > 0 {
            file.set_len(valid_end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_end))?;
        Ok(WalReplay {
            wal: Wal {
                file,
                path,
                len: valid_end,
                policy,
                last_sync: Instant::now(),
                dirty: false,
                appends: 0,
                fsyncs: 0,
            },
            events,
            torn_bytes,
        })
    }

    /// Appends one event record and applies the sync policy. Returns the log
    /// length *before* the record, which [`Wal::truncate_to`] accepts to
    /// roll the write back if the in-memory apply then fails.
    pub fn append(&mut self, event: &Event) -> StoreResult<u64> {
        let record = build_record(event);
        let before = self.len;
        faults::write_all(&mut self.file, &record, "wal.append", &self.path)?;
        self.len += record.len() as u64;
        self.appends += 1;
        self.dirty = true;
        self.maybe_sync()?;
        Ok(before)
    }

    /// Cuts the log back to `offset` (an offset previously returned by
    /// [`Wal::append`]): the rollback half of write-ahead logging.
    pub fn truncate_to(&mut self, offset: u64) -> StoreResult<()> {
        faults::check("wal.truncate", &self.path)?;
        self.file.set_len(offset)?;
        self.file.seek(SeekFrom::Start(offset))?;
        self.len = offset;
        self.dirty = true;
        Ok(())
    }

    /// Forces buffered bytes to durable storage now.
    pub fn sync(&mut self) -> StoreResult<()> {
        if self.dirty {
            faults::check("wal.sync", &self.path)?;
            self.file.sync_data()?;
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

    /// The path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        mid[WAL_HEADER_LEN + 1] ^= 0xFF;
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
