//! The record log: an append-only file of checksummed records, shared by
//! the write-ahead log and a data directory's `keys.log`.
//!
//! Every record is framed `[magic u8][len u32 LE][crc32 u32 LE][payload]`.
//! [`RecordLog::append`] writes one record; when the write fails it cuts
//! the file back to where the record started, so a failed append leaves no
//! partial record for a later one to land behind.
//!
//! [`RecordLog::open`] scans the file and tolerates exactly one failure
//! shape: a *torn tail*, i.e. an incomplete or checksum-failing final
//! record from a crash mid-write, which it truncates away. A bad record
//! that is *not* the last one is corruption and fails the open, so recovery
//! never builds from a silently shortened log. The scan reads the file once
//! and allocates nothing sized by a length field it has not bounded.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::faults;
use crate::store::{StoreError, StoreResult};

/// Magic byte starting every record.
const RECORD_MAGIC: u8 = 0xA1;
/// Fixed-size record prefix: magic + payload length + payload CRC.
const HEADER_LEN: usize = 1 + 4 + 4;

/// On-disk size of the record holding a `payload_len`-byte payload.
pub fn record_len(payload_len: usize) -> u64 {
    (HEADER_LEN + payload_len) as u64
}

/// An open record log, positioned to append after its last record.
#[derive(Debug)]
pub struct RecordLog {
    file: File,
    path: PathBuf,
    len: u64,
}

impl RecordLog {
    /// Creates a new, empty log at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(RecordLog { file, path, len: 0 })
    }

    /// Opens an existing log and hands every intact payload, in order, to
    /// `visit`; an `Err` from `visit` fails the open as corruption. A torn
    /// final record is truncated away; the returned count is its bytes
    /// (0 = the log was clean).
    pub fn open(
        path: impl AsRef<Path>,
        mut visit: impl FnMut(&[u8]) -> Result<(), String>,
    ) -> StoreResult<(Self, u64)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let file_len = file.metadata()?.len();
        let mut data = Vec::with_capacity(file_len as usize);
        file.read_to_end(&mut data)?;
        let corrupt = |pos: usize, what: String| {
            StoreError::Corruption(format!("{} at offset {pos}: {what}", path.display()))
        };

        let mut pos = 0usize;
        while pos < data.len() {
            if pos + HEADER_LEN > data.len() {
                break; // torn header
            }
            if data[pos] != RECORD_MAGIC {
                return Err(corrupt(pos, format!("bad record magic {:#x}", data[pos])));
            }
            let len = u32::from_le_bytes(data[pos + 1..pos + 5].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(data[pos + 5..pos + 9].try_into().expect("4 bytes"));
            let start = pos + HEADER_LEN;
            let end = match start.checked_add(len as usize) {
                Some(end) if end <= data.len() => end,
                _ => break, // torn payload
            };
            let payload = &data[start..end];
            if crc32(payload) != crc {
                if end == data.len() {
                    break; // torn final record: the length landed, the bytes did not
                }
                return Err(corrupt(
                    pos,
                    format!(
                        "record failed its checksum with {} bytes of log after it",
                        data.len() - end
                    ),
                ));
            }
            visit(payload).map_err(|e| corrupt(pos, format!("undecodable record: {e}")))?;
            pos = end;
        }
        let valid_end = pos as u64;
        let torn_bytes = file_len - valid_end;
        if torn_bytes > 0 {
            file.set_len(valid_end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_end))?;
        let log = RecordLog {
            file,
            path,
            len: valid_end,
        };
        Ok((log, torn_bytes))
    }

    /// Appends one record through the failpoint `site`. Returns the log
    /// length *before* the record, which [`RecordLog::truncate_to`] accepts
    /// to roll it back. A failed write is cut back to that length before
    /// the error returns.
    pub fn append(&mut self, payload: &[u8], site: &str) -> StoreResult<u64> {
        let mut record = Vec::with_capacity(HEADER_LEN + payload.len());
        record.push(RECORD_MAGIC);
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(payload).to_le_bytes());
        record.extend_from_slice(payload);
        let before = self.len;
        if let Err(e) = faults::write_all(&mut self.file, &record, site, &self.path) {
            // Best effort: should the cut fail too, the next open still
            // treats the partial record as a torn tail or refuses the log.
            self.truncate_to(before).ok();
            return Err(e.into());
        }
        self.len += record.len() as u64;
        Ok(before)
    }

    /// Cuts the log back to `offset`, a length [`RecordLog::append`]
    /// returned.
    pub fn truncate_to(&mut self, offset: u64) -> StoreResult<()> {
        self.file.set_len(offset)?;
        self.file.seek(SeekFrom::Start(offset))?;
        self.len = offset;
        Ok(())
    }

    /// Forces the log's bytes to durable storage.
    pub fn sync(&self) -> StoreResult<()> {
        Ok(self.file.sync_data()?)
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
}
