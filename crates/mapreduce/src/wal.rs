//! Write-ahead log on the replicated DFS.
//!
//! The generational serving layer must not acknowledge a mutation until
//! it is durable, but [`InMemoryDfs`] deliberately models a
//! whole-file-put store (a put *replaces* the file — there is no
//! append). So the WAL is a **directory of single-record segment
//! files**: each append writes one new file named by its zero-padded
//! sequence number under the log's base path, which makes the append
//! atomic (the segment either exists completely or not at all), ordered
//! (lexicographic listing order *is* sequence order), and truncatable
//! (drop absorbed segments by deleting files — no rewrite of live data).
//!
//! Each segment carries its own framing on top of the DFS's block-level
//! FNV-1a replica verification, so a record that was torn *before* it
//! reached the store (the crash-during-append cases the merge-chaos
//! suite injects) is detected on replay rather than replayed as garbage:
//!
//! ```text
//! [ seq: u64 LE ][ len: u32 LE ][ payload bytes ][ fnv64(seq‖payload): u64 LE ]
//! ```
//!
//! Replay returns the decoded `(seq, payload)` records in sequence
//! order and fails loudly on any framing or checksum violation; what
//! the payload *means* is the caller's contract (the serving layer
//! stores its encoded `DeltaOp`s).

use std::sync::Arc;

use ha_bitcode::fnv::fnv64;

use crate::dfs::{DfsError, InMemoryDfs};

/// Framing overhead per segment: 8-byte seq + 4-byte len + 8-byte footer.
const HEADER_BYTES: usize = 12;
const FOOTER_BYTES: usize = 8;

/// Why a WAL replay refused to proceed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// The underlying DFS failed (missing segment, lost replicas, …).
    Storage(DfsError),
    /// A segment's framing or checksum did not verify.
    Corrupt {
        /// Path of the offending segment file.
        path: String,
        /// What specifically failed to verify.
        reason: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Storage(e) => write!(f, "wal storage error: {e}"),
            WalError::Corrupt { path, reason } => {
                write!(f, "wal segment {path} corrupt: {reason}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Storage(e) => Some(e),
            WalError::Corrupt { .. } => None,
        }
    }
}

impl From<DfsError> for WalError {
    fn from(e: DfsError) -> Self {
        WalError::Storage(e)
    }
}

/// A checksummed, segment-per-record write-ahead log rooted at a DFS
/// path prefix. See the module docs for the layout.
#[derive(Clone)]
pub struct DfsWal {
    dfs: Arc<InMemoryDfs>,
    base: String,
    next_seq: u64,
}

impl DfsWal {
    /// Opens (or creates) the log rooted at `base`. Scans the store for
    /// existing segments so the next append continues the sequence —
    /// this is how a recovering process resumes exactly where the
    /// killed one stopped.
    pub fn open(dfs: Arc<InMemoryDfs>, base: &str) -> Self {
        let base = base.trim_end_matches('/').to_string();
        let next_seq = Self::segment_seqs(&dfs, &base)
            .last()
            .map_or(1, |&s| s + 1);
        DfsWal { dfs, base, next_seq }
    }

    fn prefix(base: &str) -> String {
        format!("{base}/")
    }

    fn segment_path(&self, seq: u64) -> String {
        format!("{}/{seq:020}", self.base)
    }

    /// Sequence numbers of every segment currently in the store, sorted.
    fn segment_seqs(dfs: &InMemoryDfs, base: &str) -> Vec<u64> {
        let prefix = Self::prefix(base);
        let mut seqs: Vec<u64> = dfs
            .list()
            .into_iter()
            .filter_map(|p| p.strip_prefix(&prefix)?.parse::<u64>().ok())
            .collect();
        seqs.sort_unstable();
        seqs
    }

    /// The sequence number the next [`append`](DfsWal::append) will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Raises the next sequence number to at least `seq`. A recovering
    /// caller whose manifest says "absorbed through `t`" calls
    /// `skip_to(t + 1)` so that fresh appends never reuse a sequence
    /// number that was already absorbed (and truncated away) — the log
    /// files alone cannot know about sequences whose segments were
    /// deleted.
    pub fn skip_to(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Number of segments currently retained.
    pub fn segments(&self) -> usize {
        Self::segment_seqs(&self.dfs, &self.base).len()
    }

    /// Appends one record and returns its sequence number. The record
    /// is replicated and checksummed by the DFS before this returns, so
    /// a caller that sees `Ok(seq)` may acknowledge the mutation: every
    /// subsequent [`replay`](DfsWal::replay) will surface it.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, DfsError> {
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len() + FOOTER_BYTES);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        let mut sum = Vec::with_capacity(8 + payload.len());
        sum.extend_from_slice(&seq.to_le_bytes());
        sum.extend_from_slice(payload);
        frame.extend_from_slice(&fnv64(&sum).to_le_bytes());
        self.dfs
            .try_put_with_blocks(&self.segment_path(seq), frame, usize::MAX, 1)?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Reads every retained segment in sequence order, verifying each
    /// frame, and returns the decoded `(seq, payload)` records.
    pub fn replay(&self) -> Result<Vec<(u64, Vec<u8>)>, WalError> {
        let mut out = Vec::new();
        for seq in Self::segment_seqs(&self.dfs, &self.base) {
            let path = self.segment_path(seq);
            let frame: Vec<u8> = self.dfs.try_get(&path)?;
            out.push((seq, Self::decode(&path, seq, &frame)?));
        }
        Ok(out)
    }

    fn decode(path: &str, want_seq: u64, frame: &[u8]) -> Result<Vec<u8>, WalError> {
        let corrupt = |reason: String| WalError::Corrupt {
            path: path.to_string(),
            reason,
        };
        if frame.len() < HEADER_BYTES + FOOTER_BYTES {
            return Err(corrupt(format!("frame of {} bytes is shorter than the framing", frame.len())));
        }
        let mut u64buf = [0u8; 8];
        u64buf.copy_from_slice(&frame[0..8]);
        let seq = u64::from_le_bytes(u64buf);
        if seq != want_seq {
            return Err(corrupt(format!("header seq {seq} does not match file name seq {want_seq}")));
        }
        let mut u32buf = [0u8; 4];
        u32buf.copy_from_slice(&frame[8..12]);
        let len = u32::from_le_bytes(u32buf) as usize;
        if frame.len() != HEADER_BYTES + len + FOOTER_BYTES {
            return Err(corrupt(format!(
                "payload length {len} inconsistent with frame of {} bytes",
                frame.len()
            )));
        }
        let payload = &frame[HEADER_BYTES..HEADER_BYTES + len];
        u64buf.copy_from_slice(&frame[HEADER_BYTES + len..]);
        let footer = u64::from_le_bytes(u64buf);
        let mut sum = Vec::with_capacity(8 + len);
        sum.extend_from_slice(&seq.to_le_bytes());
        sum.extend_from_slice(payload);
        if fnv64(&sum) != footer {
            return Err(corrupt("checksum footer mismatch".to_string()));
        }
        Ok(payload.to_vec())
    }

    /// Drops every segment with `seq <= through`, typically after the
    /// records were absorbed into a durable generation. Returns how many
    /// segments were deleted.
    pub fn truncate_through(&mut self, through: u64) -> usize {
        let mut dropped = 0;
        for seq in Self::segment_seqs(&self.dfs, &self.base) {
            if seq <= through && self.dfs.delete(&self.segment_path(seq)) {
                dropped += 1;
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfs() -> Arc<InMemoryDfs> {
        Arc::new(InMemoryDfs::new())
    }

    #[test]
    fn append_then_replay_round_trips_in_order() {
        let store = dfs();
        let mut wal = DfsWal::open(Arc::clone(&store), "/wal/shard0");
        assert_eq!(wal.next_seq(), 1);
        for payload in [b"alpha".as_slice(), b"", b"gamma-longer-record"] {
            wal.append(payload).unwrap();
        }
        let got = wal.replay().unwrap();
        assert_eq!(
            got,
            vec![
                (1, b"alpha".to_vec()),
                (2, b"".to_vec()),
                (3, b"gamma-longer-record".to_vec()),
            ]
        );
    }

    #[test]
    fn reopen_continues_the_sequence_and_truncate_drops_prefix() {
        let store = dfs();
        let mut wal = DfsWal::open(Arc::clone(&store), "/wal/shard1");
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        // A new process opens the same log: sequence continues.
        let mut reopened = DfsWal::open(Arc::clone(&store), "/wal/shard1");
        assert_eq!(reopened.next_seq(), 3);
        reopened.append(b"c").unwrap();
        assert_eq!(reopened.segments(), 3);
        assert_eq!(reopened.truncate_through(2), 2);
        assert_eq!(
            reopened.replay().unwrap(),
            vec![(3, b"c".to_vec())],
            "only the un-absorbed suffix survives truncation"
        );
        // Truncation is idempotent.
        assert_eq!(reopened.truncate_through(2), 0);
        // A fully truncated log must not restart below an absorbed
        // watermark: skip_to pins the floor.
        reopened.truncate_through(3);
        let mut empty = DfsWal::open(Arc::clone(&store), "/wal/shard1");
        assert_eq!(empty.next_seq(), 1, "no segments left to infer from");
        empty.skip_to(4);
        assert_eq!(empty.next_seq(), 4);
        empty.skip_to(2);
        assert_eq!(empty.next_seq(), 4, "skip_to never lowers");
    }

    #[test]
    fn corrupt_segment_fails_replay_loudly() {
        let store = dfs();
        let mut wal = DfsWal::open(Arc::clone(&store), "/wal/shard2");
        wal.append(b"payload").unwrap();
        // Overwrite the segment with a frame whose footer is wrong.
        let path = "/wal/shard2/00000000000000000001";
        let mut frame: Vec<u8> = store.try_get(path).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        store
            .try_put_with_blocks(path, frame, usize::MAX, 1)
            .unwrap();
        match wal.replay() {
            Err(WalError::Corrupt { path: p, reason }) => {
                assert_eq!(p, path);
                assert!(reason.contains("checksum"), "reason: {reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Other segments in other logs are unaffected.
        let mut clean = DfsWal::open(Arc::clone(&store), "/wal/shard3");
        clean.append(b"x").unwrap();
        assert_eq!(clean.replay().unwrap().len(), 1);
    }

    #[test]
    fn wrong_seq_header_is_detected() {
        let store = dfs();
        let mut wal = DfsWal::open(Arc::clone(&store), "/wal/shard4");
        wal.append(b"p").unwrap();
        // Copy segment 1's bytes to where segment 2 should live.
        let frame: Vec<u8> = store.try_get("/wal/shard4/00000000000000000001").unwrap();
        store
            .try_put_with_blocks("/wal/shard4/00000000000000000002", frame, usize::MAX, 1)
            .unwrap();
        let err = DfsWal::open(Arc::clone(&store), "/wal/shard4")
            .replay()
            .unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }));
    }
}
