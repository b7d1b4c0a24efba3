//! A checksummed write-ahead journal for crash-safe fleet recovery.
//!
//! The fleet's determinism contract makes a mostly *logical* WAL sufficient: a round's
//! outcome is a pure function of the snapshot it started from plus the scripted
//! timeline, so the redo function for a round is deterministic re-execution and its
//! commit record carries no observations — only proof that the round committed and a
//! digest to verify the replay against. Input no script can re-derive (an ad-hoc
//! request to a serving front end) is logged as a submission record before it is
//! applied. Each record is one frame:
//!
//! ```text
//! frame      := [len: u32 LE] [payload: len & 0x7FFF_FFFF bytes] [crc32: u32 LE]
//! commit     := len = 24;             payload = [seq: u64 LE] [round: u64 LE] [digest: u64 LE]
//! submission := len = 0x8000_0000 | n; payload = the serialized request (n bytes)
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload (table-driven, implemented here — no
//! external dependency). `seq` is a strictly increasing commit counter; `round` is the
//! fleet round the entry commits; `digest` is the FNV-1a-64 hash of the canonical state
//! JSON after that round. Commit frames keep their bytes whatever submissions sit
//! between them.
//!
//! A crash can tear the tail of the journal anywhere. [`WriteAheadLog::scan`]
//! detects a torn or checksum-corrupt *tail* (incomplete length prefix, payload
//! shorter than promised, CRC mismatch on the final frame) and drops it, returning
//! every fully written record before it. Corruption that is *followed* by more valid
//! frames is not a crash artifact — it means the storage itself is damaged, and
//! parsing fails with [`FleetError::WalCorrupt`].

use crate::error::FleetError;

/// Byte length of a commit-record payload: `seq` + `round` + `digest`.
const PAYLOAD_LEN: usize = 24;
/// Full commit-frame length: length prefix + payload + CRC.
pub const FRAME_LEN: usize = 4 + PAYLOAD_LEN + 4;
/// Length-word bit marking a submission frame.
const SUBMISSION: u32 = 0x8000_0000;

/// IEEE CRC-32 (the Ethernet / zip polynomial) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a 64-bit hash — the state digest committed with each WAL entry.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// One committed round: the parsed payload of a commit frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalEntry {
    /// Strictly increasing entry counter.
    pub seq: u64,
    /// Fleet round this entry commits (the value of `FleetService::rounds()` after the
    /// round ran).
    pub round: u64,
    /// FNV-1a-64 digest of the canonical fleet snapshot JSON after the round.
    pub digest: u64,
}

/// One fully written journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A committed round.
    Commit(WalEntry),
    /// A submission logged before it was applied: its serialized form.
    Submission(Vec<u8>),
}

/// What [`WriteAheadLog::scan`] found in the journal bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Fully written records in journal order, each with its frame's byte offset.
    pub records: Vec<(usize, WalRecord)>,
    /// Bytes of torn tail dropped (0 for a cleanly closed journal).
    pub torn_bytes: usize,
}

/// An in-memory byte journal with the framing above. The byte buffer is the "disk":
/// crash simulations truncate it at arbitrary offsets, exactly like a torn file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteAheadLog {
    buf: Vec<u8>,
    next_seq: u64,
}

impl WriteAheadLog {
    /// An empty journal.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Rebuilds a journal from raw bytes (e.g. what survived a crash). The sequence
    /// counter resumes after the last fully committed entry.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self, FleetError> {
        let mut wal = WriteAheadLog { buf, next_seq: 0 };
        for (_, record) in wal.scan()?.records {
            if let WalRecord::Commit(entry) = record {
                wal.next_seq = entry.seq + 1;
            }
        }
        Ok(wal)
    }

    /// The raw journal bytes (what a crash would leave on disk).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes currently in the journal.
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    fn push_frame(&mut self, len: u32, payload: &[u8]) {
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
    }

    /// Appends a commit record for `round` with the given state digest and returns it.
    pub fn append(&mut self, round: u64, digest: u64) -> WalEntry {
        let entry = WalEntry {
            seq: self.next_seq,
            round,
            digest,
        };
        self.next_seq += 1;
        let mut payload = [0u8; PAYLOAD_LEN];
        payload[0..8].copy_from_slice(&entry.seq.to_le_bytes());
        payload[8..16].copy_from_slice(&entry.round.to_le_bytes());
        payload[16..24].copy_from_slice(&entry.digest.to_le_bytes());
        self.push_frame(PAYLOAD_LEN as u32, &payload);
        entry
    }

    /// Appends a submission record carrying `payload`, the serialized submission.
    pub fn append_submission(&mut self, payload: &[u8]) {
        assert!(
            payload.len() < SUBMISSION as usize,
            "submission exceeds 31-bit length"
        );
        self.push_frame(SUBMISSION | payload.len() as u32, payload);
    }

    /// Drops all journal bytes (called after a periodic snapshot makes them redundant).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Parses the journal, dropping a torn tail. Fails only on mid-journal corruption
    /// (a bad frame *followed by* more data) or a non-monotonic sequence, both of which
    /// indicate damaged storage rather than a crash.
    pub fn scan(&self) -> Result<WalScan, FleetError> {
        let buf = &self.buf;
        let mut records = Vec::new();
        let mut offset = 0usize;
        let mut expected_seq: Option<u64> = None;
        // A torn tail — a partial length prefix, payload or CRC, or a bad final CRC —
        // ends the loop early; `offset` then marks where it starts.
        while let Some(len) = buf.get(offset..offset + 4) {
            let len = u32::from_le_bytes(len.try_into().unwrap());
            let submission = len & SUBMISSION != 0;
            let len = (len & !SUBMISSION) as usize;
            let corrupt = |reason: String| FleetError::WalCorrupt { offset, reason };
            if !submission && len != PAYLOAD_LEN {
                return Err(corrupt(format!("frame length {len} != {PAYLOAD_LEN}")));
            }
            let end = offset + 4 + len;
            let Some(stored_crc) = buf.get(end..end + 4) else {
                break;
            };
            let payload = &buf[offset + 4..end];
            if crc32(payload) != u32::from_le_bytes(stored_crc.try_into().unwrap()) {
                if end + 4 == buf.len() {
                    break;
                }
                return Err(corrupt("checksum mismatch before end of journal".into()));
            }
            let record = if submission {
                WalRecord::Submission(payload.to_vec())
            } else {
                let word = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().unwrap());
                let (seq, round, digest) = (word(0), word(8), word(16));
                if let Some(want) = expected_seq.filter(|&want| want != seq) {
                    return Err(corrupt(format!("sequence jump: {seq} after {}", want - 1)));
                }
                expected_seq = Some(seq + 1);
                WalRecord::Commit(WalEntry { seq, round, digest })
            };
            records.push((offset, record));
            offset = end + 4;
        }
        Ok(WalScan {
            records,
            torn_bytes: buf.len() - offset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_scan_round_trips() {
        let mut wal = WriteAheadLog::new();
        let a = wal.append(1, 0xDEAD);
        let b = wal.append(2, 0xBEEF);
        let scan = wal.scan().unwrap();
        assert_eq!(
            scan.records,
            vec![(0, WalRecord::Commit(a)), (FRAME_LEN, WalRecord::Commit(b))]
        );
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
    }

    #[test]
    fn torn_tail_at_every_offset_is_detected_and_dropped() {
        let mut wal = WriteAheadLog::new();
        wal.append(1, 11);
        wal.append(2, 22);
        wal.append(3, 33);
        let full = wal.bytes().to_vec();
        for cut in 0..full.len() {
            let mut torn = wal.clone();
            torn.buf.truncate(cut);
            let scan = torn.scan().unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            let complete = cut / FRAME_LEN;
            assert_eq!(scan.records.len(), complete, "cut at byte {cut}");
            assert_eq!(scan.torn_bytes, cut - complete * FRAME_LEN);
        }
    }

    #[test]
    fn bitflip_in_final_frame_drops_it_but_midjournal_flip_is_an_error() {
        let mut wal = WriteAheadLog::new();
        wal.append(1, 11);
        wal.append(2, 22);
        // Flip a payload bit in the *last* frame: dropped as a torn write.
        let mut tail_flipped = wal.clone();
        let n = tail_flipped.buf.len();
        tail_flipped.buf[n - 10] ^= 0x40;
        let scan = tail_flipped.scan().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn_bytes, FRAME_LEN);
        // Flip the same bit in the *first* frame: storage damage, typed error.
        let mut mid_flipped = wal.clone();
        mid_flipped.buf[6] ^= 0x40;
        assert!(matches!(
            mid_flipped.scan().unwrap_err(),
            FleetError::WalCorrupt { offset: 0, .. }
        ));
    }

    #[test]
    fn from_bytes_resumes_the_sequence_counter() {
        let mut wal = WriteAheadLog::new();
        wal.append(1, 11);
        wal.append(2, 22);
        let mut resumed = WriteAheadLog::from_bytes(wal.bytes().to_vec()).unwrap();
        let e = resumed.append(3, 33);
        assert_eq!(e.seq, 2);
        assert_eq!(resumed.scan().unwrap().records.len(), 3);
    }

    #[test]
    fn submissions_interleave_with_commits_and_tear_like_them() {
        let request = b"\"TelemetryRead\"".to_vec();
        let mut commit_only = WriteAheadLog::new();
        commit_only.append(1, 11);
        commit_only.append(2, 22);
        let mut wal = WriteAheadLog::new();
        wal.append(1, 11);
        wal.append_submission(&request);
        let second = wal.append(2, 22);
        assert_eq!(second.seq, 1, "submissions take no commit sequence number");
        let submission_frame = 4 + request.len() + 4;
        assert_eq!(
            [
                &wal.bytes()[..FRAME_LEN],
                &wal.bytes()[FRAME_LEN + submission_frame..]
            ]
            .concat(),
            commit_only.bytes(),
            "commit frames keep their commit-only bytes"
        );
        let scan = wal.scan().unwrap();
        assert_eq!(
            scan.records[1],
            (FRAME_LEN, WalRecord::Submission(request.clone()))
        );
        assert_eq!(
            WriteAheadLog::from_bytes(wal.bytes().to_vec())
                .unwrap()
                .append(3, 33)
                .seq,
            2
        );
        // A trailing submission torn anywhere is dropped whole.
        wal.append_submission(&request);
        let last = wal.len_bytes() - submission_frame;
        for cut in last..wal.len_bytes() {
            let mut torn = wal.clone();
            torn.buf.truncate(cut);
            let scan = torn.scan().unwrap();
            assert_eq!(scan.records.len(), 3, "cut at byte {cut}");
            assert_eq!(scan.torn_bytes, cut - last);
        }
    }

    #[test]
    fn fnv_digest_is_stable_and_input_sensitive() {
        let a = fnv1a64(b"round-1-state");
        assert_eq!(a, fnv1a64(b"round-1-state"));
        assert_ne!(a, fnv1a64(b"round-1-statf"));
    }
}
