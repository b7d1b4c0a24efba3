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
//! fleet round the entry commits; `digest` is the [`fold_digests`] of the owner's state
//! after that round: the [`state_digest`] of its snapshot tree without the tenant list,
//! followed by each tenant's [`state_digest`] in tenant order. [`state_digest`] mixes a
//! tagged, length-prefixed encoding of the tree one 64-bit word at a time (tags,
//! lengths, number bits, 8-byte chunks of string), without rendering JSON; text is
//! written only when a snapshot is taken. Commit frames keep their bytes whatever
//! submissions sit between them.
//!
//! A crash can tear the tail of the journal anywhere. [`WriteAheadLog::scan`]
//! detects a torn or checksum-corrupt *tail* (incomplete length prefix, payload
//! shorter than promised, CRC mismatch on the final frame) and drops it, returning
//! every fully written record before it. Corruption that is *followed* by more valid
//! frames is not a crash artifact — it means the storage itself is damaged, and
//! parsing fails with [`FleetError::WalCorrupt`].

use crate::error::FleetError;
use serde_json::Value;

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

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The word mixer behind [`state_digest`] and [`fold_digests`]. Each 64-bit word is
/// XORed into the state, which is then multiplied by an odd constant and folded with a
/// right xorshift. Both steps are bijections of the state for a fixed word, so two
/// inputs that differ in exactly one word never collide.
struct WordHash(u64);

impl WordHash {
    fn new() -> Self {
        WordHash(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }

    /// A tag word followed by a length word.
    fn header(&mut self, tag: u8, len: usize) {
        self.word(tag as u64);
        self.word(len as u64);
    }

    /// A length-prefixed string: one word per 8 bytes, the last chunk zero-padded (the
    /// length word makes the padding unambiguous).
    fn string(&mut self, s: &str) {
        self.header(b'"', s.len());
        let chunks = s.as_bytes().chunks_exact(8);
        let tail = chunks.remainder();
        for chunk in chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn value(&mut self, value: &Value) {
        match value {
            // The writer prints a non-finite number as `null`, so it digests as one.
            Value::Null => self.word(b'n' as u64),
            Value::Number(n) if !n.is_finite() => self.word(b'n' as u64),
            Value::Number(n) => {
                self.word(b'#' as u64);
                self.word(n.to_bits());
            }
            Value::Bool(b) => self.word(if *b { b't' } else { b'f' } as u64),
            Value::String(s) => self.string(s),
            Value::Array(items) => {
                self.header(b'[', items.len());
                items.iter().for_each(|item| self.value(item));
            }
            Value::Object(pairs) => {
                self.header(b'{', pairs.len());
                for (key, item) in pairs {
                    self.string(key);
                    self.value(item);
                }
            }
        }
    }
}

/// The digest of a state tree: a tagged, length-prefixed encoding of the tree mixed one
/// 64-bit word at a time (one word per tag, length, number or 8 bytes of string), so a
/// commit never renders JSON.
///
/// A finite number is encoded by its `f64::to_bits` and a non-finite one exactly like
/// `null` (the writer prints it as `null`). Two trees therefore have equal digests
/// exactly when their canonical JSON text is equal, up to hash collisions.
pub fn state_digest(value: &Value) -> u64 {
    let mut hash = WordHash::new();
    hash.value(value);
    hash.0
}

/// The digest a WAL commit record carries: `head`, the [`state_digest`] of the owner's
/// snapshot tree with its tenant list emptied, then the tenant count, then every
/// tenant state's [`state_digest`] in tenant order. The tenant digests are computed in
/// parallel; folding them in tenant order keeps the result independent of which worker
/// computed which.
pub fn fold_digests(head: u64, tenants: &[u64]) -> u64 {
    let mut hash = WordHash::new();
    hash.word(head);
    hash.word(tenants.len() as u64);
    tenants.iter().for_each(|&digest| hash.word(digest));
    hash.0
}

/// One committed round: the parsed payload of a commit frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalEntry {
    /// Strictly increasing entry counter.
    pub seq: u64,
    /// Fleet round this entry commits (the value of `FleetService::rounds()` after the
    /// round ran).
    pub round: u64,
    /// [`fold_digests`] of the owner's state after the round.
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

    /// Numbers that print alike or nearly alike: signed zeros, integral values at the
    /// `1e15` edge, 64-bit integers at and past 2^53, non-finite values (printed as
    /// `null`) and subnormals.
    const NUMBERS: [f64; 15] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1e15,
        -1e15,
        1e16,
        9_007_199_254_740_992.0,
        u64::MAX as f64,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
    ];
    /// Strings and keys whose concatenations collide, plus string-carried integers.
    const STRINGS: [&str; 12] = [
        "",
        "a",
        "b",
        "c",
        "ab",
        "bc",
        "1",
        "null",
        "9007199254740993",
        "18446744073709551615",
        "\u{1f}",
        "\"",
    ];

    fn pick<T: Copy>(rng: &mut rand::rngs::StdRng, items: &[T]) -> T {
        use rand::Rng;
        items[rng.gen_range(0..items.len())]
    }

    fn random_tree(rng: &mut rand::rngs::StdRng, depth: usize) -> Value {
        use rand::Rng;
        if depth == 0 || rng.gen_bool(0.4) {
            return match rng.gen_range(0..6) {
                0 => Value::Null,
                1 => Value::Bool(rng.gen_bool(0.5)),
                2 | 3 => Value::Number(pick(rng, &NUMBERS)),
                _ => Value::String(pick(rng, &STRINGS).into()),
            };
        }
        let n = rng.gen_range(0..3usize);
        if rng.gen_bool(0.5) {
            Value::Array((0..n).map(|_| random_tree(rng, depth - 1)).collect())
        } else {
            Value::Object(
                (0..n)
                    .map(|_| (pick(rng, &STRINGS).into(), random_tree(rng, depth - 1)))
                    .collect(),
            )
        }
    }

    /// `value` with some leaves swapped for a near miss: a value that prints the same
    /// (`NaN`/`±Inf` for `null`) or almost the same (the other zero, a string twin).
    fn near_miss(rng: &mut rand::rngs::StdRng, value: &Value) -> Value {
        use rand::Rng;
        let swap = rng.gen_bool(0.3);
        match value {
            Value::Array(items) => Value::Array(items.iter().map(|v| near_miss(rng, v)).collect()),
            Value::Object(pairs) => Value::Object(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), near_miss(rng, v)))
                    .collect(),
            ),
            Value::Null if swap => Value::Number(pick(rng, &[f64::NAN, f64::INFINITY])),
            Value::Number(n) if swap && !n.is_finite() => Value::Null,
            Value::Number(n) if swap => Value::Number(if *n == 0.0 { -*n } else { *n }),
            Value::String(s) if swap => match s.parse::<f64>() {
                Ok(n) => Value::Number(n),
                Err(_) => Value::String(pick(rng, &STRINGS).into()),
            },
            leaf => leaf.clone(),
        }
    }

    fn assert_digest_iff_json(a: &Value, b: &Value) -> bool {
        let (ja, jb) = (
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
        );
        assert_eq!(
            state_digest(a) == state_digest(b),
            ja == jb,
            "digest and JSON equality disagree on {ja} vs {jb}"
        );
        ja == jb
    }

    #[test]
    fn state_digest_equality_is_json_equality() {
        use rand::SeedableRng;
        let num = Value::Number;
        let string = |s: &str| Value::String(s.into());
        let obj = |pairs: &[(&str, Value)]| {
            Value::Object(
                pairs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            )
        };
        let arr = Value::Array;
        // Hand-picked near misses, each with whether its two sides print equal.
        let cases = [
            (num(-0.0), num(0.0), false),
            (num(f64::NAN), Value::Null, true),
            (num(f64::INFINITY), Value::Null, true),
            (num(f64::NEG_INFINITY), num(f64::NAN), true),
            (
                serde_json::to_value(&1.0f64).unwrap(),
                serde_json::to_value(&1u64).unwrap(),
                true,
            ),
            (num(1.0), string("1"), false),
            (
                serde_json::to_value(&(1u64 << 53)).unwrap(),
                string("9007199254740992"),
                false,
            ),
            (
                serde_json::to_value(&((1u64 << 53) + 1)).unwrap(),
                string("9007199254740993"),
                true,
            ),
            (
                serde_json::to_value(&((1u64 << 53) + 1)).unwrap(),
                num(((1u64 << 53) + 1) as f64),
                false,
            ),
            (
                obj(&[("ab", string("c"))]),
                obj(&[("a", string("bc"))]),
                false,
            ),
            (
                arr(vec![arr(vec![]), arr(vec![])]),
                arr(vec![arr(vec![arr(vec![])])]),
                false,
            ),
            (obj(&[]), arr(vec![]), false),
            (string(""), Value::Null, false),
            (Value::Bool(false), num(0.0), false),
        ];
        for (a, b, equal) in &cases {
            assert_eq!(assert_digest_iff_json(a, b), *equal, "{a:?} vs {b:?}");
        }
        // Random pairs: independent draws over a small alphabet (often equal at low
        // depth) and near-miss twins of one draw.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let (mut equal, mut unequal) = (0, 0);
        for i in 0..20_000 {
            let a = random_tree(&mut rng, 3);
            let b = if i % 2 == 0 {
                random_tree(&mut rng, 3)
            } else {
                near_miss(&mut rng, &a)
            };
            if assert_digest_iff_json(&a, &b) {
                equal += 1;
            } else {
                unequal += 1;
            }
        }
        assert!(
            equal > 1_000 && unequal > 1_000,
            "{equal} equal, {unequal} unequal pairs"
        );
    }

    #[test]
    fn fnv_digest_is_stable_and_input_sensitive() {
        let a = fnv1a64(b"round-1-state");
        assert_eq!(a, fnv1a64(b"round-1-state"));
        assert_ne!(a, fnv1a64(b"round-1-statf"));
    }
}
