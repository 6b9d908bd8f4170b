//! The write-ahead log for mutable datasets (DESIGN §16): an
//! append-only, checksummed record stream of insert/delete deltas.
//!
//! The serving layer's amortization story keys everything on immutable
//! content fingerprints, so a dataset that changes at all today changes
//! *wholesale* — full re-upload, full re-prepare. The WAL is the other
//! half of the LSM-style answer: writes land as deltas in a durable,
//! replayable log; queries see them through the fresh segment
//! ([`crate::segment::MutableDataset`]); compaction folds them back
//! into a new immutable generation.
//!
//! Format (`wal.v1`, line-oriented TSV — same family as the CLI's
//! request/response TSVs, so it diffs and `cmp`s cleanly in CI):
//!
//! ```text
//! wal.v1 <tab> <cols> [<tab> <base-fnv64-hex>] <tab> <fnv64-hex>
//! <seq> <tab> i <tab> col:bits,col:bits,... <tab> <fnv64-hex>
//! <seq> <tab> d <tab> <row-id> <tab> <fnv64-hex>
//! ```
//!
//! * The optional header field names the base the log was derived from:
//!   its [`crate::fingerprint`], the same hash `manifest.v1` stores. A
//!   replayer checks it against the base it holds, because a log
//!   replayed over another base of the same width applies cleanly and
//!   serves a dataset no rebuild matches.
//! * `seq` is a zero-based, strictly sequential record number; a gap or
//!   repeat is a [`WalError::BadSequence`], never a silent skip.
//! * Insert payloads carry ascending column indices with the value's
//!   exact `f64` bit pattern in hex (`-` for an all-zero row), so a
//!   render→parse round trip is bit-identical — the property the whole
//!   determinism contract rides on.
//! * Delete payloads name the *logical row id*: rows are numbered in
//!   insertion order starting from the seed base (base row `r` is id
//!   `r`), and ids are never reused — a tombstoned id stays dead across
//!   compactions.
//! * Every line ends with an FNV-1a checksum of the bytes before the
//!   final tab. A torn tail (power cut mid-append) therefore fails
//!   closed: [`Wal::parse`] reports the typed error, and
//!   [`Wal::parse_prefix`] recovers exactly the records before it.

use crate::fingerprint::Fnv1a;
use sparse::{Idx, Real};
use std::fmt;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp<T> {
    /// Append a new row (ascending column indices + values); the row is
    /// assigned the next logical id.
    Insert {
        /// Column indices, strictly ascending.
        cols: Vec<Idx>,
        /// Matching values.
        vals: Vec<T>,
    },
    /// Tombstone the row with this logical id.
    Delete {
        /// The logical row id (insertion order, seed base included).
        row: u64,
    },
}

/// One WAL record: a sequence number plus its operation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord<T> {
    /// Zero-based position in the log.
    pub seq: u64,
    /// The mutation.
    pub op: WalOp<T>,
}

/// Typed WAL failures. Parsing and replay either succeed completely or
/// surface one of these — never a panic, never a silent partial apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The log does not start with a valid `wal.v1` header.
    BadHeader {
        /// What was wrong with it.
        reason: String,
    },
    /// A record line could not be parsed.
    Malformed {
        /// 1-based line number in the log text.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A record's checksum does not match its bytes (torn or corrupted
    /// tail).
    ChecksumMismatch {
        /// 1-based line number in the log text.
        line: usize,
        /// Checksum recomputed from the record bytes.
        expected: u64,
        /// Checksum stored on the line.
        found: u64,
    },
    /// Record numbering skipped or repeated.
    BadSequence {
        /// 1-based line number (0 when raised at apply time).
        line: usize,
        /// The sequence number required here.
        expected: u64,
        /// The sequence number found.
        found: u64,
    },
    /// A delete names a logical id that was never assigned.
    DeleteOutOfRange {
        /// The offending record's sequence number.
        seq: u64,
        /// The id it tried to delete.
        row: u64,
    },
    /// A delete names a row that is already dead (tombstoned earlier or
    /// compacted away).
    DeleteDead {
        /// The offending record's sequence number.
        seq: u64,
        /// The id it tried to delete.
        row: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadHeader { reason } => write!(f, "bad wal.v1 header: {reason}"),
            Self::Malformed { line, reason } => {
                write!(f, "malformed wal record at line {line}: {reason}")
            }
            Self::ChecksumMismatch {
                line,
                expected,
                found,
            } => write!(
                f,
                "wal checksum mismatch at line {line}: expected {expected:016x}, found {found:016x}"
            ),
            Self::BadSequence {
                line,
                expected,
                found,
            } => write!(
                f,
                "wal sequence break at line {line}: expected seq {expected}, found {found}"
            ),
            Self::DeleteOutOfRange { seq, row } => {
                write!(f, "wal record {seq} deletes unassigned row id {row}")
            }
            Self::DeleteDead { seq, row } => {
                write!(f, "wal record {seq} deletes already-dead row id {row}")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// FNV-1a over a line's pre-checksum bytes.
fn line_checksum(body: &str) -> u64 {
    let mut h = Fnv1a::default();
    h.write(body.as_bytes());
    h.finish()
}

/// Parses a number in the one form it is rendered in — 16 lowercase
/// hex digits for radix 16 (checksums, fingerprints), plain decimal
/// otherwise — so every accepted line re-renders byte-identically.
/// `from_str_radix` alone also accepts `+5`, `007` and `AB`.
fn parse_canonical(field: &str, radix: u32) -> Option<u64> {
    let v = u64::from_str_radix(field, radix).ok()?;
    let rendered = match radix {
        16 => format!("{v:016x}"),
        _ => v.to_string(),
    };
    (rendered == field).then_some(v)
}

/// An in-memory WAL: the dataset width it applies to, the base it was
/// derived from (when named), plus its records.
#[derive(Debug, Clone, PartialEq)]
pub struct Wal<T> {
    cols: usize,
    base: Option<u64>,
    records: Vec<WalRecord<T>>,
}

impl<T: Real> Wal<T> {
    /// An empty log for datasets of the given width, naming no base.
    pub fn new(cols: usize) -> Self {
        Self {
            cols,
            base: None,
            records: Vec::new(),
        }
    }

    /// The log, naming the base it applies to by its
    /// [`crate::fingerprint`].
    #[must_use]
    pub fn with_base(mut self, fingerprint: u64) -> Self {
        self.base = Some(fingerprint);
        self
    }

    /// Dataset width every insert must respect.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Fingerprint of the base the log was derived from, if it names one.
    pub fn base(&self) -> Option<u64> {
        self.base
    }

    /// The records, in sequence order.
    pub fn records(&self) -> &[WalRecord<T>] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Keeps only the first `n` records — the crash-replay test's "the
    /// tail never happened" primitive.
    pub fn truncate(&mut self, n: usize) {
        self.records.truncate(n);
    }

    /// Appends an insert record; returns its sequence number.
    ///
    /// # Panics
    ///
    /// Panics if the column indices are not strictly ascending and in
    /// range, or if `cols` and `vals` disagree in length — appending is
    /// the writer's API, and a writer handing over a malformed row is a
    /// programmer error, not a replay-time condition.
    pub fn append_insert(&mut self, cols: &[Idx], vals: &[T]) -> u64 {
        assert_eq!(cols.len(), vals.len(), "cols/vals length mismatch");
        assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "insert columns must be strictly ascending"
        );
        assert!(
            cols.iter().all(|&c| (c as usize) < self.cols),
            "insert column out of range"
        );
        let seq = self.records.len() as u64;
        self.records.push(WalRecord {
            seq,
            op: WalOp::Insert {
                cols: cols.to_vec(),
                vals: vals.to_vec(),
            },
        });
        seq
    }

    /// Appends a delete record for logical `row`; returns its sequence
    /// number. Liveness of the id is checked at apply time (the log
    /// cannot know the dataset's state).
    pub fn append_delete(&mut self, row: u64) -> u64 {
        let seq = self.records.len() as u64;
        self.records.push(WalRecord {
            seq,
            op: WalOp::Delete { row },
        });
        seq
    }

    /// Renders the log as `wal.v1` text (header + one line per record,
    /// each with its FNV checksum).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut header = format!("wal.v1\t{}", self.cols);
        if let Some(base) = self.base {
            header.push_str(&format!("\t{base:016x}"));
        }
        out.push_str(&header);
        out.push('\t');
        out.push_str(&format!("{:016x}", line_checksum(&header)));
        out.push('\n');
        for rec in &self.records {
            let body = match &rec.op {
                WalOp::Insert { cols, vals } => {
                    let payload = if cols.is_empty() {
                        "-".to_string()
                    } else {
                        cols.iter()
                            .zip(vals)
                            .map(|(c, v)| format!("{}:{:016x}", c, v.to_f64().to_bits()))
                            .collect::<Vec<_>>()
                            .join(",")
                    };
                    format!("{}\ti\t{}", rec.seq, payload)
                }
                WalOp::Delete { row } => format!("{}\td\t{}", rec.seq, row),
            };
            out.push_str(&body);
            out.push('\t');
            out.push_str(&format!("{:016x}", line_checksum(&body)));
            out.push('\n');
        }
        out
    }

    /// Strict parse: the whole text must be a valid log. The CLI's
    /// ingest path uses this — a torn or corrupted WAL is an input
    /// error, not something to serve around silently.
    ///
    /// # Errors
    ///
    /// Returns the first [`WalError`] encountered.
    pub fn parse(text: &str) -> Result<Self, WalError> {
        let (wal, err) = Self::parse_prefix(text);
        match err {
            Some(e) => Err(e),
            None => Ok(wal),
        }
    }

    /// Lossy parse: returns the longest valid prefix plus the error
    /// that stopped parsing (if any). Crash recovery uses this — every
    /// record before the torn tail is intact by checksum, so replaying
    /// the prefix is exactly "the tail never happened".
    pub fn parse_prefix(text: &str) -> (Self, Option<WalError>) {
        let mut lines = text.lines().enumerate();
        let header = match lines.next() {
            Some((_, l)) => l,
            None => {
                return (
                    Self::new(0),
                    Some(WalError::BadHeader {
                        reason: "empty log".to_string(),
                    }),
                )
            }
        };
        let mut wal = match Self::parse_header(header) {
            Ok(w) => w,
            Err(e) => return (Self::new(0), Some(e)),
        };
        for (idx, line) in lines {
            // A trailing newline produces no empty element from
            // `lines()`, so an empty line mid-log is real corruption.
            if let Err(e) = wal.parse_record_line(idx + 1, line) {
                return (wal, Some(e));
            }
        }
        (wal, None)
    }

    /// The empty log a header line describes.
    fn parse_header(line: &str) -> Result<Self, WalError> {
        let bad = |reason: &str| WalError::BadHeader {
            reason: reason.to_string(),
        };
        let (body, sum) = line
            .rsplit_once('\t')
            .ok_or_else(|| bad("missing checksum"))?;
        let found = parse_canonical(sum, 16)
            .ok_or_else(|| bad("checksum is not 16 lowercase hex digits"))?;
        let expected = line_checksum(body);
        if found != expected {
            return Err(bad("header checksum mismatch"));
        }
        let mut parts = body.split('\t');
        if parts.next() != Some("wal.v1") {
            return Err(bad("expected magic `wal.v1`"));
        }
        let cols = parts
            .next()
            .and_then(|c| parse_canonical(c, 10))
            .and_then(|c| usize::try_from(c).ok())
            .ok_or_else(|| bad("missing or non-canonical column count"))?;
        let mut wal = Self::new(cols);
        if let Some(base) = parts.next() {
            let fp = parse_canonical(base, 16)
                .ok_or_else(|| bad("base fingerprint is not 16 lowercase hex digits"))?;
            wal = wal.with_base(fp);
        }
        if parts.next().is_some() {
            return Err(bad("trailing header fields"));
        }
        Ok(wal)
    }

    fn parse_record_line(&mut self, line_no: usize, line: &str) -> Result<(), WalError> {
        let malformed = |reason: String| WalError::Malformed {
            line: line_no,
            reason,
        };
        let (body, sum) = line
            .rsplit_once('\t')
            .ok_or_else(|| malformed("missing checksum field".to_string()))?;
        let found = parse_canonical(sum, 16)
            .ok_or_else(|| malformed("checksum is not 16 lowercase hex digits".to_string()))?;
        let expected = line_checksum(body);
        if found != expected {
            return Err(WalError::ChecksumMismatch {
                line: line_no,
                expected,
                found,
            });
        }
        let mut parts = body.split('\t');
        let seq = parts
            .next()
            .and_then(|s| parse_canonical(s, 10))
            .ok_or_else(|| malformed("missing or non-canonical seq".to_string()))?;
        let want = self.records.len() as u64;
        if seq != want {
            return Err(WalError::BadSequence {
                line: line_no,
                expected: want,
                found: seq,
            });
        }
        let op = parts
            .next()
            .ok_or_else(|| malformed("missing op field".to_string()))?;
        let payload = parts
            .next()
            .ok_or_else(|| malformed("missing payload field".to_string()))?;
        if parts.next().is_some() {
            return Err(malformed("trailing record fields".to_string()));
        }
        match op {
            "i" => {
                let mut cols: Vec<Idx> = Vec::new();
                let mut vals: Vec<T> = Vec::new();
                if payload != "-" {
                    for cell in payload.split(',') {
                        let (c, bits) = cell
                            .split_once(':')
                            .ok_or_else(|| malformed(format!("bad insert cell `{cell}`")))?;
                        let c = parse_canonical(c, 10)
                            .and_then(|c| Idx::try_from(c).ok())
                            .ok_or_else(|| malformed(format!("bad column `{c}`")))?;
                        let bits = parse_canonical(bits, 16)
                            .ok_or_else(|| malformed(format!("bad value bits `{bits}`")))?;
                        if (c as usize) >= self.cols {
                            return Err(malformed(format!(
                                "column {c} out of range for width {}",
                                self.cols
                            )));
                        }
                        if let Some(&last) = cols.last() {
                            if c <= last {
                                return Err(malformed(
                                    "insert columns must be strictly ascending".to_string(),
                                ));
                            }
                        }
                        cols.push(c);
                        vals.push(T::from_f64(f64::from_bits(bits)));
                    }
                }
                self.records.push(WalRecord {
                    seq,
                    op: WalOp::Insert { cols, vals },
                });
            }
            "d" => {
                let row = parse_canonical(payload, 10)
                    .ok_or_else(|| malformed(format!("bad delete row id `{payload}`")))?;
                self.records.push(WalRecord {
                    seq,
                    op: WalOp::Delete { row },
                });
            }
            other => return Err(malformed(format!("unknown op `{other}`"))),
        }
        Ok(())
    }
}

/// The generation-stamped manifest: one checksummed line naming the
/// state a serving process should recover to — which base generation is
/// current, its content fingerprint, and how far into the log replay
/// has progressed. Written next to the WAL by the CLI's ingest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Compaction generation of the current base segment.
    pub generation: u64,
    /// Rows in the current base segment.
    pub base_rows: usize,
    /// [`crate::fingerprint::fingerprint_with_generation`] of the base.
    pub base_fingerprint: u64,
    /// Records consumed from the log (applied or rejected).
    pub log_position: u64,
    /// Dataset width.
    pub cols: usize,
}

impl Manifest {
    /// Renders the manifest as one checksummed `manifest.v1` line.
    pub fn render(&self) -> String {
        let body = format!(
            "manifest.v1\tgeneration={}\tbase_rows={}\tbase_fingerprint={:016x}\tlog_position={}\tcols={}",
            self.generation, self.base_rows, self.base_fingerprint, self.log_position, self.cols
        );
        format!("{}\t{:016x}\n", body, line_checksum(&body))
    }

    /// Parses a rendered manifest. Only the canonical rendering is
    /// accepted, so every parsed manifest re-renders to exactly `text`.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::BadHeader`] when the text is not one
    /// newline-terminated line, or the magic, a field, or the checksum
    /// does not check out.
    pub fn parse(text: &str) -> Result<Self, WalError> {
        let bad = |reason: &str| WalError::BadHeader {
            reason: format!("manifest: {reason}"),
        };
        let line = text
            .strip_suffix('\n')
            .filter(|line| !line.contains('\n'))
            .ok_or_else(|| bad("expected one newline-terminated line"))?;
        let (body, sum) = line
            .rsplit_once('\t')
            .ok_or_else(|| bad("missing checksum"))?;
        let found = parse_canonical(sum, 16)
            .ok_or_else(|| bad("checksum is not 16 lowercase hex digits"))?;
        if found != line_checksum(body) {
            return Err(bad("checksum mismatch"));
        }
        let mut parts = body.split('\t');
        if parts.next() != Some("manifest.v1") {
            return Err(bad("expected magic `manifest.v1`"));
        }
        let mut field = |name: &str| -> Result<u64, WalError> {
            let cell = parts.next().ok_or_else(|| bad("missing field"))?;
            let (k, v) = cell.split_once('=').ok_or_else(|| bad("bad field"))?;
            if k != name {
                return Err(bad(&format!("expected field `{name}`, found `{k}`")));
            }
            if name == "base_fingerprint" {
                parse_canonical(v, 16)
                    .ok_or_else(|| bad("fingerprint is not 16 lowercase hex digits"))
            } else {
                parse_canonical(v, 10).ok_or_else(|| bad(&format!("non-canonical `{name}`")))
            }
        };
        let manifest = Self {
            generation: field("generation")?,
            base_rows: field("base_rows")? as usize,
            base_fingerprint: field("base_fingerprint")?,
            log_position: field("log_position")?,
            cols: field("cols")? as usize,
        };
        if parts.next().is_some() {
            return Err(bad("unexpected field after `cols`"));
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn sample() -> Wal<f32> {
        let mut w = Wal::new(6);
        w.append_insert(&[0, 2, 5], &[1.0, -2.5, 0.125]);
        w.append_delete(1);
        w.append_insert(&[], &[]);
        w.append_insert(&[3], &[f32::MIN_POSITIVE]);
        w.append_delete(7);
        w
    }

    #[test]
    fn render_parse_round_trips_bit_exactly() {
        let w = sample();
        let text = w.render();
        let back = Wal::<f32>::parse(&text).expect("valid log parses");
        assert_eq!(back.cols(), 6);
        assert_eq!(back.records().len(), w.records().len());
        for (a, b) in w.records().iter().zip(back.records()) {
            assert_eq!(a.seq, b.seq);
            match (&a.op, &b.op) {
                (WalOp::Insert { cols: ca, vals: va }, WalOp::Insert { cols: cb, vals: vb }) => {
                    assert_eq!(ca, cb);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(va), bits(vb));
                }
                (WalOp::Delete { row: ra }, WalOp::Delete { row: rb }) => assert_eq!(ra, rb),
                (x, y) => panic!("op kind diverged: {x:?} vs {y:?}"),
            }
        }
        // Rendering the parse is byte-identical to the original text.
        assert_eq!(text, back.render());
    }

    #[test]
    fn base_fingerprint_round_trips_and_rejects_garbage() {
        let w = sample().with_base(0x0123_4567_89ab_cdef);
        let text = w.render();
        assert!(text.starts_with("wal.v1\t6\t0123456789abcdef\t"), "{text}");
        let back = Wal::<f32>::parse(&text).expect("valid log parses");
        assert_eq!(back.base(), Some(0x0123_4567_89ab_cdef));
        assert_eq!(back, w);
        assert_eq!(Wal::<f32>::parse(&sample().render()).unwrap().base(), None);
        for header in [
            "wal.v1\t6\t123",
            "wal.v1\t6\t0123456789ABCDEF",
            "wal.v1\t6\t0123456789abcdef\t1",
        ] {
            let resealed = reseal(&format!("{header}\tchecksum"));
            let err = Wal::<f32>::parse(&resealed).unwrap_err();
            assert!(
                matches!(err, WalError::BadHeader { .. }),
                "{header}: {err:?}"
            );
        }
    }

    #[test]
    fn corrupted_bytes_fail_closed_with_typed_errors() {
        let text = sample().render();
        // Flip one payload byte on the third line: checksum mismatch.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[2] = lines[2].replacen("\td\t", "\ti\t", 1);
        let torn = lines.join("\n");
        let (prefix, err) = Wal::<f32>::parse_prefix(&torn);
        assert_eq!(prefix.len(), 1, "records before the corruption survive");
        assert!(
            matches!(err, Some(WalError::ChecksumMismatch { line: 3, .. })),
            "{err:?}"
        );
        assert!(Wal::<f32>::parse(&torn).is_err());

        // Drop a line: sequence break.
        let skipped = format!("{}\n{}\n{}", lines[0], lines[1], lines[3]);
        let (_, err) = Wal::<f32>::parse_prefix(&skipped);
        assert!(
            matches!(
                err,
                Some(WalError::BadSequence {
                    expected: 1,
                    found: 2,
                    ..
                })
            ),
            "{err:?}"
        );

        // Garbage header.
        let (w, err) = Wal::<f32>::parse_prefix("nonsense");
        assert!(matches!(err, Some(WalError::BadHeader { .. })), "{err:?}");
        assert!(w.is_empty());
    }

    /// Applies one garbling to `text`: kind 0 substitutes `byte` at
    /// `at`, kind 1 flips bit `byte % 8` there, kind 2 swaps tab fields
    /// `field` and `byte` of the line holding it (indices wrap).
    fn garble(text: &mut Vec<u8>, (kind, at, byte, field): (u8, usize, u8, usize)) {
        let at = at % text.len();
        match kind {
            0 => text[at] = byte,
            1 => text[at] ^= 1 << (byte % 8),
            _ => {
                let line = text[..at].iter().filter(|&&b| b == b'\n').count();
                let owned = String::from_utf8_lossy(text).into_owned();
                let mut lines: Vec<String> = owned.split('\n').map(String::from).collect();
                let mut fields: Vec<&str> = lines[line].split('\t').collect();
                let n = fields.len();
                fields.swap(field % n, byte as usize % n);
                lines[line] = fields.join("\t");
                *text = lines.join("\n").into_bytes();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Garbage never panics either parser, raw or with every line's
        /// checksum recomputed over its garbled body, and every record
        /// they return re-renders to exactly the line it was parsed from.
        #[test]
        fn garbled_logs_never_panic_and_parsed_records_re_render(
            cols in 1usize..16,
            // (0, _) logs name no base.
            base in (0u8..2, 0u64..=u64::MAX),
            rows in proptest::collection::vec(
                proptest::collection::vec((0u32..16, 1u32..1000), 0..5), 0..6),
            edits in proptest::collection::vec((
                0u8..3,
                0usize..4096,
                prop_oneof![0u8..=255, b'0'..=b'9', b'a'..=b'f', b'A'..=b'F',
                            Just(b'\t'), Just(b'\n'), Just(b'+')],
                0usize..4,
            ), 1..4),
        ) {
            let mut wal = Wal::<f64>::new(cols);
            if base.0 == 1 {
                wal = wal.with_base(base.1);
            }
            for cells in rows {
                // A row whose first cell is odd logs a delete instead.
                if cells.first().is_some_and(|&(_, v)| v % 2 == 1) {
                    wal.append_delete(wal.len() as u64);
                    continue;
                }
                let cells: BTreeMap<Idx, f64> =
                    cells.into_iter().map(|(c, v)| (c % cols as Idx, v as f64 / 7.0)).collect();
                let (c, v): (Vec<Idx>, Vec<f64>) = cells.into_iter().unzip();
                wal.append_insert(&c, &v);
            }
            let mut bytes = wal.render().into_bytes();
            for edit in edits {
                garble(&mut bytes, edit);
            }
            let raw = String::from_utf8_lossy(&bytes).into_owned();
            let resealed: String = raw.lines().map(reseal).collect();
            for text in [resealed, raw] {
                let input: Vec<&str> = text.lines().collect();
                let (prefix, err) = Wal::<f64>::parse_prefix(&text);
                let rendered = prefix.render();
                // On a bad header the returned log is a placeholder.
                if !matches!(err, Some(WalError::BadHeader { .. })) {
                    let rendered: Vec<&str> = rendered.lines().collect();
                    prop_assert_eq!(&rendered[..], &input[..rendered.len()]);
                }
                match Wal::<f64>::parse(&text) {
                    Ok(whole) => prop_assert_eq!((err, whole.render()), (None, rendered)),
                    Err(e) => prop_assert_eq!(Some(e), err),
                }
            }
        }
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let m = Manifest {
            generation: 3,
            base_rows: 128,
            base_fingerprint: 0xdead_beef_cafe_f00d,
            log_position: 999,
            cols: 64,
        };
        let text = m.render();
        assert_eq!(Manifest::parse(&text).expect("parses"), m);
        let corrupt = text.replacen("generation=3", "generation=4", 1);
        assert!(Manifest::parse(&corrupt).is_err(), "checksum must catch it");
        // Signed, zero-padded and upper-case numbers parse as the same
        // values, so only the canonical spelling may pass, even under a
        // valid checksum; so must a second line.
        for (from, to) in [("=3\t", "=+3\t"), ("=64", "=064"), ("=dead", "=+DEAD")] {
            let garbled = reseal(&text.replacen(from, to, 1));
            assert!(Manifest::parse(&garbled).is_err(), "{garbled} accepted");
        }
        assert!(Manifest::parse(&format!("{text}{text}")).is_err());
        assert_eq!(Manifest::parse(&reseal(&text)), Ok(m));
    }

    /// `text` with its checksum recomputed over the (garbled) body, so
    /// parsing gets past the checksum to the fields.
    fn reseal(text: &str) -> String {
        let line = text.strip_suffix('\n').unwrap_or(text);
        let body = line.rsplit_once('\t').map_or(line, |(body, _)| body);
        format!("{body}\t{:016x}\n", line_checksum(body))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Garbage never panics the manifest parser, raw or with the
        /// checksum recomputed over the garbled body, and every
        /// manifest it accepts re-renders to exactly its input.
        #[test]
        fn garbled_manifests_never_panic_and_parsed_ones_re_render(
            generation in 0u64..1000,
            base_rows in 0usize..100_000,
            base_fingerprint in 0u64..=u64::MAX,
            log_position in 0u64..1_000_000,
            cols in 0usize..4096,
            edits in proptest::collection::vec((
                0u8..3,
                0usize..4096,
                // Signs, zeros and upper-case hex: the non-canonical
                // spellings a lenient number parser would accept.
                prop_oneof![0u8..=255, b'0'..=b'9', b'a'..=b'f', b'A'..=b'F',
                            Just(b'\t'), Just(b'\n'), Just(b'='), Just(b'+'), Just(b'0')],
                0usize..8,
            ), 1..4),
        ) {
            let m = Manifest { generation, base_rows, base_fingerprint, log_position, cols };
            let mut bytes = m.render().into_bytes();
            for edit in edits {
                garble(&mut bytes, edit);
            }
            let raw = String::from_utf8_lossy(&bytes).into_owned();
            for text in [reseal(&raw), raw] {
                if let Ok(parsed) = Manifest::parse(&text) {
                    prop_assert_eq!(parsed.render(), text);
                }
            }
        }
    }
}
