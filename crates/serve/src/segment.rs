//! The mutable-dataset segment structure (DESIGN §16): an immutable
//! prepared **base** plus a small brute-force **fresh** segment and a
//! tombstone set, with snapshot compaction folding fresh back into a
//! new base generation.
//!
//! Rows carry *logical ids* assigned in insertion order — seed base row
//! `r` is id `r`, WAL inserts continue from there, and ids are never
//! reused. The live view of the dataset is "all non-tombstoned rows in
//! ascending id order", which is exactly the row order a from-scratch
//! rebuild ([`MutableDataset::rebuild`]) materializes. Queries answer
//! in that coordinate system (*live ranks*), so a served index is
//! directly a row number of the rebuilt matrix — the byte-identity
//! oracle the acceptance tests `cmp` against.
//!
//! Why per-arm execution is exact (not approximately) equal to the
//! rebuild: per-row distances are pure functions of the query row and
//! the index row bytes, independent of which other rows share the
//! matrix (DESIGN §10's singleton-slab argument — the same fact that
//! makes contiguous sharding byte-identical). So computing the base arm
//! and fresh arm separately, masking tombstones, remapping to live
//! ranks, and merging under [`cmp_dist_idx`] reproduces the one-shot
//! answer over the rebuilt matrix bit for bit.

use crate::wal::{WalError, WalOp, WalRecord};
use sparse::{cmp_dist_idx, CsrMatrix, Idx, Real};
use std::collections::BTreeSet;

/// One fresh (not-yet-compacted) row.
#[derive(Debug, Clone)]
struct FreshRow<T> {
    id: u64,
    cols: Vec<Idx>,
    vals: Vec<T>,
}

/// What applying one WAL record did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedOp {
    /// A row was appended and assigned this logical id.
    Inserted {
        /// The new row's logical id.
        id: u64,
    },
    /// A live row was tombstoned.
    Deleted {
        /// The tombstoned logical id.
        id: u64,
    },
}

/// A snapshot taken by [`MutableDataset::begin_compaction`]: the new
/// base contents frozen at snapshot time, carried by the compactor
/// while writes keep landing, and swapped in by
/// [`MutableDataset::finish_compaction`].
#[derive(Debug, Clone)]
pub struct CompactionJob<T> {
    /// The new base: live rows at snapshot time, ascending id order.
    pub matrix: CsrMatrix<T>,
    /// Logical id of each row of `matrix`.
    pub ids: Vec<u64>,
    /// `next_id` at snapshot time: every id below this is either in
    /// `ids` or permanently dead once the job lands.
    pub watermark: u64,
    /// The generation this job will become.
    pub generation: u64,
}

/// What a finished compaction changed, for metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Rows in the new base.
    pub rows: usize,
    /// Tombstones dropped because their rows were compacted away.
    pub cleared_tombstones: usize,
    /// Fresh rows folded into the new base.
    pub folded_fresh: usize,
}

/// Precomputed id→live-rank maps for one query dispatch. Ranks are row
/// numbers of the rebuilt matrix; `None` marks a tombstoned row.
#[derive(Debug, Clone)]
pub struct RankPlan {
    /// Live rank per base-matrix row (position order).
    pub base_rank: Vec<Option<usize>>,
    /// Live rank per fresh-matrix row (position order).
    pub fresh_rank: Vec<Option<usize>>,
    /// Tombstoned rows in the base matrix (the base arm's over-fetch
    /// padding: `k + base_dead` candidates survive any masking).
    pub base_dead: usize,
    /// Tombstoned rows in the fresh matrix.
    pub fresh_dead: usize,
    /// Total live rows.
    pub live: usize,
}

/// A dataset that accepts WAL deltas while staying exactly servable:
/// prepared base + brute-force fresh + tombstones.
#[derive(Debug, Clone)]
pub struct MutableDataset<T> {
    cols: usize,
    base: CsrMatrix<T>,
    /// Logical id of each base row, strictly ascending.
    base_ids: Vec<u64>,
    generation: u64,
    next_id: u64,
    fresh: Vec<FreshRow<T>>,
    tombstones: BTreeSet<u64>,
    /// Records consumed from the log (applied or rejected), i.e. the
    /// seq the next record must carry.
    log_position: u64,
}

impl<T: Real> MutableDataset<T> {
    /// Wraps a seed base matrix: its rows get logical ids `0..rows`,
    /// generation 0, empty fresh segment.
    pub fn new(base: CsrMatrix<T>) -> Self {
        let rows = base.rows() as u64;
        Self {
            cols: base.cols(),
            base_ids: (0..rows).collect(),
            next_id: rows,
            base,
            generation: 0,
            fresh: Vec::new(),
            tombstones: BTreeSet::new(),
            log_position: 0,
        }
    }

    /// Dataset width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Current compaction generation of the base segment.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The base segment (may contain tombstoned rows until the next
    /// compaction).
    pub fn base(&self) -> &CsrMatrix<T> {
        &self.base
    }

    /// Rows in the fresh segment (tombstoned ones included).
    pub fn fresh_rows(&self) -> usize {
        self.fresh.len()
    }

    /// Outstanding tombstones.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Records consumed from the log so far.
    pub fn log_position(&self) -> u64 {
        self.log_position
    }

    /// Live (servable) rows.
    pub fn live_rows(&self) -> usize {
        self.base_ids.len() + self.fresh.len() - self.tombstones.len()
    }

    /// Deltas the next compaction would fold or clear: fresh rows plus
    /// tombstones. The compaction threshold compares against this.
    pub fn pending_ops(&self) -> usize {
        self.fresh.len() + self.tombstones.len()
    }

    fn is_live(&self, id: u64) -> bool {
        if self.tombstones.contains(&id) {
            return false;
        }
        self.base_ids.binary_search(&id).is_ok()
            || self.fresh.binary_search_by_key(&id, |f| f.id).is_ok()
    }

    /// Applies one WAL record. The record's `seq` must be exactly the
    /// current log position; op-level rejects (bad deletes) still
    /// consume the position — the log moves forward, the state does
    /// not, and the caller counts the record as rejected.
    ///
    /// # Errors
    ///
    /// [`WalError::BadSequence`] on a position mismatch (nothing
    /// consumed); [`WalError::DeleteOutOfRange`] / [`WalError::DeleteDead`]
    /// when a delete names an unassigned or dead id (record consumed).
    pub fn apply(&mut self, record: &WalRecord<T>) -> Result<AppliedOp, WalError> {
        if record.seq != self.log_position {
            return Err(WalError::BadSequence {
                line: 0,
                expected: self.log_position,
                found: record.seq,
            });
        }
        self.log_position += 1;
        match &record.op {
            WalOp::Insert { cols, vals } => {
                let id = self.next_id;
                self.next_id += 1;
                self.fresh.push(FreshRow {
                    id,
                    cols: cols.clone(),
                    vals: vals.clone(),
                });
                Ok(AppliedOp::Inserted { id })
            }
            WalOp::Delete { row } => {
                if *row >= self.next_id {
                    return Err(WalError::DeleteOutOfRange {
                        seq: record.seq,
                        row: *row,
                    });
                }
                if !self.is_live(*row) {
                    return Err(WalError::DeleteDead {
                        seq: record.seq,
                        row: *row,
                    });
                }
                self.tombstones.insert(*row);
                Ok(AppliedOp::Deleted { id: *row })
            }
        }
    }

    /// The fresh segment as a matrix (tombstoned rows included — row
    /// membership never changes distances of other rows, and keeping
    /// positions stable means deletes don't force a rebuild). Row `i`
    /// corresponds to the `i`-th inserted-and-not-yet-compacted row.
    pub fn fresh_matrix(&self) -> CsrMatrix<T> {
        let mut indptr = Vec::with_capacity(self.fresh.len() + 1);
        let mut indices: Vec<Idx> = Vec::new();
        let mut values: Vec<T> = Vec::new();
        indptr.push(0);
        for f in &self.fresh {
            indices.extend_from_slice(&f.cols);
            values.extend_from_slice(&f.vals);
            indptr.push(indices.len());
        }
        CsrMatrix::from_parts(self.fresh.len(), self.cols, indptr, indices, values)
            .expect("fresh rows preserve CSR invariants")
    }

    /// Materializes the equivalent immutable dataset: live rows in
    /// ascending logical-id order. This is the byte-identity oracle —
    /// served indices are row numbers of exactly this matrix.
    pub fn rebuild(&self) -> CsrMatrix<T> {
        let mut indptr = Vec::new();
        let mut indices: Vec<Idx> = Vec::new();
        let mut values: Vec<T> = Vec::new();
        indptr.push(0);
        let mut rows = 0;
        // Base ids all precede fresh ids, and both are ascending, so
        // live order is "live base rows, then live fresh rows".
        for (pos, id) in self.base_ids.iter().enumerate() {
            if self.tombstones.contains(id) {
                continue;
            }
            indices.extend_from_slice(self.base.row_indices(pos));
            values.extend_from_slice(self.base.row_values(pos));
            indptr.push(indices.len());
            rows += 1;
        }
        for f in &self.fresh {
            if self.tombstones.contains(&f.id) {
                continue;
            }
            indices.extend_from_slice(&f.cols);
            values.extend_from_slice(&f.vals);
            indptr.push(indices.len());
            rows += 1;
        }
        CsrMatrix::from_parts(rows, self.cols, indptr, indices, values)
            .expect("live rows preserve CSR invariants")
    }

    /// Builds the id→live-rank maps for the current state.
    pub fn rank_plan(&self) -> RankPlan {
        let mut base_rank = Vec::with_capacity(self.base_ids.len());
        let mut rank = 0usize;
        let mut base_dead = 0usize;
        for id in &self.base_ids {
            if self.tombstones.contains(id) {
                base_rank.push(None);
                base_dead += 1;
            } else {
                base_rank.push(Some(rank));
                rank += 1;
            }
        }
        let mut fresh_rank = Vec::with_capacity(self.fresh.len());
        let mut fresh_dead = 0usize;
        for f in &self.fresh {
            if self.tombstones.contains(&f.id) {
                fresh_rank.push(None);
                fresh_dead += 1;
            } else {
                fresh_rank.push(Some(rank));
                rank += 1;
            }
        }
        RankPlan {
            base_rank,
            fresh_rank,
            base_dead,
            fresh_dead,
            live: rank,
        }
    }

    /// Snapshots the live state as a [`CompactionJob`]. Writes applied
    /// after this call accumulate normally and survive the swap.
    pub fn begin_compaction(&self) -> CompactionJob<T> {
        let ids: Vec<u64> = self
            .base_ids
            .iter()
            .chain(self.fresh.iter().map(|f| &f.id))
            .filter(|id| !self.tombstones.contains(id))
            .copied()
            .collect();
        CompactionJob {
            matrix: self.rebuild(),
            ids,
            watermark: self.next_id,
            generation: self.generation + 1,
        }
    }

    /// Atomically swaps a finished compaction in: the job's matrix
    /// becomes the base, fresh keeps only rows inserted after the
    /// snapshot, and tombstones referencing compacted-away rows are
    /// dropped. Queries before and after the swap answer identically —
    /// the swap only moves rows between arms.
    pub fn finish_compaction(&mut self, job: CompactionJob<T>) -> CompactionOutcome {
        debug_assert_eq!(job.generation, self.generation + 1, "jobs land in order");
        let folded_fresh = self.fresh.iter().filter(|f| f.id < job.watermark).count();
        self.fresh.retain(|f| f.id >= job.watermark);
        // A tombstone stays only while its row is still present in an
        // arm: rows of the new base (deleted after the snapshot) or
        // fresh rows past the watermark. Everything else was compacted
        // away and its id can never be referenced again.
        let before = self.tombstones.len();
        let ids = &job.ids;
        self.tombstones
            .retain(|id| *id >= job.watermark || ids.binary_search(id).is_ok());
        let cleared = before - self.tombstones.len();
        let rows = job.matrix.rows();
        self.base = job.matrix;
        self.base_ids = job.ids;
        self.generation = job.generation;
        CompactionOutcome {
            rows,
            cleared_tombstones: cleared,
            folded_fresh,
        }
    }
}

/// One arm's per-query candidate lists: `(indices, distances)`, both
/// arm-local and in canonical [`cmp_dist_idx`] order.
pub type ArmLists<'a, T> = (&'a [Vec<usize>], &'a [Vec<T>]);

/// Merges per-query candidate lists from the base and fresh arms into
/// the final top-`k` in live-rank coordinates.
///
/// Each arm's lists are in canonical [`cmp_dist_idx`] order over
/// *arm-local* indices; remapping through the [`RankPlan`] is monotone
/// (live rank increases with arm row), so each remapped list stays
/// sorted and a two-pointer merge under `cmp_dist_idx` yields the
/// exact order a one-shot top-k over the rebuilt matrix produces.
pub fn merge_arms<T: Real>(
    k: usize,
    plan: &RankPlan,
    base: Option<ArmLists<'_, T>>,
    fresh: Option<ArmLists<'_, T>>,
    queries: usize,
) -> (Vec<Vec<usize>>, Vec<Vec<T>>) {
    let remap =
        |arm: Option<ArmLists<'_, T>>, ranks: &[Option<usize>], q: usize| -> Vec<(usize, T)> {
            match arm {
                Some((idx, dist)) => idx[q]
                    .iter()
                    .zip(&dist[q])
                    .filter_map(|(&i, &d)| ranks[i].map(|r| (r, d)))
                    .collect(),
                None => Vec::new(),
            }
        };
    let mut out_idx = Vec::with_capacity(queries);
    let mut out_dist = Vec::with_capacity(queries);
    for q in 0..queries {
        let a = remap(base, &plan.base_rank, q);
        let b = remap(fresh, &plan.fresh_rank, q);
        let mut merged = Vec::with_capacity(k.min(a.len() + b.len()));
        let (mut i, mut j) = (0, 0);
        while merged.len() < k && (i < a.len() || j < b.len()) {
            let take_a = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => cmp_dist_idx(x, y).is_le(),
                (Some(_), None) => true,
                _ => false,
            };
            if take_a {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        out_idx.push(merged.iter().map(|&(r, _)| r).collect());
        out_dist.push(merged.iter().map(|&(_, d)| d).collect());
    }
    (out_idx, out_dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Wal;

    fn row(seed: usize) -> (Vec<Idx>, Vec<f64>) {
        let cols: Vec<Idx> = (0..8u32)
            .filter(|&c| (c as usize + seed).is_multiple_of(3))
            .collect();
        let vals = cols
            .iter()
            .map(|&c| 1.0 + seed as f64 + f64::from(c) / 7.0)
            .collect();
        (cols, vals)
    }

    fn seeded(rows: usize) -> (MutableDataset<f64>, Wal<f64>) {
        let mut dense = vec![0.0; rows * 8];
        for r in 0..rows {
            let (cols, vals) = row(r);
            for (c, v) in cols.iter().zip(&vals) {
                dense[r * 8 + *c as usize] = *v;
            }
        }
        (
            MutableDataset::new(CsrMatrix::from_dense(rows, 8, &dense)),
            Wal::new(8),
        )
    }

    #[test]
    fn inserts_deletes_and_rebuild_agree_with_logical_order() {
        let (mut ds, mut wal) = seeded(3);
        let (c, v) = row(10);
        wal.append_insert(&c, &v);
        wal.append_delete(1);
        let (c, v) = row(11);
        wal.append_insert(&c, &v);
        for rec in wal.records() {
            ds.apply(rec).expect("applies");
        }
        assert_eq!(ds.live_rows(), 4);
        assert_eq!(ds.pending_ops(), 3);
        let rebuilt = ds.rebuild();
        assert_eq!(rebuilt.rows(), 4);
        // Live order: base 0, base 2, fresh id 3, fresh id 4.
        let plan = ds.rank_plan();
        assert_eq!(plan.base_rank, vec![Some(0), None, Some(1)]);
        assert_eq!(plan.fresh_rank, vec![Some(2), Some(3)]);
        assert_eq!((plan.base_dead, plan.fresh_dead, plan.live), (1, 0, 4));
        // Rebuilt row 1 is base row 2.
        assert_eq!(rebuilt.row_indices(1), ds.base().row_indices(2));
    }

    #[test]
    fn bad_deletes_are_typed_and_consume_the_log_position() {
        let (mut ds, _) = seeded(2);
        let bad = WalRecord {
            seq: 0,
            op: WalOp::Delete { row: 99 },
        };
        assert!(matches!(
            ds.apply(&bad),
            Err(WalError::DeleteOutOfRange { seq: 0, row: 99 })
        ));
        assert_eq!(ds.log_position(), 1, "rejected records still consume seq");
        let ok = WalRecord {
            seq: 1,
            op: WalOp::Delete { row: 0 },
        };
        ds.apply(&ok).expect("applies");
        let twice = WalRecord {
            seq: 2,
            op: WalOp::Delete { row: 0 },
        };
        assert!(matches!(
            ds.apply(&twice),
            Err(WalError::DeleteDead { seq: 2, row: 0 })
        ));
        // Out-of-order records do not consume anything.
        let skew = WalRecord {
            seq: 7,
            op: WalOp::Delete { row: 1 },
        };
        assert!(matches!(ds.apply(&skew), Err(WalError::BadSequence { .. })));
        assert_eq!(ds.log_position(), 3);
    }

    #[test]
    fn compaction_folds_fresh_clears_dead_tombstones_and_preserves_rebuild() {
        let (mut ds, mut wal) = seeded(4);
        for s in 10..14 {
            let (c, v) = row(s);
            wal.append_insert(&c, &v);
        }
        wal.append_delete(0);
        wal.append_delete(5);
        for rec in wal.records() {
            ds.apply(rec).expect("applies");
        }
        let before = ds.rebuild();
        let job = ds.begin_compaction();
        // Writes landing mid-compaction.
        let (c, v) = row(20);
        let mut extra = WalRecord {
            seq: ds.log_position(),
            op: WalOp::Insert {
                cols: c.clone(),
                vals: v.clone(),
            },
        };
        ds.apply(&extra).expect("mid-compaction insert");
        extra.seq += 1;
        extra.op = WalOp::Delete { row: 1 };
        ds.apply(&extra).expect("mid-compaction delete");
        let mid = ds.rebuild();

        let outcome = ds.finish_compaction(job);
        assert_eq!(ds.generation(), 1);
        assert_eq!(outcome.rows, before.rows());
        // Tombstones for ids 0 and 5 were compacted away; the
        // mid-compaction tombstone for id 1 (now a base row) remains.
        assert_eq!(outcome.cleared_tombstones, 2);
        assert_eq!(ds.tombstone_count(), 1);
        assert_eq!(ds.fresh_rows(), 1, "post-snapshot insert stays fresh");
        // The swap changes no answers: rebuild is identical before and
        // after landing the job.
        let after = ds.rebuild();
        assert_eq!(mid.rows(), after.rows());
        assert_eq!(mid.indptr(), after.indptr());
        assert_eq!(mid.indices(), after.indices());
        let bits = |m: &CsrMatrix<f64>| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&mid), bits(&after));
        // A second compaction from here lands as generation 2.
        let job2 = ds.begin_compaction();
        ds.finish_compaction(job2);
        assert_eq!(ds.generation(), 2);
        assert_eq!(ds.pending_ops(), 0);
        assert_eq!(ds.rebuild().rows(), after.rows());
    }

    #[test]
    fn merge_arms_reproduces_single_list_order() {
        // Base candidates at ranks 0,2 (base row 1 tombstoned), fresh
        // at ranks 3,4; distances interleave.
        let plan = RankPlan {
            base_rank: vec![Some(0), None, Some(1), Some(2)],
            fresh_rank: vec![Some(3), Some(4)],
            base_dead: 1,
            fresh_dead: 0,
            live: 5,
        };
        let base_idx = vec![vec![1usize, 0, 2, 3]];
        let base_dist = vec![vec![0.5f64, 1.0, 2.0, 4.0]];
        let fresh_idx = vec![vec![0usize, 1]];
        let fresh_dist = vec![vec![1.0f64, 3.0]];
        let (idx, dist) = merge_arms(
            4,
            &plan,
            Some((&base_idx, &base_dist)),
            Some((&fresh_idx, &fresh_dist)),
            1,
        );
        // Tombstoned base row 1 (d=0.5) is masked. Tie at d=1.0 between
        // live rank 0 (base) and live rank 3 (fresh) breaks low-rank.
        assert_eq!(idx[0], vec![0, 3, 1, 4]);
        assert_eq!(dist[0], vec![1.0, 1.0, 2.0, 3.0]);
    }
}
