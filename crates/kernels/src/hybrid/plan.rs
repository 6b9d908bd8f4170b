//! Host-side partition planning for high-degree rows (§3.3.3).
//!
//! "Rows with degree greater than 50% hash table capacity are partitioned
//! uniformly by their degrees into multiple blocks with subsets of the
//! degrees that can fit into 50% hash table capacity." Single-partition
//! rows are the fast path.
//!
//! The streamed side splits into [`STREAM_CHUNK`]-nonzero chunks, and the
//! grid holds one block per (partition, chunk) pair, so a small batch of
//! staged rows still fills the device.

use crate::hybrid::pass::STREAM_CHUNK;
use std::ops::Range;

/// One thread block's assignment: a contiguous slice of one row's
/// nonzeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionEntry {
    /// The row whose slice this block loads into shared memory.
    pub row: usize,
    /// Offset of the slice within the row (in nonzeros).
    pub start: usize,
    /// Length of the slice.
    pub len: usize,
    /// True for the row's first partition, which additionally owns the
    /// columns absent from the *entire* row (NAMM terms) at the price of
    /// a global binary search per miss.
    pub is_first: bool,
    /// True when the row was split at all (misses are then ambiguous).
    pub partitioned: bool,
}

/// The full grid plan: one block per (entry, chunk) pair, entry-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Shared-memory assignments, grouped by row in order.
    pub entries: Vec<PartitionEntry>,
    /// Number of rows that needed more than one partition.
    pub partitioned_rows: usize,
    /// Nonzeros of the streamed side.
    pub stream_nnz: usize,
}

impl PartitionPlan {
    /// Plans one entry per `max_entries`-sized slice of each row of the
    /// shared-memory side (CSR `indptr`), each paired with every chunk of
    /// a streamed side of `stream_nnz` nonzeros.
    ///
    /// Empty rows still get an entry when `include_empty` is set (NAMM
    /// passes must visit them so the streamed side's terms are emitted);
    /// annihilating passes skip them.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries` is zero.
    pub fn build(
        indptr: &[usize],
        max_entries: usize,
        include_empty: bool,
        stream_nnz: usize,
    ) -> Self {
        assert!(max_entries > 0, "max_entries must be positive");
        let mut entries = Vec::new();
        let mut partitioned_rows = 0;
        for row in 0..indptr.len().saturating_sub(1) {
            let degree = indptr[row + 1] - indptr[row];
            if degree == 0 {
                if include_empty {
                    entries.push(PartitionEntry {
                        row,
                        start: 0,
                        len: 0,
                        is_first: true,
                        partitioned: false,
                    });
                }
                continue;
            }
            let parts = degree.div_ceil(max_entries);
            if parts > 1 {
                partitioned_rows += 1;
            }
            for p in 0..parts {
                let start = p * max_entries;
                let len = max_entries.min(degree - start);
                entries.push(PartitionEntry {
                    row,
                    start,
                    len,
                    is_first: p == 0,
                    partitioned: parts > 1,
                });
            }
        }
        Self {
            entries,
            partitioned_rows,
            stream_nnz,
        }
    }

    /// Chunks the streamed side splits into: `⌈stream_nnz /
    /// STREAM_CHUNK⌉`, at least one. It depends on the streamed side
    /// alone, so the order in which chunks ⊕-combine into a cell does
    /// not change with the shared-memory side's row count.
    pub fn chunks(&self) -> usize {
        self.stream_nnz.div_ceil(STREAM_CHUNK).max(1)
    }

    /// Number of blocks the plan schedules.
    pub fn blocks(&self) -> usize {
        self.entries.len() * self.chunks()
    }

    /// The sub-plan of the entries staging rows in `rows`, for the same
    /// streamed side. Entries are grouped by row in order, so they form
    /// one contiguous range and a partitioned row stays whole.
    pub fn rows(&self, rows: Range<usize>) -> Self {
        let lo = self.entries.partition_point(|e| e.row < rows.start);
        let hi = self.entries.partition_point(|e| e.row < rows.end);
        let entries = self.entries[lo..hi].to_vec();
        let partitioned_rows = entries
            .iter()
            .filter(|e| e.partitioned && e.is_first)
            .count();
        Self {
            entries,
            partitioned_rows,
            stream_nnz: self.stream_nnz,
        }
    }

    /// Block `block`'s entry and the streamed nonzeros it sweeps, or
    /// `None` past the grid.
    pub fn block(&self, block: usize) -> Option<(&PartitionEntry, Range<usize>)> {
        let chunks = self.chunks();
        let entry = self.entries.get(block / chunks)?;
        let start = (block % chunks) * STREAM_CHUNK;
        Some((entry, start..(start + STREAM_CHUNK).min(self.stream_nnz)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_rows_get_one_block_each() {
        let indptr = vec![0, 3, 5, 9];
        let plan = PartitionPlan::build(&indptr, 100, false, 0);
        assert_eq!(plan.blocks(), 3);
        assert_eq!(plan.partitioned_rows, 0);
        assert!(plan.entries.iter().all(|e| e.is_first && !e.partitioned));
        assert_eq!(
            plan.entries[2],
            PartitionEntry {
                row: 2,
                start: 0,
                len: 4,
                is_first: true,
                partitioned: false,
            }
        );
    }

    #[test]
    fn high_degree_rows_split_uniformly() {
        // Row 0 has 10 nonzeros, capacity 4 → 3 partitions of 4/4/2.
        let indptr = vec![0, 10];
        let plan = PartitionPlan::build(&indptr, 4, false, 0);
        assert_eq!(plan.blocks(), 3);
        assert_eq!(plan.partitioned_rows, 1);
        assert_eq!(
            plan.entries
                .iter()
                .map(|e| (e.start, e.len, e.is_first))
                .collect::<Vec<_>>(),
            vec![(0, 4, true), (4, 4, false), (8, 2, false)]
        );
        assert!(plan.entries.iter().all(|e| e.partitioned));
    }

    #[test]
    fn empty_rows_respect_include_flag() {
        let indptr = vec![0, 0, 2, 2];
        let skip = PartitionPlan::build(&indptr, 8, false, 0);
        assert_eq!(skip.blocks(), 1);
        let keep = PartitionPlan::build(&indptr, 8, true, 0);
        assert_eq!(keep.blocks(), 3);
        assert_eq!(keep.entries[0].len, 0);
    }

    #[test]
    fn exact_multiple_degree_has_no_tail() {
        let indptr = vec![0, 8];
        let plan = PartitionPlan::build(&indptr, 4, false, 0);
        assert_eq!(plan.blocks(), 2);
        assert_eq!(plan.entries[1].len, 4);
    }

    #[test]
    fn grid_pairs_every_entry_with_every_chunk() {
        let indptr = vec![0, 3, 5];
        let nnz = 2 * STREAM_CHUNK + 7;
        let plan = PartitionPlan::build(&indptr, 100, false, nnz);
        assert_eq!(plan.chunks(), 3);
        assert_eq!(plan.blocks(), 6);
        let got: Vec<_> = (0..plan.blocks())
            .map(|b| plan.block(b).map(|(e, r)| (e.row, r)))
            .collect();
        let c = STREAM_CHUNK;
        let want: Vec<_> = [0, 1]
            .into_iter()
            .flat_map(|row| [0..c, c..2 * c, 2 * c..nnz].map(|r| Some((row, r))))
            .collect();
        assert_eq!(got, want);
        assert_eq!(plan.block(6), None);
        // An empty streamed side still gets one (empty) chunk.
        let empty = PartitionPlan::build(&indptr, 100, false, 0);
        assert_eq!((empty.chunks(), empty.blocks()), (1, 2));
        assert_eq!(empty.block(1).map(|(_, r)| r), Some(0..0));
    }

    #[test]
    fn row_ranges_keep_partitioned_rows_whole() {
        // Rows of degree 10, 0, 3 and 9 at max_entries 4: 3 + 1 + 1 + 3
        // entries; rows 0 and 3 are partitioned.
        let plan = PartitionPlan::build(&[0, 10, 10, 13, 22], 4, true, 50);
        let head = plan.rows(0..2);
        assert_eq!(head.entries, plan.entries[..4]);
        assert_eq!(head.partitioned_rows, 1);
        let tail = plan.rows(2..4);
        assert_eq!(tail.entries, plan.entries[4..]);
        assert_eq!((tail.partitioned_rows, tail.stream_nnz), (1, 50));
        assert!(plan.rows(4..8).entries.is_empty());
    }
}
