//! Zone maps: the smallest and largest value of each block of rows.
//!
//! A probe that filters its keys through an exact key set
//! (`hashstash_hashtable::KeyBitmap`) can skip a block of a base table's
//! key column whose `[min, max]` holds none of the keys. TPC-H's fact
//! table is generated in key order, so a selective build side leaves most
//! of the fact table's blocks dead. A table builds the zone map of a column
//! the first time a probe asks for it ([`crate::Table::zone_map`]); it is
//! not persisted, and nothing builds one at load or recovery.

use crate::column::Column;

/// Per-block `[min, max]` of an `Int` or `Date` column, read as `i64` (the
/// way integer and date hash keys read).
#[derive(Debug, Clone)]
pub struct ZoneMap {
    bounds: Vec<(i64, i64)>,
}

impl ZoneMap {
    /// Rows per block; the last block may be shorter.
    pub const BLOCK_ROWS: usize = 64;

    /// The zone map of `column`, or `None` for a column that is neither
    /// `Int` nor `Date`.
    pub fn build(column: &Column) -> Option<ZoneMap> {
        fn bounds(block: impl Iterator<Item = i64>) -> (i64, i64) {
            block.fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
        }
        let bounds = match column {
            Column::Int(v) => v
                .chunks(Self::BLOCK_ROWS)
                .map(|b| bounds(b.iter().copied()))
                .collect(),
            Column::Date(v) => v
                .chunks(Self::BLOCK_ROWS)
                .map(|b| bounds(b.iter().map(|&d| i64::from(d))))
                .collect(),
            Column::Float(_) | Column::Str { .. } => return None,
        };
        Some(ZoneMap { bounds })
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.bounds.len()
    }

    /// The blocks whose `[min, max]` passes `live`, ascending.
    pub fn live_blocks(&self, mut live: impl FnMut(i64, i64) -> bool) -> Vec<u32> {
        (0..self.bounds.len() as u32)
            .filter(|&b| {
                let (lo, hi) = self.bounds[b as usize];
                live(lo, hi)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_per_block_with_a_ragged_tail() {
        let column = Column::Int((0..130).map(|i| (i * 7) % 100).collect());
        let zones = ZoneMap::build(&column).expect("an Int column");
        assert_eq!(zones.blocks(), 3);
        let Column::Int(v) = &column else {
            unreachable!()
        };
        for (b, &(lo, hi)) in zones.bounds.iter().enumerate() {
            let block = &v[b * 64..((b + 1) * 64).min(v.len())];
            assert_eq!(lo, *block.iter().min().unwrap());
            assert_eq!(hi, *block.iter().max().unwrap());
        }
        assert_eq!(zones.live_blocks(|lo, _| lo > 0), vec![2]);
    }

    #[test]
    fn dates_widen_and_other_types_have_none() {
        let zones = ZoneMap::build(&Column::Date(vec![-3, i32::MAX])).expect("a Date column");
        assert_eq!(zones.bounds, vec![(-3, i64::from(i32::MAX))]);
        assert!(ZoneMap::build(&Column::Float(vec![1.0])).is_none());
        assert_eq!(
            ZoneMap::build(&Column::Int(Vec::new())).map(|z| z.blocks()),
            Some(0)
        );
    }
}
