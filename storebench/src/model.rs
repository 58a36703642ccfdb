//! The correctness oracle: an in-memory model of what every series must
//! hold after appends, seals, compactions and retention deletes.
//!
//! The model applies the store's documented policy on its own (seal at
//! `rotate_records` buffered values, merge every sealed file of at most
//! `compact_small_records` values once `compact_min_inputs` exist, read
//! in `(order, id)` order) and predicts each id the store hands out.
//! Drivers compare the store's answers against it bit for bit.

use std::collections::BTreeMap;
use store::StoreOptions;

/// One sealed data file as the model sees it.
#[derive(Clone)]
pub struct ModelFile {
    pub id: u64,
    pub order: u64,
    pub records: u64,
    pub series: BTreeMap<String, Vec<i64>>,
}

/// Expected store contents.
#[derive(Clone)]
pub struct Model {
    rotate_records: usize,
    compact_min_inputs: usize,
    compact_small_records: u64,
    files: BTreeMap<u64, ModelFile>,
    active: BTreeMap<String, Vec<i64>>,
    active_values: usize,
    next_id: u64,
}

impl Model {
    pub fn new(opts: &StoreOptions) -> Self {
        Self {
            rotate_records: opts.rotate_records,
            compact_min_inputs: opts.compact_min_inputs,
            compact_small_records: opts.compact_small_records,
            files: BTreeMap::new(),
            active: BTreeMap::new(),
            active_values: 0,
            next_id: 0,
        }
    }

    /// Buffers `values`; returns the file a seal produced, if any.
    pub fn append(&mut self, series: &str, values: &[i64]) -> Option<&ModelFile> {
        self.active
            .entry(series.to_string())
            .or_default()
            .extend_from_slice(values);
        self.active_values += values.len();
        if self.active_values >= self.rotate_records {
            self.flush()
        } else {
            None
        }
    }

    /// Seals the buffer; returns the new file, or `None` when empty.
    pub fn flush(&mut self) -> Option<&ModelFile> {
        if self.active.is_empty() {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let series = std::mem::take(&mut self.active);
        let records = self.active_values as u64;
        self.active_values = 0;
        self.files.insert(
            id,
            ModelFile {
                id,
                order: id,
                records,
                series,
            },
        );
        self.files.get(&id)
    }

    /// Forgets buffered values, as closing an unflushed store does.
    pub fn discard_buffer(&mut self) {
        self.active.clear();
        self.active_values = 0;
    }

    /// Ids (in read order) a compaction would merge now, or `None` when
    /// fewer than `compact_min_inputs` small files exist.
    fn compaction_inputs(&self) -> Option<Vec<u64>> {
        let inputs: Vec<u64> = self
            .live()
            .into_iter()
            .filter(|f| f.records <= self.compact_small_records)
            .map(|f| f.id)
            .collect();
        (inputs.len() >= self.compact_min_inputs).then_some(inputs)
    }

    /// Merges the compaction inputs; returns the output file.
    pub fn compact(&mut self) -> Option<&ModelFile> {
        let inputs = self.compaction_inputs()?;
        let output = self.next_id;
        self.next_id += 1;
        let mut merged = ModelFile {
            id: output,
            order: u64::MAX,
            records: 0,
            series: BTreeMap::new(),
        };
        for id in inputs {
            let f = self.files.remove(&id).expect("compaction input is live");
            merged.order = merged.order.min(f.order);
            merged.records += f.records;
            for (name, values) in f.series {
                merged.series.entry(name).or_default().extend(values);
            }
        }
        self.files.insert(output, merged);
        self.files.get(&output)
    }

    /// Drops a live file; returns false when `id` is not live.
    pub fn retention_delete(&mut self, id: u64) -> bool {
        self.files.remove(&id).is_some()
    }

    /// Live files in read order.
    pub fn live(&self) -> Vec<&ModelFile> {
        let mut files: Vec<&ModelFile> = self.files.values().collect();
        files.sort_by_key(|f| (f.order, f.id));
        files
    }

    /// `(id, order, records)` of every live file in read order, the
    /// shape `Store::live_files` reports.
    pub fn live_shape(&self) -> Vec<(u64, u64, u64)> {
        self.live()
            .into_iter()
            .map(|f| (f.id, f.order, f.records))
            .collect()
    }

    pub fn live_values(&self) -> u64 {
        self.files.values().map(|f| f.records).sum()
    }

    /// True when `got` equals the committed contents of `series`.
    pub fn matches(&self, series: &str, got: &[i64]) -> bool {
        let mut rest = got;
        for f in self.live() {
            if let Some(want) = f.series.get(series) {
                match rest.split_at_checked(want.len()) {
                    Some((head, tail)) if head == want.as_slice() => rest = tail,
                    _ => return false,
                }
            }
        }
        rest.is_empty()
    }

    /// Committed values of `series` across all live files.
    pub fn series_len(&self, series: &str) -> usize {
        self.files
            .values()
            .filter_map(|f| f.series.get(series))
            .map(Vec::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> StoreOptions {
        StoreOptions {
            rotate_records: 8,
            compact_min_inputs: 2,
            compact_small_records: 8,
            ..StoreOptions::default()
        }
    }

    #[test]
    fn seals_compacts_and_deletes_like_the_policy() {
        let mut m = Model::new(&opts());
        assert!(m.append("a", &[1, 2, 3, 4]).is_none());
        assert_eq!(m.append("b", &[5, 6, 7, 8]).map(|f| f.id), Some(0));
        assert_eq!(m.append("a", &[9; 8]).map(|f| f.id), Some(1));
        assert!(m.matches("a", &[1, 2, 3, 4, 9, 9, 9, 9, 9, 9, 9, 9]));
        assert!(!m.matches("a", &[1, 2, 3, 4]));
        let out = m.compact().expect("two small files merge");
        assert_eq!((out.id, out.order, out.records), (2, 0, 16));
        assert!(m.matches("b", &[5, 6, 7, 8]));
        assert!(m.compact().is_none());
        assert!(m.retention_delete(2));
        assert!(m.matches("a", &[]));
        assert_eq!(m.live_values(), 0);
    }
}
