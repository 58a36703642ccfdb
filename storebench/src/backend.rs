//! The operations a workload issues, behind one trait so the untraced
//! run (the real `store::Store`) and the traced layer-by-layer replay
//! execute the very same sequence.

use std::path::{Path, PathBuf};
use store::{Store, StoreOptions};

pub type Res<T> = Result<T, String>;

/// Store-shaped operations.
pub trait Backend {
    fn append(&mut self, series: &str, values: &[i64]) -> Res<Option<u64>>;
    fn flush(&mut self) -> Res<Option<u64>>;
    fn compact(&mut self) -> Res<Option<u64>>;
    fn retention_delete(&mut self, id: u64) -> Res<bool>;
    fn read_series(&mut self, name: &str) -> Res<Vec<i64>>;
    /// Closes and reopens the store, running full recovery.
    fn reopen(&mut self) -> Res<()>;
    /// `(id, order, records)` of every live file in read order.
    fn live_shape(&self) -> Vec<(u64, u64, u64)>;
}

/// The program under test: `store::Store` through its public API.
pub struct StoreBackend {
    dir: PathBuf,
    opts: StoreOptions,
    store: Option<Store>,
}

impl StoreBackend {
    pub fn create(dir: &Path, opts: StoreOptions) -> Res<Self> {
        let store = Store::create(dir, opts.clone()).map_err(|e| e.to_string())?;
        Ok(Self {
            dir: dir.to_path_buf(),
            opts,
            store: Some(store),
        })
    }

    pub fn open(dir: &Path, opts: StoreOptions) -> Res<Self> {
        let mut b = Self {
            dir: dir.to_path_buf(),
            opts,
            store: None,
        };
        b.reopen()?;
        Ok(b)
    }

    fn store(&mut self) -> Res<&mut Store> {
        self.store
            .as_mut()
            .ok_or_else(|| "store is closed".to_string())
    }
}

impl Backend for StoreBackend {
    fn append(&mut self, series: &str, values: &[i64]) -> Res<Option<u64>> {
        self.store()?
            .append(series, values)
            .map_err(|e| e.to_string())
    }

    fn flush(&mut self) -> Res<Option<u64>> {
        self.store()?.flush().map_err(|e| e.to_string())
    }

    fn compact(&mut self) -> Res<Option<u64>> {
        self.store()?.compact().map_err(|e| e.to_string())
    }

    fn retention_delete(&mut self, id: u64) -> Res<bool> {
        self.store()?
            .retention_delete(id)
            .map_err(|e| e.to_string())
    }

    fn read_series(&mut self, name: &str) -> Res<Vec<i64>> {
        self.store()?.read_series(name).map_err(|e| e.to_string())
    }

    fn reopen(&mut self) -> Res<()> {
        self.store = None;
        let (store, report) =
            Store::open(&self.dir, self.opts.clone()).map_err(|e| e.to_string())?;
        self.store = Some(store);
        if report.acted() {
            return Err(format!(
                "recovery acted on a cleanly closed store: {report:?}"
            ));
        }
        Ok(())
    }

    fn live_shape(&self) -> Vec<(u64, u64, u64)> {
        self.store
            .as_ref()
            .map(|s| {
                s.live_files()
                    .iter()
                    .map(|f| (f.id, f.order, f.records))
                    .collect()
            })
            .unwrap_or_default()
    }
}
