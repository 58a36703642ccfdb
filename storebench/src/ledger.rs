//! Layer timers for the traced run: self time and work counts per
//! layer, accumulated around calls into each layer's public API.

use std::time::{Duration, Instant};

/// A layer of the store path, as named in the per-layer metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// BOS-B threshold search (`Solver::solve_into`).
    BosSearch,
    /// BOS payload pack (`bos::encode_block_with_solution`).
    BosPack,
    /// BOS block decode (`bos::decode`).
    BosDecode,
    /// TS2DIFF outer transform on encode (self time around BOS calls).
    EncEncode,
    /// TS2DIFF outer transform on decode (self time around BOS calls).
    EncDecode,
    /// Parallel encode driver: spawn, join and imbalance, i.e. a
    /// parallel section's wall time beyond its slowest worker.
    DriverJoin,
    /// TsFile chunk and footer framing on write, CRC included.
    TsWrite,
    /// `TsFileReader::open` (footer CRC, index parse) and chunk lookup.
    TsOpen,
    /// Chunk payload CRC verification on read and recovery.
    TsCrc,
    /// `fs::read` of data files and the manifest.
    FsRead,
    /// Data file temp write, `sync_all` and rename.
    FsDataSync,
    /// Manifest append and `sync_all`.
    FsManifestSync,
    /// Directory listing and unlink.
    FsMeta,
    /// The store's own bookkeeping: write buffer, manifest framing and
    /// replay, merging per-file results.
    StoreSelf,
}

impl Layer {
    pub const ALL: [Layer; 14] = [
        Layer::BosSearch,
        Layer::BosPack,
        Layer::BosDecode,
        Layer::EncEncode,
        Layer::EncDecode,
        Layer::DriverJoin,
        Layer::TsWrite,
        Layer::TsOpen,
        Layer::TsCrc,
        Layer::FsRead,
        Layer::FsDataSync,
        Layer::FsManifestSync,
        Layer::FsMeta,
        Layer::StoreSelf,
    ];

    /// Per-layer metric name.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::BosSearch => "bos.search_ms",
            Layer::BosPack => "bos.pack_ms",
            Layer::BosDecode => "bos.decode_ms",
            Layer::EncEncode => "encodings.encode_ms",
            Layer::EncDecode => "encodings.decode_ms",
            Layer::DriverJoin => "driver.join_wait_ms",
            Layer::TsWrite => "tsfile.write_ms",
            Layer::TsOpen => "tsfile.open_ms",
            Layer::TsCrc => "tsfile.crc_ms",
            Layer::FsRead => "fs.read_ms",
            Layer::FsDataSync => "fs.data_fsync_ms",
            Layer::FsManifestSync => "fs.manifest_fsync_ms",
            Layer::FsMeta => "fs.meta_ms",
            Layer::StoreSelf => "store.self_ms",
        }
    }
}

/// Work counts the traced replay tallies next to its timers.
#[derive(Default, Clone, Debug)]
pub struct Counts {
    pub crc_bytes: u64,
    pub read_bytes: u64,
    pub series_reads: u64,
    pub file_reads_for_series: u64,
    pub compact_written_bytes: u64,
    pub compact_values: u64,
    pub reopen_verify_bytes: u64,
    pub parallel_encodes: u64,
    pub workers: u64,
}

/// Accumulated self time per layer plus work counts.
#[derive(Default, Clone, Debug)]
pub struct Ledger {
    time: [Duration; Layer::ALL.len()],
    pub counts: Counts,
}

impl Ledger {
    pub fn add(&mut self, layer: Layer, d: Duration) {
        self.time[layer as usize] += d;
    }

    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(layer, t0.elapsed());
        out
    }

    pub fn get(&self, layer: Layer) -> Duration {
        self.time[layer as usize]
    }

    pub fn total(&self) -> Duration {
        self.time.iter().sum()
    }
}
