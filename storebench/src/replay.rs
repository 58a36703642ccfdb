//! The traced run's backend: replays each store operation layer by
//! layer through the public lower-layer API, timing every call.
//!
//! `Store` hides its steps, so this file performs them itself, in the
//! order `crates/store` does: manifest frames via `store::manifest`,
//! TS2DIFF+BOS-B encode via `encodings::ts2diff` around the BOS solver
//! and packer, TsFile reads via `TsFileReader`, CRCs via
//! `tsfile::crc::crc32`, and `std::fs` writes with `sync_all` and
//! renames of the same bytes. `TsFileWriter` encodes internally, so the
//! replay frames its pre-encoded payloads with [`frame_tsfile`]; the
//! traced run checks every file the replay leaves against
//! `TsFileWriter` byte for byte, and reopens the replay's directory
//! with the real `Store`.

use crate::backend::{Backend, Res};
use crate::ledger::{Layer, Ledger};
use bitpack::zigzag::write_varint;
use bitpack::{BlockCodec, DecodeResult};
use bos::{SolverKind, SolverScratch};
use encodings::ts2diff::Ts2DiffEncoding;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use store::manifest::{self, LiveFile, Record, MANIFEST_FILE};
use store::StoreOptions;
use tsfile::crc::crc32;
use tsfile::{EncodingChoice, TsFileError, TsFileReader, MAGIC};

/// TS2DIFF block size the store's pipelines use.
const BLOCK: usize = encodings::Pipeline::DEFAULT_BLOCK;

/// BOS-B with its search, pack and decode calls timed. Builds a fresh
/// solver and scratch per block, as `BosCodec::encode` does.
#[derive(Default)]
struct TimedBos {
    search: Cell<Duration>,
    pack: Cell<Duration>,
    decode: Cell<Duration>,
}

fn bump(cell: &Cell<Duration>, d: Duration) {
    cell.set(cell.get() + d);
}

impl BlockCodec for TimedBos {
    fn name(&self) -> &'static str {
        SolverKind::BitWidth.label()
    }

    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        let t0 = Instant::now();
        let solution = SolverKind::BitWidth
            .build()
            .solve_into(values, &mut SolverScratch::new());
        let t1 = Instant::now();
        bos::encode_block_with_solution(values, &solution, out);
        bump(&self.search, t1 - t0);
        bump(&self.pack, t1.elapsed());
    }

    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let t0 = Instant::now();
        let r = bos::decode(buf, pos, out);
        bump(&self.decode, t0.elapsed());
        r
    }
}

/// Self times of one encode worker.
struct WorkerTimes {
    busy: Duration,
    search: Duration,
    pack: Duration,
}

/// TS2DIFF+BOS-B encode of one series, with `Pipeline::encode_parallel`'s
/// thread fan-out: blocks split into `threads` contiguous groups, one
/// scoped worker each, parts concatenated in block order. A parallel
/// section charges the layers along its critical path (the slowest
/// worker) and the rest of its wall time to the driver.
fn encode_series(values: &[i64], threads: usize, ledger: &mut Ledger) -> Vec<u8> {
    let mut out = Vec::new();
    let n_blocks = values.len().div_ceil(BLOCK);
    let t0 = Instant::now();
    if threads <= 1 || n_blocks <= 1 {
        let bos = TimedBos::default();
        Ts2DiffEncoding::with_block_size(&bos, BLOCK).encode(values, &mut out);
        let wall = t0.elapsed();
        let (search, pack) = (bos.search.get(), bos.pack.get());
        ledger.add(Layer::BosSearch, search);
        ledger.add(Layer::BosPack, pack);
        ledger.add(Layer::EncEncode, wall.saturating_sub(search + pack));
        return out;
    }
    // Stream header exactly as the sequential TS2DIFF path writes it:
    // value count, then the (first) difference order.
    write_varint(&mut out, values.len() as u64);
    out.push(1);
    let blocks: Vec<&[i64]> = values.chunks(BLOCK).collect();
    let per_worker = blocks.len().div_ceil(threads);
    let parts: Vec<(Vec<u8>, WorkerTimes)> = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .chunks(per_worker)
            .map(|group| {
                scope.spawn(move || {
                    let w0 = Instant::now();
                    let bos = TimedBos::default();
                    let enc = Ts2DiffEncoding::with_block_size(&bos, BLOCK);
                    let mut scratch = Vec::with_capacity(BLOCK);
                    let mut buf = Vec::new();
                    for block in group {
                        enc.encode_block_into(block, &mut scratch, &mut buf);
                    }
                    let times = WorkerTimes {
                        busy: w0.elapsed(),
                        search: bos.search.get(),
                        pack: bos.pack.get(),
                    };
                    (buf, times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("encode worker panicked"))
            .collect()
    });
    for (part, _) in &parts {
        out.extend_from_slice(part);
    }
    let wall = t0.elapsed();
    let critical = parts
        .iter()
        .map(|(_, t)| t)
        .max_by_key(|t| t.busy)
        .expect("at least one worker");
    ledger.add(Layer::BosSearch, critical.search);
    ledger.add(Layer::BosPack, critical.pack);
    ledger.add(
        Layer::EncEncode,
        critical
            .busy
            .saturating_sub(critical.search + critical.pack),
    );
    ledger.add(Layer::DriverJoin, wall.saturating_sub(critical.busy));
    ledger.counts.parallel_encodes += 1;
    ledger.counts.workers += parts.len() as u64;
    out
}

/// TS2DIFF+BOS-B decode of one chunk payload.
fn decode_series(payload: &[u8], count: usize, ledger: &mut Ledger) -> Res<Vec<i64>> {
    let bos = TimedBos::default();
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(count);
    let mut pos = 0;
    let r = Ts2DiffEncoding::with_block_size(&bos, BLOCK).decode(payload, &mut pos, &mut out);
    let wall = t0.elapsed();
    ledger.add(Layer::BosDecode, bos.decode.get());
    ledger.add(Layer::EncDecode, wall.saturating_sub(bos.decode.get()));
    r.map_err(|e| format!("decode: {e:?}"))?;
    if out.len() != count {
        return Err(format!("decoded {} values, index says {count}", out.len()));
    }
    Ok(out)
}

/// One encoded integer series ready for framing.
pub struct Chunk<'a> {
    pub name: &'a str,
    pub count: u64,
    pub payload: Vec<u8>,
}

/// Frames TS2DIFF+BOS-B integer chunks into a TsFile image with the
/// layout `TsFileWriter` produces: magic, per chunk `tag · name · type ·
/// encoding ids · count · payload length · payload · CRC`, then the
/// footer index, its CRC, the footer offset and the trailing magic.
pub fn frame_tsfile(chunks: &[Chunk<'_>]) -> Vec<u8> {
    const CHUNK_TAG: u8 = 0x01;
    const TYPE_INT: u8 = 0;
    // Persisted encoding ids of TS2DIFF and BOS-B.
    const OUTER_TS2DIFF: u8 = 1;
    const PACKER_BOS_B: u8 = 6;
    let mut body = MAGIC.to_vec();
    let mut footer = Vec::new();
    write_varint(&mut footer, chunks.len() as u64);
    for c in chunks {
        let offset = body.len() as u64;
        body.push(CHUNK_TAG);
        write_varint(&mut body, c.name.len() as u64);
        body.extend_from_slice(c.name.as_bytes());
        body.extend_from_slice(&[TYPE_INT, OUTER_TS2DIFF, PACKER_BOS_B]);
        write_varint(&mut body, c.count);
        write_varint(&mut body, c.payload.len() as u64);
        body.extend_from_slice(&c.payload);
        body.extend_from_slice(&crc32(&c.payload).to_le_bytes());
        write_varint(&mut footer, c.name.len() as u64);
        footer.extend_from_slice(c.name.as_bytes());
        write_varint(&mut footer, offset);
        write_varint(&mut footer, c.count);
        footer.extend_from_slice(&[0, OUTER_TS2DIFF, PACKER_BOS_B]);
    }
    let footer_offset = body.len() as u64;
    body.extend_from_slice(&footer);
    body.extend_from_slice(&crc32(&footer).to_le_bytes());
    body.extend_from_slice(&footer_offset.to_le_bytes());
    body.extend_from_slice(MAGIC);
    body
}

/// The store's temp-file, `sync_all`, rename write.
fn write_atomic(path: &Path, bytes: &[u8]) -> Res<()> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp).map_err(io)?;
    f.write_all(bytes).map_err(io)?;
    f.sync_all().map_err(io)?;
    fs::rename(&tmp, path).map_err(io)
}

/// The store's manifest append plus `sync_all`.
fn append_fsync(path: &Path, bytes: &[u8]) -> Res<()> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut f = fs::OpenOptions::new().append(true).open(path).map_err(io)?;
    f.write_all(bytes).map_err(io)?;
    f.sync_all().map_err(io)
}

fn read_file(path: &Path, ledger: &mut Ledger) -> Res<Vec<u8>> {
    let bytes = ledger
        .time(Layer::FsRead, || fs::read(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    ledger.counts.read_bytes += bytes.len() as u64;
    Ok(bytes)
}

/// CRC-checks the chunk whose payload occupies `payload` in `bytes`.
fn verify_chunk(bytes: &[u8], payload: std::ops::Range<usize>, ledger: &mut Ledger) -> Res<()> {
    let stored = bytes
        .get(payload.end..payload.end + 4)
        .ok_or("chunk CRC truncated")?;
    let body = bytes.get(payload).ok_or("chunk payload truncated")?;
    let crc = ledger.time(Layer::TsCrc, || crc32(body));
    ledger.counts.crc_bytes += body.len() as u64;
    if crc.to_le_bytes() != stored {
        return Err("chunk CRC mismatch".to_string());
    }
    Ok(())
}

/// Strict read of one series from an opened file, as `read_ints` does:
/// index lookup, payload CRC, decode. `None` when the file lacks it.
fn read_chunk(
    bytes: &[u8],
    reader: &TsFileReader<'_>,
    name: &str,
    ledger: &mut Ledger,
) -> Res<Option<Vec<i64>>> {
    let looked_up = ledger.time(Layer::TsOpen, || {
        let info = reader.info(name).map(|i| (i.count, i.encoding, i.is_float));
        info.and_then(|i| reader.chunk_ranges(name).map(|(_, p)| (i, p)))
    });
    let ((count, encoding, is_float), payload) = match looked_up {
        Ok(found) => found,
        Err(TsFileError::NoSuchSeries(_)) => return Ok(None),
        Err(e) => return Err(e.to_string()),
    };
    if is_float || encoding != EncodingChoice::TS2DIFF_BOS {
        return Err(format!("{name}: not a TS2DIFF+BOS-B integer chunk"));
    }
    verify_chunk(bytes, payload.clone(), ledger)?;
    let count = usize::try_from(count).map_err(|e| e.to_string())?;
    decode_series(&bytes[payload], count, ledger).map(Some)
}

fn open_reader<'a>(bytes: &'a [u8], ledger: &mut Ledger) -> Res<TsFileReader<'a>> {
    ledger
        .time(Layer::TsOpen, || TsFileReader::open(bytes))
        .map_err(|e| e.to_string())
}

/// A store directory driven layer by layer.
pub struct Replay {
    dir: PathBuf,
    opts: StoreOptions,
    live: BTreeMap<u64, LiveFile>,
    active: BTreeMap<String, Vec<i64>>,
    active_values: usize,
    next_id: u64,
    pub ledger: Ledger,
}

impl Replay {
    /// Opens the store at `dir`; the recovery replay is charged to
    /// the ledger like any reopen.
    pub fn open(dir: &Path, opts: StoreOptions) -> Res<Self> {
        let mut r = Self {
            dir: dir.to_path_buf(),
            opts,
            live: BTreeMap::new(),
            active: BTreeMap::new(),
            active_values: 0,
            next_id: 0,
            ledger: Ledger::default(),
        };
        r.reopen()?;
        Ok(r)
    }

    /// Creates an empty store at `dir`, untimed (not a workload op).
    pub fn create(dir: &Path, opts: StoreOptions, ledger: Ledger) -> Res<Self> {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        write_atomic(&dir.join(MANIFEST_FILE), &manifest::encode(&[]))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            opts,
            live: BTreeMap::new(),
            active: BTreeMap::new(),
            active_values: 0,
            next_id: 0,
            ledger,
        })
    }

    fn path_for(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id:06}.tsf"))
    }

    fn live_in_order(&self) -> Vec<LiveFile> {
        let mut files: Vec<LiveFile> = self.live.values().copied().collect();
        files.sort_by_key(|f| (f.order, f.id));
        files
    }

    fn append_manifest(&mut self, record: Record) -> Res<()> {
        let frame = self.ledger.time(Layer::StoreSelf, || {
            let mut frame = Vec::new();
            manifest::append_record(&mut frame, &record);
            frame
        });
        let path = self.dir.join(MANIFEST_FILE);
        self.ledger
            .time(Layer::FsManifestSync, || append_fsync(&path, &frame))
    }

    /// Encodes, frames and durably writes one data file.
    fn write_file(&mut self, id: u64, series: &BTreeMap<String, Vec<i64>>) -> Res<u64> {
        let threads = self.opts.threads;
        let chunks: Vec<Chunk<'_>> = series
            .iter()
            .map(|(name, values)| Chunk {
                name,
                count: values.len() as u64,
                payload: encode_series(values, threads, &mut self.ledger),
            })
            .collect();
        let bytes = self.ledger.time(Layer::TsWrite, || frame_tsfile(&chunks));
        let path = self.path_for(id);
        self.ledger
            .time(Layer::FsDataSync, || write_atomic(&path, &bytes))?;
        Ok(bytes.len() as u64)
    }

    fn remove_file(&mut self, id: u64) -> Res<()> {
        let path = self.path_for(id);
        self.ledger
            .time(Layer::FsMeta, || fs::remove_file(&path))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl Backend for Replay {
    fn append(&mut self, series: &str, values: &[i64]) -> Res<Option<u64>> {
        self.ledger.time(Layer::StoreSelf, || {
            self.active
                .entry(series.to_string())
                .or_default()
                .extend_from_slice(values);
            self.active_values += values.len();
        });
        if self.active_values >= self.opts.rotate_records {
            self.flush()
        } else {
            Ok(None)
        }
    }

    fn flush(&mut self) -> Res<Option<u64>> {
        if self.active.is_empty() {
            return Ok(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.append_manifest(Record::FileAdded { id, order: id })?;
        let active = std::mem::take(&mut self.active);
        self.write_file(id, &active)?;
        let records = self.active_values as u64;
        self.append_manifest(Record::FileSealed { id, records })?;
        self.live.insert(
            id,
            LiveFile {
                id,
                order: id,
                records,
            },
        );
        self.active_values = 0;
        Ok(Some(id))
    }

    fn compact(&mut self) -> Res<Option<u64>> {
        let candidates: Vec<LiveFile> = self
            .live_in_order()
            .into_iter()
            .filter(|f| f.records <= self.opts.compact_small_records)
            .collect();
        if candidates.len() < self.opts.compact_min_inputs {
            return Ok(None);
        }
        let mut merged: BTreeMap<String, Vec<i64>> = BTreeMap::new();
        let mut min_order = u64::MAX;
        for f in &candidates {
            let bytes = read_file(&self.path_for(f.id), &mut self.ledger)?;
            let reader = open_reader(&bytes, &mut self.ledger)?;
            let names: Vec<String> = reader.series().iter().map(|i| i.name.clone()).collect();
            for name in names {
                let values = read_chunk(&bytes, &reader, &name, &mut self.ledger)?
                    .ok_or("indexed series vanished")?;
                self.ledger.time(Layer::StoreSelf, || {
                    merged.entry(name).or_default().extend_from_slice(&values)
                });
            }
            min_order = min_order.min(f.order);
        }
        let inputs: Vec<u64> = candidates.iter().map(|f| f.id).collect();
        let output = self.next_id;
        self.next_id += 1;
        self.append_manifest(Record::CompactionBegin {
            inputs: inputs.clone(),
            output,
        })?;
        let written = self.write_file(output, &merged)?;
        self.append_manifest(Record::CompactionCommit {
            inputs: inputs.clone(),
            output,
        })?;
        let records: u64 = candidates.iter().map(|f| f.records).sum();
        for id in &inputs {
            self.live.remove(id);
        }
        self.live.insert(
            output,
            LiveFile {
                id: output,
                order: min_order,
                records,
            },
        );
        for id in inputs {
            self.remove_file(id)?;
        }
        self.ledger.counts.compact_written_bytes += written;
        self.ledger.counts.compact_values += records;
        Ok(Some(output))
    }

    fn retention_delete(&mut self, id: u64) -> Res<bool> {
        if !self.live.contains_key(&id) {
            return Ok(false);
        }
        self.append_manifest(Record::RetentionDelete { id })?;
        self.live.remove(&id);
        self.remove_file(id)?;
        Ok(true)
    }

    fn read_series(&mut self, name: &str) -> Res<Vec<i64>> {
        let mut out = Vec::new();
        self.ledger.counts.series_reads += 1;
        for f in self.live_in_order() {
            let bytes = read_file(&self.path_for(f.id), &mut self.ledger)?;
            self.ledger.counts.file_reads_for_series += 1;
            let reader = open_reader(&bytes, &mut self.ledger)?;
            if let Some(values) = read_chunk(&bytes, &reader, name, &mut self.ledger)? {
                self.ledger
                    .time(Layer::StoreSelf, || out.extend_from_slice(&values));
            }
        }
        Ok(out)
    }

    /// Recovery of a cleanly closed store, as `Store::open` runs it:
    /// manifest read and replay, directory census, then a full verify
    /// (footer and every chunk CRC) of each live file.
    fn reopen(&mut self) -> Res<()> {
        self.active.clear();
        self.active_values = 0;
        let bytes = read_file(&self.dir.join(MANIFEST_FILE), &mut self.ledger)?;
        let (decoded, state) = self.ledger.time(Layer::StoreSelf, || {
            let decoded = manifest::decode(&bytes);
            let state = manifest::replay(&decoded.records);
            (decoded, state)
        });
        if decoded.torn || decoded.skipped_frames > 0 || state.pending.is_some() {
            return Err("manifest needs recovery".to_string());
        }
        let dir = self.dir.clone();
        let on_disk: Vec<u64> = self
            .ledger
            .time(Layer::FsMeta, || -> std::io::Result<Vec<u64>> {
                let mut ids = Vec::new();
                for entry in fs::read_dir(&dir)? {
                    let name = entry?.file_name();
                    let name = name.to_string_lossy();
                    if let Some(id) = name.strip_suffix(".tsf").and_then(|s| s.parse().ok()) {
                        ids.push(id);
                    }
                }
                ids.sort_unstable();
                Ok(ids)
            })
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if !state.added.is_empty() || on_disk != state.live.keys().copied().collect::<Vec<_>>() {
            return Err("directory and manifest disagree".to_string());
        }
        for &id in state.live.keys() {
            let bytes = read_file(&self.path_for(id), &mut self.ledger)?;
            self.ledger.counts.reopen_verify_bytes += bytes.len() as u64;
            let reader = open_reader(&bytes, &mut self.ledger)?;
            let names: Vec<String> = reader.series().iter().map(|i| i.name.clone()).collect();
            for name in names {
                let (_, payload) = self
                    .ledger
                    .time(Layer::TsOpen, || reader.chunk_ranges(&name))
                    .map_err(|e| e.to_string())?;
                verify_chunk(&bytes, payload, &mut self.ledger)?;
            }
        }
        self.live = state.live;
        self.next_id = state.next_id;
        Ok(())
    }

    fn live_shape(&self) -> Vec<(u64, u64, u64)> {
        self.live_in_order()
            .iter()
            .map(|f| (f.id, f.order, f.records))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfile::TsFileWriter;

    #[test]
    fn replayed_encode_and_framing_match_tsfile_writer() {
        let a: Vec<i64> = (0..5000).map(|i| (i * 37 % 1000) + i / 3).collect();
        let b: Vec<i64> = (0..300)
            .map(|i| if i % 50 == 0 { 1 << 30 } else { i })
            .collect();
        for threads in [1, 2, 3] {
            let mut ledger = Ledger::default();
            let chunks = [
                Chunk {
                    name: "a",
                    count: a.len() as u64,
                    payload: encode_series(&a, threads, &mut ledger),
                },
                Chunk {
                    name: "b",
                    count: b.len() as u64,
                    payload: encode_series(&b, threads, &mut ledger),
                },
            ];
            let mut w = TsFileWriter::new();
            w.add_int_series_parallel("a", &a, EncodingChoice::TS2DIFF_BOS, threads)
                .unwrap();
            w.add_int_series_parallel("b", &b, EncodingChoice::TS2DIFF_BOS, threads)
                .unwrap();
            let bytes = frame_tsfile(&chunks);
            assert_eq!(bytes, w.finish(), "threads={threads}");
            let reader = TsFileReader::open(&bytes).unwrap();
            assert_eq!(
                read_chunk(&bytes, &reader, "a", &mut ledger).unwrap(),
                Some(a.clone())
            );
            assert_eq!(
                read_chunk(&bytes, &reader, "zz", &mut ledger).unwrap(),
                None
            );
            assert!(ledger.get(Layer::BosSearch) > Duration::ZERO);
        }
    }
}
