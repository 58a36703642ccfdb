//! Issues store operations against a [`Backend`], times each call, and
//! checks every answer against the [`Model`].

use crate::backend::{Backend, Res};
use crate::model::Model;
use std::time::{Duration, Instant};

/// End-to-end samples and the failure tally of one run.
#[derive(Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Wall time of every `append`/`flush` call.
    pub write_wall: Duration,
    /// Values made durable by the seals among those calls.
    pub durable_values: u64,
    pub seal_ms: Vec<f64>,
    pub read_wall: Duration,
    pub read_values: u64,
    pub read_ms: Vec<f64>,
    pub compact_ms: Vec<f64>,
    pub reopen_ms: Vec<f64>,
    /// Wall time of every operation issued, checks excluded.
    pub op_wall: Duration,
    /// Per-unit write and read throughput (values per second), one
    /// entry per workload unit that wrote or read.
    pub unit_write_vps: Vec<f64>,
    pub unit_read_vps: Vec<f64>,
    /// Totals at the last unit boundary.
    unit_mark: (u64, Duration, u64, Duration),
}

impl Recorder {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Closes a workload unit: records its write and read throughput.
    pub fn mark_unit(&mut self) {
        let (values, wall, read_values, read_wall) = self.unit_mark;
        let vps = |v: u64, w: Duration| v as f64 / w.as_secs_f64();
        if self.durable_values > values {
            let v = vps(self.durable_values - values, self.write_wall - wall);
            self.unit_write_vps.push(v);
        }
        if self.read_values > read_values {
            let v = vps(self.read_values - read_values, self.read_wall - read_wall);
            self.unit_read_vps.push(v);
        }
        self.unit_mark = (
            self.durable_values,
            self.write_wall,
            self.read_values,
            self.read_wall,
        );
    }

    /// Folds another recorder's samples and failure tally in.
    pub fn merge(&mut self, other: Recorder) {
        self.absorb_failures(&other);
        self.write_wall += other.write_wall;
        self.durable_values += other.durable_values;
        self.seal_ms.extend(other.seal_ms);
        self.read_wall += other.read_wall;
        self.read_values += other.read_values;
        self.read_ms.extend(other.read_ms);
        self.compact_ms.extend(other.compact_ms);
        self.reopen_ms.extend(other.reopen_ms);
        self.op_wall += other.op_wall;
        self.unit_write_vps.extend(other.unit_write_vps);
        self.unit_read_vps.extend(other.unit_read_vps);
        self.unit_mark = (
            self.durable_values,
            self.write_wall,
            self.read_values,
            self.read_wall,
        );
    }

    /// Folds another recorder's failure tally in, dropping its samples.
    pub fn absorb_failures(&mut self, other: &Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if let Some(f) = &other.first_failure {
            self.first_failure.get_or_insert_with(|| f.clone());
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A backend, the model it must agree with, and the samples taken.
pub struct Driver<B> {
    pub backend: B,
    pub model: Model,
    pub rec: Recorder,
}

impl<B: Backend> Driver<B> {
    pub fn new(backend: B, model: Model) -> Self {
        Self {
            backend,
            model,
            rec: Recorder::default(),
        }
    }

    fn timed<T>(&mut self, op: impl FnOnce(&mut B) -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let out = op(&mut self.backend);
        let dt = t0.elapsed();
        self.rec.attempted += 1;
        self.rec.op_wall += dt;
        (out, dt)
    }

    /// Records a write call that the model says seals `want`.
    fn check_write(
        &mut self,
        what: &str,
        got: Res<Option<u64>>,
        want: Option<(u64, u64)>,
        dt: Duration,
    ) {
        self.rec.write_wall += dt;
        match got {
            Ok(id) if id == want.map(|w| w.0) => {
                if let Some((_, records)) = want {
                    self.rec.seal_ms.push(ms(dt));
                    self.rec.durable_values += records;
                }
            }
            other => self
                .rec
                .fail(format!("{what}: got {other:?}, model sealed {want:?}")),
        }
    }

    pub fn append(&mut self, series: &str, values: &[i64]) {
        let (got, dt) = self.timed(|b| b.append(series, values));
        let want = self.model.append(series, values).map(|f| (f.id, f.records));
        self.check_write("append", got, want, dt);
    }

    pub fn flush(&mut self) {
        let (got, dt) = self.timed(|b| b.flush());
        let want = self.model.flush().map(|f| (f.id, f.records));
        self.check_write("flush", got, want, dt);
    }

    pub fn compact(&mut self) {
        let (got, dt) = self.timed(|b| b.compact());
        let want = self.model.compact().map(|f| f.id);
        match got {
            Ok(id) if id == want => {
                if id.is_some() {
                    self.rec.compact_ms.push(ms(dt));
                }
            }
            other => self
                .rec
                .fail(format!("compact: got {other:?}, model {want:?}")),
        }
        self.check_shape("compact");
    }

    /// Retention-deletes the oldest live file.
    pub fn retention_delete_oldest(&mut self) {
        let Some(id) = self.model.live().first().map(|f| f.id) else {
            return;
        };
        let (got, _) = self.timed(|b| b.retention_delete(id));
        self.model.retention_delete(id);
        if got != Ok(true) {
            self.rec.fail(format!("retention_delete({id}): {got:?}"));
        }
    }

    pub fn read(&mut self, name: &str) {
        let (got, dt) = self.timed(|b| b.read_series(name));
        match got {
            Ok(values) if self.model.matches(name, &values) => {
                self.rec.read_wall += dt;
                self.rec.read_values += values.len() as u64;
                self.rec.read_ms.push(ms(dt));
            }
            Ok(values) => self.rec.fail(format!(
                "read_series({name}): {} values differ from the model's {}",
                values.len(),
                self.model.series_len(name)
            )),
            Err(e) => self.rec.fail(format!("read_series({name}): {e}")),
        }
    }

    /// Closes and reopens; values still buffered are not committed and
    /// are dropped from the model too.
    pub fn reopen(&mut self) {
        let (got, dt) = self.timed(|b| b.reopen());
        self.model.discard_buffer();
        match got {
            Ok(()) => self.rec.reopen_ms.push(ms(dt)),
            Err(e) => self.rec.fail(format!("reopen: {e}")),
        }
        self.check_shape("reopen");
    }

    fn check_shape(&mut self, after: &str) {
        let got = self.backend.live_shape();
        let want = self.model.live_shape();
        if got != want {
            self.rec
                .fail(format!("live files after {after}: {got:?}, model {want:?}"));
        }
    }
}
