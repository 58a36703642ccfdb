//! TS2DIFF — delta encoding (Apache IoTDB's `TS_2DIFF` family).
//!
//! Per block: apply order-k differencing (k = 1 by default; k = 2, the
//! "2" in `TS_2DIFF`, collapses linear trends such as timestamps), store
//! the k head values, and hand the difference stream to the inner
//! operator. The operator's own frame-of-reference (min subtraction)
//! takes the role of IoTDB's "subtract the minimum delta" step, so
//! negative differences need no zigzag here.
//!
//! Layout: `varint n · u8 order · blocks…`, each block being
//! `order × zigzag heads · operator block(differences)`. An empty series
//! is a single `varint 0`. The order is in the stream, so any
//! `Ts2DiffEncoding` decodes any other's output.
//!
//! Encoding runs through a per-worker session that holds the difference
//! scratch and the inner operator's own session, so a BOS solver and its
//! scratch serve every block of a series. Blocks are independent:
//! `encode_parallel` writes the header and hands the blocks to the
//! workspace's one block-parallel driver,
//! [`bitpack::codec::encode_blocks_with`], with bytes identical to
//! `encode`.

use crate::diff::{diff_in_place, undiff_in_place};
use crate::IntPacker;
use bitpack::codec::encode_blocks_with;
use bitpack::error::{DecodeError, DecodeResult, EncodeError};
use bitpack::zigzag::{read_varint, read_varint_i64, write_varint, write_varint_i64};
use bitpack::EncodeSession;

/// Highest differencing order the format accepts.
pub const MAX_ORDER: usize = 8;

/// Delta encoding over an inner operator.
pub struct Ts2DiffEncoding<P: IntPacker> {
    packer: P,
    block_size: usize,
    order: usize,
}

impl<P: IntPacker> Ts2DiffEncoding<P> {
    /// Default block size used by the experiments (values per block).
    pub const DEFAULT_BLOCK: usize = 1024;

    /// Creates the encoding with the default block size and first-order
    /// differencing.
    pub fn new(packer: P) -> Self {
        Self::with_options(packer, Self::DEFAULT_BLOCK, 1)
    }

    /// Creates a second-order (delta-of-delta) encoding — best for series
    /// with strong linear trends.
    pub fn second_order(packer: P) -> Self {
        Self::with_options(packer, Self::DEFAULT_BLOCK, 2)
    }

    /// Creates the encoding with a custom block size (≥ 2).
    pub fn with_block_size(packer: P, block_size: usize) -> Self {
        Self::with_options(packer, block_size, 1)
    }

    /// Full constructor: block size ≥ 2, differencing order ≤ MAX_ORDER.
    pub fn with_options(packer: P, block_size: usize, order: usize) -> Self {
        assert!(block_size >= 2, "block size must be at least 2");
        assert!(order <= MAX_ORDER, "order must be at most {MAX_ORDER}");
        Self {
            packer,
            block_size,
            order,
        }
    }

    /// "TS2DIFF+\<operator\>" label.
    pub fn label(&self) -> String {
        format!("TS2DIFF+{}", self.packer.name())
    }

    /// Encodes the whole series.
    pub fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        if self.write_header(values, out) {
            let mut session = self.encode_session();
            for block in values.chunks(self.block_size) {
                session.encode_block(block, out);
            }
        }
    }

    /// Encodes the whole series with the block encodes fanned across up
    /// to `threads` worker threads (0 counts as 1) by the shared driver
    /// [`bitpack::codec::encode_blocks_with`], one encode session per
    /// worker. Blocks are independent, so the bytes are identical to
    /// [`encode`](Self::encode). A panicking operator surfaces as
    /// [`EncodeError::WorkerPanicked`] with `out` rolled back to its entry
    /// length, header included.
    // lint:allow(encode-decode-pairing): byte-identical to `encode`, so the existing `decode` is its counterpart (pinned by `parallel_encode_contains_operator_panic_with_rollback`)
    pub fn encode_parallel(
        &self,
        values: &[i64],
        threads: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError>
    where
        P: Sync,
    {
        let restore = out.len();
        if !self.write_header(values, out) {
            return Ok(());
        }
        let result = encode_blocks_with(
            || self.encode_session(),
            values,
            self.block_size,
            threads.max(1),
            out,
        );
        if result.is_err() {
            out.truncate(restore);
        }
        result
    }

    /// Writes the stream header `varint n · u8 order`; returns false for
    /// an empty series, whose stream is the `varint 0` alone.
    fn write_header(&self, values: &[i64], out: &mut Vec<u8>) -> bool {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return false;
        }
        out.push(self.order as u8);
        true
    }

    /// Per-worker encode state: the difference scratch plus the inner
    /// operator's own session, so a BOS solver and its scratch are built
    /// once per series (or per worker), not once per block.
    fn encode_session(&self) -> Ts2DiffSession<'_> {
        Ts2DiffSession {
            order: self.order,
            scratch: Vec::with_capacity(self.block_size),
            inner: self.packer.encode_session(),
        }
    }

    /// Encodes one block's bytes — the `order × zigzag heads · operator
    /// block` unit [`encode`](Self::encode) concatenates after the
    /// stream header — through a one-shot `packer.encode` rather than a
    /// session.
    // lint:allow(encode-decode-pairing): emits a fragment of the `encode` stream, which the existing `decode` reads (pinned by `parallel_encode_is_byte_identical`)
    pub fn encode_block_into(&self, block: &[i64], scratch: &mut Vec<i64>, out: &mut Vec<u8>) {
        let heads = write_heads(self.order, block, scratch, out);
        self.packer.encode(&scratch[heads..], out);
    }

    /// Decodes a series produced by [`encode`](Self::encode) (any order).
    ///
    /// Each block decodes straight into `out`: the heads are pushed, the
    /// operator appends the differences behind them, and the block is
    /// undiffed in place. On error `out` holds exactly the blocks that
    /// decoded whole before it.
    pub fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let n = read_varint(buf, pos)? as usize;
        if n > bitpack::MAX_BLOCK_VALUES {
            return Err(DecodeError::CountOverflow { claimed: n as u64 });
        }
        if n == 0 {
            return Ok(());
        }
        let order = *buf.get(*pos).ok_or(DecodeError::Truncated)? as usize;
        *pos += 1;
        if order > MAX_ORDER {
            return Err(DecodeError::BadModeByte { mode: order as u8 });
        }
        out.reserve(n);
        let mut produced = 0usize;
        while produced < n {
            let len = (n - produced).min(self.block_size);
            let start = out.len();
            if let Err(e) = self.decode_block(buf, pos, order, len, out) {
                out.truncate(start);
                return Err(e);
            }
            produced += len;
        }
        Ok(())
    }

    /// Appends one decoded block of `len` values to `out`.
    fn decode_block(
        &self,
        buf: &[u8],
        pos: &mut usize,
        order: usize,
        len: usize,
        out: &mut Vec<i64>,
    ) -> DecodeResult<()> {
        let start = out.len();
        for _ in 0..order.min(len) {
            out.push(read_varint_i64(buf, pos)?);
        }
        self.packer.decode(buf, pos, out)?;
        let block = out.get_mut(start..).unwrap_or_default();
        if block.len() != len {
            return Err(DecodeError::LengthMismatch {
                expected: len,
                got: block.len(),
            });
        }
        undiff_in_place(block, order);
        Ok(())
    }

    /// The delta (intermediate) series the paper histograms in Figure 8.
    pub fn deltas(values: &[i64]) -> Vec<i64> {
        values.windows(2).map(|w| w[1].wrapping_sub(w[0])).collect()
    }
}

/// [`Ts2DiffEncoding`]'s per-worker encode state (see
/// `Ts2DiffEncoding::encode_session`).
struct Ts2DiffSession<'a> {
    order: usize,
    scratch: Vec<i64>,
    inner: Box<dyn EncodeSession + 'a>,
}

impl EncodeSession for Ts2DiffSession<'_> {
    fn encode_block(&mut self, values: &[i64], out: &mut Vec<u8>) {
        let heads = write_heads(self.order, values, &mut self.scratch, out);
        self.inner.encode_block(&self.scratch[heads..], out);
    }
}

/// Differences `block` at `order` into `scratch` and writes its heads to
/// `out`; the operator block then covers `scratch[heads..]`. Returns the
/// head count.
fn write_heads(order: usize, block: &[i64], scratch: &mut Vec<i64>, out: &mut Vec<u8>) -> usize {
    scratch.clear();
    scratch.extend_from_slice(block);
    diff_in_place(scratch, order);
    let heads = order.min(block.len());
    for &h in &scratch[..heads] {
        write_varint_i64(out, h);
    }
    heads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackerKind;

    fn roundtrip_kind(values: &[i64], kind: PackerKind, block: usize) -> usize {
        roundtrip_order(values, kind, block, 1)
    }

    fn roundtrip_order(values: &[i64], kind: PackerKind, block: usize, order: usize) -> usize {
        let enc = Ts2DiffEncoding::with_options(kind.build(), block, order);
        let mut buf = Vec::new();
        enc.encode(values, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        enc.decode(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values, "{} block={block} order={order}", enc.label());
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn roundtrip_all_operators() {
        let values: Vec<i64> = (0..3000)
            .map(|i| 100_000 + i * 3 + (i % 7) - 3 + if i % 97 == 0 { 5000 } else { 0 })
            .collect();
        for kind in PackerKind::ALL {
            roundtrip_kind(&values, kind, 1024);
        }
    }

    #[test]
    fn roundtrip_odd_block_sizes() {
        let values: Vec<i64> = (0..515).map(|i| i * i % 1000).collect();
        for block in [2, 3, 64, 513, 515, 1000] {
            roundtrip_kind(&values, PackerKind::BosB, block);
        }
    }

    #[test]
    fn roundtrip_edge_series() {
        for values in [
            vec![],
            vec![5],
            vec![5, 5],
            vec![i64::MAX, i64::MIN, i64::MAX],
            vec![0; 5000],
        ] {
            roundtrip_kind(&values, PackerKind::Bp, 1024);
            roundtrip_kind(&values, PackerKind::BosB, 1024);
            roundtrip_order(&values, PackerKind::BosB, 1024, 2);
        }
    }

    #[test]
    fn linear_trend_compresses_brutally() {
        // A pure trend has constant deltas: near-zero payload.
        let values: Vec<i64> = (0..10_000).map(|i| 7 * i + 1_000_000).collect();
        let size = roundtrip_kind(&values, PackerKind::Bp, 1024);
        assert!(size < 200, "got {size}");
    }

    #[test]
    fn second_order_wins_on_drifting_slopes() {
        // A constant slope is already removed by the operator's
        // frame-of-reference; second order pays off when the slope itself
        // drifts (acceleration), because first-order deltas then span a
        // wide range within each block while second-order ones are tiny.
        let values: Vec<i64> = (0..20_000i64).map(|i| i * i / 2 + (i % 3) - 1).collect();
        let first = roundtrip_order(&values, PackerKind::Bp, 1024, 1);
        let second = roundtrip_order(&values, PackerKind::Bp, 1024, 2);
        assert!(second * 2 < first, "order2 {second} vs order1 {first}");
    }

    #[test]
    fn all_orders_roundtrip() {
        let values: Vec<i64> = (0..777).map(|i| (i * i) % 5000 - 2500).collect();
        for order in 0..=4 {
            roundtrip_order(&values, PackerKind::BosM, 256, order);
        }
    }

    #[test]
    fn delta_outliers_favor_bos() {
        // Smooth signal with occasional level shifts in BOTH directions:
        // the delta stream has two-sided outliers, BOS's target case.
        let mut values = Vec::new();
        let mut level = 0i64;
        for i in 0..8000i64 {
            if i % 500 == 250 {
                level += 60_000;
            }
            if i % 500 == 499 {
                level -= 60_000;
            }
            values.push(level + (i % 5));
        }
        let bp = roundtrip_kind(&values, PackerKind::Bp, 1024);
        let bos = roundtrip_kind(&values, PackerKind::BosB, 1024);
        assert!(bos * 2 < bp, "bos {bos} vs bp {bp}");
    }

    #[test]
    fn deltas_helper_matches_figure8_definition() {
        assert_eq!(
            Ts2DiffEncoding::<pfor::BpCodec>::deltas(&[5, 8, 6, 6]),
            vec![3, -2, 0]
        );
        assert!(Ts2DiffEncoding::<pfor::BpCodec>::deltas(&[42]).is_empty());
    }

    /// Operator delta that poisons [`PanicOnPoison`].
    const POISON: i64 = (1 << 40) + 1;

    /// Varint block operator that panics on any block holding [`POISON`].
    struct PanicOnPoison;

    impl IntPacker for PanicOnPoison {
        fn name(&self) -> &'static str {
            "TS2DIFF-PANIC-MOCK-TEST"
        }
        fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
            assert!(!values.contains(&POISON), "poison reached the operator");
            write_varint(out, values.len() as u64);
            for &v in values {
                write_varint_i64(out, v);
            }
        }
        fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
            for _ in 0..read_varint(buf, pos)? {
                out.push(read_varint_i64(buf, pos)?);
            }
            Ok(())
        }
    }

    #[test]
    fn parallel_encode_contains_operator_panic_with_rollback() {
        // The jump at index 2500 makes delta 2500 the poison: block
        // 2500 / 512 = 4, away from the block's head.
        let values: Vec<i64> = (0..4000)
            .map(|i| if i >= 2500 { i + (1 << 40) } else { i })
            .collect();
        let enc = Ts2DiffEncoding::with_block_size(PanicOnPoison, 512);
        for threads in [1, 2, 4] {
            let mut out = vec![0xAB, 0xCD, 0xEF];
            assert_eq!(
                enc.encode_parallel(&values, threads, &mut out),
                Err(EncodeError::WorkerPanicked { block: 4 }),
                "threads={threads}"
            );
            assert_eq!(out, [0xAB, 0xCD, 0xEF], "rolled back (threads={threads})");
        }
        // Clean input still encodes, identically to `encode`, and decodes.
        let clean: Vec<i64> = (0..4000).collect();
        let mut seq = Vec::new();
        enc.encode(&clean, &mut seq);
        for threads in [1, 2, 4] {
            let mut par = Vec::new();
            enc.encode_parallel(&clean, threads, &mut par)
                .expect("clean input");
            assert_eq!(par, seq, "threads={threads}");
        }
        let mut pos = 0;
        let mut out = Vec::new();
        enc.decode(&seq, &mut pos, &mut out).expect("decode");
        assert_eq!(out, clean);
    }

    /// The scratch-loop decoder [`Ts2DiffEncoding::decode`] replaced:
    /// each block decodes into its own `Vec`, is undiffed there, and is
    /// then copied onto `out`. Frozen as the oracle for the differential
    /// tests below.
    fn decode_oracle<P: IntPacker>(
        enc: &Ts2DiffEncoding<P>,
        buf: &[u8],
        pos: &mut usize,
        out: &mut Vec<i64>,
    ) -> DecodeResult<()> {
        let n = read_varint(buf, pos)? as usize;
        if n > bitpack::MAX_BLOCK_VALUES {
            return Err(DecodeError::CountOverflow { claimed: n as u64 });
        }
        if n == 0 {
            return Ok(());
        }
        let order = *buf.get(*pos).ok_or(DecodeError::Truncated)? as usize;
        *pos += 1;
        if order > MAX_ORDER {
            return Err(DecodeError::BadModeByte { mode: order as u8 });
        }
        out.reserve(n);
        let mut scratch = Vec::new();
        let mut produced = 0usize;
        while produced < n {
            let len = (n - produced).min(enc.block_size);
            let heads = order.min(len);
            scratch.clear();
            for _ in 0..heads {
                scratch.push(read_varint_i64(buf, pos)?);
            }
            enc.packer.decode(buf, pos, &mut scratch)?;
            if scratch.len() != len {
                return Err(DecodeError::LengthMismatch {
                    expected: len,
                    got: scratch.len(),
                });
            }
            undiff_in_place(&mut scratch, order);
            out.extend_from_slice(&scratch);
            produced += len;
        }
        Ok(())
    }

    /// Decodes `buf` with the shipping decoder and the oracle, both
    /// appending behind the same non-empty prefix, and requires the same
    /// result, cursor and output.
    fn assert_matches_oracle<P: IntPacker>(enc: &Ts2DiffEncoding<P>, buf: &[u8], what: &str) {
        let (mut pos, mut want_pos) = (0, 0);
        let (mut out, mut want) = (vec![-1i64, 2], vec![-1i64, 2]);
        let got = enc.decode(buf, &mut pos, &mut out);
        let expected = decode_oracle(enc, buf, &mut want_pos, &mut want);
        assert_eq!(got, expected, "{what}: result");
        assert_eq!(pos, want_pos, "{what}: cursor");
        assert_eq!(out, want, "{what}: values");
    }

    const BLOCK_SIZES: [usize; 3] = [2, 7, 1024];

    #[test]
    fn decode_matches_oracle_on_fig10_data() {
        for d in datasets::all_datasets(600) {
            let values = d.as_scaled_ints();
            for kind in PackerKind::ALL {
                for block in BLOCK_SIZES {
                    for order in 0..=MAX_ORDER {
                        let enc = Ts2DiffEncoding::with_options(kind.build(), block, order);
                        let mut buf = Vec::new();
                        enc.encode(&values, &mut buf);
                        let what =
                            format!("{} {} block={block} order={order}", d.abbr, kind.label());
                        assert_matches_oracle(&enc, &buf, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_matches_oracle_on_every_truncation_and_bit_flip() {
        let sets = datasets::all_datasets(40);
        let mut case = 0usize;
        for kind in PackerKind::ALL {
            for block in BLOCK_SIZES {
                for order in 0..=MAX_ORDER {
                    let values = sets[case % sets.len()].as_scaled_ints();
                    case += 1;
                    let enc = Ts2DiffEncoding::with_options(kind.build(), block, order);
                    let mut buf = Vec::new();
                    enc.encode(&values, &mut buf);
                    let what = format!("{} block={block} order={order}", kind.label());
                    for cut in 0..buf.len() {
                        assert_matches_oracle(&enc, &buf[..cut], &format!("{what} cut={cut}"));
                    }
                    for at in 0..buf.len() {
                        let mut flipped = buf.clone();
                        flipped[at] ^= 1 << (at % 8);
                        assert_matches_oracle(&enc, &flipped, &format!("{what} flip={at}"));
                    }
                }
            }
        }
    }

    #[test]
    fn order_is_self_describing() {
        // A stream written at order 2 decodes through an order-1 handle.
        let values: Vec<i64> = (0..3000).map(|i| i * 13).collect();
        let writer = Ts2DiffEncoding::second_order(PackerKind::BosB.build());
        let mut buf = Vec::new();
        writer.encode(&values, &mut buf);
        let reader = Ts2DiffEncoding::new(PackerKind::BosB.build());
        let mut out = Vec::new();
        let mut pos = 0;
        reader.decode(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values);
    }
}
