//! Streaming block segmentation for long series.
//!
//! A [`BosCodec`] works on one block; real series are
//! millions of values. [`StreamEncoder`] splits a series into fixed-size
//! blocks (the paper's experiments use 1024 by default, Figure 15 sweeps
//! 2^6…2^13) and concatenates self-describing block streams so a reader
//! can decode incrementally without an outer index.
//!
//! The same stream comes out of the workspace's shared block-parallel
//! driver, `bitpack::codec::encode_blocks_parallel(&BosCodec::new(kind),
//! ..)`, which fans the blocks across worker threads with identical
//! bytes; [`StreamDecoder`] reads either.
//!
//! ```
//! use bos::stream::{StreamDecoder, StreamEncoder};
//! use bos::SolverKind;
//!
//! let values: Vec<i64> = (0..10_000).map(|i| i % 100).collect();
//! let mut buf = Vec::new();
//! StreamEncoder::new(SolverKind::BitWidth, 1024).encode(&values, &mut buf);
//!
//! let mut out = Vec::new();
//! for block in StreamDecoder::new(&buf) {
//!     out.extend(block.expect("intact stream"));
//! }
//! assert_eq!(out, values);
//! ```

use crate::format;
use crate::BosCodec;
use crate::SolverKind;
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::zigzag::{read_varint, write_varint};
use bitpack::BlockCodec;

/// Splits a series into blocks and encodes each with a BOS solver.
#[derive(Debug, Clone, Copy)]
pub struct StreamEncoder {
    codec: BosCodec,
    block_size: usize,
}

impl StreamEncoder {
    /// Creates an encoder with the given solver and block size (≥ 1).
    pub fn new(kind: SolverKind, block_size: usize) -> Self {
        assert!(block_size >= 1);
        Self {
            codec: BosCodec::new(kind),
            block_size,
        }
    }

    /// The block size values are segmented into.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Encodes the whole series: `varint n_blocks` then the blocks.
    ///
    /// One [`bitpack::EncodeSession`] spans all blocks, so the solver's
    /// scratch memory is reused from block to block instead of being
    /// re-allocated per block.
    pub fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        let n_blocks = values.len().div_ceil(self.block_size);
        write_varint(out, n_blocks as u64);
        let mut session = self.codec.encode_session();
        for block in values.chunks(self.block_size) {
            session.encode_block(block, out);
        }
    }
}

/// Iterator over the blocks of a [`StreamEncoder`] stream.
///
/// Yields `Ok(values)` per block; a corrupt block yields one
/// `Err(DecodeError)` and ends the iteration (the stream cannot be
/// resynchronized past it).
pub struct StreamDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    remaining: u64,
    failed: Option<DecodeError>,
}

impl<'a> StreamDecoder<'a> {
    /// Starts decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        let mut pos = 0;
        match read_varint(buf, &mut pos) {
            Ok(n) => Self {
                buf,
                pos,
                remaining: n,
                failed: None,
            },
            Err(e) => Self {
                buf,
                pos: 0,
                remaining: if buf.is_empty() { 0 } else { 1 },
                failed: if buf.is_empty() { None } else { Some(e) },
            },
        }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Convenience: decode every block into one vector.
    pub fn decode_all(buf: &'a [u8]) -> DecodeResult<Vec<i64>> {
        let mut out = Vec::new();
        for block in StreamDecoder::new(buf) {
            out.extend(block?);
        }
        Ok(out)
    }
}

impl Iterator for StreamDecoder<'_> {
    type Item = DecodeResult<Vec<i64>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        if let Some(e) = self.failed {
            self.remaining = 0;
            return Some(Err(e));
        }
        self.remaining -= 1;
        let mut block = Vec::new();
        match format::decode_block(self.buf, &mut self.pos, &mut block) {
            Ok(()) => Some(Ok(block)),
            Err(e) => {
                self.remaining = 0;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiblock() {
        let values: Vec<i64> = (0..5000)
            .map(|i| if i % 97 == 0 { 1 << 30 } else { i % 50 })
            .collect();
        for block_size in [1usize, 7, 256, 1024, 5000, 9999] {
            let mut buf = Vec::new();
            StreamEncoder::new(SolverKind::BitWidth, block_size).encode(&values, &mut buf);
            let decoded = StreamDecoder::decode_all(&buf).expect("intact");
            assert_eq!(decoded, values, "block_size {block_size}");
        }
    }

    #[test]
    fn parallel_encode_is_byte_identical() {
        let values: Vec<i64> = (0..20_000)
            .map(|i| if i % 71 == 0 { -(1 << 33) } else { i % 900 })
            .collect();
        let enc = StreamEncoder::new(SolverKind::BitWidth, 512);
        let mut seq = Vec::new();
        enc.encode(&values, &mut seq);
        let codec = BosCodec::new(SolverKind::BitWidth);
        for threads in [1, 2, 3, 8] {
            let mut par = Vec::new();
            bitpack::codec::encode_blocks_parallel(&codec, &values, 512, threads, &mut par)
                .expect("parallel encode");
            assert_eq!(par, seq, "threads = {threads}");
        }
        assert_eq!(StreamDecoder::decode_all(&seq), Ok(values));
    }

    #[test]
    fn empty_series() {
        let mut buf = Vec::new();
        StreamEncoder::new(SolverKind::Median, 1024).encode(&[], &mut buf);
        assert_eq!(StreamDecoder::decode_all(&buf), Ok(vec![]));
    }

    #[test]
    fn block_iteration_matches_chunks() {
        let values: Vec<i64> = (0..2500).collect();
        let mut buf = Vec::new();
        StreamEncoder::new(SolverKind::BitWidth, 1000).encode(&values, &mut buf);
        let blocks: Vec<Vec<i64>> = StreamDecoder::new(&buf).map(|b| b.unwrap()).collect();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].len(), 1000);
        assert_eq!(blocks[2].len(), 500);
        assert_eq!(blocks.concat(), values);
    }

    #[test]
    fn truncation_yields_err_not_panic() {
        let values: Vec<i64> = (0..3000).collect();
        let mut buf = Vec::new();
        StreamEncoder::new(SolverKind::BitWidth, 1024).encode(&values, &mut buf);
        let cut = &buf[..buf.len() / 2];
        let mut saw_err = false;
        for block in StreamDecoder::new(cut) {
            if block.is_err() {
                saw_err = true;
            }
        }
        assert!(saw_err);
        assert!(StreamDecoder::decode_all(cut).is_err());
    }

    #[test]
    fn mixed_solver_streams_are_compatible() {
        // Blocks written with different solvers decode with one decoder.
        let a: Vec<i64> = (0..1500).collect();
        let mut buf = Vec::new();
        write_varint(&mut buf, 2);
        BosCodec::new(SolverKind::Median).encode(&a[..1000], &mut buf);
        BosCodec::new(SolverKind::Value).encode(&a[1000..], &mut buf);
        assert_eq!(StreamDecoder::decode_all(&buf), Ok(a));
    }
}
