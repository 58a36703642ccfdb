//! The on-disk block layout of Section VII (Figure 7).
//!
//! A block is self-describing:
//!
//! ```text
//! varint n · mode byte
//! mode 0 (plain BP):  zigzag xmin · width byte ·
//!                     word-packed payload (`packed_size(n, w)` bytes)
//! mode 1 (separated): varint nl · varint nu
//!                     zigzag xmin
//!                     varint (min Xc − xmin)   [present iff nc > 0]
//!                     varint (min Xu − xmin)   [present iff nu > 0]
//!                     bytes α β γ
//!                     position bitmap (Fig. 2: 0 / 10 / 11, n+nl+nu bits,
//!                     padded to a whole byte)
//!                     word-packed lower sub-stream  (nl values @ α bits)
//!                     word-packed center sub-stream (nc values @ β bits)
//!                     word-packed upper sub-stream  (nu values @ γ bits)
//! ```
//!
//! Matching the paper: lower outliers store `ξ(l) = x − xmin` in `α` bits,
//! center values `ξ(c) = x − min Xc` in `β` bits, upper outliers
//! `ξ(u) = x − min Xu` in `γ` bits, and decompression is a single scan.
//!
//! The three sub-streams are separate word-packed regions (each in the
//! exact `pack_words` layout, produced and consumed by the fused
//! frame-of-reference kernels in `bitpack::unrolled`) rather than one
//! value-interleaved bit stream: uniform-width runs are what the unrolled
//! kernels accelerate, and each region rounds up to whole 64-bit words.
//! The solver still decides plain-vs-separated on the *bit-exact* cost
//! model of Definition 5 (`Evaluation::cost_bits`); the stored form pays
//! at most ~7 bytes of padding per region on top of that, which
//! [`separated_payload_bytes`] accounts for exactly.
//!
//! # Decoding a separated block
//!
//! [`decode_block`] is the only block decoder in the shipping build. It
//! reads a separated payload in three passes over per-thread scratch
//! buffers, with no allocation once they have grown to the block size:
//!
//! 1. **Classify.** The bitmap is read eight bytes at a time into one part
//!    kind per position. A word that is one run of codes (all `0`, all
//!    `10` or all `11`) becomes a 64-lane fill; any other byte goes through
//!    a compile-time table indexed by the byte and by whether the previous
//!    byte ended inside an outlier code. The same pass counts the lower
//!    and upper codes for the header check.
//! 2. **Unpack.** Each part is decoded whole by the fused
//!    frame-of-reference kernel, `lower · center · upper` in one buffer.
//! 3. **Gather.** Positions are filled in order. Outliers in real series
//!    cluster, so eight equal kinds open a run that is copied from its
//!    part as one block; mixed stretches take one value per position.
//!
//! Errors are exact: the checks run in the frozen decoder's order
//! (payload size, bitmap length, bitmap counts, then each part's value
//! overflow), so every hostile input yields the same [`DecodeError`] and
//! cursor position as before. The bit-serial decoder this replaced is
//! kept verbatim in `format/oracle.rs`, compiled only under `#[cfg(test)]`
//! as the differential oracle (and by path into the `exp_throughput`
//! decode gate as its frozen baseline).

#[cfg(test)]
use crate::cost::Separation;
use crate::cost::{Evaluation, Solution, SortedBlock};
use crate::solver::Solver;
use bitpack::bitmap::{OutlierBitmap, Part};
use bitpack::bits::BitWriter;
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::kernels::packed_size;
use bitpack::unrolled::{pack_words_for, unpack_words_for};
use bitpack::width::{range_u64, width};
use bitpack::zigzag::{
    read_len_bounded, read_varint, read_varint_i64, write_varint, write_varint_i64,
};
use std::cell::RefCell;

#[cfg(test)]
mod oracle;

/// Mode byte: plain frame-of-reference bit-packing.
const MODE_PLAIN: u8 = 0;
/// Mode byte: outlier separation.
const MODE_SEPARATED: u8 = 1;

// Separation shape metrics, recorded at encode time where the chosen
// evaluation is already in hand (no recomputation). The histograms carry
// the paper's per-block tuning story: chosen part widths (α/β/γ) and
// part sizes (nl/nc/nu).
static BLOCKS_PLAIN: obs::CounterHandle = obs::CounterHandle::new("bos.blocks_plain");
static BLOCKS_SEPARATED: obs::CounterHandle = obs::CounterHandle::new("bos.blocks_separated");
static WIDTH_ALPHA: obs::HistogramHandle = obs::HistogramHandle::new("bos.separated.alpha");
static WIDTH_BETA: obs::HistogramHandle = obs::HistogramHandle::new("bos.separated.beta");
static WIDTH_GAMMA: obs::HistogramHandle = obs::HistogramHandle::new("bos.separated.gamma");
static PART_NL: obs::HistogramHandle = obs::HistogramHandle::new("bos.separated.nl");
static PART_NC: obs::HistogramHandle = obs::HistogramHandle::new("bos.separated.nc");
static PART_NU: obs::HistogramHandle = obs::HistogramHandle::new("bos.separated.nu");
// Decode-side block tallies, so reads show up in metrics next to encodes.
static DECODED_PLAIN: obs::CounterHandle = obs::CounterHandle::new("bos.decode.blocks_plain");
static DECODED_SEPARATED: obs::CounterHandle =
    obs::CounterHandle::new("bos.decode.blocks_separated");

/// Encodes one block, choosing plain packing or separation with `solver`.
pub fn encode_block<S: Solver + Clone>(values: &[i64], solver: &S, out: &mut Vec<u8>) {
    let solution = solver.solve_values(values);
    encode_block_with_solution(values, &solution, out);
}

/// Encodes one block with a pre-computed solution (used by tests and by
/// callers that already ran the solver for cost statistics).
pub fn encode_block_with_solution(values: &[i64], solution: &Solution, out: &mut Vec<u8>) {
    write_varint(out, values.len() as u64);
    if values.is_empty() {
        return;
    }
    match solution.separation() {
        None => encode_plain(values, out),
        Some(sep) => {
            let block = SortedBlock::from_values(values);
            let eval = block.evaluate(sep);
            encode_separated(values, &block, &eval, out);
        }
    }
}

/// Exact stored payload size of a separated block (bitmap region plus the
/// three word-packed sub-streams), or `None` on arithmetic overflow.
/// Shared by the encoder (as a self-check), [`peek_block`], and the
/// decoder's truncation pre-check.
fn separated_payload_bytes(
    n: usize,
    nl: usize,
    nu: usize,
    nc: usize,
    alpha: u32,
    beta: u32,
    gamma: u32,
) -> Option<usize> {
    let bitmap = OutlierBitmap::size_bits(n, nl, nu).div_ceil(8);
    let mut total = bitmap;
    for (count, w) in [(nl, alpha), (nc, beta), (nu, gamma)] {
        total = total.checked_add(packed_size(count, w)?)?;
    }
    Some(total)
}

fn encode_plain(values: &[i64], out: &mut Vec<u8>) {
    out.push(MODE_PLAIN);
    let xmin = values.iter().copied().min().unwrap_or(0);
    let xmax = values.iter().copied().max().unwrap_or(0);
    let w = width(range_u64(xmin, xmax));
    if obs::enabled() {
        BLOCKS_PLAIN.inc();
        obs::trail::emit(obs::trail::Event::BlockPlain {
            n: values.len() as u64,
            width: w as u8,
        });
    }
    write_varint_i64(out, xmin);
    out.push(w as u8);
    pack_words_for(values, xmin, w, out);
}

fn encode_separated(values: &[i64], block: &SortedBlock, eval: &Evaluation, out: &mut Vec<u8>) {
    if obs::enabled() {
        BLOCKS_SEPARATED.inc();
        WIDTH_ALPHA.record(u64::from(eval.alpha));
        WIDTH_BETA.record(u64::from(eval.beta));
        WIDTH_GAMMA.record(u64::from(eval.gamma));
        PART_NL.record(eval.nl as u64);
        PART_NC.record(eval.nc as u64);
        PART_NU.record(eval.nu as u64);
        obs::trail::emit(obs::trail::Event::BlockSeparated {
            alpha: eval.alpha as u8,
            beta: eval.beta as u8,
            gamma: eval.gamma as u8,
            nl: eval.nl as u64,
            nc: eval.nc as u64,
            nu: eval.nu as u64,
        });
    }
    out.push(MODE_SEPARATED);
    let xmin = block.xmin();
    write_varint(out, eval.nl as u64);
    write_varint(out, eval.nu as u64);
    write_varint_i64(out, xmin);
    if let (true, Some(min_xc)) = (eval.nc > 0, eval.min_xc) {
        write_varint(out, range_u64(xmin, min_xc));
    }
    if let (true, Some(min_xu)) = (eval.nu > 0, eval.min_xu) {
        write_varint(out, range_u64(xmin, min_xu));
    }
    out.push(eval.alpha as u8);
    out.push(eval.beta as u8);
    out.push(eval.gamma as u8);

    // Classify once; boundaries come from the evaluation so the split is
    // identical to the one the cost was computed for.
    let lower_bound = eval.max_xl; // x ≤ max Xl  → lower
    let upper_bound = eval.min_xu; // x ≥ min Xu  → upper
    let min_xc = eval.min_xc.unwrap_or(xmin);
    let min_xu = eval.min_xu.unwrap_or(xmin);

    let mut parts = Vec::with_capacity(values.len());
    let mut lower = Vec::with_capacity(eval.nl);
    let mut center = Vec::with_capacity(eval.nc);
    let mut upper = Vec::with_capacity(eval.nu);
    for &x in values {
        let p = part_of(x, lower_bound, upper_bound);
        parts.push(p);
        match p {
            Part::Lower => lower.push(x),
            Part::Center => center.push(x),
            Part::Upper => upper.push(x),
        }
    }
    debug_assert_eq!(
        (lower.len(), center.len(), upper.len()),
        (eval.nl, eval.nc, eval.nu)
    );

    let payload_start = out.len();
    // Bitmap first (Fig. 7: bit indicators precede the value payload),
    // padded to a whole byte so the sub-streams start byte-aligned.
    let mut bits =
        BitWriter::with_capacity_bits(OutlierBitmap::size_bits(values.len(), eval.nl, eval.nu));
    OutlierBitmap::encode(&parts, &mut bits);
    out.extend_from_slice(&bits.into_bytes());
    // Three word-packed sub-streams, each via the fused subtract-and-pack
    // kernel — no per-part delta vector is materialized.
    pack_words_for(&lower, xmin, eval.alpha, out);
    pack_words_for(&center, min_xc, eval.beta, out);
    pack_words_for(&upper, min_xu, eval.gamma, out);
    debug_assert_eq!(
        Some(out.len() - payload_start),
        separated_payload_bytes(
            values.len(),
            eval.nl,
            eval.nu,
            eval.nc,
            eval.alpha,
            eval.beta,
            eval.gamma
        ),
        "encoder payload must equal the shared layout-size helper"
    );
}

#[inline]
fn part_of(x: i64, lower_bound: Option<i64>, upper_bound: Option<i64>) -> Part {
    if lower_bound.is_some_and(|b| x <= b) {
        Part::Lower
    } else if upper_bound.is_some_and(|b| x >= b) {
        Part::Upper
    } else {
        Part::Center
    }
}

/// Header-only summary of one encoded block: enough for zone-map style
/// block skipping without touching the payload.
///
/// `min` is exact (both modes store the block minimum in the header);
/// `max_bound` is an inclusive upper bound derived from the part bases and
/// widths (`base + 2^width - 1`). The actual maximum may be smaller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// Number of values in the block.
    pub n: usize,
    /// Exact minimum and inclusive maximum *bound*; `None` for an empty
    /// block.
    pub bounds: Option<(i64, i64)>,
    /// Whether the block uses outlier separation (vs. plain packing).
    pub separated: bool,
    /// Total encoded size in bytes (header + payload).
    pub encoded_len: usize,
}

#[inline]
fn bound_from(base: i64, w: u32) -> i64 {
    let hi = base as i128 + ((1i128 << w) - 1);
    hi.min(i64::MAX as i128) as i64
}

/// Largest offset a `w`-bit field can hold.
#[inline]
fn max_offset(w: u32) -> u64 {
    if w == 0 {
        0
    } else {
        u64::MAX >> (64 - w)
    }
}

/// Reads one block's header from `buf[*pos..]`, advancing `pos` past the
/// *entire* block (payload included) without decoding any values.
/// Fails with a [`DecodeError`] on corruption or truncation.
pub fn peek_block(buf: &[u8], pos: &mut usize) -> DecodeResult<BlockSummary> {
    let start = *pos;
    let n = read_len_bounded(buf, pos, bitpack::MAX_BLOCK_VALUES)?;
    if n == 0 {
        return Ok(BlockSummary {
            n: 0,
            bounds: None,
            separated: false,
            encoded_len: *pos - start,
        });
    }
    let mode = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    let (bounds, separated) = match mode {
        MODE_PLAIN => {
            let (xmin, w) = read_plain_header(buf, pos)?;
            let payload_bytes =
                packed_size(n, w).ok_or(DecodeError::CountOverflow { claimed: n as u64 })?;
            *pos = payload_end(buf, *pos, payload_bytes)?;
            ((xmin, bound_from(xmin, w)), false)
        }
        MODE_SEPARATED => {
            let h = SeparatedHeader::read(buf, pos, n)?;
            // Highest non-empty part gives the max bound.
            let max_bound = if h.nu > 0 {
                bound_from(h.min_xu, h.gamma)
            } else if h.nc > 0 {
                bound_from(h.min_xc, h.beta)
            } else {
                bound_from(h.xmin, h.alpha)
            };
            *pos = payload_end(buf, *pos, h.payload_bytes(n)?)?;
            ((h.xmin, max_bound), true)
        }
        mode => return Err(DecodeError::BadModeByte { mode }),
    };
    Ok(BlockSummary {
        n,
        bounds: Some(bounds),
        separated,
        encoded_len: *pos - start,
    })
}

/// End offset of a `payload_bytes` payload starting at `start`, or
/// [`DecodeError::Truncated`] when `buf` does not hold all of it.
fn payload_end(buf: &[u8], start: usize, payload_bytes: usize) -> DecodeResult<usize> {
    start
        .checked_add(payload_bytes)
        .filter(|&end| end <= buf.len())
        .ok_or(DecodeError::Truncated)
}

/// Reads a plain block's `xmin` and width byte, rejecting widths over 64.
fn read_plain_header(buf: &[u8], pos: &mut usize) -> DecodeResult<(i64, u32)> {
    let xmin = read_varint_i64(buf, pos)?;
    let w = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
    *pos += 1;
    if w > 64 {
        return Err(DecodeError::WidthOverflow { width: w });
    }
    Ok((xmin, w))
}

/// The header of a separated block: part sizes, part bases and part
/// widths, everything before the position bitmap.
#[derive(Debug)]
struct SeparatedHeader {
    nl: usize,
    nu: usize,
    nc: usize,
    xmin: i64,
    min_xc: i64,
    min_xu: i64,
    alpha: u32,
    beta: u32,
    gamma: u32,
}

impl SeparatedHeader {
    /// Reads the header of an `n`-value separated block from `buf[*pos..]`.
    fn read(buf: &[u8], pos: &mut usize, n: usize) -> DecodeResult<Self> {
        // `nl` and `nu` are bounded so the three counts sum to `n`.
        let nl = read_len_bounded(buf, pos, n)?;
        let nu = read_len_bounded(buf, pos, n - nl)?;
        let nc = n - nl - nu;
        let xmin = read_varint_i64(buf, pos)?;
        let min_xc = if nc > 0 {
            read_part_base(buf, pos, xmin)?
        } else {
            xmin
        };
        let min_xu = if nu > 0 {
            read_part_base(buf, pos, xmin)?
        } else {
            xmin
        };
        let widths = buf.get(*pos..).and_then(|rest| rest.first_chunk::<3>());
        let &[alpha, beta, gamma] = widths.ok_or(DecodeError::Truncated)?;
        *pos += 3;
        let [alpha, beta, gamma] = [alpha, beta, gamma].map(u32::from);
        for w in [alpha, beta, gamma] {
            if w > 64 {
                return Err(DecodeError::WidthOverflow { width: w });
            }
        }
        Ok(Self {
            nl,
            nu,
            nc,
            xmin,
            min_xc,
            min_xu,
            alpha,
            beta,
            gamma,
        })
    }

    /// Exact payload size (bitmap plus the three parts) of the block.
    fn payload_bytes(&self, n: usize) -> DecodeResult<usize> {
        separated_payload_bytes(
            n, self.nl, self.nu, self.nc, self.alpha, self.beta, self.gamma,
        )
        .ok_or(DecodeError::CountOverflow { claimed: n as u64 })
    }
}

/// Reads a part base stored as an unsigned offset from `xmin`.
fn read_part_base(buf: &[u8], pos: &mut usize, xmin: i64) -> DecodeResult<i64> {
    xmin.checked_add_unsigned(read_varint(buf, pos)?)
        .ok_or(DecodeError::ValueOverflow)
}

/// Decodes one block from `buf[*pos..]`, appending the values to `out`.
/// Fails with a [`DecodeError`] on any structural corruption or truncation.
pub fn decode_block(buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
    let n = read_len_bounded(buf, pos, bitpack::MAX_BLOCK_VALUES)?;
    if n == 0 {
        return Ok(());
    }
    let mode = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    match mode {
        MODE_PLAIN => decode_plain(buf, pos, n, out)?,
        MODE_SEPARATED => decode_separated(buf, pos, n, out)?,
        mode => return Err(DecodeError::BadModeByte { mode }),
    }
    if obs::enabled() {
        if mode == MODE_PLAIN {
            DECODED_PLAIN.inc();
        } else {
            DECODED_SEPARATED.inc();
        }
    }
    Ok(())
}

fn decode_plain(buf: &[u8], pos: &mut usize, n: usize, out: &mut Vec<i64>) -> DecodeResult<()> {
    let (xmin, w) = read_plain_header(buf, pos)?;
    let consumed = unpack_words_for(
        buf.get(*pos..).ok_or(DecodeError::Truncated)?,
        n,
        w,
        xmin,
        out,
    )?;
    // lint:allow(unchecked-arith-in-decode): consumed <= buf.len() - *pos by the kernel's contract
    *pos += consumed;
    Ok(())
}

/// Largest buffer a thread keeps between blocks (in elements); larger
/// ones, left by oversized or hostile blocks, are released after use.
const SCRATCH_RETAIN: usize = 1 << 16;

/// Reusable buffers of the separated-block decoder. One instance per
/// thread serves every block, so a decode allocates nothing once the
/// buffers have grown to the block size.
#[derive(Debug, Default)]
struct DecodeScratch {
    /// The three decoded parts, laid out `lower · center · upper`.
    parts: Vec<i64>,
    /// The part kind of every position (see [`CODE_TABLE`]), plus slack
    /// for whole-lane stores.
    kinds: Vec<u8>,
}

thread_local! {
    static DECODE_SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::default());
}

/// Part kinds as stored in [`DecodeScratch::kinds`]; each also indexes
/// the part cursors of [`gather`].
const KIND_CENTER: u8 = 0;
const KIND_LOWER: u8 = 1;
const KIND_UPPER: u8 = 2;
/// Marks the end of the kinds of one block.
const KIND_END: u8 = u8::MAX;

/// Byte-at-a-time decoder for the position bitmap (Fig. 2: `0` center,
/// `10` lower, `11` upper). Entry `[carry][byte]` describes one bitmap
/// byte read while `carry` says whether the previous byte ended inside an
/// outlier code (after its leading `1`).
struct CodeTable {
    /// Kinds of the codes that end in this byte, one per little-endian
    /// byte lane, in order (unused lanes are 0).
    kinds: [[u64; 256]; 2],
    /// Packed tallies of those codes: total (bits 0..4), carry out
    /// (bit 4), lower codes (bits 8..12), upper codes (bits 12..16).
    step: [[u16; 256]; 2],
}

/// Built at compile time by running the prefix code over every byte.
static CODE_TABLE: CodeTable = {
    let mut table = CodeTable {
        kinds: [[0; 256]; 2],
        step: [[0; 256]; 2],
    };
    let mut carry = 0;
    while carry < 2 {
        let mut byte = 0;
        while byte < 256 {
            let mut pending = carry == 1;
            let (mut kinds, mut count, mut lower, mut upper) = (0u64, 0u16, 0u16, 0u16);
            let mut bit = 0;
            while bit < 8 {
                let one = (byte >> (7 - bit)) & 1 == 1;
                let kind = if pending && one {
                    upper += 1;
                    KIND_UPPER
                } else if pending {
                    lower += 1;
                    KIND_LOWER
                } else {
                    KIND_CENTER
                };
                if pending || !one {
                    // lint:allow(unchecked-arith-in-decode): const-evaluated; count < 8 codes per byte
                    kinds |= (kind as u64) << (8 * count);
                    count += 1;
                }
                pending = !pending && one;
                bit += 1;
            }
            let step = count | ((pending as u16) << 4) | (lower << 8) | (upper << 12);
            // Const-evaluated: an out-of-range index would fail the build.
            table.kinds[carry][byte] = kinds; // lint:allow(no-indexing): carry < 2, byte < 256
            table.step[carry][byte] = step; // lint:allow(no-indexing): carry < 2, byte < 256
            byte += 1;
        }
        carry += 1;
    }
    table
};

fn decode_separated(buf: &[u8], pos: &mut usize, n: usize, out: &mut Vec<i64>) -> DecodeResult<()> {
    let h = SeparatedHeader::read(buf, pos, n)?;
    DECODE_SCRATCH.with_borrow_mut(|scratch| {
        let r = expand_separated(&h, n, buf, pos, scratch, out);
        if scratch.parts.capacity().max(scratch.kinds.capacity()) > SCRATCH_RETAIN {
            *scratch = DecodeScratch::default();
        }
        r
    })
}

/// Decodes the payload of a separated block whose header is `h`, from
/// `buf[*pos..]`: classifies every position from the bitmap, decodes the
/// three parts into `scratch.parts` with the fused kernels, then gathers
/// the values into original order, appending exactly `n` values to
/// `out`. On error `out` is untouched, and the checks run in the frozen
/// decoder's order (payload size, bitmap, then each part's overflow), so
/// the error and the cursor position match it.
fn expand_separated(
    h: &SeparatedHeader,
    n: usize,
    buf: &[u8],
    pos: &mut usize,
    scratch: &mut DecodeScratch,
    out: &mut Vec<i64>,
) -> DecodeResult<()> {
    // Whole-payload truncation pre-check (also validates the size
    // arithmetic), then the byte-aligned bitmap region.
    let end = payload_end(buf, *pos, h.payload_bytes(n)?)?;
    let bitmap_bytes = OutlierBitmap::size_bits(n, h.nl, h.nu).div_ceil(8);
    // lint:allow(unchecked-arith-in-decode): the bitmap is a prefix of the payload checked above
    let bitmap_end = *pos + bitmap_bytes;
    let bitmap = buf.get(*pos..bitmap_end).ok_or(DecodeError::Truncated)?;
    let DecodeScratch { parts, kinds } = scratch;
    let (seen_l, seen_u) = classify(bitmap, n, kinds).ok_or(DecodeError::Truncated)?;
    *pos = bitmap_end;
    if (seen_l, seen_u) != (h.nl, h.nu) {
        return Err(DecodeError::BitmapCountMismatch {
            header_lower: h.nl,
            header_upper: h.nu,
            bitmap_lower: seen_l,
            bitmap_upper: seen_u,
        });
    }
    parts.clear();
    for (count, w, base) in [
        (h.nl, h.alpha, h.xmin),
        (h.nc, h.beta, h.min_xc),
        (h.nu, h.gamma, h.min_xu),
    ] {
        let from = parts.len();
        let region = buf.get(*pos..end).ok_or(DecodeError::Truncated)?;
        // lint:allow(unchecked-arith-in-decode): the kernel consumes at most region.len() bytes
        *pos += unpack_words_for(region, count, w, base, parts)?;
        if part_overflowed(parts.get(from..).unwrap_or(&[]), base, w) {
            return Err(DecodeError::ValueOverflow);
        }
    }
    let start = out.len();
    out.resize(start.saturating_add(n), 0);
    gather(
        kinds,
        parts,
        h.nl,
        h.nc,
        out.get_mut(start..).unwrap_or(&mut []),
    );
    Ok(())
}

/// Whether some value of a part decoded with wrapping adds left `i64`
/// range. `base + off` overflows exactly when its wrapped sum is below
/// `base`, and only a base within `2^w` of `i64::MAX` can overflow at
/// all — reachable only through corrupt or adversarial headers — so the
/// scan runs only then.
#[inline]
fn part_overflowed(vals: &[i64], base: i64, w: u32) -> bool {
    base.checked_add_unsigned(max_offset(w)).is_none() && vals.iter().any(|&v| v < base)
}

/// Decodes the first `n` part kinds of the position bitmap into
/// `kinds[..n]`, followed by an 8-byte [`KIND_END`] marker. Returns the
/// lower and upper code counts among those `n`, or `None` when the bitmap
/// ends before `n` complete codes.
///
/// The bitmap is read eight bytes at a time. A word of only center codes
/// (`0x00…`), only lower codes (`0xAA…`) or only upper codes (`0xFF…`)
/// that starts on a code boundary is a run, stored as one 64-lane fill.
/// Any other word goes byte by byte through [`CODE_TABLE`]: each byte
/// stores a whole 8-lane word of kinds and advances by the number of codes
/// that ended in it. Stores may run past the `n`-th code; `kinds` keeps
/// 64 bytes of slack for them.
fn classify(bitmap: &[u8], n: usize, kinds: &mut Vec<u8>) -> Option<(usize, usize)> {
    // Run words: (bitmap word, kind, codes, of which lower, of which upper).
    const RUNS: [(u64, u8, usize, usize, usize); 3] = [
        (0, KIND_CENTER, 64, 0, 0),
        (0xAAAA_AAAA_AAAA_AAAA, KIND_LOWER, 32, 32, 0),
        (u64::MAX, KIND_UPPER, 32, 0, 32),
    ];
    let slack = n.saturating_add(64);
    if kinds.len() < slack {
        kinds.resize(slack, 0);
    }
    let (mut done, mut carry, mut lower, mut upper) = (0usize, 0usize, 0usize, 0usize);
    let mut words = bitmap.chunks(8);
    while done < n {
        let Some(chunk) = words.next() else {
            break;
        };
        let word = chunk.first_chunk::<8>().map(|w| u64::from_le_bytes(*w));
        if let (0, Some(&(_, kind, codes, lo, up))) =
            (carry, RUNS.iter().find(|run| Some(run.0) == word))
        {
            *kinds.get_mut(done..)?.first_chunk_mut::<64>()? = [kind; 64];
            // All three stay below n + 64: done < n before the step.
            done += codes;
            lower += lo;
            upper += up;
            continue;
        }
        for &byte in chunk {
            if done >= n {
                break;
            }
            let lanes = CODE_TABLE.kinds.get(carry)?.get(usize::from(byte))?;
            let step = usize::from(*CODE_TABLE.step.get(carry)?.get(usize::from(byte))?);
            *kinds.get_mut(done..)?.first_chunk_mut::<8>()? = lanes.to_le_bytes();
            done += step & 0xF;
            carry = (step >> 4) & 1;
            lower += (step >> 8) & 0xF;
            upper += step >> 12;
        }
    }
    // Codes past the n-th (padding, a corrupt bitmap, or the tail of a
    // run) were counted: take them back out, then overwrite them with the
    // end marker [`gather`] relies on.
    for &kind in kinds.get(n..done)? {
        lower -= usize::from(kind == KIND_LOWER);
        upper -= usize::from(kind == KIND_UPPER);
    }
    *kinds.get_mut(n..)?.first_chunk_mut::<8>()? = [KIND_END; 8];
    Some((lower, upper))
}

/// Eight consecutive kinds starting at position `i`, as one little-endian
/// word (byte `j` is position `i + j`); all-ones past the buffer.
#[inline]
fn kind_word(kinds: &[u8], i: usize) -> u64 {
    kinds
        .get(i..)
        .and_then(|rest| rest.first_chunk::<8>())
        .map_or(u64::MAX, |bytes| u64::from_le_bytes(*bytes))
}

/// Writes the block into `slots` in original order from `parts` (`lower ·
/// center · upper`, `nl` and `nc` long): each position takes the next
/// value of the part its kind names.
///
/// Outliers in real series cluster, so most positions sit in long runs of
/// one kind. The scan looks at eight kinds per step: eight equal kinds
/// open a run, which is extended a word at a time and then copied from its
/// part as one block; a mixed word is resolved value by value. `kinds`
/// holds the `n = slots.len()` kinds followed by an 8-byte end marker that
/// matches no kind. The caller has checked that each kind occurs exactly
/// as often as its part has values, so no cursor runs past its part.
fn gather(kinds: &[u8], parts: &[i64], nl: usize, nc: usize, slots: &mut [i64]) {
    const LANES: u64 = 0x0101_0101_0101_0101;
    let n = slots.len();
    // Cursors indexed by kind: center, lower, upper.
    let mut cursors = [nl, 0, nl.saturating_add(nc)];
    let mut i = 0;
    while i < n {
        let word = kind_word(kinds, i);
        let run = (word & 0xFF).wrapping_mul(LANES);
        if word == run {
            let Some(cursor) = cursors.get_mut((word & 0xFF) as usize) else {
                return;
            };
            // The end marker stops the run by position n at the latest.
            let mut end = i.saturating_add(8);
            let mut next = kind_word(kinds, end);
            while next == run {
                end = end.saturating_add(8);
                next = kind_word(kinds, end);
            }
            end = end.saturating_add(((next ^ run).trailing_zeros() / 8) as usize);
            let len = end - i;
            let from = *cursor;
            *cursor = from.saturating_add(len);
            if let (Some(dst), Some(src)) = (slots.get_mut(i..end), parts.get(from..*cursor)) {
                dst.copy_from_slice(src);
            }
            i = end;
        } else {
            let end = i.saturating_add(8).min(n);
            for (slot, &kind) in slots
                .get_mut(i..end)
                .unwrap_or(&mut [])
                .iter_mut()
                .zip(kinds.get(i..).unwrap_or(&[]))
            {
                if let Some(cursor) = cursors.get_mut(usize::from(kind)) {
                    *slot = parts.get(*cursor).copied().unwrap_or_default();
                    *cursor += 1;
                }
            }
            i = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{BitWidthSolver, MedianSolver, Solver, ValueSolver};

    const INTRO: [i64; 8] = [3, 2, 4, 5, 3, 2, 0, 8];

    fn roundtrip_with<S: Solver + Clone>(values: &[i64], solver: &S) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_block(values, solver, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        decode_block(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values, "roundtrip mismatch for {}", solver.name());
        assert_eq!(pos, buf.len());
        buf
    }

    #[test]
    fn roundtrip_all_solvers() {
        let cases: Vec<Vec<i64>> = vec![
            INTRO.to_vec(),
            vec![],
            vec![42],
            vec![7; 50],
            (0..300).collect(),
            vec![i64::MIN, -1, 0, 1, i64::MAX],
            vec![0, 1, 2, 3, 1 << 40, (1 << 40) + 1],
            (0..256)
                .map(|i| if i % 37 == 0 { -(1 << 30) } else { i % 17 })
                .collect(),
        ];
        for case in &cases {
            roundtrip_with(case, &ValueSolver::new());
            roundtrip_with(case, &BitWidthSolver::new());
            roundtrip_with(case, &MedianSolver::new());
            roundtrip_with(case, &ValueSolver::upper_only());
        }
    }

    #[test]
    fn separated_block_is_smaller_for_intro() {
        // The paper's intro example: the solver's *bit* cost model picks
        // separation (24 payload bits vs 32 for plain). The stored form
        // word-pads each region, so the byte saving only shows once blocks
        // amortize the padding — both facts are asserted here.
        let solution = BitWidthSolver::new().solve_values(&INTRO);
        let Solution::Separated { cost_bits, .. } = solution else {
            panic!("intro example must separate");
        };
        assert_eq!(cost_bits, 24);
        assert_eq!(SortedBlock::from_values(&INTRO).plain_cost_bits(), 32);
        roundtrip_with(&INTRO, &BitWidthSolver::new());

        // Same outlier shape at a realistic block size: separation must
        // win on disk despite word padding.
        let big: Vec<i64> = (0..4096)
            .map(|i| if i % 512 == 7 { 1 << 40 } else { i % 6 })
            .collect();
        let mut plain = Vec::new();
        let plain_cost = SortedBlock::from_values(&big).plain_cost_bits();
        encode_block_with_solution(
            &big,
            &Solution::Plain {
                cost_bits: plain_cost,
            },
            &mut plain,
        );
        let sep = roundtrip_with(&big, &BitWidthSolver::new());
        let mut pos = 0;
        let summary = peek_block(&sep, &mut pos).expect("peek");
        assert!(summary.separated, "solver must separate the outlier block");
        assert!(
            sep.len() * 5 < plain.len(),
            "{} vs {}",
            sep.len(),
            plain.len()
        );
    }

    #[test]
    fn forced_separation_roundtrip() {
        // Force an arbitrary valid separation, even a silly one.
        let values = [10i64, 20, 30, 40, 50];
        for sep in [
            Separation {
                xl: Some(10),
                xu: Some(50),
            },
            Separation {
                xl: Some(20),
                xu: None,
            },
            Separation {
                xl: None,
                xu: Some(30),
            },
            Separation {
                xl: Some(30),
                xu: Some(40),
            },
        ] {
            let block = SortedBlock::from_values(&values);
            let eval = block.evaluate(sep);
            let solution = Solution::Separated {
                sep,
                cost_bits: eval.cost_bits,
            };
            let mut buf = Vec::new();
            encode_block_with_solution(&values, &solution, &mut buf);
            let mut pos = 0;
            let mut out = Vec::new();
            decode_block(&buf, &mut pos, &mut out).expect("decode");
            assert_eq!(out, values, "sep {sep:?}");
        }
    }

    #[test]
    fn corrupt_inputs_do_not_panic() {
        let mut buf = Vec::new();
        encode_block(&INTRO, &BitWidthSolver::new(), &mut buf);
        // Truncations at every length must fail cleanly or succeed (a
        // truncation can still contain a full valid block only at full
        // length).
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut out = Vec::new();
            assert!(
                decode_block(&buf[..cut], &mut pos, &mut out).is_err(),
                "cut at {cut} unexpectedly decoded"
            );
        }
        // Bad mode byte.
        let mut bad = buf.clone();
        bad[1] = 99;
        let mut pos = 0;
        let mut out = Vec::new();
        assert_eq!(
            decode_block(&bad, &mut pos, &mut out),
            Err(DecodeError::BadModeByte { mode: 99 })
        );
    }

    #[test]
    fn empty_block_is_one_byte() {
        let mut buf = Vec::new();
        encode_block(&[], &ValueSolver::new(), &mut buf);
        assert_eq!(buf, vec![0]);
        let mut pos = 0;
        let mut out = Vec::new();
        decode_block(&buf, &mut pos, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn peek_matches_decode() {
        let cases: Vec<Vec<i64>> = vec![
            INTRO.to_vec(),
            vec![],
            vec![42],
            vec![7; 50],
            (0..300).collect(),
            vec![i64::MIN, -1, 0, 1, i64::MAX],
            vec![0, 1, 2, 3, 1 << 40, (1 << 40) + 1],
        ];
        for case in &cases {
            for solver_plain in [false, true] {
                let mut buf = Vec::new();
                if solver_plain {
                    let plain = Solution::Plain {
                        cost_bits: if case.is_empty() {
                            0
                        } else {
                            SortedBlock::from_values(case).plain_cost_bits()
                        },
                    };
                    encode_block_with_solution(case, &plain, &mut buf);
                } else {
                    encode_block(case, &BitWidthSolver::new(), &mut buf);
                }
                let mut ppos = 0;
                let summary = peek_block(&buf, &mut ppos).expect("peek");
                assert_eq!(ppos, buf.len(), "peek must advance past the block");
                assert_eq!(summary.encoded_len, buf.len());
                assert_eq!(summary.n, case.len());
                let mut dpos = 0;
                let mut out = Vec::new();
                decode_block(&buf, &mut dpos, &mut out).expect("decode");
                if let Some((lo, hi)) = summary.bounds {
                    let actual_min = *out.iter().min().expect("non-empty");
                    let actual_max = *out.iter().max().expect("non-empty");
                    assert_eq!(lo, actual_min, "min must be exact");
                    assert!(hi >= actual_max, "max bound must cover the max");
                } else {
                    assert!(out.is_empty());
                }
            }
        }
    }

    #[test]
    fn peek_rejects_truncation() {
        let mut buf = Vec::new();
        encode_block(&INTRO, &BitWidthSolver::new(), &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(peek_block(&buf[..cut], &mut pos).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn multiple_blocks_in_one_buffer() {
        let mut buf = Vec::new();
        encode_block(&INTRO, &BitWidthSolver::new(), &mut buf);
        encode_block(&[9, 9, 9], &BitWidthSolver::new(), &mut buf);
        encode_block(&[-5, 1000, -5], &BitWidthSolver::new(), &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        decode_block(&buf, &mut pos, &mut out).unwrap();
        decode_block(&buf, &mut pos, &mut out).unwrap();
        decode_block(&buf, &mut pos, &mut out).unwrap();
        assert_eq!(pos, buf.len());
        let mut expected = INTRO.to_vec();
        expected.extend([9, 9, 9, -5, 1000, -5]);
        assert_eq!(out, expected);
    }
}

/// Differential tests pinning the shipping decoder to the frozen
/// bit-serial [`oracle`]: identical values, cursor and `DecodeError`.
#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::solver::{BitWidthSolver, MedianSolver};
    use bitpack::kernels::pack_words;
    use proptest::prelude::*;

    /// Decodes `buf` with the shipping decoder and with the frozen oracle,
    /// both appending to the same non-empty prefix, and asserts the same
    /// result, cursor and output. Returns the shared result.
    fn assert_matches_oracle(buf: &[u8]) -> DecodeResult<()> {
        let prefix = vec![-1i64, 5];
        let (mut pos, mut out) = (0, prefix.clone());
        let got = decode_block(buf, &mut pos, &mut out);
        let (mut oracle_pos, mut oracle_out) = (0, prefix);
        let want = oracle::decode_block(buf, &mut oracle_pos, &mut oracle_out);
        assert_eq!(got, want, "result differs from the oracle");
        assert_eq!(pos, oracle_pos, "cursor differs from the oracle ({got:?})");
        assert_eq!(out, oracle_out, "values differ from the oracle");
        got
    }

    /// SplitMix64: a tiny deterministic generator for block shapes.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A separated block assembled by hand from its header fields,
    /// position codes and part offsets. It bypasses the solver, so tests
    /// can state shapes — and header/bitmap disagreements — the encoder
    /// never writes. The bitmap region always has the size the header
    /// implies.
    struct RawSeparated {
        nl: usize,
        nu: usize,
        xmin: i64,
        center_off: u64,
        upper_off: u64,
        widths: [u8; 3],
        codes: Vec<Part>,
        lower: Vec<u64>,
        center: Vec<u64>,
        upper: Vec<u64>,
    }

    impl RawSeparated {
        fn encode(&self) -> Vec<u8> {
            let n = self.codes.len();
            let nc = n - self.nl - self.nu;
            let mut buf = Vec::new();
            write_varint(&mut buf, n as u64);
            buf.push(MODE_SEPARATED);
            write_varint(&mut buf, self.nl as u64);
            write_varint(&mut buf, self.nu as u64);
            write_varint_i64(&mut buf, self.xmin);
            if nc > 0 {
                write_varint(&mut buf, self.center_off);
            }
            if self.nu > 0 {
                write_varint(&mut buf, self.upper_off);
            }
            buf.extend_from_slice(&self.widths);
            let mut bits = BitWriter::new();
            OutlierBitmap::encode(&self.codes, &mut bits);
            let mut bitmap = bits.into_bytes();
            bitmap.resize(OutlierBitmap::size_bits(n, self.nl, self.nu).div_ceil(8), 0);
            buf.extend_from_slice(&bitmap);
            for (part, w) in [&self.lower, &self.center, &self.upper]
                .into_iter()
                .zip(self.widths)
            {
                pack_words(part, u32::from(w), &mut buf);
            }
            buf
        }

        /// The values a correct decode yields, or `None` where one
        /// overflows `i64` (the block must then fail to decode).
        fn expected(&self) -> impl Iterator<Item = Option<i64>> + '_ {
            let bases = [
                Some(self.xmin),
                self.xmin.checked_add_unsigned(self.center_off),
                self.xmin.checked_add_unsigned(self.upper_off),
            ];
            let mut next = [self.lower.iter(), self.center.iter(), self.upper.iter()];
            self.codes.iter().map(move |&p| {
                let k = match p {
                    Part::Lower => 0,
                    Part::Center => 1,
                    Part::Upper => 2,
                };
                let off = *next[k].next()?;
                bases[k]?.checked_add_unsigned(off)
            })
        }
    }

    /// A random consistent separated block: any of the three parts may be
    /// empty, widths favour 0, 1, 63 and 64, sizes favour lane edges, and
    /// some bases sit near `i64::MAX` so that overflow is possible (half
    /// of those blocks keep every value in range, half may not).
    fn random_separated(seed: u64) -> RawSeparated {
        let mut rng = Mix(seed);
        const SIZES: [usize; 6] = [1, 63, 64, 65, 127, 1024];
        let n = match rng.below(3) {
            0 => SIZES[rng.below(6) as usize],
            _ => 1 + rng.below(300) as usize,
        };
        let mut present = [rng.below(4) != 0, rng.below(4) != 0, rng.below(4) != 0];
        if present == [false; 3] {
            present[1] = true;
        }
        // Codes come one at a time or, like real series, in runs of one
        // kind (long enough to fill whole bitmap words).
        let outlier_share = 1 + rng.below(8);
        let max_run = [1, 8, 80][rng.below(3) as usize];
        let mut codes: Vec<Part> = Vec::with_capacity(n);
        while codes.len() < n {
            let (part, k) = match rng.below(2 * outlier_share + 8) {
                r if r < outlier_share => (Part::Lower, 0),
                r if r < 2 * outlier_share => (Part::Upper, 2),
                _ => (Part::Center, 1),
            };
            if present[k] {
                let run = (1 + rng.below(max_run) as usize).min(n - codes.len());
                codes.extend(std::iter::repeat_n(part, run));
            }
        }
        let count = |p: Part| codes.iter().filter(|&&c| c == p).count();
        let (nl, nu) = (count(Part::Lower), count(Part::Upper));
        let mut width = || match rng.below(6) {
            0 => 0u8,
            1 => 64,
            2 => 63,
            3 => 1,
            _ => 1 + rng.below(64) as u8,
        };
        let widths = [width(), width(), width()];
        let xmin = match rng.below(4) {
            0 => i64::MAX - rng.below(1 << 20) as i64,
            1 => i64::MIN + rng.below(1 << 20) as i64,
            2 => rng.next() as i64,
            _ => rng.below(1000) as i64 - 500,
        };
        let center_off = rng.below(1 << 12);
        let upper_off = center_off + rng.below(1 << 12);
        let in_range = rng.below(2) == 0;
        let bases = [
            Some(xmin),
            xmin.checked_add_unsigned(center_off),
            xmin.checked_add_unsigned(upper_off),
        ];
        let mut part = |k: usize, len: usize| -> Vec<u64> {
            let room = bases[k].map_or(u64::MAX, |b| i64::MAX.abs_diff(b));
            (0..len)
                .map(|_| {
                    let off = rng.next() & max_offset(u32::from(widths[k]));
                    if in_range {
                        off.min(room)
                    } else {
                        off
                    }
                })
                .collect()
        };
        let lower = part(0, nl);
        let center = part(1, n - nl - nu);
        let upper = part(2, nu);
        RawSeparated {
            nl,
            nu,
            xmin,
            center_off,
            upper_off,
            widths,
            codes,
            lower,
            center,
            upper,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn hand_built_blocks_match_oracle(seed in any::<u64>()) {
            let raw = random_separated(seed);
            let buf = raw.encode();
            let result = assert_matches_oracle(&buf);
            let expected: Option<Vec<i64>> = raw.expected().collect();
            match expected {
                Some(values) => {
                    prop_assert_eq!(result, Ok(()));
                    let mut out = Vec::new();
                    decode_block(&buf, &mut 0, &mut out).expect("decode");
                    prop_assert_eq!(out, values);
                }
                None => prop_assert!(result.is_err()),
            }
        }

        #[test]
        fn encoder_blocks_with_forced_separation_match_oracle(
            values in prop::collection::vec(
                prop_oneof![
                    6 => -50i64..50,
                    1 => i64::MIN..i64::MIN + 100,
                    1 => i64::MAX - 100..=i64::MAX,
                    1 => any::<i64>(),
                ],
                1..300,
            ),
            picks in (any::<u64>(), any::<u64>(), 0u8..4),
        ) {
            // Thresholds come from the block's own values, so every
            // combination of empty and non-empty parts shows up.
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let pick = |r: u64| sorted[(r % sorted.len() as u64) as usize];
            let (a, b) = (pick(picks.0), pick(picks.1));
            let (lo, hi) = (a.min(b), a.max(b));
            let sep = match picks.2 {
                0 => Separation { xl: Some(lo), xu: None },
                1 => Separation { xl: None, xu: Some(hi) },
                _ if lo == hi => Separation { xl: Some(lo), xu: None },
                _ => Separation { xl: Some(lo), xu: Some(hi) },
            };
            let eval = SortedBlock::from_values(&values).evaluate(sep);
            let solution = Solution::Separated { sep, cost_bits: eval.cost_bits };
            let mut buf = Vec::new();
            encode_block_with_solution(&values, &solution, &mut buf);
            prop_assert_eq!(assert_matches_oracle(&buf), Ok(()));
            let mut out = Vec::new();
            let mut pos = 0;
            decode_block(&buf, &mut pos, &mut out).expect("decode");
            prop_assert_eq!(pos, buf.len());
            prop_assert_eq!(out, values);
        }
    }

    #[test]
    fn max_block_values_matches_oracle() {
        // One block at the decoder's size cap: sparse outliers of both
        // kinds over a 2-bit center, compared against the hand-built
        // expectation without holding two decoded copies at once.
        let n = bitpack::MAX_BLOCK_VALUES;
        let mut rng = Mix(7);
        let codes: Vec<Part> = (0..n)
            .map(|i| match (i % 4099, rng.below(2)) {
                (0, 0) => Part::Lower,
                (0, _) => Part::Upper,
                _ => Part::Center,
            })
            .collect();
        let count = |p: Part| codes.iter().filter(|&&c| c == p).count();
        let (nl, nu) = (count(Part::Lower), count(Part::Upper));
        let raw = RawSeparated {
            nl,
            nu,
            xmin: -1_000,
            center_off: 900,
            upper_off: 1 << 40,
            widths: [5, 2, 7],
            lower: (0..nl).map(|_| rng.below(32)).collect(),
            center: (0..n - nl - nu).map(|i| i as u64 % 4).collect(),
            upper: (0..nu).map(|_| rng.below(128)).collect(),
            codes,
        };
        let buf = raw.encode();
        for decoder in [decode_block, oracle::decode_block] {
            let mut out = Vec::new();
            let mut pos = 0;
            assert_eq!(decoder(&buf, &mut pos, &mut out), Ok(()));
            assert_eq!(pos, buf.len());
            assert!(out.iter().map(|&v| Some(v)).eq(raw.expected()));
        }
    }

    /// First 256-value blocks of every fig-10 dataset, raw and as first
    /// differences, encoded by BOS-B and BOS-M.
    fn fig10_blocks() -> Vec<Vec<u8>> {
        let mut blocks = Vec::new();
        for dataset in datasets::all_datasets(256) {
            let raw = dataset.as_scaled_ints();
            let deltas: Vec<i64> = raw.windows(2).map(|w| w[1].wrapping_sub(w[0])).collect();
            for values in [&raw, &deltas] {
                let mut buf = Vec::new();
                encode_block(values, &BitWidthSolver::new(), &mut buf);
                blocks.push(buf);
                let mut buf = Vec::new();
                encode_block(values, &MedianSolver::new(), &mut buf);
                blocks.push(buf);
            }
        }
        blocks
    }

    #[test]
    fn fig10_blocks_truncations_and_bit_flips_match_oracle() {
        let blocks = fig10_blocks();
        let mut separated = 0;
        for buf in &blocks {
            assert_eq!(assert_matches_oracle(buf), Ok(()));
            separated += usize::from(peek_block(buf, &mut 0).expect("peek").separated);
            for cut in 0..buf.len() {
                assert!(assert_matches_oracle(&buf[..cut]).is_err(), "cut {cut}");
            }
            let mut flipped = buf.clone();
            for bit in 0..buf.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = assert_matches_oracle(&flipped);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
        assert!(
            separated * 2 > blocks.len(),
            "most fig-10 blocks should separate ({separated} of {})",
            blocks.len()
        );
    }

    #[test]
    fn bitmap_with_extra_outlier_codes_is_a_count_mismatch() {
        // The header claims one lower and one upper outlier; the bitmap
        // holds two of each. Its 10 claimed bits round up to 2 bytes, room
        // enough for all 12 bits of these 8 codes, so the codes decode in
        // full and the counts disagree.
        use Part::{Center as C, Lower as L, Upper as U};
        let raw = RawSeparated {
            nl: 1,
            nu: 1,
            xmin: 0,
            center_off: 10,
            upper_off: 100,
            widths: [2, 3, 4],
            codes: vec![C, L, U, C, L, C, U, C],
            lower: vec![1],
            center: vec![1, 2, 3, 4, 5, 6],
            upper: vec![7],
        };
        let buf = raw.encode();
        let mismatch = Err(DecodeError::BitmapCountMismatch {
            header_lower: 1,
            header_upper: 1,
            bitmap_lower: 2,
            bitmap_upper: 2,
        });
        assert_eq!(decode_block(&buf, &mut 0, &mut Vec::new()), mismatch);
        assert_eq!(assert_matches_oracle(&buf), mismatch);

        // Fewer outlier codes than the header claims is the same error.
        let fewer = RawSeparated {
            codes: vec![C, L, C, C, C, C, C, C],
            ..raw
        };
        assert_eq!(
            assert_matches_oracle(&fewer.encode()),
            Err(DecodeError::BitmapCountMismatch {
                header_lower: 1,
                header_upper: 1,
                bitmap_lower: 1,
                bitmap_upper: 0,
            })
        );
    }

    #[test]
    fn bitmap_that_runs_out_is_truncated() {
        // Eight upper codes need 16 bits; a header claiming no outliers
        // sizes the bitmap at 8 bits, so the codes run off its end.
        let raw = RawSeparated {
            nl: 0,
            nu: 0,
            xmin: 3,
            center_off: 0,
            upper_off: 0,
            widths: [0, 4, 0],
            codes: vec![Part::Upper; 8],
            lower: vec![],
            center: vec![0; 8],
            upper: vec![],
        };
        assert_eq!(
            assert_matches_oracle(&raw.encode()),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn overflowing_part_is_value_overflow_after_bitmap_checks() {
        // A lower part based at i64::MAX: any non-zero offset overflows.
        let raw = RawSeparated {
            nl: 1,
            nu: 0,
            xmin: i64::MAX - 1,
            center_off: 0,
            upper_off: 0,
            widths: [8, 0, 0],
            codes: vec![Part::Center, Part::Lower],
            lower: vec![200],
            center: vec![0],
            upper: vec![],
        };
        assert_eq!(
            assert_matches_oracle(&raw.encode()),
            Err(DecodeError::ValueOverflow)
        );
        // With a broken bitmap as well, the bitmap error wins.
        let both = RawSeparated {
            codes: vec![Part::Center, Part::Upper],
            ..raw
        };
        assert!(matches!(
            assert_matches_oracle(&both.encode()),
            Err(DecodeError::BitmapCountMismatch { .. })
        ));
    }
}
