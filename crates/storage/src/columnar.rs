//! Chunked columnar column storage with per-chunk statistics (zone maps).
//!
//! The building blocks of the Vortex-style patch layout: a collection is
//! split into chunks of [`DEFAULT_CHUNK_ROWS`] rows, and within a chunk each
//! attribute is stored as its own column with
//!
//! * a **statistics table** — value count, null count, min/max, and a
//!   sortedness flag — consulted by the read side to skip whole chunks
//!   before touching their pages (zone-map pushdown), and
//! * a **lightweight encoding** where one pays: delta + bit-packing for
//!   monotone integer runs (frame numbers, patch ids), frame-of-reference
//!   bit-packing for clustered integers and quantized features, and
//!   dictionary + bit-packing for low-cardinality strings (labels).
//!
//! Every encoding is lossless: `decode(encode(rows)) == rows`, bit for bit.
//! The read side works on the encoded values without decoding a chunk into
//! rows: `count_where` counts matches in place, `rows_where` / `rows_eq`
//! list the matching rows, and `values_at` /
//! [`FeatureChunk::decode_rows`] decode just the rows asked for. The
//! patch-level assembly and parallel scan live in `deeplens-core::scan`,
//! which composes these columns into collections.

use std::collections::BTreeSet;
use std::sync::Arc;

/// Default number of rows per column chunk.
///
/// Large enough that per-chunk statistics and encoding headers amortize,
/// small enough that a selective temporal filter over a sorted frame column
/// skips most of a collection.
pub const DEFAULT_CHUNK_ROWS: usize = 1024;

// --------------------------------------------------------------------------
// Bit-packing
// --------------------------------------------------------------------------

/// Fixed-width bit-packing of `u64` values into `u64` words.
pub mod bitpack {
    /// Number of bits needed to represent `max` (0 for the value 0).
    pub fn width_for(max: u64) -> u32 {
        64 - max.leading_zeros()
    }

    /// Pack `values` at `width` bits each, little-endian within words.
    /// `width == 0` packs nothing (all values are zero); `width == 64`
    /// stores values verbatim.
    pub fn pack(values: &[u64], width: u32) -> Vec<u64> {
        assert!(width <= 64, "bit width out of range");
        if width == 0 {
            return Vec::new();
        }
        let total_bits = values.len() * width as usize;
        let mut out = vec![0u64; total_bits.div_ceil(64)];
        let mut bit = 0usize;
        for &v in values {
            debug_assert!(width == 64 || v < (1u64 << width), "value exceeds width");
            let word = bit / 64;
            let off = (bit % 64) as u32;
            out[word] |= v << off;
            // The value may straddle a word boundary.
            if off + width > 64 {
                out[word + 1] |= v >> (64 - off);
            }
            bit += width as usize;
        }
        out
    }

    /// Call `f` on each of the first `len` values of `width` bits in
    /// `packed`, in order, without allocating.
    pub(crate) fn for_each(packed: &[u64], width: u32, len: usize, mut f: impl FnMut(u64)) {
        assert!(width <= 64, "bit width out of range");
        if width == 0 {
            (0..len).for_each(|_| f(0));
            return;
        }
        let mut bit = 0usize;
        for _ in 0..len {
            f(read(packed, width, bit));
            bit += width as usize;
        }
    }

    /// Value `i` of `width` bits in `packed`, leaving the others packed.
    pub(crate) fn get(packed: &[u64], width: u32, i: usize) -> u64 {
        assert!(width <= 64, "bit width out of range");
        if width == 0 {
            return 0;
        }
        read(packed, width, i * width as usize)
    }

    /// The `width`-bit value (`1..=64`) starting at bit `bit`.
    fn read(packed: &[u64], width: u32, bit: usize) -> u64 {
        let word = bit / 64;
        let off = (bit % 64) as u32;
        let mut v = packed[word] >> off;
        // The value may straddle a word boundary.
        if off + width > 64 {
            v |= packed[word + 1] << (64 - off);
        }
        if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        }
    }
}

// --------------------------------------------------------------------------
// Validity bitmaps
// --------------------------------------------------------------------------

/// Null tracking for a chunk: `None` means every row is valid (the common
/// case, stored without a bitmap).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Validity {
    /// One bit per row, set = valid. `None` when all rows are valid.
    bitmap: Option<Vec<u64>>,
    len: usize,
    null_count: usize,
}

impl Validity {
    fn from_rows<T>(rows: &[Option<T>]) -> Self {
        let null_count = rows.iter().filter(|r| r.is_none()).count();
        if null_count == 0 {
            return Validity {
                bitmap: None,
                len: rows.len(),
                null_count: 0,
            };
        }
        let mut bitmap = vec![0u64; rows.len().div_ceil(64)];
        for (i, row) in rows.iter().enumerate() {
            if row.is_some() {
                bitmap[i / 64] |= 1 << (i % 64);
            }
        }
        Validity {
            bitmap: Some(bitmap),
            len: rows.len(),
            null_count,
        }
    }

    fn is_valid(&self, row: usize) -> bool {
        match &self.bitmap {
            None => true,
            Some(b) => b[row / 64] & (1 << (row % 64)) != 0,
        }
    }

    /// The rows holding a value, ascending: the row of each stored value,
    /// in storage order.
    fn valid_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&row| self.is_valid(row))
    }

    /// For each of `rows`, the index of its value among the chunk's stored
    /// (non-null) values, or `None` for a null row. Popcounts the bitmap
    /// incrementally, so ascending `rows` cost one pass over it.
    fn ranks<'a>(&'a self, rows: &'a [usize]) -> impl Iterator<Item = Option<usize>> + 'a {
        // Valid rows in bitmap words `..word`.
        let (mut word, mut before) = (0usize, 0usize);
        rows.iter().map(move |&row| {
            let Some(bits) = &self.bitmap else {
                return Some(row);
            };
            let w = row / 64;
            if w < word {
                (word, before) = (0, 0);
            }
            for b in &bits[word..w] {
                before += b.count_ones() as usize;
            }
            word = w;
            let bit = 1u64 << (row % 64);
            (bits[w] & bit != 0).then(|| before + (bits[w] & (bit - 1)).count_ones() as usize)
        })
    }
}

// --------------------------------------------------------------------------
// Per-chunk statistics
// --------------------------------------------------------------------------

/// The statistics table every chunk carries: the zone map the read side
/// consults before decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkStats<T> {
    /// Rows in the chunk (valid + null).
    pub count: usize,
    /// Rows with no value.
    pub null_count: usize,
    /// Smallest non-null value, if any row is valid.
    pub min: Option<T>,
    /// Largest non-null value, if any row is valid.
    pub max: Option<T>,
    /// Whether the non-null subsequence is non-decreasing.
    pub sorted: bool,
}

impl<T: Copy> ChunkStats<T> {
    /// The chunk's non-null count when `inside(min, max)` holds — the zone
    /// map puts every value inside a filter, so the count needs no decode —
    /// else `None`. An all-null chunk has no bounds and yields `None`.
    pub fn non_null_if(&self, inside: impl FnOnce(T, T) -> bool) -> Option<usize> {
        match (self.min, self.max) {
            (Some(min), Some(max)) if inside(min, max) => Some(self.count - self.null_count),
            _ => None,
        }
    }
}

fn stats_from<T: Copy + PartialOrd>(rows: &[Option<T>]) -> ChunkStats<T> {
    let mut min: Option<T> = None;
    let mut max: Option<T> = None;
    let mut sorted = true;
    let mut prev: Option<T> = None;
    let mut null_count = 0usize;
    for row in rows {
        match row {
            None => null_count += 1,
            Some(v) => {
                if min.is_none_or(|m| *v < m) {
                    min = Some(*v);
                }
                if max.is_none_or(|m| *v > m) {
                    max = Some(*v);
                }
                if prev.is_some_and(|p| *v < p) {
                    sorted = false;
                }
                prev = Some(*v);
            }
        }
    }
    ChunkStats {
        count: rows.len(),
        null_count,
        min,
        max,
        sorted,
    }
}

// --------------------------------------------------------------------------
// Integer column chunks
// --------------------------------------------------------------------------

/// How an [`IntChunk`]'s non-null values are physically stored.
#[derive(Debug, Clone, PartialEq, Eq)]
enum IntEncoding {
    /// One `i64` per non-null value.
    Plain(Vec<i64>),
    /// First value + bit-packed non-negative deltas (monotone runs: frame
    /// numbers, patch ids).
    Delta {
        first: i64,
        width: u32,
        packed: Vec<u64>,
    },
    /// Bit-packed offsets from the chunk minimum (frame-of-reference).
    For {
        reference: i64,
        width: u32,
        packed: Vec<u64>,
    },
}

/// A chunk of nullable `i64` values with statistics and a lightweight
/// encoding chosen per chunk by encoded size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntChunk {
    validity: Validity,
    stats: ChunkStats<i64>,
    encoding: IntEncoding,
}

/// Offset of `v` from `reference` as a `u64` (always representable: the
/// span of two `i64`s fits in 64 bits).
fn offset_u64(v: i64, reference: i64) -> u64 {
    (v as i128 - reference as i128) as u64
}

impl IntChunk {
    /// Encode one chunk of rows, choosing the cheapest of plain / delta /
    /// frame-of-reference by packed size. Deterministic for given input.
    pub fn encode(rows: &[Option<i64>]) -> Self {
        let validity = Validity::from_rows(rows);
        let stats = stats_from(rows);
        let values: Vec<i64> = rows.iter().filter_map(|r| *r).collect();
        let encoding = Self::choose_encoding(&values, &stats);
        IntChunk {
            validity,
            stats,
            encoding,
        }
    }

    fn choose_encoding(values: &[i64], stats: &ChunkStats<i64>) -> IntEncoding {
        if values.is_empty() {
            return IntEncoding::Plain(Vec::new());
        }
        let plain_words = values.len(); // one u64-sized word per value
        let (min, max) = (stats.min.unwrap_or(0), stats.max.unwrap_or(0));
        // Frame-of-reference candidate: offsets from the minimum.
        let for_width = bitpack::width_for(offset_u64(max, min));
        let for_words = 1 + (values.len() * for_width as usize).div_ceil(64);
        // Delta candidate, only valid for sorted runs (deltas non-negative).
        let delta = if stats.sorted && values.len() > 1 {
            let max_delta = values
                .windows(2)
                .map(|w| offset_u64(w[1], w[0]))
                .max()
                .unwrap_or(0);
            let width = bitpack::width_for(max_delta);
            Some((
                width,
                1 + ((values.len() - 1) * width as usize).div_ceil(64),
            ))
        } else {
            None
        };
        match delta {
            Some((width, words)) if words <= for_words && words < plain_words => {
                let deltas: Vec<u64> = values.windows(2).map(|w| offset_u64(w[1], w[0])).collect();
                IntEncoding::Delta {
                    first: values[0],
                    width,
                    packed: bitpack::pack(&deltas, width),
                }
            }
            _ if for_words < plain_words => {
                let offsets: Vec<u64> = values.iter().map(|&v| offset_u64(v, min)).collect();
                IntEncoding::For {
                    reference: min,
                    width: for_width,
                    packed: bitpack::pack(&offsets, for_width),
                }
            }
            _ => IntEncoding::Plain(values.to_vec()),
        }
    }

    /// Decode the chunk back to its rows, nulls included.
    pub fn decode(&self) -> Vec<Option<i64>> {
        let mut values = Vec::with_capacity(self.valid_len());
        self.for_each_value(self.valid_len(), |v| values.push(v));
        let mut it = values.into_iter();
        (0..self.stats.count)
            .map(|row| {
                if self.validity.is_valid(row) {
                    it.next()
                } else {
                    None
                }
            })
            .collect()
    }

    /// Non-null values satisfying `pred`, counted in the encoded values:
    /// nothing is allocated, and the validity bitmap is never read (only
    /// non-null values are stored).
    pub fn count_where(&self, pred: impl Fn(i64) -> bool) -> usize {
        let mut n = 0;
        self.for_each_value(self.valid_len(), |v| n += usize::from(pred(v)));
        n
    }

    /// The rows (chunk-local, ascending) whose value satisfies `pred`; a
    /// null row never does.
    pub fn rows_where(&self, pred: impl Fn(i64) -> bool) -> Vec<usize> {
        let mut rows = self.validity.valid_rows();
        let mut out = Vec::new();
        self.for_each_value(self.valid_len(), |v| {
            let row = rows.next();
            if pred(v) {
                out.extend(row);
            }
        });
        out
    }

    /// The values of `rows` (chunk-local), `None` for a null row. Plain and
    /// frame-of-reference values are read in place; a delta run is summed
    /// up to the last selected value only.
    pub fn values_at(&self, rows: &[usize]) -> Vec<Option<i64>> {
        let ranks = self.validity.ranks(rows);
        match &self.encoding {
            IntEncoding::Plain(v) => ranks.map(|r| r.map(|r| v[r])).collect(),
            IntEncoding::For {
                reference,
                width,
                packed,
            } => ranks
                .map(|r| r.map(|r| reference.wrapping_add(bitpack::get(packed, *width, r) as i64)))
                .collect(),
            IntEncoding::Delta { .. } => {
                let ranks: Vec<Option<usize>> = ranks.collect();
                let upto = ranks.iter().flatten().max().map_or(0, |r| r + 1);
                let mut prefix = Vec::with_capacity(upto);
                self.for_each_value(upto, |v| prefix.push(v));
                ranks.into_iter().map(|r| r.map(|r| prefix[r])).collect()
            }
        }
    }

    /// Rows holding a value.
    fn valid_len(&self) -> usize {
        self.stats.count - self.stats.null_count
    }

    /// Call `f` on the first `len` non-null values, in row order, decoding
    /// them in place. Offsets and deltas add with wrap-around: the true
    /// value always fits an `i64`, so the wrapped sum is exact.
    fn for_each_value(&self, len: usize, mut f: impl FnMut(i64)) {
        match &self.encoding {
            IntEncoding::Plain(v) => v[..len].iter().for_each(|&x| f(x)),
            IntEncoding::Delta {
                first,
                width,
                packed,
            } => {
                if len == 0 {
                    return;
                }
                let mut cur = *first;
                f(cur);
                bitpack::for_each(packed, *width, len - 1, |d| {
                    cur = cur.wrapping_add(d as i64);
                    f(cur);
                });
            }
            IntEncoding::For {
                reference,
                width,
                packed,
            } => bitpack::for_each(packed, *width, len, |off| {
                f(reference.wrapping_add(off as i64))
            }),
        }
    }

    /// The chunk's statistics table.
    pub fn stats(&self) -> &ChunkStats<i64> {
        &self.stats
    }

    /// Rows in the chunk.
    pub fn len(&self) -> usize {
        self.stats.count
    }

    /// Whether the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.stats.count == 0
    }

    /// Approximate encoded payload size in bytes (excluding stats).
    pub fn encoded_bytes(&self) -> usize {
        let values = match &self.encoding {
            IntEncoding::Plain(v) => v.len() * 8,
            IntEncoding::Delta { packed, .. } => 8 + packed.len() * 8,
            IntEncoding::For { packed, .. } => 8 + packed.len() * 8,
        };
        values + self.validity.bitmap.as_ref().map_or(0, |b| b.len() * 8)
    }

    /// Zone-map check: can any row of this chunk hold a value in
    /// `[lo, hi]` (inclusive bounds)?
    pub fn may_overlap(&self, lo: i64, hi: i64) -> bool {
        match (self.stats.min, self.stats.max) {
            (Some(min), Some(max)) => max >= lo && min <= hi,
            _ => false, // all-null chunk: nothing can match
        }
    }
}

// --------------------------------------------------------------------------
// Float column chunks
// --------------------------------------------------------------------------

/// A chunk of nullable `f64` values. Stored plain; the statistics table
/// still enables zone-map skipping. Min/max use IEEE `total_cmp` so NaNs
/// order deterministically (a NaN max disables range pruning, which is the
/// conservative direction).
#[derive(Debug, Clone, PartialEq)]
pub struct FloatChunk {
    validity: Validity,
    stats: ChunkStats<f64>,
    values: Vec<f64>,
}

impl FloatChunk {
    /// Encode one chunk of rows.
    pub fn encode(rows: &[Option<f64>]) -> Self {
        let validity = Validity::from_rows(rows);
        let values: Vec<f64> = rows.iter().filter_map(|r| *r).collect();
        let mut min: Option<f64> = None;
        let mut max: Option<f64> = None;
        let mut sorted = true;
        let mut prev: Option<f64> = None;
        for &v in &values {
            if min.is_none_or(|m| v.total_cmp(&m).is_lt()) {
                min = Some(v);
            }
            if max.is_none_or(|m| v.total_cmp(&m).is_gt()) {
                max = Some(v);
            }
            if prev.is_some_and(|p| v.total_cmp(&p).is_lt()) {
                sorted = false;
            }
            prev = Some(v);
        }
        let stats = ChunkStats {
            count: rows.len(),
            null_count: validity.null_count,
            min,
            max,
            sorted,
        };
        FloatChunk {
            validity,
            stats,
            values,
        }
    }

    /// Non-null values satisfying `pred`, counted over the stored values
    /// without allocating or reading the validity bitmap.
    pub fn count_where(&self, pred: impl Fn(f64) -> bool) -> usize {
        self.values.iter().filter(|&&v| pred(v)).count()
    }

    /// The rows (chunk-local, ascending) whose value satisfies `pred`; a
    /// null row never does.
    pub fn rows_where(&self, pred: impl Fn(f64) -> bool) -> Vec<usize> {
        self.validity
            .valid_rows()
            .zip(&self.values)
            .filter(|&(_, &v)| pred(v))
            .map(|(row, _)| row)
            .collect()
    }

    /// The values of `rows` (chunk-local), `None` for a null row.
    pub fn values_at(&self, rows: &[usize]) -> Vec<Option<f64>> {
        self.validity
            .ranks(rows)
            .map(|r| r.map(|r| self.values[r]))
            .collect()
    }

    /// The chunk's statistics table.
    pub fn stats(&self) -> &ChunkStats<f64> {
        &self.stats
    }

    /// Zone-map check: can any row hold a value in `[lo, hi)`? NaN bounds
    /// in the stats disable pruning (comparisons come out false), which is
    /// conservative and therefore correct.
    pub fn may_overlap(&self, lo: f64, hi: f64) -> bool {
        match (self.stats.min, self.stats.max) {
            (Some(min), Some(max)) => !(max < lo || min >= hi),
            _ => false,
        }
    }
}

// --------------------------------------------------------------------------
// String column chunks (dictionary + bit-packed codes)
// --------------------------------------------------------------------------

/// A chunk of nullable strings, dictionary-encoded: a sorted dictionary of
/// the chunk's distinct values plus bit-packed codes. The dictionary makes
/// equality pruning *exact* within the chunk (binary search), strictly
/// stronger than a min/max zone map. Its entries are shared strings: a
/// decoded value is a clone of the dictionary's `Arc`, not a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrChunk {
    validity: Validity,
    count: usize,
    null_count: usize,
    sorted: bool,
    /// Sorted distinct values.
    dict: Vec<Arc<str>>,
    /// Bit-packed dictionary codes, one per non-null row.
    code_width: u32,
    codes: Vec<u64>,
}

impl StrChunk {
    /// Encode one chunk of rows.
    pub fn encode(rows: &[Option<&str>]) -> Self {
        let validity = Validity::from_rows(rows);
        // Dedup on the borrowed rows: one allocation per distinct value.
        let distinct: BTreeSet<&str> = rows.iter().flatten().copied().collect();
        let dict: Vec<Arc<str>> = distinct.into_iter().map(Arc::from).collect();
        let mut sorted = true;
        let mut prev: Option<&str> = None;
        let codes_raw: Vec<u64> = rows
            .iter()
            .filter_map(|r| *r)
            .map(|s| {
                if prev.is_some_and(|p| s < p) {
                    sorted = false;
                }
                prev = Some(s);
                // Dictionary lookup cannot fail: dict was built from rows.
                dict.binary_search_by(|d| (**d).cmp(s)).map_or(0, |i| i) as u64
            })
            .collect();
        let code_width = bitpack::width_for(dict.len().saturating_sub(1) as u64);
        StrChunk {
            count: rows.len(),
            null_count: validity.null_count,
            validity,
            sorted,
            codes: bitpack::pack(&codes_raw, code_width),
            code_width,
            dict,
        }
    }

    /// The rows (chunk-local, ascending) equal to `s`, found by comparing
    /// dictionary codes.
    pub fn rows_eq(&self, s: &str) -> Vec<usize> {
        let Some(code) = self.code(s) else {
            return Vec::new();
        };
        let mut rows = self.validity.valid_rows();
        let mut out = Vec::new();
        bitpack::for_each(
            &self.codes,
            self.code_width,
            self.count - self.null_count,
            |c| {
                let row = rows.next();
                if c == code {
                    out.extend(row);
                }
            },
        );
        out
    }

    /// The values of `rows` (chunk-local), `None` for a null row; only the
    /// selected codes are unpacked. A value is the dictionary's entry:
    /// cloning it shares the allocation.
    pub fn values_at(&self, rows: &[usize]) -> Vec<Option<&Arc<str>>> {
        self.validity
            .ranks(rows)
            .map(|r| r.and_then(|r| self.dict_value(bitpack::get(&self.codes, self.code_width, r))))
            .collect()
    }

    /// The dictionary code of `s`, if any row holds it.
    fn code(&self, s: &str) -> Option<u64> {
        self.dict
            .binary_search_by(|d| (**d).cmp(s))
            .ok()
            .map(|i| i as u64)
    }

    fn dict_value(&self, code: u64) -> Option<&Arc<str>> {
        self.dict.get(code as usize)
    }

    /// Rows in the chunk.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Null rows in the chunk.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Whether the non-null subsequence is non-decreasing.
    pub fn sorted(&self) -> bool {
        self.sorted
    }

    /// The chunk's distinct values, sorted.
    pub fn dict(&self) -> &[Arc<str>] {
        &self.dict
    }

    /// Exact equality pruning: whether any row of the chunk equals `s`.
    pub fn may_contain(&self, s: &str) -> bool {
        self.code(s).is_some()
    }

    /// Lexicographic min/max of the chunk, if any row is valid.
    pub fn min_max(&self) -> Option<(&str, &str)> {
        match (self.dict.first(), self.dict.last()) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        }
    }
}

// --------------------------------------------------------------------------
// Boolean column chunks
// --------------------------------------------------------------------------

/// A chunk of nullable booleans, stored as a bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoolChunk {
    validity: Validity,
    stats: ChunkStats<bool>,
    bits: Vec<u64>,
}

impl BoolChunk {
    /// Encode one chunk of rows.
    pub fn encode(rows: &[Option<bool>]) -> Self {
        let validity = Validity::from_rows(rows);
        let stats = stats_from(rows);
        let mut bits = vec![0u64; rows.len().div_ceil(64)];
        for (i, row) in rows.iter().enumerate() {
            if row == &Some(true) {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        BoolChunk {
            validity,
            stats,
            bits,
        }
    }

    /// The rows (chunk-local, ascending) equal to `b`.
    pub fn rows_eq(&self, b: bool) -> Vec<usize> {
        self.validity
            .valid_rows()
            .filter(|&row| self.bit(row) == b)
            .collect()
    }

    /// The values of `rows` (chunk-local), `None` for a null row.
    pub fn values_at(&self, rows: &[usize]) -> Vec<Option<bool>> {
        rows.iter()
            .map(|&row| self.validity.is_valid(row).then(|| self.bit(row)))
            .collect()
    }

    fn bit(&self, row: usize) -> bool {
        self.bits[row / 64] & (1 << (row % 64)) != 0
    }

    /// The chunk's statistics table.
    pub fn stats(&self) -> &ChunkStats<bool> {
        &self.stats
    }

    /// Whether any row of the chunk equals `b`.
    pub fn may_contain(&self, b: bool) -> bool {
        match (self.stats.min, self.stats.max) {
            (Some(min), Some(max)) => min == b || max == b,
            _ => false,
        }
    }
}

// --------------------------------------------------------------------------
// Feature-vector column chunks
// --------------------------------------------------------------------------

/// Physical storage of a [`FeatureChunk`]'s flattened values.
#[derive(Debug, Clone, PartialEq)]
enum FeatureValues {
    /// Raw `f32` values.
    Raw(Vec<f32>),
    /// Frame-of-reference over quantized features: every value in the chunk
    /// is integral and exactly representable, so it round-trips through
    /// `reference + bit-packed offset` losslessly.
    Quantized {
        reference: i64,
        width: u32,
        packed: Vec<u64>,
    },
}

/// Largest magnitude for which consecutive integers are exact in `f32` —
/// the quantized-feature encoding is only lossless inside this range.
const QUANTIZED_MAX_ABS: f32 = 16_777_216.0; // 2^24

/// A chunk of nullable variable-length `f32` vectors (feature payloads).
///
/// Quantized features — embeddings and histograms whose entries are whole
/// numbers, e.g. u8-scaled color histograms — are detected per chunk and
/// stored frame-of-reference + bit-packed; everything else stays raw `f32`.
/// Either way the round trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureChunk {
    count: usize,
    null_count: usize,
    validity: Validity,
    /// Prefix offsets into the flattened values, one per non-null row + 1.
    offsets: Vec<u32>,
    values: FeatureValues,
}

impl FeatureChunk {
    /// Encode one chunk of rows.
    pub fn encode(rows: &[Option<&[f32]>]) -> Self {
        let validity = Validity::from_rows(rows);
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0u32);
        let mut flat: Vec<f32> = Vec::new();
        for row in rows.iter().filter_map(|r| *r) {
            flat.extend_from_slice(row);
            offsets.push(flat.len() as u32);
        }
        let quantized = !flat.is_empty()
            && flat
                .iter()
                .all(|v| v.fract() == 0.0 && v.abs() <= QUANTIZED_MAX_ABS);
        let values = if quantized {
            let ints: Vec<i64> = flat.iter().map(|&v| v as i64).collect();
            let reference = ints.iter().copied().min().unwrap_or(0);
            let max = ints.iter().copied().max().unwrap_or(0);
            let width = bitpack::width_for(offset_u64(max, reference));
            let offs: Vec<u64> = ints.iter().map(|&v| offset_u64(v, reference)).collect();
            FeatureValues::Quantized {
                reference,
                width,
                packed: bitpack::pack(&offs, width),
            }
        } else {
            FeatureValues::Raw(flat)
        };
        FeatureChunk {
            count: rows.len(),
            null_count: validity.null_count,
            validity,
            offsets,
            values,
        }
    }

    /// The feature vectors of `rows` (chunk-local), `None` for a null row:
    /// only the selected rows' spans are sliced (or unpacked) out of the
    /// flat value buffer, bit-identical to the values stored.
    pub fn decode_rows(&self, rows: &[usize]) -> Vec<Option<Vec<f32>>> {
        self.validity
            .ranks(rows)
            .map(|r| {
                r.map(|r| {
                    let span = self.offsets[r] as usize..self.offsets[r + 1] as usize;
                    match &self.values {
                        FeatureValues::Raw(v) => v[span].to_vec(),
                        FeatureValues::Quantized {
                            reference,
                            width,
                            packed,
                        } => span
                            .map(|i| dequantize(*reference, bitpack::get(packed, *width, i)))
                            .collect(),
                    }
                })
            })
            .collect()
    }

    /// Rows in the chunk.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Null rows in the chunk.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Every stored value, the non-null rows' vectors concatenated.
    fn flat_values(&self) -> Vec<f32> {
        match &self.values {
            FeatureValues::Raw(v) => v.clone(),
            FeatureValues::Quantized {
                reference,
                width,
                packed,
            } => {
                let total = *self.offsets.last().unwrap_or(&0) as usize;
                let mut out = Vec::with_capacity(total);
                bitpack::for_each(packed, *width, total, |off| {
                    out.push(dequantize(*reference, off))
                });
                out
            }
        }
    }

    /// Approximate encoded payload size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        let values = match &self.values {
            FeatureValues::Raw(v) => v.len() * 4,
            FeatureValues::Quantized { packed, .. } => 8 + packed.len() * 8,
        };
        values + self.offsets.len() * 4
    }

    /// Decode the whole chunk into [`PackedFeatures`]: one flat value
    /// buffer plus per-row spans, no per-row allocation; the values are
    /// bit-identical to the rows [`FeatureChunk::decode_rows`] returns. Kept
    /// for the benchmark's layer probe.
    pub fn decode_packed(&self) -> PackedFeatures {
        let values = self.flat_values();
        if self.null_count == 0 {
            return PackedFeatures {
                values,
                offsets: self.offsets.clone(),
                valid: None,
            };
        }
        // Re-express the non-null prefix offsets per row: a null row repeats
        // the previous offset (empty span) and is marked invalid.
        let mut offsets = Vec::with_capacity(self.count + 1);
        offsets.push(0u32);
        let mut valid = Vec::with_capacity(self.count);
        let mut valid_row = 0usize;
        for row in 0..self.count {
            if self.validity.is_valid(row) {
                valid_row += 1;
                valid.push(true);
            } else {
                valid.push(false);
            }
            offsets.push(self.offsets[valid_row]);
        }
        PackedFeatures {
            values,
            offsets,
            valid: Some(valid),
        }
    }
}

/// A quantized feature value: `reference + offset`, exact because every
/// quantized value lies within `±2^24`.
fn dequantize(reference: i64, offset: u64) -> f32 {
    reference.wrapping_add(offset as i64) as f32
}

/// A feature chunk decoded into packed form: the non-null rows' values
/// concatenated in row order in one flat buffer, with per-row spans into it.
///
/// This is the zero-per-row-allocation counterpart of
/// [`FeatureChunk::decode_rows`]: where that hands back a
/// `Vec<Option<Vec<f32>>>`, the packed form keeps the whole chunk in one
/// `Vec<f32>` plus a `rows + 1` offset table. A null row has an empty span
/// and reads back as `None`; a *valid* row with an empty span is a genuine
/// zero-length feature vector. Kept for the benchmark's layer probe.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedFeatures {
    values: Vec<f32>,
    /// Per-row prefix offsets (`rows + 1` entries, monotone).
    offsets: Vec<u32>,
    /// Per-row validity; `None` when every row is valid.
    valid: Option<Vec<bool>>,
}

impl PackedFeatures {
    /// Number of rows (valid + null).
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// The flat value buffer (non-null rows concatenated in row order).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The per-row prefix offsets into [`PackedFeatures::values`]
    /// (`rows + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Per-row validity flags, or `None` when every row is valid.
    pub fn validity(&self) -> Option<&[bool]> {
        self.valid.as_deref()
    }

    /// Row `i`'s feature vector, `None` for a null row.
    pub fn row(&self, i: usize) -> Option<&[f32]> {
        if self.valid.as_ref().is_some_and(|v| !v[i]) {
            return None;
        }
        Some(&self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Gather the given rows (chunk-local, strictly increasing) into a new
    /// packed block, preserving null rows among them.
    pub fn select(&self, rows: &[usize]) -> PackedFeatures {
        let mut values = Vec::new();
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0u32);
        let mut valid: Option<Vec<bool>> = self.valid.as_ref().map(|_| Vec::new());
        for &r in rows {
            let (lo, hi) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
            values.extend_from_slice(&self.values[lo..hi]);
            offsets.push(values.len() as u32);
            if let (Some(out), Some(src)) = (valid.as_mut(), self.valid.as_ref()) {
                out.push(src[r]);
            }
        }
        PackedFeatures {
            values,
            offsets,
            valid,
        }
    }
}

// Probes the unit tests read to assert which encoding a chunk chose.

#[cfg(test)]
impl<T> ChunkStats<T> {
    /// Whether every row of the chunk is null (nothing can match any
    /// value predicate).
    fn all_null(&self) -> bool {
        self.null_count == self.count
    }
}

#[cfg(test)]
impl IntChunk {
    /// Label of the physical encoding in use.
    fn encoding_label(&self) -> &'static str {
        match &self.encoding {
            IntEncoding::Plain(_) => "plain",
            IntEncoding::Delta { .. } => "delta",
            IntEncoding::For { .. } => "for",
        }
    }
}

// Whole-chunk decodes: the references the row-selective kernels are tested
// against. The scan path decodes only the rows it returns.

/// Unpack `len` values of `width` bits from `packed`.
#[cfg(test)]
fn unpack(packed: &[u64], width: u32, len: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(len);
    bitpack::for_each(packed, width, len, |v| out.push(v));
    out
}

#[cfg(test)]
impl FloatChunk {
    /// Decode the chunk back to its rows, nulls included.
    fn decode(&self) -> Vec<Option<f64>> {
        let mut it = self.values.iter().copied();
        (0..self.stats.count)
            .map(|row| {
                if self.validity.is_valid(row) {
                    it.next()
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
impl StrChunk {
    /// Decode the chunk back to its rows, nulls included.
    fn decode(&self) -> Vec<Option<&str>> {
        let codes = unpack(&self.codes, self.code_width, self.count - self.null_count);
        let mut it = codes.into_iter();
        (0..self.count)
            .map(|row| {
                if self.validity.is_valid(row) {
                    it.next().and_then(|c| self.dict_value(c)).map(|v| &**v)
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
impl BoolChunk {
    /// Decode the chunk back to its rows, nulls included.
    fn decode(&self) -> Vec<Option<bool>> {
        (0..self.stats.count)
            .map(|row| self.validity.is_valid(row).then(|| self.bit(row)))
            .collect()
    }
}

#[cfg(test)]
impl FeatureChunk {
    /// Whether the chunk detected quantized features and stored them
    /// frame-of-reference + bit-packed.
    fn is_quantized(&self) -> bool {
        matches!(self.values, FeatureValues::Quantized { .. })
    }

    /// Decode the chunk back to its rows, nulls included.
    fn decode(&self) -> Vec<Option<Vec<f32>>> {
        let flat = self.flat_values();
        let mut valid_row = 0usize;
        (0..self.count)
            .map(|row| {
                self.validity.is_valid(row).then(|| {
                    let span =
                        self.offsets[valid_row] as usize..self.offsets[valid_row + 1] as usize;
                    valid_row += 1;
                    flat[span].to_vec()
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitpack_roundtrip_various_widths() {
        for width in [0u32, 1, 3, 7, 13, 31, 33, 63, 64] {
            let max = if width == 0 {
                0
            } else if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..100)
                .map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) & max)
                .collect();
            let packed = bitpack::pack(&values, width);
            assert_eq!(unpack(&packed, width, values.len()), values);
        }
    }

    #[test]
    fn bitpack_width_for_boundaries() {
        assert_eq!(bitpack::width_for(0), 0);
        assert_eq!(bitpack::width_for(1), 1);
        assert_eq!(bitpack::width_for(2), 2);
        assert_eq!(bitpack::width_for(255), 8);
        assert_eq!(bitpack::width_for(256), 9);
        assert_eq!(bitpack::width_for(u64::MAX), 64);
    }

    #[test]
    fn int_chunk_monotone_run_uses_delta_and_roundtrips() {
        let rows: Vec<Option<i64>> = (0..500).map(|i| Some(1000 + i * 3)).collect();
        let chunk = IntChunk::encode(&rows);
        assert_eq!(chunk.encoding_label(), "delta");
        assert!(chunk.stats().sorted);
        assert_eq!(chunk.stats().min, Some(1000));
        assert_eq!(chunk.stats().max, Some(1000 + 499 * 3));
        assert_eq!(chunk.stats().null_count, 0);
        assert_eq!(chunk.decode(), rows);
        assert!(
            chunk.encoded_bytes() < rows.len() * 8 / 4,
            "delta + bit-packing must compress a stride-3 run at least 4x, got {}",
            chunk.encoded_bytes()
        );
    }

    #[test]
    fn int_chunk_clustered_values_use_for() {
        // Unsorted but clustered: FoR wins, delta is unavailable.
        let rows: Vec<Option<i64>> = (0..300).map(|i| Some(5_000_000 + (i * 37) % 256)).collect();
        let chunk = IntChunk::encode(&rows);
        assert_eq!(chunk.encoding_label(), "for");
        assert!(!chunk.stats().sorted);
        assert_eq!(chunk.decode(), rows);
        assert!(chunk.encoded_bytes() < rows.len() * 8 / 4);
    }

    #[test]
    fn int_chunk_extremes_fall_back_to_plain_and_roundtrip() {
        let rows = vec![Some(i64::MIN), Some(i64::MAX), Some(0), Some(-1)];
        let chunk = IntChunk::encode(&rows);
        assert_eq!(chunk.decode(), rows);
        assert_eq!(chunk.stats().min, Some(i64::MIN));
        assert_eq!(chunk.stats().max, Some(i64::MAX));
        // A sorted pair spanning the whole i64 range exercises the 64-bit
        // delta path.
        let wide = vec![Some(i64::MIN), Some(i64::MAX)];
        assert_eq!(IntChunk::encode(&wide).decode(), wide);
    }

    #[test]
    fn int_chunk_nulls_and_zone_map() {
        let rows = vec![Some(10), None, Some(20), None, Some(15)];
        let chunk = IntChunk::encode(&rows);
        assert_eq!(chunk.stats().null_count, 2);
        assert_eq!(chunk.decode(), rows);
        assert!(chunk.may_overlap(15, 30));
        assert!(!chunk.may_overlap(21, 100));
        assert!(!chunk.may_overlap(-5, 9));
        // All-null chunks match nothing.
        let nulls: Vec<Option<i64>> = vec![None; 8];
        let chunk = IntChunk::encode(&nulls);
        assert!(chunk.stats().all_null());
        assert!(!chunk.may_overlap(i64::MIN, i64::MAX));
        assert_eq!(chunk.decode(), nulls);
    }

    #[test]
    fn float_chunk_roundtrip_stats_and_pruning() {
        let rows = vec![Some(1.5), None, Some(-2.25), Some(7.0)];
        let chunk = FloatChunk::encode(&rows);
        assert_eq!(chunk.decode(), rows);
        assert_eq!(chunk.stats().min, Some(-2.25));
        assert_eq!(chunk.stats().max, Some(7.0));
        assert!(chunk.may_overlap(0.0, 2.0));
        assert!(!chunk.may_overlap(7.5, 100.0));
        assert!(!chunk.may_overlap(-10.0, -3.0));
        // The range is half-open: [7.0, 7.0) matches nothing... but the
        // zone map only sees bounds, so exactly-at-max stays conservative.
        assert!(chunk.may_overlap(7.0, 8.0));
    }

    #[test]
    fn float_chunk_nan_disables_pruning_conservatively() {
        let rows = vec![Some(1.0), Some(f64::NAN)];
        let chunk = FloatChunk::encode(&rows);
        // NaN is total_cmp-greater than every number: it becomes the max,
        // and `max < lo` is false for every lo — the chunk is never skipped.
        assert!(chunk.may_overlap(50.0, 60.0));
        let back = chunk.decode();
        assert_eq!(back[0], Some(1.0));
        assert!(back[1].is_some_and(f64::is_nan));
    }

    #[test]
    fn str_chunk_dictionary_roundtrip_and_exact_pruning() {
        let rows = vec![Some("car"), Some("person"), None, Some("car"), Some("bike")];
        let chunk = StrChunk::encode(&rows);
        assert_eq!(chunk.decode(), rows);
        let dict: Vec<&str> = chunk.dict().iter().map(|s| &**s).collect();
        assert_eq!(dict, ["bike", "car", "person"]);
        // Decoded values are the dictionary's entries, shared.
        let car = chunk.values_at(&[0, 3]);
        assert!(car
            .iter()
            .all(|v| v.is_some_and(|v| Arc::ptr_eq(v, &chunk.dict()[1]))));
        assert_eq!(chunk.null_count(), 1);
        assert!(!chunk.sorted());
        assert!(chunk.may_contain("car"));
        assert!(!chunk.may_contain("giraffe"));
        assert_eq!(chunk.min_max(), Some(("bike", "person")));
        // Low cardinality packs far below one pointer per row.
        let many: Vec<Option<&str>> = (0..1000)
            .map(|i| Some(if i % 2 == 0 { "car" } else { "person" }))
            .collect();
        let chunk = StrChunk::encode(&many);
        assert_eq!(chunk.decode(), many);
        assert!(chunk.may_contain("person"));
    }

    #[test]
    fn bool_chunk_roundtrip_and_pruning() {
        let rows = vec![Some(true), None, Some(false), Some(true)];
        let chunk = BoolChunk::encode(&rows);
        assert_eq!(chunk.decode(), rows);
        assert!(chunk.may_contain(true));
        assert!(chunk.may_contain(false));
        let uniform = vec![Some(true); 10];
        let chunk = BoolChunk::encode(&uniform);
        assert!(!chunk.may_contain(false));
        assert_eq!(chunk.decode(), uniform);
    }

    #[test]
    fn feature_chunk_quantized_for_roundtrip() {
        // Whole-number features (u8-scaled histograms): the FoR path.
        let a: Vec<f32> = vec![200.0, 201.0, 199.0];
        let b: Vec<f32> = vec![205.0, 200.0];
        let rows: Vec<Option<&[f32]>> = vec![Some(&a), None, Some(&b)];
        let chunk = FeatureChunk::encode(&rows);
        assert!(chunk.is_quantized());
        assert_eq!(chunk.decode(), vec![Some(a.clone()), None, Some(b.clone())]);
        assert_eq!(chunk.null_count(), 1);
        // 5 values in [199, 205]: 3-bit offsets, far below 4 bytes/value.
        assert!(chunk.encoded_bytes() < 5 * 4 + chunk.offsets.len() * 4);
    }

    #[test]
    fn feature_chunk_fractional_values_stay_raw_and_exact() {
        let a: Vec<f32> = vec![0.1, -2.75, 3.5];
        let rows: Vec<Option<&[f32]>> = vec![Some(&a)];
        let chunk = FeatureChunk::encode(&rows);
        assert!(!chunk.is_quantized());
        assert_eq!(chunk.decode(), vec![Some(a)]);
        // Values beyond the exact-integer range of f32 must not quantize.
        let big: Vec<f32> = vec![3.0e7, 1.0];
        let rows: Vec<Option<&[f32]>> = vec![Some(&big)];
        let chunk = FeatureChunk::encode(&rows);
        assert!(!chunk.is_quantized());
        assert_eq!(chunk.decode(), vec![Some(big)]);
    }

    #[test]
    fn feature_chunk_variable_dims_and_empty_vectors() {
        let a: Vec<f32> = vec![1.0, 2.0];
        let b: Vec<f32> = vec![];
        let c: Vec<f32> = vec![5.0, 6.0, 7.0, 8.0];
        let rows: Vec<Option<&[f32]>> = vec![Some(&a), Some(&b), None, Some(&c)];
        let chunk = FeatureChunk::encode(&rows);
        assert_eq!(chunk.decode(), vec![Some(a), Some(b), None, Some(c)]);
    }

    #[test]
    fn packed_decode_matches_row_decode() {
        // Mixed dims, an empty-but-valid row, nulls, and both encodings.
        let a: Vec<f32> = vec![1.0, 2.0];
        let b: Vec<f32> = vec![];
        let c: Vec<f32> = vec![5.5, 6.25, 7.0];
        for rows in [
            vec![Some(&a[..]), Some(&b[..]), None, Some(&c[..])],
            vec![Some(&a[..]), Some(&a[..])],
            vec![None, None],
            vec![],
        ] {
            let chunk = FeatureChunk::encode(&rows);
            let packed = chunk.decode_packed();
            let decoded = chunk.decode();
            assert_eq!(packed.rows(), decoded.len());
            for (i, row) in decoded.iter().enumerate() {
                assert_eq!(packed.row(i), row.as_deref());
            }
            assert_eq!(packed.offsets().len(), packed.rows() + 1);
        }
    }

    #[test]
    fn packed_decode_quantized_is_bit_exact() {
        let a: Vec<f32> = vec![200.0, 201.0, 199.0];
        let b: Vec<f32> = vec![205.0, 200.0, 203.0];
        let rows: Vec<Option<&[f32]>> = vec![Some(&a), Some(&b)];
        let chunk = FeatureChunk::encode(&rows);
        assert!(chunk.is_quantized());
        let packed = chunk.decode_packed();
        assert_eq!(packed.values(), &[200.0, 201.0, 199.0, 205.0, 200.0, 203.0]);
        assert!(packed.validity().is_none());
    }

    #[test]
    fn packed_select_gathers_rows_and_nulls() {
        let a: Vec<f32> = vec![1.0, 2.0];
        let c: Vec<f32> = vec![5.0, 6.0, 7.0];
        let rows: Vec<Option<&[f32]>> = vec![Some(&a), None, Some(&c), Some(&a)];
        let packed = FeatureChunk::encode(&rows).decode_packed();
        let sel = packed.select(&[1, 2]);
        assert_eq!(sel.rows(), 2);
        assert_eq!(sel.row(0), None);
        assert_eq!(sel.row(1), Some(&c[..]));
        let none = packed.select(&[]);
        assert!(none.is_empty());
    }

    #[test]
    fn empty_chunks_are_well_formed() {
        assert_eq!(IntChunk::encode(&[]).decode(), Vec::<Option<i64>>::new());
        assert!(IntChunk::encode(&[]).is_empty());
        assert_eq!(FloatChunk::encode(&[]).decode(), Vec::<Option<f64>>::new());
        assert_eq!(StrChunk::encode(&[]).decode(), Vec::<Option<&str>>::new());
        assert_eq!(BoolChunk::encode(&[]).decode(), Vec::<Option<bool>>::new());
        assert!(FeatureChunk::encode(&[]).decode().is_empty());
    }

    // ----------------------------------------------------------------------
    // Row-selective kernels against the whole-chunk decode
    // ----------------------------------------------------------------------

    /// SplitMix64: the seeded source of the random chunks below.
    struct Rng(u64);

    impl Rng {
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

        /// Null with probability `1 / one_in` (never when `one_in == 0`).
        fn maybe<T>(&mut self, one_in: u64, v: T) -> Option<T> {
            (one_in == 0 || self.below(one_in) != 0).then_some(v)
        }
    }

    /// Selections over a chunk of `n` rows: none, all, every third, a
    /// random ascending subset, the last row alone, and one out of order.
    fn selections(rng: &mut Rng, n: usize) -> Vec<Vec<usize>> {
        let mut out = vec![
            Vec::new(),
            (0..n).collect(),
            (0..n).step_by(3).collect(),
            (0..n).filter(|_| rng.below(4) == 0).collect(),
        ];
        if n > 0 {
            out.push(vec![n - 1]);
            out.push(vec![n - 1, 0, n / 2]);
        }
        out
    }

    fn gather<T: Clone>(rows: &[Option<T>], sel: &[usize]) -> Vec<Option<T>> {
        sel.iter().map(|&r| rows[r].clone()).collect()
    }

    fn matching<T: Copy>(rows: &[Option<T>], pred: impl Fn(T) -> bool) -> Vec<usize> {
        (0..rows.len())
            .filter(|&r| rows[r].is_some_and(&pred))
            .collect()
    }

    /// `count_where`, `rows_where` and `values_at` against `decode()`.
    fn check_int_kernels(rng: &mut Rng, rows: &[Option<i64>], label: &str) {
        let chunk = IntChunk::encode(rows);
        assert_eq!(chunk.encoding_label(), label, "{} rows", rows.len());
        let decoded = chunk.decode();
        assert_eq!(decoded, rows);
        let mut bounds: Vec<i64> = vec![i64::MIN, i64::MAX, 0];
        bounds.extend(rows.iter().flatten().take(6));
        for &lo in &bounds {
            for &hi in &bounds {
                let pred = |v: i64| lo <= v && v <= hi;
                let want = matching(&decoded, pred);
                assert_eq!(chunk.count_where(pred), want.len(), "[{lo}, {hi}] {label}");
                assert_eq!(chunk.rows_where(pred), want, "[{lo}, {hi}] {label}");
            }
        }
        for sel in selections(rng, rows.len()) {
            assert_eq!(
                chunk.values_at(&sel),
                gather(&decoded, &sel),
                "{label} {sel:?}"
            );
        }
    }

    #[test]
    fn int_kernels_match_decode_for_every_encoding() {
        let mut rng = Rng(0xD1CE);
        for nulls in [0u64, 3] {
            // Plain: values spread over the whole i64 range.
            let plain: Vec<Option<i64>> = (0..200)
                .map(|_| rng.next() as i64)
                .collect::<Vec<_>>()
                .into_iter()
                .chain([i64::MIN, i64::MAX])
                .map(|v| rng.maybe(nulls, v))
                .collect();
            check_int_kernels(&mut rng, &plain, "plain");
            // Delta: sorted runs at widths 0, 1 and 63, from i64::MIN and up
            // to i64::MAX (a constant run always delta-encodes at width 0, so
            // frame-of-reference never reaches width 0).
            let mut cur = i64::MIN;
            for v in [i64::MIN, i64::MAX] {
                let flat: Vec<Option<i64>> = (0..200).map(|_| rng.maybe(nulls, v)).collect();
                check_int_kernels(&mut rng, &flat, "delta");
            }
            let steps: Vec<Option<i64>> = (0..200)
                .map(|_| {
                    cur += rng.below(2) as i64;
                    rng.maybe(nulls, cur)
                })
                .collect();
            check_int_kernels(&mut rng, &steps, "delta");
            let mut wide = i64::MIN;
            let leaps: Vec<Option<i64>> = (0..200)
                .map(|i| {
                    // One 2^62 leap sets the width; small steps follow.
                    wide += if i == 1 { 1 << 62 } else { rng.below(8) as i64 };
                    rng.maybe(nulls, wide)
                })
                .collect();
            check_int_kernels(&mut rng, &leaps, "delta");
            // Frame-of-reference: unsorted, at widths 1 and 63, up to
            // i64::MAX.
            let bits: Vec<Option<i64>> = (0..200)
                .map(|i| {
                    let v = 1 - (i % 2) + rng.below(2) as i64 * (i % 2);
                    rng.maybe(nulls, v)
                })
                .collect();
            check_int_kernels(&mut rng, &bits, "for");
            let spread: Vec<Option<i64>> = (0..200)
                .map(|i| {
                    let v = if i % 2 == 0 {
                        i64::MAX
                    } else {
                        i64::MAX - (1 << 62) - rng.below(1 << 60) as i64
                    };
                    rng.maybe(nulls, v)
                })
                .collect();
            check_int_kernels(&mut rng, &spread, "for");
        }
        // All-null and empty chunks.
        check_int_kernels(&mut rng, &[None; 70], "plain");
        check_int_kernels(&mut rng, &[], "plain");
    }

    #[test]
    fn bitpack_reads_match_unpack_at_edge_widths() {
        let mut rng = Rng(0xB175);
        for width in [0u32, 1, 63, 64] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..130).map(|_| rng.next() & mask).collect();
            let packed = bitpack::pack(&values, width);
            let mut seen = Vec::new();
            bitpack::for_each(&packed, width, values.len(), |v| seen.push(v));
            assert_eq!(seen, values, "width {width}");
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(
                    bitpack::get(&packed, width, i),
                    v,
                    "width {width} value {i}"
                );
            }
        }
    }

    #[test]
    fn float_kernels_match_decode_with_nan_infinities_and_signed_zeros() {
        let mut rng = Rng(0xF10A7);
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
        ];
        for nulls in [0u64, 4] {
            let rows: Vec<Option<f64>> = (0..300)
                .map(|i| {
                    let v = if i % 7 == 0 {
                        specials[rng.below(6) as usize]
                    } else {
                        (rng.below(2001) as f64 - 1000.0) / 100.0
                    };
                    rng.maybe(nulls, v)
                })
                .collect();
            let chunk = FloatChunk::encode(&rows);
            let decoded = chunk.decode();
            assert_eq!(decoded.len(), rows.len());
            let bounds = [
                f64::NAN,
                f64::NEG_INFINITY,
                -1.5,
                -0.0,
                0.0,
                2.25,
                f64::INFINITY,
            ];
            for &lo in &bounds {
                for &hi in &bounds {
                    let pred = |v: f64| v >= lo && v < hi;
                    let want = matching(&decoded, pred);
                    assert_eq!(chunk.count_where(pred), want.len(), "[{lo}, {hi})");
                    assert_eq!(chunk.rows_where(pred), want, "[{lo}, {hi})");
                }
                let eq = |v: f64| v == lo;
                assert_eq!(
                    chunk.count_where(eq),
                    matching(&decoded, eq).len(),
                    "== {lo}"
                );
            }
            for sel in selections(&mut rng, rows.len()) {
                let got = chunk.values_at(&sel);
                let want = gather(&decoded, &sel);
                let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
                    v.iter().map(|x| x.map(f64::to_bits)).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{sel:?}");
            }
        }
    }

    #[test]
    fn str_and_bool_kernels_match_decode() {
        let mut rng = Rng(0x57A);
        let labels = ["bike", "car", "person"];
        for nulls in [0u64, 3] {
            for distinct in [1u64, 3] {
                let rows: Vec<Option<&str>> = (0..150)
                    .map(|_| {
                        let v = labels[rng.below(distinct) as usize];
                        rng.maybe(nulls, v)
                    })
                    .collect();
                let chunk = StrChunk::encode(&rows);
                let decoded = chunk.decode();
                assert_eq!(decoded, rows);
                for s in ["bike", "car", "person", "giraffe", ""] {
                    let want = matching(&decoded, |v| v == s);
                    assert_eq!(chunk.rows_eq(s), want, "{s} of {distinct}");
                }
                for sel in selections(&mut rng, rows.len()) {
                    let values: Vec<Option<&str>> = chunk
                        .values_at(&sel)
                        .into_iter()
                        .map(|v| v.map(|s| &**s))
                        .collect();
                    assert_eq!(values, gather(&decoded, &sel));
                }
            }
            let rows: Vec<Option<bool>> = (0..150)
                .map(|_| {
                    let v = rng.below(2) == 0;
                    rng.maybe(nulls, v)
                })
                .collect();
            let chunk = BoolChunk::encode(&rows);
            let decoded = chunk.decode();
            assert_eq!(decoded, rows);
            for b in [false, true] {
                let want = matching(&decoded, |v| v == b);
                assert_eq!(chunk.rows_eq(b), want, "{b}");
            }
            for sel in selections(&mut rng, rows.len()) {
                assert_eq!(chunk.values_at(&sel), gather(&decoded, &sel));
            }
        }
    }

    #[test]
    fn decode_rows_matches_decode_for_raw_and_quantized_features() {
        let mut rng = Rng(0xFEA7);
        for quantized in [false, true] {
            for nulls in [0u64, 3] {
                let vectors: Vec<Vec<f32>> = (0..140)
                    .map(|_| {
                        // Zero-length vectors included.
                        (0..rng.below(5))
                            .map(|_| {
                                let v = rng.below(512) as f32 - 256.0;
                                if quantized {
                                    v
                                } else {
                                    v / 8.0 + 0.0625
                                }
                            })
                            .collect()
                    })
                    .collect();
                let rows: Vec<Option<&[f32]>> = vectors
                    .iter()
                    .map(|v| rng.maybe(nulls, v.as_slice()))
                    .collect();
                let chunk = FeatureChunk::encode(&rows);
                assert_eq!(chunk.is_quantized(), quantized);
                let decoded = chunk.decode();
                let owned: Vec<Option<Vec<f32>>> =
                    rows.iter().map(|r| r.map(<[f32]>::to_vec)).collect();
                assert_eq!(decoded, owned);
                for sel in selections(&mut rng, rows.len()) {
                    assert_eq!(chunk.decode_rows(&sel), gather(&decoded, &sel), "{sel:?}");
                }
            }
        }
        // All-null and empty chunks.
        let nulls = FeatureChunk::encode(&[None, None, None]);
        assert_eq!(nulls.decode_rows(&[0, 2]), vec![None, None]);
        assert!(FeatureChunk::encode(&[]).decode_rows(&[]).is_empty());
    }
}
