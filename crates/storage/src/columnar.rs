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
//! The chunk types here are plain data — the patch-level assembly, filter
//! masks, and parallel scan live in `deeplens-core::scan`, which composes
//! these columns into collections.

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

    /// Unpack `len` values of `width` bits from `packed`.
    pub fn unpack(packed: &[u64], width: u32, len: usize) -> Vec<u64> {
        assert!(width <= 64, "bit width out of range");
        if width == 0 {
            return vec![0u64; len];
        }
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mut out = Vec::with_capacity(len);
        let mut bit = 0usize;
        for _ in 0..len {
            let word = bit / 64;
            let off = (bit % 64) as u32;
            let mut v = packed[word] >> off;
            if off + width > 64 {
                v |= packed[word + 1] << (64 - off);
            }
            out.push(v & mask);
            bit += width as usize;
        }
        out
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
        let n_valid = self.stats.count - self.stats.null_count;
        let values: Vec<i64> = match &self.encoding {
            IntEncoding::Plain(v) => v.clone(),
            IntEncoding::Delta {
                first,
                width,
                packed,
            } => {
                let deltas = bitpack::unpack(packed, *width, n_valid.saturating_sub(1));
                let mut out = Vec::with_capacity(n_valid);
                if n_valid > 0 {
                    let mut cur = *first;
                    out.push(cur);
                    for d in deltas {
                        cur = (cur as i128 + d as i128) as i64;
                        out.push(cur);
                    }
                }
                out
            }
            IntEncoding::For {
                reference,
                width,
                packed,
            } => bitpack::unpack(packed, *width, n_valid)
                .into_iter()
                .map(|off| (*reference as i128 + off as i128) as i64)
                .collect(),
        };
        self.scatter(values)
    }

    fn scatter(&self, values: Vec<i64>) -> Vec<Option<i64>> {
        let mut out = Vec::with_capacity(self.stats.count);
        let mut it = values.into_iter();
        for row in 0..self.stats.count {
            if self.validity.is_valid(row) {
                out.push(it.next());
            } else {
                out.push(None);
            }
        }
        out
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

    /// Decode the chunk back to its rows, nulls included.
    pub fn decode(&self) -> Vec<Option<f64>> {
        let mut out = Vec::with_capacity(self.stats.count);
        let mut it = self.values.iter().copied();
        for row in 0..self.stats.count {
            if self.validity.is_valid(row) {
                out.push(it.next());
            } else {
                out.push(None);
            }
        }
        out
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
/// stronger than a min/max zone map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrChunk {
    validity: Validity,
    count: usize,
    null_count: usize,
    sorted: bool,
    /// Sorted distinct values.
    dict: Vec<String>,
    /// Bit-packed dictionary codes, one per non-null row.
    code_width: u32,
    codes: Vec<u64>,
}

impl StrChunk {
    /// Encode one chunk of rows.
    pub fn encode(rows: &[Option<&str>]) -> Self {
        let validity = Validity::from_rows(rows);
        let mut dict: Vec<String> = rows
            .iter()
            .filter_map(|r| r.map(str::to_string))
            .collect::<std::collections::BTreeSet<String>>()
            .into_iter()
            .collect();
        dict.shrink_to_fit();
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
                dict.binary_search_by(|d| d.as_str().cmp(s))
                    .map_or(0, |i| i) as u64
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

    /// Decode the chunk back to its rows, nulls included.
    pub fn decode(&self) -> Vec<Option<&str>> {
        let n_valid = self.count - self.null_count;
        let codes = bitpack::unpack(&self.codes, self.code_width, n_valid);
        let mut out = Vec::with_capacity(self.count);
        let mut it = codes.into_iter();
        for row in 0..self.count {
            if self.validity.is_valid(row) {
                let code = it.next().unwrap_or(0) as usize;
                out.push(self.dict.get(code).map(String::as_str));
            } else {
                out.push(None);
            }
        }
        out
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
    pub fn dict(&self) -> &[String] {
        &self.dict
    }

    /// Exact equality pruning: whether any row of the chunk equals `s`.
    pub fn may_contain(&self, s: &str) -> bool {
        self.dict.binary_search_by(|d| d.as_str().cmp(s)).is_ok()
    }

    /// Lexicographic min/max of the chunk, if any row is valid.
    pub fn min_max(&self) -> Option<(&str, &str)> {
        match (self.dict.first(), self.dict.last()) {
            (Some(a), Some(b)) => Some((a.as_str(), b.as_str())),
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

    /// Decode the chunk back to its rows, nulls included.
    pub fn decode(&self) -> Vec<Option<bool>> {
        (0..self.stats.count)
            .map(|i| {
                self.validity
                    .is_valid(i)
                    .then(|| self.bits[i / 64] & (1 << (i % 64)) != 0)
            })
            .collect()
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

    /// Decode the chunk back to its rows, nulls included.
    pub fn decode(&self) -> Vec<Option<Vec<f32>>> {
        let flat: Vec<f32> = match &self.values {
            FeatureValues::Raw(v) => v.clone(),
            FeatureValues::Quantized {
                reference,
                width,
                packed,
            } => {
                let total = *self.offsets.last().unwrap_or(&0) as usize;
                bitpack::unpack(packed, *width, total)
                    .into_iter()
                    .map(|off| (*reference as i128 + off as i128) as f32)
                    .collect()
            }
        };
        let mut out = Vec::with_capacity(self.count);
        let mut valid_row = 0usize;
        for row in 0..self.count {
            if self.validity.is_valid(row) {
                let lo = self.offsets[valid_row] as usize;
                let hi = self.offsets[valid_row + 1] as usize;
                out.push(Some(flat[lo..hi].to_vec()));
                valid_row += 1;
            } else {
                out.push(None);
            }
        }
        out
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

    /// Approximate encoded payload size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        let values = match &self.values {
            FeatureValues::Raw(v) => v.len() * 4,
            FeatureValues::Quantized { packed, .. } => 8 + packed.len() * 8,
        };
        values + self.offsets.len() * 4
    }

    /// Decode the chunk into [`PackedFeatures`]: one flat value buffer plus
    /// per-row spans, instead of the per-row `Vec` allocations
    /// [`FeatureChunk::decode`] performs; the values are bit-identical to
    /// the rows `decode` returns. Kept for the benchmark's layer probe.
    pub fn decode_packed(&self) -> PackedFeatures {
        let values: Vec<f32> = match &self.values {
            FeatureValues::Raw(v) => v.clone(),
            FeatureValues::Quantized {
                reference,
                width,
                packed,
            } => {
                let total = *self.offsets.last().unwrap_or(&0) as usize;
                bitpack::unpack(packed, *width, total)
                    .into_iter()
                    .map(|off| (*reference as i128 + off as i128) as f32)
                    .collect()
            }
        };
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

/// A feature chunk decoded into packed form: the non-null rows' values
/// concatenated in row order in one flat buffer, with per-row spans into it.
///
/// This is the zero-per-row-allocation counterpart of
/// [`FeatureChunk::decode`]: where `decode` hands back a
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
    pub fn select(&self, rows: &[u32]) -> PackedFeatures {
        let mut values = Vec::new();
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0u32);
        let mut valid: Option<Vec<bool>> = self.valid.as_ref().map(|_| Vec::new());
        for &r in rows {
            let r = r as usize;
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

#[cfg(test)]
impl FeatureChunk {
    /// Whether the chunk detected quantized features and stored them
    /// frame-of-reference + bit-packed.
    fn is_quantized(&self) -> bool {
        matches!(self.values, FeatureValues::Quantized { .. })
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
            assert_eq!(bitpack::unpack(&packed, width, values.len()), values);
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
        assert_eq!(chunk.dict(), &["bike", "car", "person"]);
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
}
