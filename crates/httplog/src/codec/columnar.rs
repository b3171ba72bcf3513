//! Columnar (struct-of-arrays) shard codec for the request spool.
//!
//! The row codec ([`text`](crate::codec::text)) interleaves every field of
//! every record, so a single-column pass (say, all timestamps) still decodes
//! whole lines. This module stores one on-disk
//! *shard* per bounded run of [`Request`] rows in column order: each
//! fixed-width field occupies one contiguous little-endian array, the
//! variable-width user-agent strings are dictionary-encoded (a `u32` index
//! column plus a per-shard string table), and a fixed-size footer records
//! the row count, per-column byte offsets and a *zone map* (min/max
//! timestamp, publisher bitmask).
//!
//! [`ColumnarShard`] reads a whole shard into memory;
//! [`read_shard_footer`] reads only its metadata.
//! Both take the header, checksum block and footer through one parser, so
//! a bad shard gets the same error from either.
//!
//! [`ColumnarShard::read_rows`] decodes a batch from each column's slice
//! of it, fetched once, and reports the first bad cell by its shard row.
//! [`ColumnBuilder`] interns user agents by value, in first-seen order,
//! behind a lookup by allocation that answers rows sharing an `Arc`.
//! [`ColumnBuilder::gather`] appends rows of opened shards by location
//! without decoding them, for the spool generator's order phase.
//!
//! # Layout
//!
//! ```text
//! [ 8] magic "OATCOL1\n"
//! [ 1] schema code (1 = Request; the retired code 0 is refused)
//! [ 1] version (3; any other version is refused)
//! [ 6] zero padding (data starts 8-aligned)
//! per column, in schema order:
//!     zero padding to the next multiple of 8, then rows × width bytes (LE)
//! dictionary: u32 entry count, then per entry u32 byte length + UTF-8 bytes
//! [128] checksum block (XXH64):
//!     u64 × 14  checksum of each column's payload bytes (unused slots 0)
//!     u64       checksum of the dictionary region
//!     u64       checksum of the 176-byte footer
//! [176] footer:
//!     u64       row count
//!     u64 × 14  per-column byte offsets (unused trailing columns are 0)
//!     u64       dictionary offset
//!     u64       zone: min timestamp        (u64::MAX when the shard is empty)
//!     u64       zone: max timestamp
//!     u64       zone: publisher bitmask    (bit = publisher id mod 64)
//!     u64       zone: status-class bitmask (u64::MAX; 0 when empty)
//!     u8        schema code (must equal the header's)
//!     u8        version
//!     u8 × 6    zero padding
//!     [8]       footer magic "OATCFTR\n"
//! ```
//!
//! All integers are little-endian. Signed columns (`tz_offset_secs`) store
//! the two's-complement bit pattern.
//!
//! # Segments
//!
//! A *segment* is a shard's rows without its per-shard metadata, for a
//! file that packs many small row sets and keeps one user-agent table
//! for all of them (the spool generator's spill). Its cost grows with its
//! rows alone: a 13-byte header, 4 bytes per distinct agent, the columns
//! and one checksum.
//!
//! ```text
//! [1] schema code
//! [8] u64 row count
//! [4] u32 agent count k
//! [4k] per dictionary entry, its index in the caller's agent table
//! per column, in schema order: rows × width bytes (LE), unpadded
//! [8] XXH64 of every preceding byte of the segment
//! ```
//!
//! [`ColumnBuilder::write_segment_to`] writes one and
//! [`ColumnarShard::from_segment`] verifies and opens it, given the same
//! sorted, deduplicated agent table; it checks every coded cell as well,
//! because [`ColumnBuilder::gather`] copies cells without decoding them.
//!
//! # Corruption detection
//!
//! Shards are fully covered against single-byte corruption:
//! magic/schema/version bytes are compared directly, padding bytes are
//! required to be zero, the column and dictionary regions are covered by
//! the checksum block, and the footer (including the zone map) by the
//! trailing footer checksum. The checksums are
//! [XXH64](crate::durable::Xxh64), which runs at memory speed. A spool is
//! a scratch cache regenerated by the build that reads it, so the codec
//! decodes only its current version: any other version byte is refused
//! with [`ColumnarError::UnsupportedVersion`].
//! [`ColumnarShard::open`] verifies all of it, so a torn or bit-flipped
//! shard surfaces as a *data* error and the directory scan stops there
//! instead of decoding garbage.
//!
//! # Example
//!
//! ```
//! use oat_httplog::codec::columnar::{ColumnBuilder, ColumnarShard};
//! use oat_httplog::Request;
//!
//! let dir = std::env::temp_dir().join("oat-columnar-doc");
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("example.col");
//!
//! let mut builder = ColumnBuilder::<Request>::new();
//! builder.push(&Request::example())?;
//! builder.write_file(&path)?;
//!
//! let shard = ColumnarShard::open(&path)?;
//! assert_eq!(shard.rows(), 1);
//! let mut out: Vec<Request> = Vec::new();
//! shard.read_rows(0..shard.rows(), &mut out)?;
//! assert_eq!(out, vec![Request::example()]);
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use crate::content::FileFormat;
use crate::durable::{write_atomic, IoLayer, RealIo, Xxh64};
use crate::ids::{IdBuildHasher, ObjectId, PublisherId, UserId};
use crate::request::{Request, RequestKind};
use crate::Region;

/// Leading file magic.
pub const MAGIC: [u8; 8] = *b"OATCOL1\n";
/// Trailing footer magic.
pub const FOOTER_MAGIC: [u8; 8] = *b"OATCFTR\n";
/// Shard format version (3 = XXH64 checksums), the only one the codec
/// reads.
pub const VERSION: u8 = 3;
/// Header length in bytes (magic + schema + version + padding).
pub const HEADER_LEN: usize = 16;
/// Footer length in bytes.
pub const FOOTER_LEN: usize = 176;
/// Checksum-block length in bytes: one `u64` per column
/// slot plus the dictionary and footer checksums.
pub const CHECKSUM_BLOCK_LEN: usize = (MAX_COLS + 2) * 8;
/// Maximum column count across schemas (the footer reserves this many
/// offset slots).
pub const MAX_COLS: usize = 14;

/// Column widths (bytes) for [`Schema::Request`], in column order:
/// timestamp, object, object_size, kind_offset, kind_length, user,
/// publisher, tz_offset, ua index, format, region, incognito, kind.
const REQUEST_WIDTHS: [usize; 13] = [8, 8, 8, 8, 8, 8, 2, 4, 4, 1, 1, 1, 1];

/// Which row type a shard stores. Code 0, the retired `LogRecord` schema,
/// is refused as [`ColumnarError::UnknownSchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Schema {
    /// Pre-response [`Request`]s (simulator input).
    Request,
}

impl Schema {
    /// Stable wire code.
    pub const fn code(self) -> u8 {
        match self {
            Schema::Request => 1,
        }
    }

    /// Inverse of [`Schema::code`].
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Schema::Request),
            _ => None,
        }
    }

    /// Per-column byte widths in column order.
    pub const fn widths(self) -> &'static [usize] {
        match self {
            Schema::Request => &REQUEST_WIDTHS,
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Schema::Request => "request",
        })
    }
}

/// Error reading or writing a columnar shard.
#[derive(Debug)]
pub enum ColumnarError {
    /// Underlying I/O failure (environmental, not data corruption).
    Io(io::Error),
    /// Structurally invalid shard bytes.
    Corrupt {
        /// What failed to validate.
        what: &'static str,
    },
    /// Unknown format version byte.
    UnsupportedVersion {
        /// The version byte found.
        version: u8,
    },
    /// Unknown schema code byte.
    UnknownSchema {
        /// The code found.
        code: u8,
    },
    /// The shard stores a different row type than requested.
    SchemaMismatch {
        /// The schema the caller asked for.
        expected: Schema,
        /// The schema recorded in the shard.
        found: Schema,
    },
    /// A stored field value decodes to no valid domain value.
    InvalidValue {
        /// Row index within the shard.
        row: u64,
        /// Field (column) name.
        field: &'static str,
        /// The raw value found, widened to u64.
        value: u64,
    },
    /// More than `u32::MAX` distinct user-agent strings in one shard.
    DictionaryOverflow,
}

impl ColumnarError {
    /// True for malformed-data errors (anything but [`ColumnarError::Io`]):
    /// the shard itself, not the environment, is at fault.
    pub fn is_data_error(&self) -> bool {
        !matches!(self, ColumnarError::Io(_))
    }
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarError::Io(e) => write!(f, "columnar shard I/O error: {e}"),
            ColumnarError::Corrupt { what } => write!(f, "corrupt columnar shard: {what}"),
            ColumnarError::UnsupportedVersion { version } => {
                write!(f, "unsupported columnar shard version {version}")
            }
            ColumnarError::UnknownSchema { code } => {
                write!(f, "unknown columnar schema code {code}")
            }
            ColumnarError::SchemaMismatch { expected, found } => {
                write!(
                    f,
                    "columnar schema mismatch: expected {expected}, found {found}"
                )
            }
            ColumnarError::InvalidValue { row, field, value } => {
                write!(f, "invalid value {value} for `{field}` at shard row {row}")
            }
            ColumnarError::DictionaryOverflow => {
                f.write_str("user-agent dictionary exceeds u32::MAX entries")
            }
        }
    }
}

impl std::error::Error for ColumnarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ColumnarError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ColumnarError {
    fn from(e: io::Error) -> Self {
        ColumnarError::Io(e)
    }
}

/// Per-shard summary statistics stored in the footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap {
    /// Smallest row timestamp (`u64::MAX` when the shard is empty).
    pub min_timestamp: u64,
    /// Largest row timestamp (0 when the shard is empty).
    pub max_timestamp: u64,
    /// Publisher (site) presence bitmask: bit `publisher mod 64` is set for
    /// every publisher appearing in the shard.
    pub publisher_mask: u64,
    /// Status-class bitmask. Requests carry no response status, so every
    /// non-empty shard records `u64::MAX` (all classes possible); the field
    /// is kept because it is part of the on-disk footer.
    pub status_mask: u64,
}

impl ZoneMap {
    /// The zone map of an empty shard.
    pub const fn empty() -> Self {
        ZoneMap {
            min_timestamp: u64::MAX,
            max_timestamp: 0,
            publisher_mask: 0,
            status_mask: 0,
        }
    }

    fn observe(&mut self, timestamp: u64, publisher: PublisherId) {
        self.min_timestamp = self.min_timestamp.min(timestamp);
        self.max_timestamp = self.max_timestamp.max(timestamp);
        self.publisher_mask |= 1u64 << (u64::from(publisher.raw()) % 64);
        self.status_mask = u64::MAX;
    }
}

/// A row type storable in columnar shards.
///
/// Implemented for [`Request`]; the encode/decode hooks use builder/shard
/// internals private to this module, so downstream crates consume the
/// provided implementation rather than adding their own.
pub trait ColumnarRow: Sized + Clone + Send + 'static {
    /// The schema tag written into shard headers and footers.
    const SCHEMA: Schema;

    /// Appends `rows` to a shard under construction, column by column,
    /// and folds them into its row count and zone map.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::DictionaryOverflow`] when the shard's
    /// user-agent dictionary is full; the rows before the first that
    /// found it full are appended.
    fn append_batch(rows: &[Self], builder: &mut ColumnBuilder<Self>) -> Result<(), ColumnarError>;

    /// Materializes rows `rows` (within the shard) of an opened shard,
    /// appending them to `out` in row order.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::InvalidValue`] for the first row with a
    /// stored field that decodes to no valid domain value; `out` then
    /// holds the rows before it.
    fn read_batch(
        shard: &ColumnarShard,
        rows: Range<usize>,
        out: &mut Vec<Self>,
    ) -> Result<(), ColumnarError>;
}

/// Streaming writer for one columnar shard: rows go in, column buffers
/// accumulate in memory, [`ColumnBuilder::write_file`] lays them out on
/// disk. Peak memory is proportional to the rows buffered, so callers
/// bound it by rotating shards (see `ColumnarDirWriter` in
/// [`crate::shard`]).
#[derive(Debug)]
pub struct ColumnBuilder<T: ColumnarRow> {
    cols: Vec<Vec<u8>>,
    dict: Vec<Arc<str>>,
    dict_index: BTreeMap<Arc<str>, u32>,
    /// Dictionary index by allocation address, in front of `dict_index`.
    /// Each entry holds a clone of the `Arc` it is keyed on, so the
    /// address cannot be freed and reused by another agent while the entry
    /// lives.
    by_alloc: HashMap<usize, (Arc<str>, u32), IdBuildHasher>,
    rows: usize,
    zone: ZoneMap,
    _row: PhantomData<fn() -> T>,
}

impl<T: ColumnarRow> Default for ColumnBuilder<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: ColumnarRow> ColumnBuilder<T> {
    /// Creates an empty builder for `T`'s schema.
    pub fn new() -> Self {
        ColumnBuilder {
            cols: vec![Vec::new(); T::SCHEMA.widths().len()],
            dict: Vec::new(),
            dict_index: BTreeMap::new(),
            by_alloc: HashMap::default(),
            rows: 0,
            zone: ZoneMap::empty(),
            _row: PhantomData,
        }
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::DictionaryOverflow`] when the shard's
    /// user-agent dictionary is full.
    pub fn push(&mut self, row: &T) -> Result<(), ColumnarError> {
        self.push_batch(std::slice::from_ref(row))
    }

    /// Appends a batch of rows, column by column.
    ///
    /// # Errors
    ///
    /// As [`ColumnBuilder::push`]; the rows before the first that found
    /// the dictionary full are appended.
    pub fn push_batch(&mut self, rows: &[T]) -> Result<(), ColumnarError> {
        T::append_batch(rows, self)
    }

    /// Rows buffered so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Drops all buffered rows, keeping allocations for reuse.
    pub fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.dict.clear();
        self.dict_index.clear();
        self.by_alloc.clear();
        self.rows = 0;
        self.zone = ZoneMap::empty();
    }

    /// Serializes the buffered rows as one shard into `w`.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::Io`] on write failure.
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), ColumnarError> {
        const ZEROS: [u8; 8] = [0; 8];
        let widths = T::SCHEMA.widths();
        w.write_all(&MAGIC)?;
        w.write_all(&[T::SCHEMA.code(), VERSION, 0, 0, 0, 0, 0, 0])?;

        let mut off = HEADER_LEN as u64;
        let mut col_offsets = [0u64; MAX_COLS];
        let mut col_sums = [0u64; MAX_COLS];
        for (i, col) in self.cols.iter().enumerate() {
            let pad = (8 - (off % 8) as usize) % 8;
            w.write_all(&ZEROS[..pad])?;
            off += pad as u64;
            if let Some(slot) = col_offsets.get_mut(i) {
                *slot = off;
            }
            debug_assert_eq!(col.len(), self.rows * widths.get(i).copied().unwrap_or(0));
            w.write_all(col)?;
            if let Some(slot) = col_sums.get_mut(i) {
                *slot = shard_sum(col);
            }
            off += col.len() as u64;
        }

        let dict_off = off;
        let mut dict_sum = Xxh64::new();
        let count = (self.dict.len() as u32).to_le_bytes();
        w.write_all(&count)?;
        dict_sum.update(&count);
        for entry in &self.dict {
            let len = (entry.len() as u32).to_le_bytes();
            w.write_all(&len)?;
            dict_sum.update(&len);
            w.write_all(entry.as_bytes())?;
            dict_sum.update(entry.as_bytes());
        }

        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&(self.rows as u64).to_le_bytes());
        for slot in &col_offsets {
            footer.extend_from_slice(&slot.to_le_bytes());
        }
        footer.extend_from_slice(&dict_off.to_le_bytes());
        footer.extend_from_slice(&self.zone.min_timestamp.to_le_bytes());
        footer.extend_from_slice(&self.zone.max_timestamp.to_le_bytes());
        footer.extend_from_slice(&self.zone.publisher_mask.to_le_bytes());
        footer.extend_from_slice(&self.zone.status_mask.to_le_bytes());
        footer.extend_from_slice(&[T::SCHEMA.code(), VERSION, 0, 0, 0, 0, 0, 0]);
        footer.extend_from_slice(&FOOTER_MAGIC);
        debug_assert_eq!(footer.len(), FOOTER_LEN);
        let mut block = Vec::with_capacity(CHECKSUM_BLOCK_LEN);
        for sum in &col_sums {
            block.extend_from_slice(&sum.to_le_bytes());
        }
        block.extend_from_slice(&dict_sum.digest().to_le_bytes());
        block.extend_from_slice(&shard_sum(&footer).to_le_bytes());
        debug_assert_eq!(block.len(), CHECKSUM_BLOCK_LEN);
        w.write_all(&block)?;
        w.write_all(&footer)?;
        Ok(())
    }

    /// Serializes the buffered rows as one [segment](self#segments) into
    /// `w`, naming each user agent by its index in `agents`, a sorted,
    /// deduplicated table the reader is given too.
    ///
    /// # Errors
    ///
    /// [`ColumnarError::Io`] on write failure;
    /// [`ColumnarError::InvalidValue`] (field `user_agent`, the value its
    /// dictionary index) when an agent is missing from `agents`.
    pub fn write_segment_to<W: Write + ?Sized>(
        &self,
        w: &mut W,
        agents: &[Arc<str>],
    ) -> Result<(), ColumnarError> {
        let mut sum = Xxh64::new();
        let mut put = |bytes: &[u8]| -> Result<(), ColumnarError> {
            sum.update(bytes);
            w.write_all(bytes)?;
            Ok(())
        };
        put(&[T::SCHEMA.code()])?;
        put(&(self.rows as u64).to_le_bytes())?;
        put(&(self.dict.len() as u32).to_le_bytes())?;
        for (idx, agent) in (0u64..).zip(&self.dict) {
            let id = agents
                .binary_search(agent)
                .ok()
                .and_then(|id| u32::try_from(id).ok())
                .ok_or_else(|| invalid(0, "user_agent", idx))?;
            put(&id.to_le_bytes())?;
        }
        for col in &self.cols {
            put(col)?;
        }
        let digest = sum.digest();
        w.write_all(&digest.to_le_bytes())?;
        Ok(())
    }

    /// Writes the buffered rows to a shard file at `path`, durably: the
    /// bytes land under a temporary name and are fsynced before an atomic
    /// rename, so `path` never holds a torn shard (see
    /// [`crate::durable::write_atomic`]).
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::Io`] on create/write/fsync/rename failure.
    pub fn write_file(&self, path: &Path) -> Result<(), ColumnarError> {
        self.write_file_with(path, &RealIo)
    }

    /// As [`ColumnBuilder::write_file`], with every storage operation
    /// checked against `io` — the seam the kill-anywhere recovery tests
    /// inject failures through.
    ///
    /// # Errors
    ///
    /// As [`ColumnBuilder::write_file`], including injected failures.
    pub fn write_file_with(&self, path: &Path, io: &dyn IoLayer) -> Result<(), ColumnarError> {
        write_atomic(io, path, |w| match self.write_to(w) {
            Ok(()) => Ok(()),
            Err(ColumnarError::Io(e)) => Err(e),
            Err(other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                other.to_string(),
            )),
        })?;
        Ok(())
    }

    /// Interns a user agent, returning its dictionary index. Entries are
    /// kept in first-seen order by value; a new one shares `ua`'s
    /// allocation instead of copying it. Requests that share an
    /// allocation (every request of a user does) are answered by its
    /// address, without comparing the string.
    fn intern_user_agent(&mut self, ua: &Arc<str>) -> Result<u32, ColumnarError> {
        let addr = Arc::as_ptr(ua).cast::<u8>() as usize;
        if let Some((_, idx)) = self.by_alloc.get(&addr) {
            return Ok(*idx);
        }
        let idx = match self.dict_index.get(&**ua) {
            Some(&idx) => idx,
            None => {
                let idx = u32::try_from(self.dict.len())
                    .map_err(|_| ColumnarError::DictionaryOverflow)?;
                if idx == u32::MAX {
                    return Err(ColumnarError::DictionaryOverflow);
                }
                // One entry per distinct user agent in the shard being
                // built, so at most its row count; `clear` empties every
                // map per shard.
                // oat-lint: allow(bounded-memory) -- per-shard dictionary, see above
                self.dict.push(Arc::clone(ua));
                // oat-lint: allow(bounded-memory) -- as above: mirrors `dict`, emptied per shard
                self.dict_index.insert(Arc::clone(ua), idx);
                idx
            }
        };
        // Capped, so rows that each bring their own allocation cannot keep
        // a shard's worth of strings alive; past the cap they take the
        // by-value lookup above.
        if self.by_alloc.len() < MAX_ALLOCATIONS {
            // oat-lint: allow(bounded-memory) -- at most MAX_ALLOCATIONS entries, emptied per shard
            self.by_alloc.insert(addr, (Arc::clone(ua), idx));
        }
        Ok(idx)
    }

    /// Appends a `W`-byte cell per item of `cells` to column `col`.
    fn put_cells<const W: usize>(
        &mut self,
        col: usize,
        cells: impl ExactSizeIterator<Item = [u8; W]>,
    ) {
        if let Some(buf) = self.cols.get_mut(col) {
            for (dst, cell) in grow_cells::<W>(buf, cells.len()).zip(cells) {
                dst.copy_from_slice(&cell);
            }
        } else {
            debug_assert!(false, "column index {col} out of range");
        }
    }
}

impl ColumnBuilder<Request> {
    /// Appends rows of opened request shards: `rows[k] = (shard, row)`
    /// names row `row` of `shards[shard]`. The bytes are those that
    /// pushing the decoded rows in order would append, but no row is
    /// decoded: each column is copied cell by cell, and each shard's
    /// user-agent indexes are remapped into this builder's dictionary
    /// through a table per shard, filled in row order so that entries stay
    /// first-seen. Coded cells are copied as they are, so the shards must
    /// be ones [`ColumnarShard::open`] or [`ColumnarShard::from_segment`]
    /// has checked.
    ///
    /// # Errors
    ///
    /// [`ColumnarError::Corrupt`], with nothing appended, when a location
    /// names no row; [`ColumnarError::DictionaryOverflow`] as
    /// [`ColumnBuilder::push`], after which the builder holds a partial
    /// row set and must be dropped.
    pub fn gather(
        &mut self,
        shards: &[ColumnarShard],
        rows: &[(u32, u32)],
    ) -> Result<(), ColumnarError> {
        let located = |&(s, row): &(u32, u32)| {
            shards
                .get(s as usize)
                .is_some_and(|shard| (row as usize) < shard.rows())
        };
        if !rows.iter().all(located) {
            return Err(ColumnarError::Corrupt {
                what: "gathered row outside its shard",
            });
        }
        for (col, &width) in REQUEST_WIDTHS.iter().enumerate() {
            if col == UA_COL {
                continue;
            }
            let srcs = shards
                .iter()
                .map(|shard| shard.col_bytes(col))
                .collect::<Result<Vec<_>, _>>()?;
            let Some(dst) = self.cols.get_mut(col) else {
                continue;
            };
            match width {
                8 => gather_cells::<8>(dst, &srcs, rows)?,
                4 => gather_cells::<4>(dst, &srcs, rows)?,
                2 => gather_cells::<2>(dst, &srcs, rows)?,
                _ => gather_cells::<1>(dst, &srcs, rows)?,
            }
        }
        self.gather_agents(shards, rows)?;
        // The zone map, from the cells just appended.
        let appended = |col: usize, width: usize| {
            self.cols
                .get(col)
                .and_then(|col| col.get(self.rows * width..))
                .unwrap_or_default()
        };
        let timestamps = u64_cells(appended(0, 8));
        let publishers = cells::<2>(appended(6, 2)).map(u16::from_le_bytes);
        let mut zone = self.zone;
        for (timestamp, publisher) in timestamps.zip(publishers) {
            zone.observe(timestamp, PublisherId::new(publisher));
        }
        self.zone = zone;
        self.rows += rows.len();
        Ok(())
    }

    /// [`ColumnBuilder::gather`]'s user-agent column: each shard's index
    /// remapped into this builder's dictionary, in row order.
    fn gather_agents(
        &mut self,
        shards: &[ColumnarShard],
        rows: &[(u32, u32)],
    ) -> Result<(), ColumnarError> {
        const UNSEEN: u32 = u32::MAX;
        // Per shard: its index column, its dictionary, and the builder's
        // index for each of its entries met so far.
        let mut sources = shards
            .iter()
            .map(|shard| {
                let remap = vec![UNSEEN; shard.dict.len()];
                Ok((shard.col_bytes(UA_COL)?, shard.dict.as_slice(), remap))
            })
            .collect::<Result<Vec<_>, ColumnarError>>()?;
        let mut ids = Vec::with_capacity(rows.len());
        for &(s, row) in rows {
            let (col, dict, remap) = sources.get_mut(s as usize).ok_or(ColumnarError::Corrupt {
                what: "gathered row outside its shard",
            })?;
            let idx = read_u32(col, row as usize * 4)?;
            let unknown = || invalid(u64::from(row), "user_agent", idx);
            let slot = remap.get_mut(idx as usize).ok_or_else(unknown)?;
            if *slot == UNSEEN {
                // `intern_user_agent` never hands out `UNSEEN`.
                *slot = self.intern_user_agent(dict.get(idx as usize).ok_or_else(unknown)?)?;
            }
            ids.push(*slot);
        }
        self.put_cells(UA_COL, ids.iter().map(|id| id.to_le_bytes()));
        Ok(())
    }
}

/// Grows `buf` by `cells` zeroed `W`-byte cells and returns them, to be
/// filled in place: one resize instead of a capacity check per cell.
fn grow_cells<const W: usize>(
    buf: &mut Vec<u8>,
    cells: usize,
) -> std::slice::ChunksExactMut<'_, u8> {
    let old = buf.len();
    buf.resize(old + cells * W, 0);
    buf.get_mut(old..).unwrap_or_default().chunks_exact_mut(W)
}

/// Appends the `W`-byte cell of every location in `rows` to `dst`, in
/// order: `rows[k] = (source, row)` names cell `row` of `srcs[source]`.
fn gather_cells<const W: usize>(
    dst: &mut Vec<u8>,
    srcs: &[&[u8]],
    rows: &[(u32, u32)],
) -> Result<(), ColumnarError> {
    for (out, &(s, row)) in grow_cells::<W>(dst, rows.len()).zip(rows) {
        let at = row as usize * W;
        let cell = srcs
            .get(s as usize)
            .and_then(|src| src.get(at..at + W))
            .ok_or(ColumnarError::Corrupt {
                what: "gathered cell outside its column",
            })?;
        out.copy_from_slice(cell);
    }
    Ok(())
}

/// The user-agent index column.
const UA_COL: usize = 8;

/// Most allocations a [`ColumnBuilder`] remembers by address.
const MAX_ALLOCATIONS: usize = 4096;

// ---------------------------------------------------------------------------
// Row codecs.
// ---------------------------------------------------------------------------

/// Stable on-disk code for a file format: its index in [`FileFormat::ALL`].
/// Shards persist these codes, so the mapping must never change.
fn format_code(format: FileFormat) -> u8 {
    FileFormat::ALL
        .iter()
        .position(|&f| f == format)
        // Every variant appears in ALL; the 0xFF fallback would fail
        // decode loudly rather than panic encode.
        .map_or(u8::MAX, |i| i as u8)
}

/// Inverse of [`format_code`].
fn format_from_code(code: u8) -> Option<FileFormat> {
    FileFormat::ALL.get(code as usize).copied()
}

/// A request kind's wire code and its `(kind_offset, kind_length)` cells.
fn kind_cells(kind: RequestKind) -> (u8, u64, u64) {
    match kind {
        RequestKind::Full => (KIND_FULL, 0, 0),
        RequestKind::Range { offset, length } => (KIND_RANGE, offset, length),
        RequestKind::Conditional => (KIND_CONDITIONAL, 0, 0),
        RequestKind::InvalidRange => (KIND_INVALID_RANGE, 0, 0),
        RequestKind::Hotlink => (KIND_HOTLINK, 0, 0),
        RequestKind::Beacon => (KIND_BEACON, 0, 0),
    }
}

/// Stable wire codes for [`RequestKind`] discriminants.
const KIND_FULL: u8 = 0;
const KIND_RANGE: u8 = 1;
const KIND_CONDITIONAL: u8 = 2;
const KIND_INVALID_RANGE: u8 = 3;
const KIND_HOTLINK: u8 = 4;
const KIND_BEACON: u8 = 5;

fn invalid(row: u64, field: &'static str, value: impl Into<u64>) -> ColumnarError {
    ColumnarError::InvalidValue {
        row,
        field,
        value: value.into(),
    }
}

/// The cells of a `W`-byte column, in row order.
fn cells<const W: usize>(col: &[u8]) -> impl Iterator<Item = [u8; W]> + Clone + '_ {
    col.chunks_exact(W)
        .map(|cell| <[u8; W]>::try_from(cell).unwrap_or([0; W]))
}

/// The values of a little-endian `u64` column, in row order.
fn u64_cells(col: &[u8]) -> impl Iterator<Item = u64> + Clone + '_ {
    cells::<8>(col).map(u64::from_le_bytes)
}

/// Checks every user-agent index of `col` against the dictionary
/// length, in one pass.
fn check_agents(col: &[u8], dict_len: usize) -> Result<(), ColumnarError> {
    for (row, idx) in (0u64..).zip(cells::<4>(col).map(u32::from_le_bytes)) {
        if idx as usize >= dict_len {
            return Err(invalid(row, "user_agent", idx));
        }
    }
    Ok(())
}

/// The coded cells of one request row, decoded in field order (format,
/// region, incognito, kind), so a row with several bad cells reports the
/// first. `range` is the row's `(kind_offset, kind_length)`.
fn decode_codes(
    row: u64,
    [format, region, incognito, kind]: [u8; 4],
    range: (u64, u64),
) -> Result<(FileFormat, Region, bool, RequestKind), ColumnarError> {
    let format = format_from_code(format).ok_or_else(|| invalid(row, "format", format))?;
    let region = Region::from_code(region).ok_or_else(|| invalid(row, "region", region))?;
    let incognito = match incognito {
        0 => false,
        1 => true,
        other => return Err(invalid(row, "incognito", other)),
    };
    let kind = match kind {
        KIND_FULL => RequestKind::Full,
        KIND_RANGE => RequestKind::Range {
            offset: range.0,
            length: range.1,
        },
        KIND_CONDITIONAL => RequestKind::Conditional,
        KIND_INVALID_RANGE => RequestKind::InvalidRange,
        KIND_HOTLINK => RequestKind::Hotlink,
        KIND_BEACON => RequestKind::Beacon,
        other => return Err(invalid(row, "kind", other)),
    };
    Ok((format, region, incognito, kind))
}

/// The four coded columns of a request shard (format, region, incognito,
/// kind), zipped into one iterator of each row's cells.
fn code_cells<'a>(cols: [&'a [u8]; 4]) -> impl Iterator<Item = [u8; 4]> + 'a {
    let [format, region, incognito, kind] = cols;
    format
        .iter()
        .zip(region)
        .zip(incognito)
        .zip(kind)
        .map(|(((&f, &r), &i), &k)| [f, r, i, k])
}

impl ColumnarRow for Request {
    const SCHEMA: Schema = Schema::Request;

    fn append_batch(rows: &[Self], b: &mut ColumnBuilder<Self>) -> Result<(), ColumnarError> {
        // Agents first: the rows before one that finds the dictionary full
        // are the rows appended.
        let mut ids = Vec::with_capacity(rows.len());
        let mut full = Ok(());
        for row in rows {
            match b.intern_user_agent(&row.user_agent) {
                Ok(id) => ids.push(id),
                Err(e) => {
                    full = Err(e);
                    break;
                }
            }
        }
        let rows = rows.get(..ids.len()).unwrap_or_default();
        let kinds = || rows.iter().map(|r| kind_cells(r.kind));
        b.put_cells(0, rows.iter().map(|r| r.timestamp.to_le_bytes()));
        b.put_cells(1, rows.iter().map(|r| r.object.raw().to_le_bytes()));
        b.put_cells(2, rows.iter().map(|r| r.object_size.to_le_bytes()));
        b.put_cells(3, kinds().map(|(_, offset, _)| offset.to_le_bytes()));
        b.put_cells(4, kinds().map(|(_, _, length)| length.to_le_bytes()));
        b.put_cells(5, rows.iter().map(|r| r.user.raw().to_le_bytes()));
        b.put_cells(6, rows.iter().map(|r| r.publisher.raw().to_le_bytes()));
        b.put_cells(7, rows.iter().map(|r| r.tz_offset_secs.to_le_bytes()));
        b.put_cells(UA_COL, ids.iter().map(|id| id.to_le_bytes()));
        b.put_cells(9, rows.iter().map(|r| [format_code(r.format)]));
        b.put_cells(10, rows.iter().map(|r| [r.region.code()]));
        b.put_cells(11, rows.iter().map(|r| [u8::from(r.incognito)]));
        b.put_cells(12, kinds().map(|(kind, _, _)| [kind]));
        for row in rows {
            b.zone.observe(row.timestamp, row.publisher);
        }
        b.rows += rows.len();
        full
    }

    fn read_batch(
        shard: &ColumnarShard,
        rows: Range<usize>,
        out: &mut Vec<Self>,
    ) -> Result<(), ColumnarError> {
        // Each column's slice of the batch is fetched once; the rows are
        // then read off all thirteen in step.
        let [timestamp, object, object_size, kind_offset, kind_length, user, publisher, tz_offset, user_agent, format, region, incognito, kind] =
            shard.columns(rows.clone())?;
        let keys = u64_cells(timestamp)
            .zip(u64_cells(object))
            .zip(u64_cells(object_size))
            .zip(u64_cells(user));
        let small = cells::<2>(publisher)
            .zip(cells::<4>(tz_offset))
            .zip(cells::<4>(user_agent));
        let coded = code_cells([format, region, incognito, kind])
            .zip(u64_cells(kind_offset).zip(u64_cells(kind_length)));
        out.reserve(rows.len());
        for (row, ((keys, small), (codes, range))) in
            (rows.start as u64..).zip(keys.zip(small).zip(coded))
        {
            let (((timestamp, object), object_size), user) = keys;
            let ((publisher, tz_offset), ua) = small;
            let (format, region, incognito, kind) = decode_codes(row, codes, range)?;
            let ua = u32::from_le_bytes(ua);
            let user_agent = shard
                .dict
                .get(ua as usize)
                .cloned()
                .ok_or_else(|| invalid(row, "user_agent", ua))?;
            out.push(Request {
                timestamp,
                publisher: PublisherId::new(u16::from_le_bytes(publisher)),
                object: ObjectId::new(object),
                format,
                object_size,
                user: UserId::new(user),
                user_agent,
                region,
                tz_offset_secs: i32::from_le_bytes(tz_offset),
                incognito,
                kind,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shard reader.
// ---------------------------------------------------------------------------

/// One opened columnar shard: the file's bytes, read into memory, with
/// their validated metadata and parsed dictionary.
#[derive(Debug)]
pub struct ColumnarShard {
    bytes: Vec<u8>,
    meta: FileMeta,
    dict: Vec<Arc<str>>,
}

impl ColumnarShard {
    /// Reads the shard at `path` and validates it: its structure, through
    /// the same metadata parser as [`read_shard_footer`], and on
    /// checksummed shards every byte.
    ///
    /// # Errors
    ///
    /// [`ColumnarError::Io`] on I/O failure; [`ColumnarError::Corrupt`],
    /// [`ColumnarError::UnsupportedVersion`] or
    /// [`ColumnarError::UnknownSchema`] when the bytes are not a
    /// well-formed shard.
    pub fn open(path: &Path) -> Result<ColumnarShard, ColumnarError> {
        let bytes = std::fs::read(path)?;
        let [header, block, footer] =
            meta_ranges(bytes.len()).map(|r| bytes.get(r).unwrap_or_default());
        let meta = parse_meta(bytes.len(), header, block, footer)?;
        verify_checksums(&bytes, &meta)?;
        let dict = parse_dict(&bytes, meta.dict_off, meta.body_end)?;
        let shard = ColumnarShard { bytes, meta, dict };
        // Every user-agent index must resolve; checking once here keeps the
        // per-row decode path panic- and surprise-free.
        check_agents(shard.col_bytes(UA_COL)?, shard.dict.len())?;
        Ok(shard)
    }

    /// Verifies and opens `bytes`, one [segment](self#segments) written by
    /// [`ColumnBuilder::write_segment_to`] with the same `agents` table.
    /// Every byte is covered by the segment's checksum, and every
    /// user-agent index is checked, as [`ColumnarShard::open`] does a
    /// shard's. Every coded cell (format, region, incognito, kind) is
    /// checked too, with the error [`ColumnarShard::read_rows`] would
    /// report, because [`ColumnBuilder::gather`] copies cells without
    /// decoding them.
    ///
    /// # Errors
    ///
    /// [`ColumnarError::Corrupt`], [`ColumnarError::UnknownSchema`] or
    /// [`ColumnarError::InvalidValue`] when the bytes are not a
    /// well-formed segment over `agents`.
    pub fn from_segment(
        bytes: Vec<u8>,
        agents: &[Arc<str>],
    ) -> Result<ColumnarShard, ColumnarError> {
        const HEAD: usize = 1 + 8 + 4;
        let corrupt = |what| ColumnarError::Corrupt { what };
        let body_end = bytes
            .len()
            .checked_sub(8)
            .filter(|&end| end >= HEAD)
            .ok_or(corrupt("segment truncated"))?;
        let body = bytes.get(..body_end).unwrap_or_default();
        if shard_sum(body) != read_u64(&bytes, body_end)? {
            return Err(corrupt("segment checksum mismatch"));
        }
        let code = read_u8(body, 0)?;
        let schema = Schema::from_code(code).ok_or(ColumnarError::UnknownSchema { code })?;
        let rows = usize::try_from(read_u64(body, 1)?).map_err(|_| OVERFLOW)?;
        let count = read_u32(body, 9)? as usize;
        let dict = (0..count)
            .map(|i| {
                let id = read_u32(body, HEAD + 4 * i)?;
                agents
                    .get(id as usize)
                    .cloned()
                    .ok_or(corrupt("segment agent index out of range"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut col_offsets = [0; MAX_COLS];
        let mut off = HEAD + 4 * count;
        for (slot, width) in col_offsets.iter_mut().zip(schema.widths()) {
            *slot = off;
            off = rows
                .checked_mul(*width)
                .and_then(|len| off.checked_add(len))
                .ok_or(OVERFLOW)?;
        }
        if off != body_end {
            return Err(corrupt("segment length does not match its rows"));
        }
        // No zone map and no per-column sums: the one checksum is checked.
        let meta = FileMeta {
            rows,
            schema,
            zone: ZoneMap::empty(),
            col_offsets,
            dict_off: body_end,
            body_end,
            checksums: ShardChecksums {
                cols: [0; MAX_COLS],
                dict: 0,
                footer: 0,
            },
        };
        let shard = ColumnarShard { bytes, meta, dict };
        check_agents(shard.col_bytes(UA_COL)?, shard.dict.len())?;
        let [.., format, region, incognito, kind] = shard.columns(0..rows)?;
        for (row, codes) in (0u64..).zip(code_cells([format, region, incognito, kind])) {
            decode_codes(row, codes, (0, 0))?;
        }
        Ok(shard)
    }

    /// As [`ColumnarShard::open`], additionally requiring the shard to
    /// store `expected` rows.
    ///
    /// # Errors
    ///
    /// As [`ColumnarShard::open`], plus [`ColumnarError::SchemaMismatch`].
    pub fn open_expecting(path: &Path, expected: Schema) -> Result<ColumnarShard, ColumnarError> {
        let shard = Self::open(path)?;
        if shard.meta.schema != expected {
            return Err(ColumnarError::SchemaMismatch {
                expected,
                found: shard.meta.schema,
            });
        }
        Ok(shard)
    }

    /// Number of rows stored.
    pub fn rows(&self) -> usize {
        self.meta.rows
    }

    /// The per-shard user-agent dictionary, in index order.
    pub fn user_agent_dict(&self) -> &[Arc<str>] {
        &self.dict
    }

    /// Raw bytes of column `col` (validated at open).
    fn col_bytes(&self, col: usize) -> Result<&[u8], ColumnarError> {
        self.col_rows(col, 0..self.meta.rows)
    }

    /// Raw bytes of column `col` for rows `rows`, which lie within the
    /// shard.
    fn col_rows(&self, col: usize, rows: Range<usize>) -> Result<&[u8], ColumnarError> {
        let width = self
            .meta
            .schema
            .widths()
            .get(col)
            .copied()
            .ok_or(ColumnarError::Corrupt {
                what: "column index out of range",
            })?;
        let off = self.meta.col_offsets.get(col).copied().unwrap_or(0);
        self.bytes
            .get(off + rows.start * width..off + rows.end * width)
            .ok_or(ColumnarError::Corrupt {
                what: "column bytes out of range",
            })
    }

    /// Every column's bytes for rows `rows`, which lie within the shard,
    /// in [`Schema::Request`] column order.
    fn columns(&self, rows: Range<usize>) -> Result<[&[u8]; REQUEST_WIDTHS.len()], ColumnarError> {
        let mut cols = [&[][..]; REQUEST_WIDTHS.len()];
        for (c, col) in cols.iter_mut().enumerate() {
            *col = self.col_rows(c, rows.clone())?;
        }
        Ok(cols)
    }

    /// The `(timestamp, user, object)` key of every row, in row order:
    /// the key the trace is ordered by, read from three columns without
    /// decoding the rows.
    ///
    /// # Errors
    ///
    /// [`ColumnarError::Corrupt`] when the shard's columns are out of
    /// range.
    pub fn request_keys(
        &self,
    ) -> Result<impl Iterator<Item = (u64, u64, u64)> + Clone + '_, ColumnarError> {
        let timestamp = u64_cells(self.col_bytes(0)?);
        let user = u64_cells(self.col_bytes(5)?);
        let object = u64_cells(self.col_bytes(1)?);
        Ok(timestamp
            .zip(user)
            .zip(object)
            .map(|((timestamp, user), object)| (timestamp, user, object)))
    }

    /// Materializes rows `range` (clamped to the shard) into `out`,
    /// appending. `out` is not cleared.
    ///
    /// # Errors
    ///
    /// [`ColumnarError::SchemaMismatch`] when `T` is not the stored row
    /// type; [`ColumnarError::InvalidValue`] on undecodable fields.
    pub fn read_rows<T: ColumnarRow>(
        &self,
        range: Range<usize>,
        out: &mut Vec<T>,
    ) -> Result<(), ColumnarError> {
        if T::SCHEMA != self.meta.schema {
            return Err(ColumnarError::SchemaMismatch {
                expected: T::SCHEMA,
                found: self.meta.schema,
            });
        }
        let end = range.end.min(self.meta.rows);
        let start = range.start.min(end);
        T::read_batch(self, start..end, out)
    }
}

/// Verifies the body of a shard against the checksums [`parse_meta`]
/// read, and its padding bytes. The footer and the checksum block were
/// verified by [`parse_meta`], so together every byte is covered.
fn verify_checksums(data: &[u8], meta: &FileMeta) -> Result<(), ColumnarError> {
    let sums = &meta.checksums;
    // Padding (between header/columns and before the dictionary) is zero
    // by construction; anything else is corruption the checksums cannot
    // see, so it is rejected here.
    let widths = meta.schema.widths();
    let mut prev_end = HEADER_LEN;
    for (i, &width) in widths.iter().enumerate() {
        let off = meta.col_offsets.get(i).copied().unwrap_or(0);
        if data
            .get(prev_end..off)
            .is_some_and(|gap| gap.iter().any(|&b| b != 0))
        {
            return Err(ColumnarError::Corrupt {
                what: "column padding is non-zero",
            });
        }
        prev_end = off + meta.rows * width;
    }
    if data
        .get(prev_end..meta.dict_off)
        .is_some_and(|gap| gap.iter().any(|&b| b != 0))
    {
        return Err(ColumnarError::Corrupt {
            what: "padding before the dictionary is non-zero",
        });
    }

    for (i, &width) in widths.iter().enumerate() {
        let off = meta.col_offsets.get(i).copied().unwrap_or(0);
        let col = data
            .get(off..off + meta.rows * width)
            .ok_or(ColumnarError::Corrupt {
                what: "column bytes out of range",
            })?;
        if sums.cols.get(i) != Some(&shard_sum(col)) {
            return Err(ColumnarError::Corrupt {
                what: "column checksum mismatch",
            });
        }
    }
    let dict_bytes = data
        .get(meta.dict_off..meta.body_end)
        .ok_or(ColumnarError::Corrupt {
            what: "dictionary bytes out of range",
        })?;
    if shard_sum(dict_bytes) != sums.dict {
        return Err(ColumnarError::Corrupt {
            what: "dictionary checksum mismatch",
        });
    }
    Ok(())
}

/// The XXH64 checksum a shard carries over `bytes`.
fn shard_sum(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.update(bytes);
    h.digest()
}

fn parse_dict(data: &[u8], dict_off: usize, end: usize) -> Result<Vec<Arc<str>>, ColumnarError> {
    let mut at = dict_off;
    if at + 4 > end {
        return Err(ColumnarError::Corrupt {
            what: "dictionary header truncated",
        });
    }
    let count = read_u32(data, at)? as usize;
    at += 4;
    let mut dict = Vec::new();
    for _ in 0..count {
        if at + 4 > end {
            return Err(ColumnarError::Corrupt {
                what: "dictionary entry header truncated",
            });
        }
        let len = read_u32(data, at)? as usize;
        at += 4;
        let bytes = data
            .get(
                at..at.checked_add(len).ok_or(ColumnarError::Corrupt {
                    what: "dictionary entry length overflows",
                })?,
            )
            .ok_or(ColumnarError::Corrupt {
                what: "dictionary entry truncated",
            })?;
        if at + len > end {
            return Err(ColumnarError::Corrupt {
                what: "dictionary entry extends past the footer",
            });
        }
        let s = std::str::from_utf8(bytes).map_err(|_| ColumnarError::Corrupt {
            what: "dictionary entry is not valid UTF-8",
        })?;
        dict.push(Arc::from(s));
        at += len;
    }
    if at != end {
        return Err(ColumnarError::Corrupt {
            what: "trailing bytes between dictionary and footer",
        });
    }
    Ok(dict)
}

fn read_u8(data: &[u8], at: usize) -> Result<u8, ColumnarError> {
    data.get(at).copied().ok_or(ColumnarError::Corrupt {
        what: "read past end of shard",
    })
}

fn read_u32(data: &[u8], at: usize) -> Result<u32, ColumnarError> {
    let b = data
        .get(at..at.checked_add(4).ok_or(OVERFLOW)?)
        .ok_or(ColumnarError::Corrupt {
            what: "read past end of shard",
        })?;
    let mut a = [0u8; 4];
    a.copy_from_slice(b);
    Ok(u32::from_le_bytes(a))
}

fn read_u64(data: &[u8], at: usize) -> Result<u64, ColumnarError> {
    let b = data
        .get(at..at.checked_add(8).ok_or(OVERFLOW)?)
        .ok_or(ColumnarError::Corrupt {
            what: "read past end of shard",
        })?;
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    Ok(u64::from_le_bytes(a))
}

const OVERFLOW: ColumnarError = ColumnarError::Corrupt {
    what: "offset arithmetic overflows",
};

// ---------------------------------------------------------------------------
// Shard metadata: the one parser of header, checksum block and footer.
// ---------------------------------------------------------------------------

/// Footer-only metadata of one shard file.
///
/// [`read_shard_footer`] recovers it in `O(1)` — three fixed-size
/// positioned reads — where [`ColumnarShard::open`] reads the whole file
/// and validates every row's dictionary index. A manifest check uses it
/// to compare every shard's row count cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFooter {
    /// Rows stored in the shard.
    pub rows: u64,
    /// Which row type the shard stores.
    pub schema: Schema,
    /// The shard's zone map.
    pub zone: ZoneMap,
    /// Content checksums.
    pub checksums: ShardChecksums,
}

/// The XXH64 checksums a shard carries (see the module docs for exactly
/// which byte ranges each covers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardChecksums {
    /// Per-column payload checksums; unused trailing slots are zero.
    pub cols: [u64; MAX_COLS],
    /// Checksum of the dictionary region.
    pub dict: u64,
    /// Checksum of the 176-byte footer.
    pub footer: u64,
}

/// Header, checksum-block and footer metadata of a shard, as [`parse_meta`]
/// validates it for both readers. Checking the body (columns, padding,
/// dictionary) against it is left to the reader.
#[derive(Debug, Clone, Copy)]
struct FileMeta {
    rows: usize,
    schema: Schema,
    zone: ZoneMap,
    col_offsets: [usize; MAX_COLS],
    dict_off: usize,
    /// Where the body (columns + dictionary) ends: the checksum block.
    body_end: usize,
    checksums: ShardChecksums,
}

/// The byte ranges of a `len`-byte shard that [`parse_meta`] is fed: the
/// header, the checksum block's place and the footer, clamped to the file.
/// On a file too short to hold them they overlap or come up short, and
/// [`parse_meta`] rejects the length before reading any of them.
fn meta_ranges(len: usize) -> [Range<usize>; 3] {
    let footer_start = len.saturating_sub(FOOTER_LEN);
    [
        0..HEADER_LEN.min(len),
        footer_start.saturating_sub(CHECKSUM_BLOCK_LEN)..footer_start,
        footer_start..len,
    ]
}

/// Parses and validates the metadata of a `len`-byte shard from its
/// [`meta_ranges`]: the 16-byte header, the 128-byte checksum block and
/// the 176-byte footer, whose checksum is
/// verified here. The one parser of the format's metadata; both
/// [`ColumnarShard::open`] and the positioned readers go through it, so a
/// bad shard gets the same error from either.
fn parse_meta(
    len: usize,
    header: &[u8],
    block: &[u8],
    footer: &[u8],
) -> Result<FileMeta, ColumnarError> {
    if len < HEADER_LEN + FOOTER_LEN {
        return Err(ColumnarError::Corrupt {
            what: "file shorter than header + footer",
        });
    }
    if header.get(..8) != Some(&MAGIC[..]) {
        return Err(ColumnarError::Corrupt {
            what: "bad file magic",
        });
    }
    let header_schema = read_u8(header, 8)?;
    let header_version = read_u8(header, 9)?;

    let footer_start = len - FOOTER_LEN;
    if footer.get(FOOTER_LEN - 8..) != Some(&FOOTER_MAGIC[..]) {
        return Err(ColumnarError::Corrupt {
            what: "bad footer magic",
        });
    }
    let rows_raw = read_u64(footer, 0)?;
    let mut at = 8;
    let mut col_offsets_raw = [0u64; MAX_COLS];
    for slot in &mut col_offsets_raw {
        *slot = read_u64(footer, at)?;
        at += 8;
    }
    let dict_off_raw = read_u64(footer, at)?;
    at += 8;
    let zone = ZoneMap {
        min_timestamp: read_u64(footer, at)?,
        max_timestamp: read_u64(footer, at + 8)?,
        publisher_mask: read_u64(footer, at + 16)?,
        status_mask: read_u64(footer, at + 24)?,
    };
    at += 32;
    let footer_schema = read_u8(footer, at)?;
    let footer_version = read_u8(footer, at + 1)?;

    if header_version != VERSION {
        return Err(ColumnarError::UnsupportedVersion {
            version: header_version,
        });
    }
    if footer_version != header_version {
        return Err(ColumnarError::Corrupt {
            what: "footer version disagrees with header",
        });
    }
    let schema = Schema::from_code(header_schema).ok_or(ColumnarError::UnknownSchema {
        code: header_schema,
    })?;
    if footer_schema != header_schema {
        return Err(ColumnarError::Corrupt {
            what: "footer schema disagrees with header",
        });
    }
    // A shard ends with [checksum block][footer]; the body (columns +
    // dictionary) stops where the block starts. Padding bytes are zero by
    // construction, and verified so that every byte of the file is covered
    // by some check.
    if header
        .get(10..HEADER_LEN)
        .is_some_and(|pad| pad.iter().any(|&b| b != 0))
    {
        return Err(ColumnarError::Corrupt {
            what: "header padding is non-zero",
        });
    }
    let body_end = footer_start
        .checked_sub(CHECKSUM_BLOCK_LEN)
        .filter(|&e| e >= HEADER_LEN)
        .ok_or(ColumnarError::Corrupt {
            what: "file shorter than header + checksum block + footer",
        })?;
    let mut cols = [0u64; MAX_COLS];
    let mut block_at = 0;
    for slot in &mut cols {
        *slot = read_u64(block, block_at)?;
        block_at += 8;
    }
    let dict_sum = read_u64(block, block_at)?;
    let footer_sum = read_u64(block, block_at + 8)?;
    if shard_sum(footer) != footer_sum {
        return Err(ColumnarError::Corrupt {
            what: "footer checksum mismatch",
        });
    }
    if cols
        .get(schema.widths().len()..)
        .is_some_and(|rest| rest.iter().any(|&s| s != 0))
    {
        return Err(ColumnarError::Corrupt {
            what: "unused checksum slots are non-zero",
        });
    }
    let checksums = ShardChecksums {
        cols,
        dict: dict_sum,
        footer: footer_sum,
    };

    let rows = usize::try_from(rows_raw).map_err(|_| ColumnarError::Corrupt {
        what: "row count exceeds usize",
    })?;
    let dict_off = usize::try_from(dict_off_raw).map_err(|_| ColumnarError::Corrupt {
        what: "dictionary offset exceeds usize",
    })?;
    if dict_off < HEADER_LEN || dict_off > body_end {
        return Err(ColumnarError::Corrupt {
            what: "dictionary offset out of bounds",
        });
    }

    let widths = schema.widths();
    let mut col_offsets = [0usize; MAX_COLS];
    let mut prev_end = HEADER_LEN;
    for (i, &width) in widths.iter().enumerate() {
        let off_raw = col_offsets_raw.get(i).copied().unwrap_or(0);
        let off = usize::try_from(off_raw).map_err(|_| ColumnarError::Corrupt {
            what: "column offset exceeds usize",
        })?;
        if off % 8 != 0 || off < prev_end {
            return Err(ColumnarError::Corrupt {
                what: "column offset misordered or misaligned",
            });
        }
        let col_len = rows.checked_mul(width).ok_or(ColumnarError::Corrupt {
            what: "column length overflows",
        })?;
        let end = off.checked_add(col_len).ok_or(ColumnarError::Corrupt {
            what: "column extent overflows",
        })?;
        if end > dict_off {
            return Err(ColumnarError::Corrupt {
                what: "column extends past the dictionary",
            });
        }
        if let Some(slot) = col_offsets.get_mut(i) {
            *slot = off;
        }
        prev_end = end;
    }
    // Trailing (unused) footer slots must be zero.
    if col_offsets_raw
        .get(widths.len()..)
        .is_some_and(|rest| rest.iter().any(|&o| o != 0))
    {
        return Err(ColumnarError::Corrupt {
            what: "unused column-offset slots are non-zero",
        });
    }

    Ok(FileMeta {
        rows,
        schema,
        zone,
        col_offsets,
        dict_off,
        body_end,
        checksums,
    })
}

/// [`parse_meta`] of the shard file behind `file`, fed by one positioned
/// read per [`meta_ranges`] entry; the body is never read.
fn read_file_meta(file: &mut File) -> Result<FileMeta, ColumnarError> {
    let len = usize::try_from(file.metadata()?.len()).map_err(|_| ColumnarError::Corrupt {
        what: "shard exceeds usize",
    })?;
    let mut read = |range: Range<usize>| -> Result<Vec<u8>, ColumnarError> {
        let mut buf = vec![0u8; range.len()];
        read_at(file, range.start, &mut buf)?;
        Ok(buf)
    };
    let [header, block, footer] = meta_ranges(len);
    parse_meta(len, &read(header)?, &read(block)?, &read(footer)?)
}

/// Fills `buf` from `file` at byte offset `off`.
fn read_at(file: &mut File, off: usize, buf: &mut [u8]) -> Result<(), ColumnarError> {
    use std::io::{Seek, SeekFrom};
    file.seek(SeekFrom::Start(off as u64))?;
    file.read_exact(buf)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Footer reader.
// ---------------------------------------------------------------------------

/// Reads only the header, checksum block and footer of the shard at `path`.
///
/// # Errors
///
/// [`ColumnarError::Io`] on I/O failure; [`ColumnarError::Corrupt`],
/// [`ColumnarError::UnsupportedVersion`] or [`ColumnarError::UnknownSchema`]
/// when the header, checksum block and footer are not structurally valid.
pub fn read_shard_footer(path: &Path) -> Result<ShardFooter, ColumnarError> {
    let mut file = File::open(path)?;
    let meta = read_file_meta(&mut file)?;
    Ok(ShardFooter {
        rows: meta.rows as u64,
        schema: meta.schema,
        zone: meta.zone,
        checksums: meta.checksums,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("oat-columnar-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Twelve time-ascending requests (30 s apart) over 5 users, 3
    /// publishers, 4 user agents and 4 request kinds.
    fn sample_requests() -> Vec<Request> {
        let kinds = [
            RequestKind::Full,
            RequestKind::Range {
                offset: 4_000,
                length: 2_000,
            },
            RequestKind::Conditional,
            RequestKind::Beacon,
        ];
        (0..12u64)
            .map(|i| {
                let mut r = Request::example();
                r.timestamp += i * 30;
                r.user = UserId::new(i % 5);
                r.publisher = PublisherId::new((i % 3) as u16);
                r.user_agent = format!("agent-{}", (i * 7) % 4).into();
                r.incognito = i % 2 == 1;
                r.kind = kinds[i as usize % kinds.len()];
                r
            })
            .collect()
    }

    /// A shard file of `sample_requests`.
    fn sample_shard(path: &Path) -> Vec<Request> {
        let requests = sample_requests();
        let mut b = ColumnBuilder::<Request>::new();
        b.push_batch(&requests).unwrap();
        b.write_file(path).unwrap();
        requests
    }

    /// Recomputes column `col`'s checksum in the shard `bytes`, so that a
    /// cell patched into it passes the checksums and reaches the decoder.
    fn reseal_column(bytes: &mut [u8], offsets: &[usize; MAX_COLS], col: usize) {
        let width = Schema::Request.widths()[col];
        let rows = 12;
        let sum = shard_sum(&bytes[offsets[col]..offsets[col] + rows * width]);
        let slot = bytes.len() - FOOTER_LEN - CHECKSUM_BLOCK_LEN + col * 8;
        bytes[slot..slot + 8].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn format_codes_are_stable_and_total() {
        for f in FileFormat::ALL {
            assert_eq!(format_from_code(format_code(f)), Some(f));
        }
        assert_eq!(format_from_code(255), None);
        // Stability anchor: Flv is code 0, Bin is the last code.
        assert_eq!(format_code(FileFormat::Flv), 0);
        assert_eq!(
            format_code(FileFormat::Bin),
            FileFormat::ALL.len() as u8 - 1
        );
    }

    #[test]
    fn request_roundtrip_all_kinds() {
        let dir = tmpdir("req-rt");
        let path = dir.join("s.col");
        let kinds = [
            RequestKind::Full,
            RequestKind::Range {
                offset: 4_000_000,
                length: 2_000_000,
            },
            RequestKind::Conditional,
            RequestKind::InvalidRange,
            RequestKind::Hotlink,
            RequestKind::Beacon,
        ];
        let requests: Vec<Request> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let mut r = Request::example();
                r.timestamp += i as u64;
                r.incognito = i % 2 == 0;
                r.kind = kind;
                r
            })
            .collect();
        let mut b = ColumnBuilder::<Request>::new();
        b.push_batch(&requests).unwrap();
        b.write_file(&path).unwrap();

        let shard = ColumnarShard::open_expecting(&path, Schema::Request).unwrap();
        let mut out: Vec<Request> = Vec::new();
        shard.read_rows(0..shard.rows(), &mut out).unwrap();
        assert_eq!(out, requests);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zone_map_tracks_rows() {
        let mut b = ColumnBuilder::<Request>::new();
        for r in sample_requests() {
            b.push(&r).unwrap();
        }
        let zone = &b.zone;
        let base = Request::example().timestamp;
        assert_eq!(zone.min_timestamp, base);
        assert_eq!(zone.max_timestamp, base + 11 * 30);
        assert_eq!(zone.publisher_mask, 0b111);
        // Requests carry no status: every class stays possible.
        assert_eq!(zone.status_mask, u64::MAX);
    }

    #[test]
    fn empty_shard_roundtrips() {
        let dir = tmpdir("empty");
        let path = dir.join("s.col");
        let b = ColumnBuilder::<Request>::new();
        b.write_file(&path).unwrap();
        let shard = ColumnarShard::open(&path).unwrap();
        assert_eq!(shard.rows(), 0);
        assert_eq!(shard.meta.zone, ZoneMap::empty());
        let mut out: Vec<Request> = Vec::new();
        shard.read_rows(0..10, &mut out).unwrap();
        assert!(out.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_and_corrupt_shards_are_rejected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("s.col");
        sample_shard(&path);
        let full = std::fs::read(&path).unwrap();

        // Truncations at every interesting boundary.
        for cut in [0, 4, HEADER_LEN, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = ColumnarShard::open(&path).unwrap_err();
            assert!(err.is_data_error(), "cut at {cut}: {err}");
        }

        // Bad leading magic.
        let mut bad = full.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            ColumnarShard::open(&path),
            Err(ColumnarError::Corrupt { .. })
        ));

        // Unsupported version.
        let mut bad = full.clone();
        bad[9] = 99;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            ColumnarShard::open(&path),
            Err(ColumnarError::UnsupportedVersion { version: 99 })
        ));

        // Unknown schema code, including 0: the retired record schema.
        let footer_schema_at = full.len() - FOOTER_LEN + 8 + 8 * MAX_COLS + 8 + 32;
        for code in [7, 0] {
            let mut bad = full.clone();
            bad[8] = code;
            bad[footer_schema_at] = code;
            std::fs::write(&path, &bad).unwrap();
            assert!(matches!(
                ColumnarShard::open(&path),
                Err(ColumnarError::UnknownSchema { code: c }) if c == code
            ));
            assert!(matches!(
                read_shard_footer(&path),
                Err(ColumnarError::UnknownSchema { code: c }) if c == code
            ));
        }

        // Kind column corrupted: the checksums catch it at open, before
        // any row is decoded.
        std::fs::write(&path, &full).unwrap();
        let offsets = ColumnarShard::open(&path).unwrap().meta.col_offsets;
        let mut bad = full.clone();
        bad[offsets[12]] = 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            ColumnarShard::open(&path),
            Err(ColumnarError::Corrupt {
                what: "column checksum mismatch"
            })
        ));

        // With the column's checksum resealed over a bad coded cell, the
        // validator reports the field, the shard row and the value: at open
        // for a user-agent index, when the row is materialized otherwise.
        let row = 3usize;
        // (column, width, bad value, field)
        let cases: [(usize, usize, u32, &str); 5] = [
            (9, 1, 200, "format"),
            (10, 1, 200, "region"),
            (11, 1, 2, "incognito"),
            (12, 1, 6, "kind"),
            (8, 4, 4, "user_agent"),
        ];
        for (col, width, value, field) in cases {
            let mut bad = full.clone();
            let at = offsets[col] + row * width;
            bad[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            reseal_column(&mut bad, &offsets, col);
            std::fs::write(&path, &bad).unwrap();
            match full_error(&path) {
                ColumnarError::InvalidValue {
                    row: r,
                    field: f,
                    value: v,
                } => assert_eq!((r, f, v), (row as u64, field, u64::from(value))),
                other => panic!("{field}: expected InvalidValue, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn retired_versions_are_refused_by_both_readers() {
        // A spool is regenerated, never migrated: a shard whose version
        // bytes (header and footer alike) name v1 or v2 is refused before
        // any of its bytes are trusted, by the whole-shard reader and the
        // footer reader.
        let dir = tmpdir("retired");
        let path = dir.join("s.col");
        sample_shard(&path);
        let full = std::fs::read(&path).unwrap();
        let footer_version_at = full.len() - FOOTER_LEN + 8 + 8 * MAX_COLS + 8 + 32 + 1;
        assert_eq!((full[9], full[footer_version_at]), (VERSION, VERSION));
        for version in [1, 2] {
            for footer_too in [true, false] {
                let mut bad = full.clone();
                bad[9] = version;
                if footer_too {
                    bad[footer_version_at] = version;
                }
                std::fs::write(&path, &bad).unwrap();
                let refused = |r: Result<(), ColumnarError>| matches!(r, Err(ColumnarError::UnsupportedVersion { version: v }) if v == version);
                assert!(refused(ColumnarShard::open(&path).map(drop)), "v{version}");
                assert!(refused(read_shard_footer(&path).map(drop)), "v{version}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Checks that the checksum block of the shard at `path` holds `sum`
    /// of each column, of the dictionary and of the footer.
    fn assert_checksums_are(path: &Path, sum: fn(&[u8]) -> u64) {
        let bytes = std::fs::read(path).unwrap();
        let checksums = read_shard_footer(path).unwrap().checksums;
        let shard = ColumnarShard::open(path).unwrap();
        let widths = Schema::Request.widths();
        for (i, &width) in widths.iter().enumerate() {
            let off = shard.meta.col_offsets[i];
            assert_eq!(
                sum(&bytes[off..off + shard.rows() * width]),
                checksums.cols[i]
            );
        }
        // The dictionary follows the last column.
        let last = widths.len() - 1;
        let dict_off = shard.meta.col_offsets[last] + shard.rows() * widths[last];
        let body_end = bytes.len() - FOOTER_LEN - CHECKSUM_BLOCK_LEN;
        assert_eq!(sum(&bytes[dict_off..body_end]), checksums.dict);
        assert_eq!(sum(&bytes[bytes.len() - FOOTER_LEN..]), checksums.footer);
    }

    /// Flips every byte of a shard in turn: `open` must fail with a data
    /// error each time — no flipped shard may be decoded as valid rows.
    fn assert_any_flip_is_rejected(tag: &str) {
        let dir = tmpdir(tag);
        let path = dir.join("s.col");
        sample_shard(&path);
        let full = std::fs::read(&path).unwrap();

        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0xFF;
            std::fs::write(&path, &bad).unwrap();
            match ColumnarShard::open(&path) {
                Err(e) => assert!(e.is_data_error(), "flip at byte {i}: {e}"),
                Ok(_) => panic!("flip at byte {i} was not detected"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn current_shards_carry_checksums() {
        let dir = tmpdir("v3-footer");
        let path = dir.join("s.col");
        sample_shard(&path);

        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[9], 3);
        assert_checksums_are(&path, |bytes| {
            let mut h = Xxh64::new();
            h.update(bytes);
            h.digest()
        });
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v3_flip_any_byte_is_rejected() {
        // The acceptance property for checksum coverage.
        assert_eq!(VERSION, 3);
        assert_any_flip_is_rejected("flip-any-v3");
    }

    /// The sorted, deduplicated agent table of `requests`.
    fn agent_table(requests: &[Request]) -> Vec<Arc<str>> {
        let mut agents: Vec<Arc<str>> = requests.iter().map(|r| r.user_agent.clone()).collect();
        agents.sort();
        agents.dedup();
        agents
    }

    fn sample_segment() -> (Vec<u8>, Vec<Arc<str>>) {
        let requests = sample_requests();
        let agents = agent_table(&requests);
        let mut b = ColumnBuilder::<Request>::new();
        b.push_batch(&requests).unwrap();
        let mut bytes = Vec::new();
        b.write_segment_to(&mut bytes, &agents).unwrap();
        (bytes, agents)
    }

    #[test]
    fn segment_round_trips_and_shares_the_agent_table() {
        let (bytes, agents) = sample_segment();
        // 13-byte header, 4 agent ids, 12 rows of 62 bytes, one checksum.
        assert_eq!(bytes.len(), 13 + 4 * 4 + 12 * 62 + 8);
        let shard = ColumnarShard::from_segment(bytes, &agents).unwrap();
        let mut rows: Vec<Request> = Vec::new();
        shard.read_rows(0..shard.rows(), &mut rows).unwrap();
        assert_eq!(rows, sample_requests());
        for row in &rows {
            assert!(agents.iter().any(|a| Arc::ptr_eq(a, &row.user_agent)));
        }

        let mut empty = Vec::new();
        ColumnBuilder::<Request>::new()
            .write_segment_to(&mut empty, &agents)
            .unwrap();
        assert_eq!(empty.len(), 13 + 8);
        assert_eq!(ColumnarShard::from_segment(empty, &[]).unwrap().rows(), 0);
    }

    #[test]
    fn segment_flip_any_byte_is_rejected() {
        let (bytes, agents) = sample_segment();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            match ColumnarShard::from_segment(bad, &agents) {
                Err(e) => assert!(e.is_data_error(), "flip at byte {i}: {e}"),
                Ok(_) => panic!("flip at byte {i} was not detected"),
            }
        }
        for len in 0..bytes.len() {
            assert!(ColumnarShard::from_segment(bytes[..len].to_vec(), &agents).is_err());
        }
    }

    #[test]
    fn segment_agents_must_be_in_the_table() {
        let (bytes, agents) = sample_segment();
        let err = ColumnarShard::from_segment(bytes, &agents[..2]).unwrap_err();
        assert!(matches!(err, ColumnarError::Corrupt { .. }), "{err}");

        let mut b = ColumnBuilder::<Request>::new();
        b.push_batch(&sample_requests()).unwrap();
        let err = b
            .write_segment_to(&mut Vec::new(), &agents[1..])
            .unwrap_err();
        assert!(
            matches!(
                err,
                ColumnarError::InvalidValue {
                    field: "user_agent",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn dictionary_deduplicates_user_agents() {
        let dir = tmpdir("dict");
        let path = dir.join("s.col");
        sample_shard(&path);
        // 12 rows but only 4 distinct agents.
        let shard = ColumnarShard::open(&path).unwrap();
        assert_eq!(shard.user_agent_dict().len(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decoded_rows_share_their_dictionary_entry() {
        let dir = tmpdir("dict-share");
        let path = dir.join("s.col");
        sample_shard(&path);
        let shard = ColumnarShard::open(&path).unwrap();
        let mut rows: Vec<Request> = Vec::new();
        shard.read_rows(0..shard.rows(), &mut rows).unwrap();
        for row in &rows {
            let entry = shard
                .user_agent_dict()
                .iter()
                .find(|entry| **entry == row.user_agent)
                .unwrap();
            assert!(Arc::ptr_eq(entry, &row.user_agent));
        }
        assert!(Arc::ptr_eq(&rows[0].user_agent, &rows[4].user_agent));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn builder_interns_equal_agents_once_in_first_seen_order() {
        let requests = sample_requests();
        // Rows 0 and 4 carry equal agents in separate allocations.
        assert_eq!(requests[0].user_agent, requests[4].user_agent);
        assert!(!Arc::ptr_eq(
            &requests[0].user_agent,
            &requests[4].user_agent
        ));
        let mut b = ColumnBuilder::<Request>::new();
        b.push_batch(&requests).unwrap();
        let dict = &b.dict;
        let values: Vec<&str> = dict.iter().map(|ua| &**ua).collect();
        assert_eq!(values, ["agent-0", "agent-3", "agent-2", "agent-1"]);
        // Each entry is the first row's allocation, not a copy of it.
        for (entry, row) in dict.iter().zip(&requests) {
            assert!(Arc::ptr_eq(entry, &row.user_agent));
        }
    }

    #[test]
    fn interning_by_allocation_survives_a_reused_address() {
        // Equal agents through distinct `Arc`s, and between pushes an
        // `Arc` dropped and a different agent of the same length
        // allocated, which the allocator may place at the freed address.
        let row = |agent: &Arc<str>| Request {
            user_agent: Arc::clone(agent),
            ..Request::example()
        };
        let names = ["agent-a", "agent-b", "agent-c", "agent-d"];
        let mut fed = ColumnBuilder::<Request>::new();
        let mut pushed = Vec::new();
        for round in 0..8 {
            for (i, name) in names.iter().enumerate() {
                let agent: Arc<str> = Arc::from(*name);
                fed.push(&row(&agent)).unwrap();
                pushed.push(*name);
                if (round + i) % 2 == 0 {
                    // Only the builder may still hold this allocation.
                    drop(agent);
                    let other: Arc<str> = Arc::from(names[(i + 1) % names.len()]);
                    fed.push(&row(&other)).unwrap();
                    pushed.push(names[(i + 1) % names.len()]);
                }
            }
        }
        let shared: Vec<Arc<str>> = names.iter().map(|&name| Arc::from(name)).collect();
        let mut single = ColumnBuilder::<Request>::new();
        for name in &pushed {
            let agent = shared.iter().find(|a| &***a == *name).unwrap();
            single.push(&row(agent)).unwrap();
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        fed.write_to(&mut a).unwrap();
        single.write_to(&mut b).unwrap();
        assert!(a == b, "an agent was interned under another's address");
    }

    #[test]
    fn builder_clear_resets_everything() {
        let mut b = ColumnBuilder::<Request>::new();
        b.push_batch(&sample_requests()).unwrap();
        assert!(b.rows() > 0);
        b.clear();
        assert_eq!(b.rows(), 0);
        assert_eq!(b.zone, ZoneMap::empty());
        // A cleared builder encodes the same bytes as a fresh one.
        let (mut cleared, mut fresh) = (Vec::new(), Vec::new());
        b.write_to(&mut cleared).unwrap();
        ColumnBuilder::<Request>::new()
            .write_to(&mut fresh)
            .unwrap();
        assert_eq!(cleared, fresh);
    }

    #[test]
    fn shard_footer_matches_full_open() {
        let dir = tmpdir("footer");
        let path = dir.join("s.col");
        sample_shard(&path);

        let footer = read_shard_footer(&path).unwrap();
        let shard = ColumnarShard::open(&path).unwrap();
        assert_eq!(footer.rows, shard.rows() as u64);
        assert_eq!(footer.schema, Schema::Request);
        assert_eq!(footer.zone, shard.meta.zone);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_footer_rejects_truncation() {
        let dir = tmpdir("footer-bad");
        let path = dir.join("s.col");
        sample_shard(&path);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            read_shard_footer(&path),
            Err(ColumnarError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn footer_reader_and_full_open_fail_alike() {
        // Every truncation of a shard, and every byte flip in its header,
        // checksum block and footer: whenever the O(1) footer reader
        // rejects the shard, the whole-shard reader rejects it with the
        // same error.
        let dir = tmpdir("parity");
        let path = dir.join("s.col");
        let mut compared = 0;
        sample_shard(&path);
        let full = std::fs::read(&path).unwrap();
        let block_at = full.len() - FOOTER_LEN - CHECKSUM_BLOCK_LEN;
        let cuts = (0..full.len()).map(|cut| (format!("cut at {cut}"), full[..cut].to_vec()));
        let flips = (0..HEADER_LEN).chain(block_at..full.len()).map(|i| {
            let mut bad = full.clone();
            bad[i] ^= 0xFF;
            (format!("flip at {i}"), bad)
        });
        for (case, bad) in cuts.chain(flips) {
            std::fs::write(&path, &bad).unwrap();
            if let Err(footer_err) = read_shard_footer(&path) {
                let open_err =
                    ColumnarShard::open(&path).expect_err(&format!("{case}: open accepted it"));
                assert_eq!(open_err.to_string(), footer_err.to_string(), "{case}");
                compared += 1;
            }
        }
        assert!(compared > 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// The error the whole-shard reader reports for the shard at `path`,
    /// from open or from decoding its rows.
    fn full_error(path: &Path) -> ColumnarError {
        match ColumnarShard::open(path) {
            Err(e) => e,
            Ok(shard) => {
                let mut out: Vec<Request> = Vec::new();
                shard
                    .read_rows(0..shard.rows(), &mut out)
                    .expect_err("corrupt cell must fail decode")
            }
        }
    }
}
