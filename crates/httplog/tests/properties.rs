//! Property-based tests: the text codec round-trips arbitrary records, the
//! columnar request spool round-trips arbitrary requests, the batch
//! decoder agrees with a per-row reference decoder on every sub-range and
//! every bad cell, and the strict spool scan refuses a damaged shard
//! without panicking.

use oat_httplog::codec::columnar::{CHECKSUM_BLOCK_LEN, FOOTER_LEN};
use oat_httplog::codec::text;
use oat_httplog::durable::Xxh64;
use oat_httplog::{
    CacheStatus, ColumnBuilder, ColumnarDirReader, ColumnarDirWriter, ColumnarError, ColumnarShard,
    DegradedServe, FileFormat, HttpStatus, LogRecord, ObjectId, PopId, PublisherId, Region,
    Request, RequestKind, UserId,
};
use proptest::prelude::*;

/// Fresh per-case spool directory (unique across parallel test threads).
fn temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "oat-httplog-props-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Spools `requests` into a columnar directory and reopens it for reading.
fn spool(
    requests: &[Request],
    rows_per_shard: usize,
    tag: &str,
) -> (std::path::PathBuf, ColumnarDirReader<Request>) {
    let dir = temp_dir(tag);
    let mut writer =
        ColumnarDirWriter::<Request>::new(&dir, "req", rows_per_shard).expect("create writer");
    writer.push_batch(requests).expect("spool requests");
    writer.finish().expect("finish spool");
    let reader = ColumnarDirReader::open(&dir, "req").expect("open spool");
    (dir, reader)
}

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    (
        (
            any::<u64>(),
            any::<u16>(),
            any::<u64>(),
            0usize..FileFormat::ALL.len(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            // UA strings including escapes and unicode.
            "[ -~\\t\\n\\\\éλ]{0,120}",
            any::<bool>(),
            100u16..=599,
            any::<u16>(),
            -14 * 3600i32..=14 * 3600,
        ),
        0u8..=3,
        any::<u8>(),
    )
        .prop_map(
            |(
                (ts, pubid, obj, fmt, size, served, user, ua, hit, status, pop, tz),
                deg,
                retries,
            )| {
                LogRecord {
                    timestamp: ts,
                    publisher: PublisherId::new(pubid),
                    object: ObjectId::new(obj),
                    format: FileFormat::ALL[fmt],
                    object_size: size,
                    bytes_served: served,
                    user: UserId::new(user),
                    user_agent: ua.into(),
                    cache_status: if hit {
                        CacheStatus::Hit
                    } else {
                        CacheStatus::Miss
                    },
                    status: HttpStatus::new(status).expect("status in range"),
                    pop: PopId::new(pop),
                    tz_offset_secs: tz,
                    degraded: DegradedServe::from_code(deg).expect("code in range"),
                    retries,
                }
            },
        )
}

/// Requests over every [`RequestKind`] and [`Region`], with unicode UAs.
fn request_strategy() -> impl Strategy<Value = Request> {
    (
        (
            any::<u64>(),
            any::<u16>(),
            any::<u64>(),
            0usize..FileFormat::ALL.len(),
            any::<u64>(),
            any::<u64>(),
            "[ -~\\t\\n\\\\éλ]{0,120}",
            0usize..Region::ALL.len(),
            -14 * 3600i32..=14 * 3600,
            any::<bool>(),
        ),
        (0u8..6, any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (ts, pubid, obj, fmt, size, user, ua, region, tz, incognito),
                (kind, offset, length),
            )| Request {
                timestamp: ts,
                publisher: PublisherId::new(pubid),
                object: ObjectId::new(obj),
                format: FileFormat::ALL[fmt],
                object_size: size,
                user: UserId::new(user),
                user_agent: ua.into(),
                region: Region::ALL[region],
                tz_offset_secs: tz,
                incognito,
                kind: match kind {
                    0 => RequestKind::Full,
                    1 => RequestKind::Range { offset, length },
                    2 => RequestKind::Conditional,
                    3 => RequestKind::InvalidRange,
                    4 => RequestKind::Hotlink,
                    _ => RequestKind::Beacon,
                },
            },
        )
}

/// Requests whose agents mostly come from a pool of 40 strings, some of
/// them in separate allocations of one string.
fn pooled_request_strategy() -> impl Strategy<Value = Request> {
    (request_strategy(), 0u8..60).prop_map(|(mut request, agent)| {
        if agent < 40 {
            request.user_agent = format!("Mozilla/5.0 (pool {agent})").into();
        }
        request
    })
}

/// Widths of the request columns, in column order.
const WIDTHS: [usize; 13] = [8, 8, 8, 8, 8, 8, 2, 4, 4, 1, 1, 1, 1];

/// A request shard file decoded one field of one row at a time, straight
/// from the layout the codec documents: the reference the batch decoder
/// must agree with.
struct RowReference {
    bytes: Vec<u8>,
    rows: usize,
    offsets: [usize; 13],
    dict: Vec<String>,
}

impl RowReference {
    fn parse(bytes: Vec<u8>) -> Self {
        let le = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let footer = bytes.len() - FOOTER_LEN;
        let rows = le(footer);
        let offsets: [usize; 13] = std::array::from_fn(|c| le(footer + 8 + 8 * c));
        let mut at = le(footer + 8 + 8 * 14);
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let count = word(at);
        at += 4;
        let mut dict = Vec::new();
        for _ in 0..count {
            let len = word(at);
            dict.push(String::from_utf8(bytes[at + 4..at + 4 + len].to_vec()).unwrap());
            at += 4 + len;
        }
        RowReference {
            bytes,
            rows,
            offsets,
            dict,
        }
    }

    /// Cell `row` of column `col`, widened.
    fn cell(&self, col: usize, row: usize) -> u64 {
        let width = WIDTHS[col];
        let at = self.offsets[col] + row * width;
        let mut word = [0u8; 8];
        word[..width].copy_from_slice(&self.bytes[at..at + width]);
        u64::from_le_bytes(word)
    }

    /// Row `row`, or its first bad cell in field order as
    /// `(row, field, value)`.
    fn row(&self, row: usize) -> Result<Request, (u64, &'static str, u64)> {
        let bad = |field, value| (row as u64, field, value);
        let format = self.cell(9, row);
        let format = *FileFormat::ALL
            .get(format as usize)
            .ok_or(bad("format", format))?;
        let region = self.cell(10, row);
        let region = Region::from_code(region as u8).ok_or(bad("region", region))?;
        let incognito = match self.cell(11, row) {
            0 => false,
            1 => true,
            other => return Err(bad("incognito", other)),
        };
        let kind = match self.cell(12, row) {
            0 => RequestKind::Full,
            1 => RequestKind::Range {
                offset: self.cell(3, row),
                length: self.cell(4, row),
            },
            2 => RequestKind::Conditional,
            3 => RequestKind::InvalidRange,
            4 => RequestKind::Hotlink,
            5 => RequestKind::Beacon,
            other => return Err(bad("kind", other)),
        };
        let agent = self.cell(8, row);
        let user_agent = self
            .dict
            .get(agent as usize)
            .ok_or(bad("user_agent", agent))?;
        Ok(Request {
            timestamp: self.cell(0, row),
            publisher: PublisherId::new(self.cell(6, row) as u16),
            object: ObjectId::new(self.cell(1, row)),
            format,
            object_size: self.cell(2, row),
            user: UserId::new(self.cell(5, row)),
            user_agent: user_agent.as_str().into(),
            region,
            tz_offset_secs: self.cell(7, row) as u32 as i32,
            incognito,
            kind,
        })
    }

    /// Rows `range`, clamped as `read_rows` clamps it, or the first bad
    /// cell among them.
    fn rows(
        &self,
        range: std::ops::Range<usize>,
    ) -> Result<Vec<Request>, (u64, &'static str, u64)> {
        let end = range.end.min(self.rows);
        (range.start.min(end)..end)
            .map(|row| self.row(row))
            .collect()
    }
}

/// Overwrites cell `row` of column `col` with the low bytes of `value` and
/// reseals the column's checksum, so the cell reaches the decoder.
fn plant_cell(bytes: &mut [u8], reference: &RowReference, col: usize, row: usize, value: u64) {
    let width = WIDTHS[col];
    let at = reference.offsets[col] + row * width;
    bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    let column = &bytes[reference.offsets[col]..reference.offsets[col] + reference.rows * width];
    let mut sum = Xxh64::new();
    sum.update(column);
    let slot = bytes.len() - FOOTER_LEN - CHECKSUM_BLOCK_LEN + 8 * col;
    bytes[slot..slot + 8].copy_from_slice(&sum.digest().to_le_bytes());
}

/// A value no cell of column `col` may hold, for a shard of `agents`
/// dictionary entries.
fn bad_value(col: usize, agents: usize, pick: u64) -> u64 {
    let (lo, hi) = match col {
        8 => (agents as u64, u64::from(u32::MAX)),
        9 => (FileFormat::ALL.len() as u64, 255),
        10 => (Region::ALL.len() as u64, 255),
        11 => (2, 255),
        _ => (6, 255),
    };
    lo + pick % (hi - lo + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `read_rows` decodes any sub-range of a shard, including clamped and
    /// empty ones, as the per-row reference does; a bad coded cell or
    /// agent index fails with the reference's field, shard row and value
    /// (an agent index at open, any other cell when a range that holds
    /// it is read), and a range that skips the bad row still decodes.
    #[test]
    fn batch_decode_matches_the_row_reference(
        requests in prop::collection::vec(pooled_request_strategy(), 0..48),
        bounds in (any::<u64>(), any::<u64>()),
        bad in (0usize..6, any::<u64>(), any::<u64>()),
    ) {
        let dir = temp_dir("decode");
        let path = dir.join("s.col");
        let mut builder = ColumnBuilder::<Request>::new();
        builder.push_batch(&requests).expect("encode");
        builder.write_file(&path).expect("write shard");
        let good = std::fs::read(&path).expect("read shard");
        let reference = RowReference::parse(good.clone());
        prop_assert_eq!(reference.rows, requests.len());

        let span = requests.len() as u64 + 3;
        let range = (bounds.0 % span) as usize..(bounds.1 % span) as usize;
        let shard = ColumnarShard::open(&path).expect("open shard");
        let mut decoded: Vec<Request> = Vec::new();
        shard.read_rows(range.clone(), &mut decoded).expect("decode");
        let expected = reference.rows(range.clone()).expect("reference decode");
        prop_assert_eq!(&decoded, &expected);
        prop_assert_eq!(reference.rows(0..requests.len()).expect("all rows"), requests.clone());

        // One bad cell: none (case 0), or one of the five coded columns.
        let (pick, row_pick, value_pick) = bad;
        if pick > 0 && !requests.is_empty() {
            let col = 7 + pick;
            let row = (row_pick % requests.len() as u64) as usize;
            let value = bad_value(col, reference.dict.len(), value_pick);
            let mut bytes = good;
            plant_cell(&mut bytes, &reference, col, row, value);
            std::fs::write(&path, &bytes).expect("write bad shard");
            let planted = RowReference::parse(bytes);
            let field = ["user_agent", "format", "region", "incognito", "kind"][pick - 1];
            prop_assert_eq!(planted.row(row).map(drop), Err((row as u64, field, value)));
            let got = match ColumnarShard::open(&path) {
                Err(e) => Err(e),
                Ok(shard) => {
                    let mut rows: Vec<Request> = Vec::new();
                    shard.read_rows(range.clone(), &mut rows).map(|()| rows)
                }
            };
            let want = if col == 8 {
                // Agent indexes are checked for every row at open.
                planted.rows(0..requests.len()).map(drop).and(planted.rows(range))
            } else {
                planted.rows(range)
            };
            match (got, want) {
                (Ok(rows), Ok(expected)) => prop_assert_eq!(rows, expected),
                (Err(ColumnarError::InvalidValue { row, field, value }), Err(expected)) => {
                    prop_assert_eq!((row, field, value), expected)
                }
                (got, want) => panic!("decoder {got:?}, reference {want:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

proptest! {
    #[test]
    fn text_codec_roundtrips(record in record_strategy()) {
        let line = text::encode(&record);
        prop_assert!(!line.contains('\n'));
        let decoded = text::decode(&line).expect("well-formed line");
        prop_assert_eq!(decoded, record);
    }

    #[test]
    fn io_stream_roundtrips(records in prop::collection::vec(record_strategy(), 0..30)) {
        let mut buf = Vec::new();
        let n = text::write_all(&mut buf, &records).unwrap();
        prop_assert_eq!(n as usize, records.len());
        let mut back = Vec::new();
        text::scan(&buf[..], 7, |chunk| back.extend(chunk)).unwrap();
        prop_assert_eq!(&back, &records);
    }

    #[test]
    fn text_decode_never_panics_on_garbage(line in "[^\\n]{0,200}") {
        let _ = text::decode(&line); // must not panic
    }

    /// Requests read back from a columnar spool, in any shard size, equal
    /// the requests written, in order.
    #[test]
    fn columnar_spool_roundtrips_requests(
        requests in prop::collection::vec(request_strategy(), 1..40),
        rows_per_shard in 1usize..16,
    ) {
        let (dir, reader) = spool(&requests, rows_per_shard, "roundtrip");
        let mut back = Vec::new();
        reader
            .scan(0, |mut batch| back.append(&mut batch))
            .expect("read back");
        prop_assert_eq!(&back, &requests);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A truncated or byte-flipped shard never panics the strict scan: it
    /// returns a data error, after delivering exactly the rows of the
    /// shards before the damaged one.
    #[test]
    fn strict_scan_refuses_a_damaged_shard(
        requests in prop::collection::vec(request_strategy(), 2..40),
        rows_per_shard in 1usize..8,
        shard_pick in any::<u64>(),
        truncate in any::<bool>(),
        keep_fraction in 0.0f64..0.95,
        offset_pick in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let (dir, reader) = spool(&requests, rows_per_shard, "damaged");
        let paths = reader.paths().to_vec();
        let victim = (shard_pick % paths.len() as u64) as usize;
        let mut bytes = std::fs::read(&paths[victim]).expect("read shard");
        if truncate {
            bytes.truncate((bytes.len() as f64 * keep_fraction) as usize);
        } else {
            let offset = (offset_pick % bytes.len() as u64) as usize;
            bytes[offset] ^= flip;
        }
        std::fs::write(&paths[victim], &bytes).expect("damage shard");

        let mut delivered: Vec<Request> = Vec::new();
        let err = reader
            .scan(0, |mut batch| delivered.append(&mut batch))
            .expect_err("a damaged shard fails the scan");
        prop_assert!(err.is_data_error(), "{}", err);
        let before = (victim * rows_per_shard).min(requests.len());
        prop_assert_eq!(&delivered[..], &requests[..before]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
