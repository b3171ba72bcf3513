//! Time ordering of the trace, for both generators.
//!
//! Both generators cut the trace window into equal-width time slices
//! (`TimeSlices`) and split every shard's unsorted output into one exactly
//! sized piece per slice. A slice is sorted with a stable counting sort on
//! the timestamp — a histogram per bucket, prefix sums, and a scatter of
//! every row, in piece order and then row order, to its bucket — followed
//! by a stable sort of every bucket holding more than one row on the full
//! `(timestamp, user, object)` key. The one bucket scatter serves two
//! callers:
//!
//! - `sort_slice` sorts in-memory requests. It scatters `(piece, row)`
//!   locations, moves every request once, in bucket order, into the
//!   output, and sorts the buckets by each request's key. The in-memory
//!   generator ([`crate::generator::generate_with`]) cuts one slice per
//!   worker, and [`order_slices`] sorts each on its own worker and
//!   concatenates them.
//! - `sort_segments` sorts the spool generator's spilled columnar segments
//!   ([`crate::pargen`]). It scatters every row's key, read from the
//!   segments' timestamp, user and object columns, together with the row's
//!   location, sorts the buckets by key and returns the locations. No row
//!   is decoded: the spool generator gathers the cells of the sorted rows
//!   straight into its output shards.
//!
//! Timestamps are whole seconds, so a bucket is one second wide unless a
//! slice spans more seconds than it has rows; then buckets are `2^k`
//! seconds wide, for the smallest `k` that leaves no more buckets than
//! rows. Either way the result equals a stable sort of the shards
//! concatenated in task order, independent of shard size and thread
//! count.

use oat_httplog::{ColumnarError, ColumnarShard, Request};

/// The key the trace is ordered by.
pub(crate) fn sort_key(request: &Request) -> (u64, u64, u64) {
    (request.timestamp, request.user.raw(), request.object.raw())
}

/// `[start, start + duration)` cut into `count` equal-width slices. A
/// timestamp before the window belongs to the first slice, one after it
/// to the last.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimeSlices {
    start: u64,
    width: u64,
    count: usize,
}

impl TimeSlices {
    pub(crate) fn new(start: u64, duration: u64, count: usize) -> Self {
        let count = count.max(1);
        Self {
            start,
            width: duration.div_ceil(count as u64).max(1),
            count,
        }
    }

    pub(crate) fn count(&self) -> usize {
        self.count
    }

    fn slice_of(&self, timestamp: u64) -> usize {
        let slice = timestamp.saturating_sub(self.start) / self.width;
        usize::try_from(slice).map_or(self.count - 1, |slice| slice.min(self.count - 1))
    }

    /// Splits one shard's requests into one piece per slice, each
    /// allocated at its exact length, keeping generation order.
    pub(crate) fn split(&self, requests: Vec<Request>) -> Vec<Vec<Request>> {
        let mut lens = vec![0; self.count];
        for request in &requests {
            lens[self.slice_of(request.timestamp)] += 1;
        }
        let mut pieces: Vec<Vec<Request>> = lens.into_iter().map(Vec::with_capacity).collect();
        for request in requests {
            pieces[self.slice_of(request.timestamp)].push(request);
        }
        pieces
    }
}

/// Orders a sliced trace into one vector. `slices[s]` holds slice `s`'s
/// pieces in shard order, and every timestamp of slice `s` is at most
/// every timestamp of slice `s + 1`. Each slice is sorted on its own
/// worker (the first on the calling thread, straight into a vector sized
/// for the whole trace); the others are appended in slice order.
pub fn order_slices(slices: Vec<Vec<Vec<Request>>>) -> Vec<Request> {
    let total = slices.iter().flatten().map(Vec::len).sum();
    let mut slices = slices.into_iter();
    let first = slices.next().unwrap_or_default();
    let (mut ordered, rest) = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .map(|pieces| scope.spawn(move || sort_slice(pieces, 0)))
            .collect();
        let first = sort_slice(first, total);
        let rest: Vec<Vec<Request>> = handles.into_iter().map(oat_stats::pool::join).collect();
        (first, rest)
    });
    for mut part in rest {
        ordered.append(&mut part);
    }
    ordered
}

/// Buckets one slice's rows by timestamp: the histogram, prefix sums and
/// scatter of a stable counting sort. `rows(p)` yields piece `p`'s rows in
/// row order as `(timestamp, item)`; it is called three times per piece.
/// Returns the items in bucket order — within a bucket, in piece order and
/// then row order — and one past each bucket's last place.
fn bucket_scatter<T, I>(pieces: usize, rows: impl Fn(usize) -> I) -> (Vec<T>, Vec<usize>)
where
    T: Copy + Default,
    I: Iterator<Item = (u64, T)>,
{
    let all = || (0..pieces).flat_map(&rows);
    let (len, range) = all().fold((0usize, None), |(len, range), (timestamp, _)| {
        let (lo, hi) = range.unwrap_or((timestamp, timestamp));
        (len + 1, Some((timestamp.min(lo), timestamp.max(hi))))
    });
    let Some((min, max)) = range else {
        return (Vec::new(), Vec::new());
    };
    // The smallest bucket width 2^shift that leaves no more buckets than
    // rows: `span >> shift < len`.
    let span = max - min;
    let shift = u64::BITS - (span / len as u64).leading_zeros();
    // A shift of 64 (one row, a span of 2^63 or more) leaves one bucket.
    let bucket = |timestamp: u64| (timestamp - min).checked_shr(shift).unwrap_or(0) as usize;

    // `ends[b]` starts as bucket `b`'s first place in the sorted slice
    // and ends one past its last once the scatter has filled it.
    let mut ends = vec![0; bucket(max) + 1];
    for (timestamp, _) in all() {
        ends[bucket(timestamp)] += 1;
    }
    let mut start = 0;
    for end in &mut ends {
        let count = *end;
        *end = start;
        start += count;
    }
    let mut items = vec![T::default(); len];
    for (timestamp, item) in all() {
        let at = &mut ends[bucket(timestamp)];
        items[*at] = item;
        *at += 1;
    }
    (items, ends)
}

/// Stable-sorts every bucket of `items` holding more than one row by
/// `key`; `ends` is [`bucket_scatter`]'s.
fn sort_buckets<T, K: Ord>(items: &mut [T], ends: &[usize], key: impl Fn(&T) -> K) {
    let mut start = 0;
    for &end in ends {
        if let Some(bucket) = items.get_mut(start..end).filter(|b| b.len() > 1) {
            bucket.sort_by_key(&key);
        }
        start = end;
    }
}

/// Checks that every row of pieces of `lens` rows has a `(piece, row)`
/// location of two `u32`s, which keeps a location at 8 bytes; a piece of
/// 2^32 rows would hold over 250 GiB of rows.
fn assert_locations_fit(lens: impl ExactSizeIterator<Item = usize>) {
    let fits = |n: usize| u32::try_from(n).is_ok();
    let mut lens = lens;
    assert!(
        fits(lens.len()) && lens.all(fits),
        "a slice piece has more rows than a u32 location addresses"
    );
}

/// Stable-sorts one slice's pieces, taken in order, by [`sort_key`] into
/// a vector with room for at least `capacity` requests. It scatters
/// `(piece, row)` locations rather than the requests, then moves each
/// request once, in bucket order, out of its piece.
pub(crate) fn sort_slice(pieces: Vec<Vec<Request>>, capacity: usize) -> Vec<Request> {
    assert_locations_fit(pieces.iter().map(Vec::len));
    let (locations, ends) = bucket_scatter(pieces.len(), |p| {
        let piece = pieces.get(p).map_or(&[][..], Vec::as_slice);
        (0u32..)
            .zip(piece)
            .map(move |(row, request)| (request.timestamp, (p as u32, row)))
    });
    let len = locations.len();
    // Each piece becomes `Option` slots in place, in its own allocation.
    let mut slots: Vec<Vec<Option<Request>>> = pieces
        .into_iter()
        .map(|piece| piece.into_iter().map(Some).collect())
        .collect();
    let mut sorted = Vec::with_capacity(capacity.max(len));
    sorted.extend(
        locations
            .into_iter()
            .filter_map(|(p, row)| slots.get_mut(p as usize)?.get_mut(row as usize)?.take()),
    );
    // A location that named no request, or one already taken, would drop
    // a request here and shift every figure.
    assert_eq!(sorted.len(), len, "the scatter lost a request");
    sort_buckets(&mut sorted, &ends, sort_key);
    sorted
}

/// The `(piece, row)` location of every row of one slice's spilled
/// pieces, taken in order, in the order [`sort_slice`] puts those rows
/// in: the same bucket scatter, reading only each segment's key columns
/// ([`ColumnarShard::request_keys`]), and a stable sort of every bucket
/// on the keys.
///
/// # Errors
///
/// [`ColumnarError::Corrupt`] when a segment's key columns are out of
/// range.
pub(crate) fn sort_segments(segments: &[ColumnarShard]) -> Result<Vec<(u32, u32)>, ColumnarError> {
    assert_locations_fit(segments.iter().map(ColumnarShard::rows));
    let keys = segments
        .iter()
        .map(ColumnarShard::request_keys)
        .collect::<Result<Vec<_>, _>>()?;
    let (mut keyed, ends) = bucket_scatter(keys.len(), |p| {
        (0u32..)
            .zip(keys.get(p).cloned().into_iter().flatten())
            .map(move |(row, key)| (key.0, (key, (p as u32, row))))
    });
    sort_buckets(&mut keyed, &ends, |&(key, _)| key);
    Ok(keyed.into_iter().map(|(_, location)| location).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oat_httplog::{ColumnBuilder, ObjectId, UserId};
    use std::sync::Arc;

    /// A request told apart from its equal-key copies by `tag`.
    fn request(timestamp: u64, user: u64, object: u64, tag: u64) -> Request {
        Request {
            timestamp,
            user: UserId::new(user),
            object: ObjectId::new(object),
            object_size: tag,
            ..Request::example()
        }
    }

    /// The stable sort of the shards concatenated in shard order: the
    /// result every ordering must equal.
    fn stable_sort(shards: &[Vec<Request>]) -> Vec<Request> {
        let mut all = shards.concat();
        all.sort_by_key(sort_key);
        all
    }

    /// Splits every shard into `slices` and orders the result.
    fn order(shards: &[Vec<Request>], slices: &TimeSlices) -> Vec<Request> {
        let mut by_slice: Vec<Vec<Vec<Request>>> = vec![Vec::new(); slices.count()];
        for shard in shards {
            for (s, piece) in slices.split(shard.clone()).into_iter().enumerate() {
                by_slice[s].push(piece);
            }
        }
        order_slices(by_slice)
    }

    /// `sizes[s]` unsorted requests per shard with colliding keys
    /// (timestamps in `0..span`, few users and objects); every request
    /// gets a distinct tag, so a reordering of equal keys shows.
    fn shards(seed: u64, sizes: &[usize], span: u64) -> Vec<Vec<Request>> {
        let mut state = seed;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let mut id = 0;
        sizes
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| {
                        id += 1;
                        request(draw(span), draw(3), draw(3), id)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_slice_count_matches_stable_sort() {
        for seed in 0..24 {
            let sizes = [40, 0, 170, 90, 1, 33];
            let shards = shards(seed, &sizes[..1 + seed as usize % sizes.len()], 25);
            let expected = stable_sort(&shards);
            for count in 1..=5 {
                let slices = TimeSlices::new(0, 25, count);
                assert_eq!(
                    order(&shards, &slices),
                    expected,
                    "seed {seed}, {count} slices"
                );
            }
        }
    }

    #[test]
    fn equal_keys_across_shards_keep_shard_order() {
        // Every shard holds tagged copies of the same few keys in one
        // second, more than a small-slice sort handles by insertion, in
        // an order that is not the key order.
        let shards: Vec<Vec<Request>> = (0..3)
            .map(|s| {
                (0..40)
                    .map(|i| request(7, 2 - i % 3, i % 2, 100 * s + i))
                    .collect()
            })
            .collect();
        for count in 1..=3 {
            let ordered = order(&shards, &TimeSlices::new(0, 10, count));
            assert_eq!(ordered, stable_sort(&shards));
            let first_key: Vec<u64> = ordered
                .iter()
                .filter(|r| (r.user.raw(), r.object.raw()) == (0, 0))
                .map(|r| r.object_size)
                .collect();
            // Key (0, 0) is row `i ≡ 2 (mod 6)` of every shard.
            let shard_order: Vec<u64> = (0..3)
                .flat_map(|s| (2..40).step_by(6).map(move |i| 100 * s + i))
                .collect();
            assert_eq!(first_key, shard_order);
        }
    }

    #[test]
    fn timestamps_outside_the_window_go_to_the_edge_slices() {
        let slices = TimeSlices::new(100, 30, 3);
        assert_eq!(slices.slice_of(0), 0);
        assert_eq!(slices.slice_of(109), 0);
        assert_eq!(slices.slice_of(110), 1);
        assert_eq!(slices.slice_of(129), 2);
        assert_eq!(slices.slice_of(130), 2);
        assert_eq!(slices.slice_of(u64::MAX), 2);
        let shards = vec![
            vec![
                request(u64::MAX, 1, 1, 1),
                request(5, 2, 2, 2),
                request(115, 3, 3, 3),
            ],
            vec![
                request(99, 1, 1, 4),
                request(5, 1, 1, 5),
                request(u64::MAX, 1, 1, 6),
            ],
            vec![
                request(130, 0, 0, 7),
                request(0, 9, 9, 8),
                request(100, 1, 1, 9),
            ],
        ];
        let pieces = slices.split(shards[0].clone());
        let lens: Vec<usize> = pieces.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![1, 1, 1]);
        assert!(pieces.iter().all(|p| p.capacity() == p.len()));
        assert_eq!(order(&shards, &slices), stable_sort(&shards));
    }

    #[test]
    fn sparse_slices_use_coarse_buckets() {
        // Five rows over 2^40 seconds: buckets 2^38 seconds wide, so
        // rows one second apart share a bucket and the bucket's sort must
        // order them by timestamp.
        let far = 1 << 40;
        let shards = vec![
            vec![request(far + 1, 0, 0, 1), request(far, 5, 5, 2)],
            vec![
                request(far, 5, 5, 3),
                request(0, 1, 1, 4),
                request(1, 0, 0, 5),
            ],
        ];
        let ordered = order(&shards, &TimeSlices::new(0, far + 2, 1));
        let tags: Vec<u64> = ordered.iter().map(|r| r.object_size).collect();
        assert_eq!(tags, vec![4, 5, 2, 3, 1]);
        // One row, or two at the ends of the whole range.
        for shards in [
            vec![vec![request(u64::MAX, 1, 1, 1)]],
            vec![vec![request(u64::MAX, 1, 1, 1)], vec![request(0, 1, 1, 2)]],
        ] {
            let slices = TimeSlices::new(0, u64::MAX, 1);
            assert_eq!(order(&shards, &slices), stable_sort(&shards));
        }
    }

    /// Encodes one slice's pieces as spilled segments, sorts them with
    /// `sort_segments` and returns the requests at the sorted locations.
    fn sort_as_segments(pieces: &[Vec<Request>]) -> Vec<Request> {
        let agents: Vec<Arc<str>> = vec![Request::example().user_agent];
        let segments: Vec<ColumnarShard> = pieces
            .iter()
            .map(|piece| {
                let mut builder = ColumnBuilder::<Request>::new();
                builder.push_batch(piece).unwrap();
                let mut bytes = Vec::new();
                builder.write_segment_to(&mut bytes, &agents).unwrap();
                ColumnarShard::from_segment(bytes, &agents).unwrap()
            })
            .collect();
        sort_segments(&segments)
            .unwrap()
            .into_iter()
            .map(|(p, row)| pieces[p as usize][row as usize].clone())
            .collect()
    }

    #[test]
    fn segments_sort_like_requests() {
        // Colliding keys across pieces, every slice count, and the sparse
        // slices of `sparse_slices_use_coarse_buckets`.
        for seed in 0..12 {
            let sizes = [40, 0, 170, 90, 1, 33];
            let shards = shards(seed, &sizes[..1 + seed as usize % sizes.len()], 25);
            for count in 1..=5 {
                let slices = TimeSlices::new(0, 25, count);
                let mut by_slice: Vec<Vec<Vec<Request>>> = vec![Vec::new(); count];
                for shard in &shards {
                    for (s, piece) in slices.split(shard.clone()).into_iter().enumerate() {
                        by_slice[s].push(piece);
                    }
                }
                for pieces in by_slice {
                    let expected = sort_slice(pieces.clone(), 0);
                    assert_eq!(
                        sort_as_segments(&pieces),
                        expected,
                        "seed {seed}, {count} slices"
                    );
                }
            }
        }
        let far = 1 << 40;
        let sparse = vec![
            vec![request(far + 1, 0, 0, 1), request(far, 5, 5, 2)],
            vec![
                request(far, 5, 5, 3),
                request(0, 1, 1, 4),
                request(1, 0, 0, 5),
            ],
        ];
        assert_eq!(sort_as_segments(&sparse), sort_slice(sparse.clone(), 0));
        assert!(sort_as_segments(&[Vec::new(), Vec::new()]).is_empty());
    }

    #[test]
    fn empty_shards_and_slices() {
        assert!(order_slices(Vec::new()).is_empty());
        assert!(order_slices(vec![Vec::new(), vec![Vec::new(), Vec::new()]]).is_empty());
        // Eight slices of a two-second window: most are empty, and so are
        // some shards.
        let shards = vec![
            Vec::new(),
            vec![request(1, 1, 1, 1), request(0, 2, 2, 2)],
            Vec::new(),
            vec![request(0, 1, 1, 3)],
        ];
        for count in [1, 2, 8] {
            assert_eq!(
                order(&shards, &TimeSlices::new(0, 2, count)),
                stable_sort(&shards)
            );
        }
    }

    #[test]
    fn the_first_slice_is_sorted_into_room_for_the_whole_trace() {
        let shards = vec![vec![request(3, 1, 1, 0), request(1, 1, 1, 0)]];
        let sorted = sort_slice(shards, 64);
        assert_eq!(sorted, vec![request(1, 1, 1, 0), request(3, 1, 1, 0)]);
        assert!(sorted.capacity() >= 64);
        let ordered = order_slices(vec![
            vec![vec![request(2, 1, 1, 0)]],
            vec![vec![request(5, 1, 1, 0)]],
        ]);
        assert_eq!(ordered.len(), 2);
        assert_eq!(ordered.capacity(), 2);
    }
}
