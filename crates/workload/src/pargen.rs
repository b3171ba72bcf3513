//! Parallel direct-to-columnar trace generation.
//!
//! [`generate_columnar_parallel_with`] writes the trace of
//! [`crate::generate_with`] to a columnar shard directory — byte for byte
//! the files a [`oat_httplog::ColumnarDirWriter`] fed those requests would
//! write, at any thread count and task size — on a worker pool, with
//! memory bounded by a time slice rather than by the trace. It orders the
//! trace as the in-memory generator does ([`crate::order`]): the trace
//! window is cut into equal-width time slices, and each slice is sorted on
//! its own with the same stable counting sort.
//!
//! 1. **Spill.** Group `g` is the `(site, user-range)` tasks
//!    `[64·g, 64·(g+1))`. A worker generates each task of its group, cuts
//!    its requests unsorted into the time slices and encodes each piece
//!    into its slice's column buffers. It then writes
//!    the group's slices back to back into one spill file
//!    `.runs-<prefix>/group-NNNNNN.spill`, each as a columnar segment
//!    ([`ColumnBuilder::write_segment_to`]) that names its user agents by
//!    their index in one table of the trace's distinct agents, so a
//!    segment costs its rows and a few dozen bytes. The file ends with
//!    the segments' boundaries.
//! 2. **Order and write.** Workers pull slices in time order. For a slice,
//!    a worker reads its segment of every spill file, in group order, and
//!    opens each ([`ColumnarShard::from_segment`]) — so every checksum,
//!    user-agent index and coded cell is verified, and a spill byte rotted
//!    on disk fails the run instead of being re-checksummed into a
//!    valid-looking output shard. No row is decoded. The worker sorts the
//!    rows' `(segment, row)` locations by the segments' key columns, with
//!    the bucket scatter the in-memory generator sorts requests with, and
//!    hands every output shard it touches its part: a run of sorted
//!    locations. Output shard `j` holds global rows `[j·R, (j+1)·R)` for
//!    `R = rows_per_shard`, the cut [`oat_httplog::ColumnarDirWriter`]
//!    makes, so a shard can straddle slices. Each part is gathered into the
//!    shard's builder ([`ColumnBuilder::gather`]: column by column, cell by
//!    cell, with user agents remapped into the shard's dictionary in row
//!    order), by the worker that holds it, after waiting for the parts
//!    before it. The worker that appends the last row writes the shard.
//!
//! The slices follow one another in time and each is the stable sort of
//! its pieces in task order, so the spool is the stable sort of every
//! task's requests in task order — the in-memory trace — whatever the
//! thread count, task size or slice count. There are
//! `max(threads, ⌈target records × threads / DEFAULT_ROWS_PER_SHARD⌉)`
//! slices, so the slices in flight hold about one default shard's rows
//! between them.
//!
//! The spool is a scratch cache, not a journal: a run killed at any point
//! leaves no complete manifest, and the next run wipes the scratch
//! directory and regenerates the whole spool, byte for byte.
//!
//! The per-site user populations are the one input that grows with
//! `scale`; only the spill phase needs them, and they are dropped before
//! any slice is ordered.

use crate::generator::{
    build_sites, generate_shard, shard_tasks, site_iats, target_records, ConfigError, GenOptions,
    TraceConfig,
};
use crate::order::{sort_segments, TimeSlices};
use crate::users::UserProfile;
use crate::Catalog;
use oat_httplog::codec::columnar::VERSION as COLUMNAR_VERSION;
use oat_httplog::shard::DEFAULT_ROWS_PER_SHARD;
use oat_httplog::{
    write_atomic, ColumnBuilder, ColumnarDirReader, ColumnarError, ColumnarShard, Fnv1a,
    HttplogError, IoLayer, ManifestShard, RealIo, Request, SpoolManifest,
};
use oat_stats::pool::parallel_indexed;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Consecutive generation tasks spilled into one file.
const GROUP_TASKS: usize = 64;

/// Options controlling *how* the parallel engine runs — never *what* it
/// produces: any combination yields the identical shard directory for the
/// same config.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParGenOptions {
    /// Worker threads for every phase; `0` = all available cores.
    pub threads: usize,
    /// Users per generation task; `0` = [`crate::DEFAULT_SHARD_SIZE`].
    pub shard_size: usize,
}

impl ParGenOptions {
    fn gen_opts(&self) -> GenOptions {
        GenOptions {
            threads: self.threads,
            shard_size: self.shard_size,
        }
    }
}

/// A trace spooled to an on-disk [columnar](oat_httplog::codec::columnar)
/// shard directory by [`generate_columnar_parallel_with`]: the spool
/// location and size. The generative ground truth (catalogs, user
/// populations) is not kept: it grows with `scale`, so the generator drops
/// it before any slice is ordered.
#[derive(Debug)]
pub struct ColumnarTrace {
    /// The configuration the trace was generated from.
    pub config: TraceConfig,
    /// Directory holding the request shards.
    pub dir: std::path::PathBuf,
    /// Shard filename prefix.
    pub prefix: String,
    /// Requests written.
    pub rows: u64,
    /// Shards written.
    pub shards: u64,
}

impl ColumnarTrace {
    /// Opens a bounded-memory reader over the spooled request shards.
    ///
    /// # Errors
    ///
    /// Propagates [`HttplogError::Io`] if the spool directory cannot be
    /// listed.
    pub fn reader(&self) -> Result<ColumnarDirReader<Request>, HttplogError> {
        ColumnarDirReader::open(&self.dir, &self.prefix)
    }
}

/// Error from [`generate_columnar_parallel_with`]: either the config was
/// invalid or the spool directory could not be written.
#[derive(Debug)]
pub enum ColumnarGenError {
    /// The trace config failed validation.
    Config(ConfigError),
    /// Writing the shard directory failed.
    Spool(HttplogError),
}

impl std::fmt::Display for ColumnarGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid trace config: {e}"),
            Self::Spool(e) => write!(f, "columnar spool failed: {e}"),
        }
    }
}

impl std::error::Error for ColumnarGenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Spool(e) => Some(e),
        }
    }
}

impl From<ConfigError> for ColumnarGenError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<HttplogError> for ColumnarGenError {
    fn from(e: HttplogError) -> Self {
        Self::Spool(e)
    }
}

/// Storage options for [`generate_columnar_parallel_with`].
#[derive(Debug, Clone)]
pub struct ResumeOptions {
    /// Storage fault seam every spool write goes through;
    /// [`RealIo`] in production, a failing injector in recovery tests.
    pub io: Arc<dyn IoLayer>,
}

impl Default for ResumeOptions {
    fn default() -> Self {
        Self {
            io: Arc::new(RealIo),
        }
    }
}

/// Fingerprint of everything that determines spool *content*: the trace
/// config (whose `Debug` form embeds every generation parameter) and the
/// columnar codec version. Engine knobs (threads, task size) are
/// deliberately excluded — they never change the output bytes.
pub fn config_fingerprint(config: &TraceConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.update(format!("{config:?}").as_bytes());
    h.update(&[COLUMNAR_VERSION]);
    h.digest()
}

fn spool_err(e: ColumnarError) -> ColumnarGenError {
    ColumnarGenError::Spool(HttplogError::from(e))
}

fn internal_err(what: &str) -> ColumnarError {
    ColumnarError::Io(std::io::Error::other(format!(
        "parallel generation internal invariant violated: {what}"
    )))
}

/// A writer that counts the bytes it passes on.
struct Counting<'a> {
    inner: &'a mut dyn Write,
    bytes: u64,
}

impl Write for Counting<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The sorted, deduplicated user agents of every user: the table spill
/// segments name agents by.
fn agent_table(populations: &[Vec<UserProfile>]) -> Vec<Arc<str>> {
    let agents: BTreeSet<&Arc<str>> = populations
        .iter()
        .flatten()
        .map(|u| &u.user_agent)
        .collect();
    agents.into_iter().cloned().collect()
}

/// The trace's spill: one file per task group, the agent table its
/// segments name agents by, and each slice's row count.
struct Spill {
    dir: PathBuf,
    agents: Vec<Arc<str>>,
    /// Per group, where its file's segment boundaries start.
    bounds_at: Vec<u64>,
    slice_rows: Vec<u64>,
}

fn spill_path(dir: &Path, group: usize) -> PathBuf {
    dir.join(format!("group-{group:06}.spill"))
}

impl Spill {
    /// Phase 1: group `g` is tasks `[g·GROUP_TASKS, (g+1)·GROUP_TASKS)`. A
    /// worker generates each task of its group, cuts it into `slices` and
    /// appends the pieces to one column buffer per slice. The slices go
    /// back to back into the group's file as segments, followed by the
    /// `slices + 1` segment boundaries (`u64` each).
    #[allow(clippy::too_many_arguments)]
    fn write(
        config: &TraceConfig,
        catalogs: &[Catalog],
        populations: &[Vec<UserProfile>],
        slices: TimeSlices,
        workers: usize,
        shard_size: usize,
        dir: PathBuf,
        io: &dyn IoLayer,
    ) -> Result<Spill, ColumnarError> {
        let tasks = shard_tasks(populations, shard_size);
        let iats = site_iats(config);
        let agents = agent_table(populations);
        // Counts only, read after the pool has joined: `Relaxed` suffices.
        let slice_rows: Vec<AtomicU64> = (0..slices.count()).map(|_| AtomicU64::new(0)).collect();
        let bounds_at = parallel_indexed(workers, tasks.len().div_ceil(GROUP_TASKS), |g| {
            let mut builders: Vec<ColumnBuilder<Request>> =
                (0..slices.count()).map(|_| ColumnBuilder::new()).collect();
            for &task in tasks.iter().skip(g * GROUP_TASKS).take(GROUP_TASKS) {
                let requests = generate_shard(config, catalogs, populations, &iats, task);
                for (builder, piece) in builders.iter_mut().zip(slices.split(requests)) {
                    builder.push_batch(&piece)?;
                }
            }
            let mut bounds_at = 0;
            write_atomic(io, &spill_path(&dir, g), |w| {
                let mut w = Counting { inner: w, bytes: 0 };
                let mut bounds = Vec::with_capacity(builders.len() + 1);
                // Each slice's buffers are freed once encoded.
                for (builder, rows) in builders.into_iter().zip(&slice_rows) {
                    bounds.push(w.bytes);
                    builder
                        .write_segment_to(&mut w, &agents)
                        .map_err(|e| std::io::Error::from(HttplogError::from(e)))?;
                    rows.fetch_add(builder.rows() as u64, Ordering::Relaxed);
                }
                bounds.push(w.bytes);
                bounds_at = w.bytes;
                for bound in bounds {
                    w.write_all(&bound.to_le_bytes())?;
                }
                Ok(())
            })?;
            Ok::<_, ColumnarError>(bounds_at)
        })?;
        Ok(Spill {
            dir,
            agents,
            bounds_at,
            slice_rows: slice_rows.into_iter().map(AtomicU64::into_inner).collect(),
        })
    }

    /// Phase 2's input: slice `s`'s segment from every group, in group
    /// order, each read and verified.
    fn read_slice(&self, s: usize) -> Result<Vec<ColumnarShard>, ColumnarError> {
        let mut segments = Vec::with_capacity(self.bounds_at.len());
        for (g, &bounds_at) in self.bounds_at.iter().enumerate() {
            let mut file = std::fs::File::open(spill_path(&self.dir, g))?;
            file.seek(SeekFrom::Start(bounds_at + 8 * s as u64))?;
            let [start, end] = [read_u64(&mut file)?, read_u64(&mut file)?];
            // A rotted boundary must not size the read beyond the file.
            if start > end || end > bounds_at {
                return Err(ColumnarError::Corrupt {
                    what: "spill segment boundaries out of order",
                });
            }
            file.seek(SeekFrom::Start(start))?;
            let mut bytes = vec![0; (end - start) as usize];
            file.read_exact(&mut bytes)?;
            segments.push(ColumnarShard::from_segment(bytes, &self.agents)?);
        }
        let rows: usize = segments.iter().map(ColumnarShard::rows).sum();
        if self.slice_rows.get(s) != Some(&(rows as u64)) {
            return Err(ColumnarError::Corrupt {
                what: "spill slice row count",
            });
        }
        Ok(segments)
    }
}

fn read_u64(file: &mut std::fs::File) -> std::io::Result<u64> {
    let mut bytes = [0; 8];
    file.read_exact(&mut bytes)?;
    Ok(u64::from_le_bytes(bytes))
}

/// Part of an output shard: sorted rows of one slice, named by their
/// `(segment, row)` location in the slice's spilled segments.
#[derive(Clone, Copy)]
struct Part<'a> {
    segments: &'a [ColumnarShard],
    rows: &'a [(u32, u32)],
}

/// Phase 2's output side: the shard directory, and the shards whose
/// parts are still being appended.
struct Output<'a> {
    dir: &'a Path,
    prefix: &'a str,
    rows_per_shard: u64,
    total: u64,
    io: &'a dyn IoLayer,
    pending: Mutex<Pending>,
    /// Signalled when a shard's builder is put back, or a slice fails.
    turn: Condvar,
}

#[derive(Default)]
struct Pending {
    /// Per shard under way, its leading rows, encoded; `None` while a
    /// worker appends to it.
    builders: BTreeMap<u64, Option<ColumnBuilder<Request>>>,
    /// The lowest slice that failed: the parts of later slices may wait on
    /// its rows, which will never come.
    failed: Option<usize>,
}

impl Output<'_> {
    fn lock(&self) -> Result<MutexGuard<'_, Pending>, ColumnarError> {
        self.pending
            .lock()
            .map_err(|_| internal_err("a worker panicked while adding a shard part"))
    }

    /// Wakes every worker waiting on slice `s` or a later one.
    fn fail(&self, s: usize) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        pending.failed = Some(pending.failed.map_or(s, |f| f.min(s)));
        self.turn.notify_all();
    }

    /// Appends `part`, the rows of shard `j` from global row `first` on,
    /// which slice `s` holds. A part that does not start the shard waits
    /// until every row before it is in, so parts are appended in row order
    /// by the workers that hold them and no part waits anywhere but in its
    /// own slice. A part waits only on earlier slices, which were handed
    /// out first, so the lowest waiting part can always go on. The worker
    /// that appends the last part writes the shard and returns its rows.
    fn add_part(&self, s: usize, j: u64, first: u64, part: Part<'_>) -> Result<u64, ColumnarError> {
        let start = j * self.rows_per_shard;
        let end = (start + self.rows_per_shard).min(self.total);
        let mut builder = if first == start {
            ColumnBuilder::new()
        } else {
            let mut pending = self.lock()?;
            loop {
                if pending.failed.is_some_and(|f| f < s) {
                    return Err(internal_err("an earlier slice failed"));
                }
                let slot = pending.builders.get_mut(&j);
                if let Some(slot) =
                    slot.filter(|b| b.as_ref().is_some_and(|b| start + b.rows() as u64 == first))
                {
                    break slot
                        .take()
                        .ok_or_else(|| internal_err("shard builder vanished"))?;
                }
                pending = self
                    .turn
                    .wait(pending)
                    .map_err(|_| internal_err("a worker panicked while adding a shard part"))?;
            }
        };
        builder.gather(part.segments, part.rows)?;
        let mut pending = self.lock()?;
        if start + (builder.rows() as u64) < end {
            pending.builders.insert(j, Some(builder));
            self.turn.notify_all();
            return Ok(0);
        }
        pending.builders.remove(&j);
        drop(pending);
        let path = self.dir.join(output_shard_name(self.prefix, j as usize));
        builder.write_file_with(&path, self.io)?;
        Ok(end - start)
    }
}

/// Phase 2 for slice `s`, whose first row is global row `first_row`:
/// reads and verifies its segment from every spill file, sorts the
/// segments' row locations by their key columns, and hands each output
/// shard its part of the slice. Returns the rows of the shards it
/// completed.
fn write_slice(
    s: usize,
    spill: &Spill,
    first_row: u64,
    out: &Output<'_>,
) -> Result<u64, ColumnarError> {
    let segments = spill.read_slice(s)?;
    let sorted = sort_segments(&segments)?;
    // An empty slice (the last slices can start past the trace window)
    // has no part: it must neither open a shard nor wait on one.
    if sorted.is_empty() {
        return Ok(0);
    }
    let last_row = first_row + sorted.len() as u64 - 1;
    let shards = first_row / out.rows_per_shard..=last_row / out.rows_per_shard;
    // Only the first part can wait for earlier slices; every later part
    // starts a shard, so those go first and let later slices append.
    let mut written = 0;
    for j in shards.clone().skip(1).chain([*shards.start()]) {
        let from = (j * out.rows_per_shard).max(first_row);
        let to = ((j + 1) * out.rows_per_shard).min(last_row + 1);
        let rows = sorted
            .get((from - first_row) as usize..(to - first_row) as usize)
            .ok_or_else(|| internal_err("shard part outside its slice"))?;
        let part = Part {
            segments: &segments,
            rows,
        };
        written += out.add_part(s, j, from, part)?;
    }
    Ok(written)
}

fn output_shard_name(prefix: &str, index: usize) -> String {
    format!("{prefix}-{index:06}.col")
}

/// Generates a trace into a columnar shard directory on a worker pool.
///
/// The `<prefix>-NNNNNN.col` shards hold exactly the `requests` of
/// [`crate::generate_with`] for the same `config`, and are byte-identical,
/// file for file, to writing those requests through
/// [`oat_httplog::ColumnarDirWriter`] with the same `prefix` and
/// `rows_per_shard` — for every thread count and task size.
/// `rows_per_shard = 0` uses [`DEFAULT_ROWS_PER_SHARD`] (262 144 rows), the
/// same default as the writer's. Peak memory per worker is one task
/// group's encoded slices while spilling; while ordering, it is one
/// slice's encoded segments (about `DEFAULT_ROWS_PER_SHARD / threads`
/// rows) and their sorted locations, which it keeps while its part of a
/// straddling shard waits its turn, and the builders of the shards it
/// appends to. Scratch disk is one spill copy of the trace
/// beside the output, plus a few dozen bytes per (group, slice)
/// segment. The site tables
/// (catalogs, user populations) grow with `scale` and are dropped as soon
/// as the spill is written; the returned [`ColumnarTrace`] describes only
/// the spool.
///
/// Every spool write (spill files, output shards, the manifest) goes
/// through `resume_opts.io` behind an atomic write-fsync-rename. The
/// spool is a scratch cache: generation first removes any manifest
/// already in `dir` and writes the new one last, so a run killed (or
/// fault-injected) at any storage operation leaves no complete manifest,
/// and readers that verify it regenerate. A rerun wipes the stale
/// `.runs-<prefix>/` scratch and writes a spool byte-identical to an
/// uninterrupted run.
///
/// # Errors
///
/// [`ColumnarGenError::Config`] if the config fails validation,
/// [`ColumnarGenError::Spool`] if spill or shard files cannot be written,
/// or a spill file fails its checksums when read back.
pub fn generate_columnar_parallel_with(
    config: &TraceConfig,
    opts: &ParGenOptions,
    dir: &Path,
    prefix: &str,
    rows_per_shard: usize,
    resume_opts: &ResumeOptions,
) -> Result<ColumnarTrace, ColumnarGenError> {
    config.validate()?;
    let rows_per_shard = if rows_per_shard == 0 {
        DEFAULT_ROWS_PER_SHARD
    } else {
        rows_per_shard
    };
    let io: &dyn IoLayer = &*resume_opts.io;
    let gen_opts = opts.gen_opts();
    let threads = gen_opts.resolved_threads();
    let spool_io_err = |e: std::io::Error| spool_err(ColumnarError::Io(e));

    std::fs::create_dir_all(dir).map_err(spool_io_err)?;
    // Until the new manifest lands, nothing certifies the directory.
    match std::fs::remove_file(SpoolManifest::path_for(dir, prefix)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(spool_io_err(e)),
        _ => {}
    }
    // Scratch left by an interrupted run is wiped, never reused.
    let spill_dir = dir.join(format!(".runs-{prefix}"));
    let _ = std::fs::remove_dir_all(&spill_dir);
    std::fs::create_dir_all(&spill_dir).map_err(spool_io_err)?;

    // Enough slices that the `threads` in flight hold about one default
    // shard's rows between them.
    let target: f64 = config.sites.iter().map(|s| target_records(config, s)).sum();
    let slice_count = (target * threads as f64 / DEFAULT_ROWS_PER_SHARD as f64).ceil() as usize;
    let slices = TimeSlices::new(
        config.start_unix,
        config.duration_secs,
        slice_count.max(threads),
    );

    // Phase 1: one spill file per task group.
    let (catalogs, populations) = build_sites(config);
    let spill = Spill::write(
        config,
        &catalogs,
        &populations,
        slices,
        threads,
        gen_opts.resolved_shard_size(),
        spill_dir,
        io,
    )
    .map_err(spool_err)?;
    // Ordering reads only the spill; free the site tables (user
    // populations grow with `scale`) before any slice is decoded.
    drop(populations);
    drop(catalogs);

    // Phase 2: order and write the slices, in time order.
    let mut first_rows = Vec::with_capacity(slices.count());
    let mut total = 0u64;
    for rows in &spill.slice_rows {
        first_rows.push(total);
        total += rows;
    }
    let out = Output {
        dir,
        prefix,
        rows_per_shard: rows_per_shard as u64,
        total,
        io,
        pending: Mutex::new(Pending::default()),
        turn: Condvar::new(),
    };
    let written = parallel_indexed(threads, slices.count(), |s| {
        let first_row = first_rows
            .get(s)
            .ok_or_else(|| internal_err("slice out of range"))?;
        // A failed or panicking slice wakes the later slices waiting on
        // its rows.
        let result = catch_unwind(AssertUnwindSafe(|| {
            write_slice(s, &spill, *first_row, &out)
        }));
        if !matches!(result, Ok(Ok(_))) {
            out.fail(s);
        }
        result.unwrap_or_else(|payload| resume_unwind(payload))
    })
    .map_err(spool_err)?;
    if written.iter().sum::<u64>() != total {
        return Err(spool_err(internal_err("output row count mismatch")));
    }
    let shards = total.div_ceil(rows_per_shard as u64) as usize;

    // Remove output shards beyond the expected count (stale leftovers of
    // an interrupted larger run would otherwise corrupt the directory).
    if let Ok(entries) = std::fs::read_dir(dir) {
        for name in entries.filter_map(|e| e.ok().and_then(|e| e.file_name().into_string().ok())) {
            let is_ours = name.starts_with(prefix) && name.ends_with(".col");
            let index = name
                .get(prefix.len() + 1..name.len() - 4)
                .and_then(|s| s.parse::<usize>().ok());
            if is_ours && matches!(index, Some(i) if i >= shards) {
                std::fs::remove_file(dir.join(&name)).map_err(spool_io_err)?;
            }
        }
    }

    // The manifest is the completion record, written (atomically) last:
    // before it lands the spool is uncertified, and a crash between it
    // and the scratch cleanup only leaves scratch the next run wipes.
    let shard_rows = |j: usize| -> u64 {
        if j + 1 == shards {
            total - (shards as u64 - 1) * rows_per_shard as u64
        } else {
            rows_per_shard as u64
        }
    };
    let manifest = SpoolManifest {
        prefix: prefix.to_string(),
        codec_version: COLUMNAR_VERSION,
        fingerprint: config_fingerprint(config),
        rows_per_shard: rows_per_shard as u64,
        total_rows: total,
        complete: true,
        shards: (0..shards)
            .map(|j| ManifestShard {
                name: output_shard_name(prefix, j),
                rows: shard_rows(j),
            })
            .collect(),
    };
    manifest.store(io, dir).map_err(spool_io_err)?;
    let _ = std::fs::remove_dir_all(&spill.dir);

    Ok(ColumnarTrace {
        config: config.clone(),
        dir: dir.to_path_buf(),
        prefix: prefix.to_string(),
        rows: total,
        shards: shards as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::MultiDayModel;
    use crate::reference_spool::reference_spool;

    fn tiny_config() -> TraceConfig {
        TraceConfig {
            scale: 0.003,
            catalog_scale: 0.01,
            ..TraceConfig::paper_week()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oat-pargen-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Byte-compares every `.col` file of two spool directories.
    fn assert_dirs_identical(a: &Path, b: &Path) {
        let list = |dir: &Path| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .expect("list spool dir")
                .map(|e| {
                    e.expect("dir entry")
                        .file_name()
                        .to_string_lossy()
                        .into_owned()
                })
                .filter(|n| n.ends_with(".col"))
                .collect();
            names.sort();
            names
        };
        let names_a = list(a);
        assert_eq!(names_a, list(b), "shard file lists differ");
        assert!(!names_a.is_empty(), "no shards produced");
        for name in &names_a {
            let bytes_a = std::fs::read(a.join(name)).expect("read shard A");
            let bytes_b = std::fs::read(b.join(name)).expect("read shard B");
            assert_eq!(bytes_a, bytes_b, "shard {name} differs");
        }
    }

    /// Checks that pargen writes the reference spool of `config` at
    /// `opts` and at one thread.
    fn check_identical(config: &TraceConfig, opts: &ParGenOptions, rows_per_shard: usize) {
        let serial_dir = temp_dir("serial");
        let (rows, shards) = reference_spool(config, &serial_dir, rows_per_shard);
        for threads in [opts.threads, 1] {
            let parallel_dir = temp_dir("parallel");
            let parallel = generate_columnar_parallel_with(
                config,
                &ParGenOptions { threads, ..*opts },
                &parallel_dir,
                "req",
                rows_per_shard,
                &ResumeOptions::default(),
            )
            .expect("parallel generation");
            assert_eq!(parallel.rows, rows);
            assert_eq!(parallel.shards, shards);
            assert_dirs_identical(&serial_dir, &parallel_dir);
            assert!(
                !parallel_dir.join(".runs-req").exists(),
                "spill directory not cleaned up"
            );
            let _ = std::fs::remove_dir_all(&parallel_dir);
        }
        let _ = std::fs::remove_dir_all(&serial_dir);
    }

    #[test]
    fn parallel_matches_serial_many_groups() {
        // One-user tasks make many spill groups, and small shards make
        // many output files, some straddling slices.
        check_identical(
            &tiny_config(),
            &ParGenOptions {
                threads: 3,
                shard_size: 1,
            },
            1000,
        );
    }

    #[test]
    fn parallel_matches_serial_defaults() {
        check_identical(
            &tiny_config(),
            &ParGenOptions {
                threads: 2,
                shard_size: 0,
            },
            4096,
        );
    }

    #[test]
    fn parallel_matches_serial_multi_day() {
        let config = TraceConfig {
            multi_day: Some(MultiDayModel::corpus()),
            ..tiny_config()
        };
        check_identical(
            &config,
            &ParGenOptions {
                threads: 4,
                shard_size: 64,
            },
            2000,
        );
    }

    #[test]
    fn parallel_matches_serial_tiny_shards() {
        // Shards of 1 and 7 rows: every part of a slice but its first
        // starts a shard, and parts straddle shards of every group.
        let config = TraceConfig {
            scale: 0.0003,
            catalog_scale: 0.004,
            ..TraceConfig::paper_week()
        };
        for rows_per_shard in [1, 7] {
            check_identical(
                &config,
                &ParGenOptions {
                    threads: 3,
                    shard_size: 16,
                },
                rows_per_shard,
            );
        }
    }

    #[test]
    fn a_waiting_part_gives_up_only_when_an_earlier_slice_fails() {
        let dir = temp_dir("turns");
        std::fs::create_dir_all(&dir).expect("create dir");
        let requests: Vec<Request> = (0..4)
            .map(|timestamp| Request {
                timestamp,
                ..Request::example()
            })
            .collect();
        // The four requests as one spilled segment, and its rows.
        let agents = vec![Request::example().user_agent];
        let mut builder = ColumnBuilder::<Request>::new();
        builder.push_batch(&requests).expect("encode");
        let mut bytes = Vec::new();
        builder
            .write_segment_to(&mut bytes, &agents)
            .expect("segment");
        let segments = [ColumnarShard::from_segment(bytes, &agents).expect("open segment")];
        let rows = [(0, 0), (0, 1), (0, 2), (0, 3)];
        let part = |range: std::ops::Range<usize>| Part {
            segments: &segments,
            rows: &rows[range],
        };
        let output = || Output {
            dir: &dir,
            prefix: "req",
            rows_per_shard: 4,
            total: 4,
            io: &RealIo,
            pending: Mutex::new(Pending::default()),
            turn: Condvar::new(),
        };

        // Slice 2's part follows slice 1's, whatever order they come in;
        // slice 3 failing does not concern it.
        let out = output();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| out.add_part(2, 0, 2, part(2..4)));
            out.fail(3);
            assert_eq!(out.add_part(1, 0, 0, part(0..2)).expect("first part"), 0);
            assert_eq!(waiter.join().expect("no panic").expect("second part"), 4);
        });
        let shard = ColumnarShard::open(&dir.join(output_shard_name("req", 0))).expect("shard");
        let mut back: Vec<Request> = Vec::new();
        shard.read_rows(0..shard.rows(), &mut back).expect("decode");
        assert_eq!(back, requests);

        // Slice 1 failing means its rows never come: slice 2 gives up.
        let out = output();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| out.add_part(2, 0, 2, part(2..4)));
            out.fail(1);
            assert!(waiter.join().expect("no panic").is_err());
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_slice_touches_no_shard() {
        let dir = temp_dir("empty-slice");
        let out = Output {
            dir: &dir,
            prefix: "req",
            rows_per_shard: 4,
            total: 6,
            io: &RealIo,
            pending: Mutex::new(Pending::default()),
            turn: Condvar::new(),
        };
        let spill = Spill {
            dir: dir.clone(),
            agents: Vec::new(),
            bounds_at: Vec::new(),
            slice_rows: vec![0; 2],
        };
        // A part that waited would give up on slice 0's failure, not hang.
        out.fail(0);
        // Empty slices starting on a shard boundary and at the last row.
        for first_row in [4, 6] {
            assert_eq!(write_slice(1, &spill, first_row, &out).expect("empty"), 0);
        }
        assert!(out.lock().expect("lock").builders.is_empty());
        assert!(!dir.exists(), "an empty slice wrote a shard");
    }

    #[test]
    fn spool_reads_back_as_batch_trace() {
        let config = tiny_config();
        let batch_trace = crate::generate(&config).expect("batch generation");
        let dir = temp_dir("read-back");
        let spooled = generate_columnar_parallel_with(
            &config,
            &ParGenOptions {
                threads: 2,
                shard_size: 32,
            },
            &dir,
            "req",
            1_000,
            &ResumeOptions::default(),
        )
        .expect("parallel generation");
        assert_eq!(spooled.rows as usize, batch_trace.requests.len());
        assert!(spooled.shards >= 2);
        let reader = spooled.reader().expect("open spool");
        let mut back = Vec::new();
        reader
            .scan(0, |mut batch| back.append(&mut batch))
            .expect("read spool");
        assert_eq!(back, batch_trace.requests);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_invalid_config() {
        let mut config = tiny_config();
        config.scale = -1.0;
        let dir = temp_dir("invalid");
        let err = generate_columnar_parallel_with(
            &config,
            &ParGenOptions::default(),
            &dir,
            "req",
            0,
            &ResumeOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ColumnarGenError::Config(_)), "{err:?}");
        assert!(!dir.exists(), "nothing written for an invalid config");
    }

    #[test]
    fn single_shard_output() {
        // Everything fits in one output shard, which spans every slice.
        check_identical(
            &tiny_config(),
            &ParGenOptions {
                threads: 2,
                shard_size: 128,
            },
            0,
        );
    }

    use oat_httplog::{FailAt, ManifestError};
    use std::sync::atomic::AtomicBool;

    /// Smaller than `tiny_config` — the crash sweep runs many generations.
    fn crash_config() -> TraceConfig {
        TraceConfig {
            scale: 0.0015,
            catalog_scale: 0.01,
            ..TraceConfig::paper_week()
        }
    }

    fn crash_opts(threads: usize) -> ParGenOptions {
        ParGenOptions {
            threads,
            shard_size: 32,
        }
    }

    const CRASH_ROWS_PER_SHARD: usize = 700;

    fn serial_baseline(config: &TraceConfig) -> PathBuf {
        let dir = temp_dir("crash-baseline");
        reference_spool(config, &dir, CRASH_ROWS_PER_SHARD);
        dir
    }

    fn generate_into(
        dir: &Path,
        threads: usize,
        io: Arc<dyn IoLayer>,
    ) -> Result<ColumnarTrace, ColumnarGenError> {
        generate_columnar_parallel_with(
            &crash_config(),
            &crash_opts(threads),
            dir,
            "req",
            CRASH_ROWS_PER_SHARD,
            &ResumeOptions { io },
        )
    }

    /// `open_verified`'s verdict on the spool of `config` in `dir`.
    fn verified(dir: &Path, config: &TraceConfig) -> Result<(), HttplogError> {
        let fingerprint = Some(config_fingerprint(config));
        ColumnarDirReader::<Request>::open_verified(dir, "req", fingerprint).map(drop)
    }

    /// The acceptance property: kill the pipeline at EVERY storage
    /// operation and the spool is uncertified; a plain rerun then writes a
    /// spool byte-identical to an uninterrupted serial run and leaves no
    /// scratch — at one and at several threads. The trace is smaller than
    /// `crash_config`'s so that the sweep stays short, yet it still spans
    /// several slices and output shards.
    #[test]
    fn kill_anywhere_then_rerun_is_byte_identical() {
        let config = TraceConfig {
            scale: 0.0003,
            catalog_scale: 0.004,
            ..TraceConfig::paper_week()
        };
        let rows_per_shard = 200;
        let baseline = temp_dir("sweep-baseline");
        reference_spool(&config, &baseline, rows_per_shard);

        for threads in [1usize, 3] {
            let dir = temp_dir(&format!("sweep-{threads}"));
            let generate = |io: Arc<dyn IoLayer>| {
                generate_columnar_parallel_with(
                    &config,
                    &crash_opts(threads),
                    &dir,
                    "req",
                    rows_per_shard,
                    &ResumeOptions { io },
                )
            };
            // Count the storage ops of an uninterrupted run to size the
            // sweep; its complete spool is what the first kill lands on.
            let probe = Arc::new(FailAt::new(0)); // k = 0 never fails
            generate(probe.clone()).expect("probe run");
            let total_ops = probe.ops_seen();
            assert!(total_ops > 20, "expected a nontrivial op count");
            assert_dirs_identical(&baseline, &dir);
            verified(&dir, &config).expect("an uninterrupted run is certified");

            for k in 1..=total_ops {
                generate(Arc::new(FailAt::new(k)))
                    .expect_err("injected failure must abort the run");
                assert!(
                    matches!(
                        verified(&dir, &config),
                        Err(HttplogError::Manifest(ManifestError::Missing(_)))
                    ),
                    "a run killed at op {k} of {total_ops} left a certified spool"
                );
                let rerun = generate(Arc::new(RealIo))
                    .unwrap_or_else(|e| panic!("rerun after op {k} failed: {e}"));
                assert_dirs_identical(&baseline, &dir);
                assert!(
                    !dir.join(".runs-req").exists(),
                    "scratch survives the rerun after op {k}"
                );
                let manifest = SpoolManifest::load(&dir, "req")
                    .expect("load manifest")
                    .expect("manifest written");
                assert!(manifest.complete);
                assert_eq!(manifest.total_rows, rerun.rows);
                verified(&dir, &config).expect("the rerun is certified");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&baseline);
    }

    #[test]
    fn enospc_leaves_no_complete_manifest_and_rerun_completes() {
        let dir = temp_dir("enospc");

        // Count ops, then blow up near the end (while the output shards
        // are written) so some complete shards exist when the disk "fills".
        let probe = Arc::new(FailAt::new(0));
        generate_into(&dir, 1, probe.clone()).expect("probe run");
        let total_ops = probe.ops_seen();

        let err = generate_into(&dir, 1, Arc::new(FailAt::enospc(total_ops - 6)))
            .expect_err("injected ENOSPC must abort");
        match &err {
            ColumnarGenError::Spool(HttplogError::Io(e)) => {
                assert!(oat_httplog::is_enospc(e), "ENOSPC must stay recognizable")
            }
            other => panic!("expected a spool io error, got {other:?}"),
        }
        assert!(
            SpoolManifest::load(&dir, "req").expect("load").is_none(),
            "no manifest may certify a failed run"
        );
        assert!(verified(&dir, &crash_config()).is_err());

        let baseline = serial_baseline(&crash_config());
        generate_into(&dir, 1, Arc::new(RealIo)).expect("rerun after ENOSPC");
        assert_dirs_identical(&baseline, &dir);
        verified(&dir, &crash_config()).expect("the rerun is certified");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&baseline);
    }

    #[test]
    fn mismatched_scratch_is_wiped_and_regenerated() {
        let config = crash_config();
        let opts = crash_opts(2);
        let dir = temp_dir("fp-mismatch");

        // Interrupt a run of a DIFFERENT config, leaving live scratch.
        let other = TraceConfig {
            scale: 0.003,
            ..crash_config()
        };
        generate_columnar_parallel_with(
            &other,
            &opts,
            &dir,
            "req",
            CRASH_ROWS_PER_SHARD,
            &ResumeOptions {
                io: Arc::new(FailAt::new(40)),
            },
        )
        .expect_err("interrupted");
        assert!(dir.join(".runs-req").exists(), "scratch kept on error");

        // A rerun under the real config must not trust that scratch.
        let baseline = serial_baseline(&config);
        generate_into(&dir, 2, Arc::new(RealIo)).expect("rerun regenerates");
        assert_dirs_identical(&baseline, &dir);

        // A stale scratch dir is also cleaned by a plain fresh start.
        let junk = dir.join(".runs-req");
        std::fs::create_dir_all(&junk).unwrap();
        std::fs::write(junk.join("leftover.col"), b"junk").unwrap();
        generate_into(&dir, 2, Arc::new(RealIo)).expect("fresh start over stale scratch");
        assert!(!junk.exists(), "stale scratch cleaned on fresh start");
        assert_dirs_identical(&baseline, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&baseline);
    }

    #[test]
    fn rerun_heals_a_deleted_shard_and_drops_stale_ones() {
        let dir = temp_dir("heal");
        let done = generate_into(&dir, 2, Arc::new(RealIo)).expect("generate");
        assert!(done.shards >= 2, "need several shards");

        // A lost shard and a stale one from a larger run: the manifest no
        // longer matches the directory, and a rerun restores both.
        let victim = dir.join("req-000001.col");
        let saved = std::fs::read(&victim).expect("read shard");
        std::fs::remove_file(&victim).expect("delete shard");
        let stale = dir.join(output_shard_name("req", done.shards as usize + 3));
        std::fs::write(&stale, &saved).unwrap();
        assert!(matches!(
            verified(&dir, &crash_config()),
            Err(HttplogError::Manifest(ManifestError::ShardMismatch(_)))
        ));
        let again = generate_into(&dir, 2, Arc::new(RealIo)).expect("healing rerun");
        assert_eq!((again.rows, again.shards), (done.rows, done.shards));
        assert_eq!(std::fs::read(&victim).expect("rebuilt"), saved);
        assert!(!stale.exists(), "stale shard survives the rerun");
        verified(&dir, &crash_config()).expect("the rerun is certified");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flips byte `at` of `victim` (counted from the end when negative)
    /// on the first storage operation on a file named `trigger`, and
    /// otherwise lets every operation proceed: bit rot in a finished spill
    /// file before phase 2 reads it.
    #[derive(Debug)]
    struct RotOnName {
        trigger: &'static str,
        victim: PathBuf,
        at: isize,
        fired: AtomicBool,
    }

    impl IoLayer for RotOnName {
        fn check(&self, _op: oat_httplog::IoOp, path: &Path) -> std::io::Result<()> {
            let hit = path.file_name().and_then(|n| n.to_str()) == Some(self.trigger);
            if hit && !self.fired.swap(true, Ordering::Relaxed) {
                let mut bytes = std::fs::read(&self.victim)?;
                let at = self.at.rem_euclid(bytes.len() as isize) as usize;
                bytes[at] ^= 0x01;
                std::fs::write(&self.victim, &bytes)?;
            }
            Ok(())
        }
    }

    #[test]
    fn corrupt_spill_fails_the_run_without_a_manifest() {
        // The first segment's schema byte, and the last segment boundary.
        for at in [0, -1] {
            assert_corrupt_spill_fails_the_run(at);
        }
    }

    fn assert_corrupt_spill_fails_the_run(at: isize) {
        // One thread and one-user tasks: the first group's spill file is
        // complete when the second group's is created.
        let opts = ParGenOptions {
            threads: 1,
            shard_size: 1,
        };
        let dir = temp_dir("corrupt-spill");
        let rot = Arc::new(RotOnName {
            trigger: "group-000001.spill",
            victim: dir.join(".runs-req").join("group-000000.spill"),
            at,
            fired: AtomicBool::new(false),
        });
        let err = generate_columnar_parallel_with(
            &crash_config(),
            &opts,
            &dir,
            "req",
            CRASH_ROWS_PER_SHARD,
            &ResumeOptions { io: rot.clone() },
        )
        .expect_err("a corrupt spill must fail the run");
        assert!(rot.fired.load(Ordering::Relaxed), "no second group, no rot");
        assert!(
            matches!(
                err,
                ColumnarGenError::Spool(HttplogError::Columnar(ColumnarError::Corrupt { .. }))
            ),
            "byte {at}: {err:?}"
        );
        assert!(
            SpoolManifest::load(&dir, "req").expect("load").is_none(),
            "no manifest may certify a corrupt spill"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
