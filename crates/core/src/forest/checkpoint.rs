//! Forest checkpoint and restore (the `p4est_save`/`p4est_load` analogue),
//! hardened into a recoverable format.
//!
//! Serializes each rank's partition segment with the shared metadata using
//! the workspace's `Wire` encoding (independent of Rust struct layout, so
//! checkpoints are portable across builds). Restoring onto a communicator
//! with a different rank count re-partitions the restored forest.
//!
//! Robustness guarantees (the properties production restart leans on):
//!
//! - **Atomic segments**: every file is written to a `.tmp` sibling and
//!   renamed into place, so a crash mid-write never leaves a plausible
//!   but truncated segment under the final name.
//! - **Per-file CRC32**: every segment and the manifest carry a trailing
//!   CRC32 over their contents; corruption is rejected with a typed
//!   [`CheckpointError::Crc`], never silently decoded.
//! - **Manifest**: rank 0 writes `manifest.fst` (epoch, saved rank count,
//!   global octant count) after all segments are durable; `load`
//!   validates every segment against it, so a missing segment file is a
//!   typed [`CheckpointError::MissingSegment`] instead of a silently
//!   truncated forest.
//! - **Per-octant payloads**: solvers can attach one `Wire`-encoded blob
//!   per local octant ([`Forest::save_with_payload`]); payloads ride in
//!   the same SFC order as the octants, so a restore onto fewer ranks
//!   re-partitions field data together with the mesh.
//! - **Solver checkpoints**: [`Forest::save_solver`] and its siblings are
//!   the one codec for an explicit solver's cross-step state — the values
//!   ride as payload, `(time, steps)` in a CRC-trailed `solver.fst` that
//!   is durable *before* the manifest and carries the solver's own magic,
//!   so one solver never restores another's state.

use std::io::{Read, Write as IoWrite};
use std::path::{Path, PathBuf};

use forust_comm::{crc32, write_vec, Communicator, Wire};

use crate::dim::Dim;
use crate::forest::Forest;
use crate::octant::Octant;

/// Magic header guarding against loading a checkpoint of the wrong
/// dimension or format version.
const MAGIC: u64 = 0x464f_5255_5354_0002; // "FORUST" v2
/// Magic header of the checkpoint manifest.
const MANIFEST_MAGIC: u64 = 0x464f_5255_4d41_4e46; // "FORU MANF"

/// Shared metadata of one checkpoint, recorded in `manifest.fst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Caller-supplied epoch (e.g. solver step count at save time).
    pub epoch: u64,
    /// Number of ranks (= segment files) the checkpoint was saved from.
    pub saved_ranks: usize,
    /// Global octant count across all segments.
    pub global_octants: u64,
}

/// Typed failure of a checkpoint save or load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A file failed its CRC32 integrity check.
    Crc {
        /// The corrupt file.
        file: PathBuf,
        /// CRC stored in the file.
        expected: u32,
        /// CRC recomputed over the file contents.
        actual: u32,
    },
    /// A file decoded inconsistently (bad magic, truncated header,
    /// non-integral payload, metadata disagreeing with the manifest).
    Format {
        /// The malformed file.
        file: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// The checkpoint was saved from `saved_ranks` ranks but segment
    /// `rank` is missing — loading the remainder would silently truncate
    /// the forest.
    MissingSegment {
        /// Index of the missing segment file.
        rank: usize,
        /// Total segments the checkpoint was saved with.
        saved_ranks: usize,
    },
    /// The segments together hold a different octant count than the
    /// manifest records.
    CountMismatch {
        /// Global octant count recorded in the manifest.
        expected: u64,
        /// Sum of octants actually found in the segments.
        actual: u64,
    },
    /// The checkpoint was written for a different spatial dimension.
    DimensionMismatch {
        /// Dimension recorded in the checkpoint.
        found: u64,
        /// Dimension of the forest type being restored.
        expected: u32,
    },
    /// No checkpoint (not even a partial one) exists in the directory.
    NoCheckpoint {
        /// The directory searched.
        dir: PathBuf,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Crc {
                file,
                expected,
                actual,
            } => write!(
                f,
                "checkpoint file {} is corrupt: stored CRC {expected:#010x}, \
                 computed {actual:#010x}",
                file.display()
            ),
            CheckpointError::Format { file, detail } => {
                write!(
                    f,
                    "checkpoint file {} is malformed: {detail}",
                    file.display()
                )
            }
            CheckpointError::MissingSegment { rank, saved_ranks } => write!(
                f,
                "checkpoint saved from {saved_ranks} ranks but segment file \
                 forest_{rank}.fst is missing"
            ),
            CheckpointError::CountMismatch { expected, actual } => write!(
                f,
                "checkpoint manifest records {expected} octants but segments \
                 hold {actual}"
            ),
            CheckpointError::DimensionMismatch { found, expected } => {
                write!(f, "checkpoint is {found}-dimensional, expected {expected}")
            }
            CheckpointError::NoCheckpoint { dir } => {
                write!(f, "no checkpoint found in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Append a CRC32 trailer and write the buffer atomically: to a `.tmp`
/// sibling first, then rename into place.
fn write_atomic(path: &Path, mut buf: Vec<u8>) -> Result<(), CheckpointError> {
    buf.extend_from_slice(&crc32(&buf).to_le_bytes());
    let tmp = path.with_extension("fst.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Validate the CRC32 trailer of `bytes` and return the body before it.
/// `origin` labels errors.
fn strip_crc<'a>(bytes: &'a [u8], origin: &Path) -> Result<&'a [u8], CheckpointError> {
    if bytes.len() < 4 {
        return Err(format_err(
            origin,
            format!("{} bytes is too short to carry a CRC trailer", bytes.len()),
        ));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(trailer.try_into().unwrap());
    let actual = crc32(body);
    if expected != actual {
        return Err(CheckpointError::Crc {
            file: origin.to_path_buf(),
            expected,
            actual,
        });
    }
    Ok(body)
}

/// Read a CRC-trailed file written by [`write_atomic`], validating and
/// stripping the trailer.
fn read_checked(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let body_len = strip_crc(&bytes, path)?.len();
    bytes.truncate(body_len);
    Ok(bytes)
}

fn segment_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("forest_{rank}.fst"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.fst")
}

fn format_err(path: &Path, detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Format {
        file: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// One decoded segment: octants plus their optional per-octant payloads.
struct Segment<D: Dim> {
    octs: Vec<(u32, Octant<D>)>,
    payloads: Vec<Vec<u8>>,
    saved_ranks: u64,
    epoch: u64,
}

fn parse_segment<D: Dim>(path: &Path) -> Result<Segment<D>, CheckpointError> {
    let bytes = read_checked(path)?;
    parse_segment_body(&bytes, path)
}

fn parse_segment_body<D: Dim>(bytes: &[u8], path: &Path) -> Result<Segment<D>, CheckpointError> {
    let mut s = bytes;
    let mut field = |name: &str| -> Result<u64, CheckpointError> {
        u64::decode(&mut s).ok_or_else(|| format_err(path, format!("truncated {name}")))
    };
    let magic = field("magic")?;
    if magic != MAGIC {
        return Err(format_err(path, "not a forust v2 checkpoint segment"));
    }
    let dim = field("dimension")?;
    if dim != D::DIM as u64 {
        return Err(CheckpointError::DimensionMismatch {
            found: dim,
            expected: D::DIM,
        });
    }
    let _trees = field("tree count")?;
    let saved_ranks = field("saved rank count")?;
    let epoch = field("epoch")?;
    let n = field("octant count")? as usize;
    let mut octs = Vec::with_capacity(n.min(1 << 20));
    for i in 0..n {
        let o = <(u32, Octant<D>)>::decode(&mut s)
            .ok_or_else(|| format_err(path, format!("octant {i} of {n} does not decode")))?;
        octs.push(o);
    }
    let payloads = Vec::<Vec<u8>>::decode(&mut s)
        .ok_or_else(|| format_err(path, "payload block does not decode"))?;
    if !payloads.is_empty() && payloads.len() != n {
        return Err(format_err(
            path,
            format!("{} payloads for {n} octants", payloads.len()),
        ));
    }
    if !s.is_empty() {
        return Err(format_err(path, format!("{} trailing bytes", s.len())));
    }
    Ok(Segment {
        octs,
        payloads,
        saved_ranks,
        epoch,
    })
}

impl<D: Dim> Forest<D> {
    /// Write this rank's partition segment to `dir/forest_<rank>.fst`
    /// with epoch 0 and no payload. See [`Forest::save_with_payload`].
    pub fn save(&self, comm: &impl Communicator, dir: &Path) -> Result<(), CheckpointError> {
        self.save_with_payload::<u8>(comm, dir, 0, None)
    }

    /// Segment body without the CRC trailer (the trailer is appended by
    /// [`write_atomic`] for files and by [`Forest::segment_bytes`] for
    /// in-memory copies, so both carry identical bytes).
    fn encode_segment_body<T: Wire>(
        &self,
        saved_ranks: usize,
        epoch: u64,
        payload: Option<&[Vec<T>]>,
    ) -> Vec<u8> {
        let octs: Vec<(u32, Octant<D>)> = self.iter_local().map(|(t, o)| (t, *o)).collect();
        if let Some(p) = payload {
            assert_eq!(
                p.len(),
                octs.len(),
                "checkpoint: one payload entry per local octant"
            );
        }
        let mut buf = Vec::new();
        MAGIC.encode(&mut buf);
        (D::DIM as u64).encode(&mut buf);
        (self.conn.num_trees() as u64).encode(&mut buf);
        (saved_ranks as u64).encode(&mut buf);
        epoch.encode(&mut buf);
        (octs.len() as u64).encode(&mut buf);
        buf.extend_from_slice(&write_vec(&octs));
        let payloads: Vec<Vec<u8>> = match payload {
            Some(p) => p.iter().map(|chunk| write_vec(chunk)).collect(),
            None => Vec::new(),
        };
        payloads.encode(&mut buf);
        buf
    }

    /// This rank's checkpoint segment as a self-contained byte blob —
    /// byte-identical to the `forest_<rank>.fst` file
    /// [`Forest::save_with_payload`] would write (CRC32 trailer included),
    /// but never touching disk. The in-memory buddy-checkpoint scheme
    /// mirrors these blobs to a partner rank so a crashed rank's state can
    /// be restored disklessly via [`Forest::load_from_segment_bytes`].
    ///
    /// Purely local (no communication): callers coordinate `saved_ranks`
    /// and `epoch` themselves.
    pub fn segment_bytes<T: Wire>(
        &self,
        saved_ranks: usize,
        epoch: u64,
        payload: Option<&[Vec<T>]>,
    ) -> Vec<u8> {
        let mut buf = self.encode_segment_body(saved_ranks, epoch, payload);
        buf.extend_from_slice(&crc32(&buf).to_le_bytes());
        buf
    }

    /// Restore a forest and payloads from in-memory segment blobs
    /// (produced by [`Forest::segment_bytes`]), one per saved rank in
    /// saved-rank order. The same re-partitioning rules as
    /// [`Forest::load_with_payload`] apply: the current rank count may
    /// differ from the saved one. Every rank must pass the complete,
    /// identical segment list.
    pub fn load_from_segment_bytes<T: Wire>(
        conn: std::sync::Arc<crate::connectivity::Connectivity<D>>,
        comm: &impl Communicator,
        segments: &[Vec<u8>],
    ) -> Result<(Self, Vec<Vec<T>>, CheckpointMeta), CheckpointError> {
        let parsed = segments
            .iter()
            .enumerate()
            .map(|(r, bytes)| {
                let origin = PathBuf::from(format!("<memory segment {r}>"));
                let body = strip_crc(bytes, &origin)?;
                parse_segment_body::<D>(body, &origin).map(|s| (origin, s))
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        if parsed.is_empty() {
            return Err(CheckpointError::NoCheckpoint {
                dir: PathBuf::from("<memory>"),
            });
        }
        let saved_ranks = parsed[0].1.saved_ranks as usize;
        if parsed.len() != saved_ranks {
            return Err(CheckpointError::MissingSegment {
                rank: parsed.len(),
                saved_ranks,
            });
        }
        Self::assemble_segments(conn, comm, parsed, None)
    }

    /// Write a checkpoint of this forest, optionally attaching one
    /// `Wire`-encoded payload per local octant (in local SFC order).
    ///
    /// Every rank must call this collectively. Segments are written
    /// atomically; after all ranks' segments are durable, rank 0 writes
    /// the manifest — so a crash at any point leaves either the previous
    /// complete checkpoint (manifest missing/old) or the new complete
    /// one, never a half-written state that [`Forest::load`] would
    /// accept.
    ///
    /// The forest's octants are saved exactly (topology only — the
    /// connectivity is rebuilt by the caller, since it is a small static
    /// structure created by a builder).
    pub fn save_with_payload<T: Wire>(
        &self,
        comm: &impl Communicator,
        dir: &Path,
        epoch: u64,
        payload: Option<&[Vec<T>]>,
    ) -> Result<(), CheckpointError> {
        self.save_files(comm, dir, epoch, payload, None)
    }

    /// [`Forest::save_with_payload`], plus an optional `sidecar` file
    /// (name, body) that rank 0 writes — atomically, CRC-trailed and
    /// synced like a segment — *before* the manifest, so a manifest that
    /// validates implies the sidecar is durable too.
    fn save_files<T: Wire>(
        &self,
        comm: &impl Communicator,
        dir: &Path,
        epoch: u64,
        payload: Option<&[Vec<T>]>,
        sidecar: Option<(&str, Vec<u8>)>,
    ) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let buf = self.encode_segment_body(comm.size(), epoch, payload);
        write_atomic(&segment_path(dir, comm.rank()), buf)?;
        if let (0, Some((name, body))) = (comm.rank(), sidecar) {
            write_atomic(&dir.join(name), body)?;
        }

        // All segments (and the sidecar) durable before the manifest
        // names them.
        comm.barrier();
        if comm.rank() == 0 {
            let global = self.num_global();
            let mut mbuf = Vec::new();
            MANIFEST_MAGIC.encode(&mut mbuf);
            (D::DIM as u64).encode(&mut mbuf);
            (comm.size() as u64).encode(&mut mbuf);
            epoch.encode(&mut mbuf);
            global.encode(&mut mbuf);
            write_atomic(&manifest_path(dir), mbuf)?;
        }
        // No rank returns (and possibly starts loading) before the
        // manifest exists.
        comm.barrier();
        Ok(())
    }

    /// Restore a forest saved with [`Forest::save`]. See
    /// [`Forest::load_with_payload`].
    pub fn load(
        conn: std::sync::Arc<crate::connectivity::Connectivity<D>>,
        comm: &impl Communicator,
        dir: &Path,
    ) -> Result<Self, CheckpointError> {
        Ok(Self::load_with_payload::<u8>(conn, comm, dir)?.0)
    }

    /// Restore a forest and its per-octant payloads.
    ///
    /// The saved rank count may differ from the current one: the saved
    /// files, in rank order, form the global SFC-ordered octant list, so
    /// each current rank reads exactly its contiguous interval of that
    /// list (as `p4est_load` does from its single-file layout), payloads
    /// included.
    ///
    /// Validation: the manifest's CRC, dimension, segment count and
    /// global octant count are checked, every segment's CRC and header
    /// are checked against the manifest, and gaps in the segment files
    /// are typed [`CheckpointError::MissingSegment`] errors. Without a
    /// manifest (e.g. a checkpoint interrupted before rank 0 wrote it),
    /// the `saved_ranks` field every segment records is used instead.
    pub fn load_with_payload<T: Wire>(
        conn: std::sync::Arc<crate::connectivity::Connectivity<D>>,
        comm: &impl Communicator,
        dir: &Path,
    ) -> Result<(Self, Vec<Vec<T>>, CheckpointMeta), CheckpointError> {
        // Learn the checkpoint shape: manifest if present, else the
        // header of segment 0.
        let mpath = manifest_path(dir);
        let manifest: Option<CheckpointMeta> = if mpath.exists() {
            let bytes = read_checked(&mpath)?;
            let mut s = bytes.as_slice();
            let mut field = |name: &str| -> Result<u64, CheckpointError> {
                u64::decode(&mut s).ok_or_else(|| format_err(&mpath, format!("truncated {name}")))
            };
            let magic = field("magic")?;
            if magic != MANIFEST_MAGIC {
                return Err(format_err(&mpath, "not a forust checkpoint manifest"));
            }
            let dim = field("dimension")?;
            if dim != D::DIM as u64 {
                return Err(CheckpointError::DimensionMismatch {
                    found: dim,
                    expected: D::DIM,
                });
            }
            let saved_ranks = field("saved rank count")? as usize;
            let epoch = field("epoch")?;
            let global_octants = field("global octant count")?;
            Some(CheckpointMeta {
                epoch,
                saved_ranks,
                global_octants,
            })
        } else {
            None
        };

        let saved_ranks = match &manifest {
            Some(m) => m.saved_ranks,
            None => {
                let first = segment_path(dir, 0);
                if !first.exists() {
                    return Err(CheckpointError::NoCheckpoint {
                        dir: dir.to_path_buf(),
                    });
                }
                parse_segment::<D>(&first)?.saved_ranks as usize
            }
        };
        if saved_ranks == 0 {
            return Err(format_err(&mpath, "manifest records zero saved ranks"));
        }

        // Read every segment.
        let mut segments = Vec::with_capacity(saved_ranks);
        for r in 0..saved_ranks {
            let path = segment_path(dir, r);
            if !path.exists() {
                return Err(CheckpointError::MissingSegment {
                    rank: r,
                    saved_ranks,
                });
            }
            let seg = parse_segment::<D>(&path)?;
            segments.push((path, seg));
        }
        Self::assemble_segments(conn, comm, segments, manifest)
    }

    /// Shared tail of the file and in-memory restore paths: validate the
    /// parsed segments against each other (and the manifest, if any),
    /// then build this rank's contiguous SFC interval of the global
    /// octant list.
    fn assemble_segments<T: Wire>(
        conn: std::sync::Arc<crate::connectivity::Connectivity<D>>,
        comm: &impl Communicator,
        segments: Vec<(PathBuf, Segment<D>)>,
        manifest: Option<CheckpointMeta>,
    ) -> Result<(Self, Vec<Vec<T>>, CheckpointMeta), CheckpointError> {
        let saved_ranks = segments.len();
        let mut total = 0u64;
        for (path, seg) in &segments {
            if seg.saved_ranks as usize != saved_ranks {
                return Err(format_err(
                    path,
                    format!(
                        "segment records {} saved ranks, expected {saved_ranks}",
                        seg.saved_ranks
                    ),
                ));
            }
            if let Some(m) = &manifest {
                if seg.epoch != m.epoch {
                    return Err(format_err(
                        path,
                        format!("segment epoch {} != manifest epoch {}", seg.epoch, m.epoch),
                    ));
                }
            }
            total += seg.octs.len() as u64;
        }
        if let Some(m) = &manifest {
            if total != m.global_octants {
                return Err(CheckpointError::CountMismatch {
                    expected: m.global_octants,
                    actual: total,
                });
            }
        }
        let meta = CheckpointMeta {
            epoch: segments[0].1.epoch,
            saved_ranks,
            global_octants: total,
        };

        // This rank's contiguous interval of the global SFC-ordered list.
        let (p, r) = (comm.size() as u64, comm.rank() as u64);
        let lo = total * r / p;
        let hi = total * (r + 1) / p;
        let mut trees: Vec<Vec<Octant<D>>> = vec![Vec::new(); conn.num_trees()];
        let mut payloads: Vec<Vec<T>> = Vec::with_capacity((hi - lo) as usize);
        let mut off = 0u64;
        for (path, seg) in segments {
            let has_payload = !seg.payloads.is_empty();
            for (i, (t, o)) in seg.octs.into_iter().enumerate() {
                if off >= lo && off < hi {
                    if (t as usize) >= trees.len() {
                        return Err(format_err(
                            &path,
                            format!("octant references tree {t} outside the connectivity"),
                        ));
                    }
                    trees[t as usize].push(o);
                    if has_payload {
                        let chunk =
                            forust_comm::try_read_vec::<T>(&seg.payloads[i]).ok_or_else(|| {
                                format_err(&path, format!("payload of octant {i} does not decode"))
                            })?;
                        payloads.push(chunk);
                    }
                }
                off += 1;
            }
        }
        Ok((Forest::from_parts(conn, trees, comm), payloads, meta))
    }
}

/// Name of the scalar-state file of a solver checkpoint.
const SOLVER_FILE: &str = "solver.fst";

/// What distinguishes one solver's checkpoints from another's.
#[derive(Debug, Clone, Copy)]
pub struct SolverFormat {
    /// Magic header of the solver's scalar-state blob.
    pub magic: u64,
    /// `f64` state values per element (nodes × components).
    pub per_element: usize,
}

impl SolverFormat {
    /// Body of the scalar-state blob (before its CRC trailer): magic,
    /// time bits, step count. Replicated on every rank.
    fn scalar_body(self, time: f64, steps: usize) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24);
        self.magic.encode(&mut buf);
        time.to_bits().encode(&mut buf);
        (steps as u64).encode(&mut buf);
        buf
    }

    /// The per-element payload chunks of a flat state vector.
    fn chunks(self, state: &[f64]) -> Vec<Vec<f64>> {
        state
            .chunks(self.per_element)
            .map(<[f64]>::to_vec)
            .collect()
    }
}

/// Decode `(time, steps)` from a CRC-checked scalar-state body.
fn parse_scalar_state(
    body: &[u8],
    magic: u64,
    origin: &Path,
) -> Result<(f64, usize), CheckpointError> {
    let mut s = body;
    if u64::decode(&mut s) != Some(magic) {
        return Err(format_err(origin, "not a state blob of this solver"));
    }
    let time = u64::decode(&mut s).ok_or_else(|| format_err(origin, "truncated time"))?;
    let steps = u64::decode(&mut s).ok_or_else(|| format_err(origin, "truncated step count"))?;
    Ok((f64::from_bits(time), steps as usize))
}

/// Split buddy blobs (`[u64 len] ++ forest segment ++ scalar state`) into
/// the per-rank forest segments and one scalar-state blob (replicated in
/// every blob; the first is used).
fn split_segment_blobs(blobs: &[Vec<u8>]) -> Result<(Vec<Vec<u8>>, &[u8]), CheckpointError> {
    let origin = Path::new("<memory solver state>");
    let mut segs = Vec::with_capacity(blobs.len());
    let mut scalar = None;
    for blob in blobs {
        let mut s = blob.as_slice();
        let len = u64::decode(&mut s)
            .ok_or_else(|| format_err(origin, "truncated segment length"))?
            as usize;
        if s.len() < len {
            let detail = "segment blob shorter than its declared length";
            return Err(format_err(origin, detail));
        }
        let (seg, rest) = s.split_at(len);
        segs.push(seg.to_vec());
        scalar.get_or_insert(rest);
    }
    let scalar = scalar.ok_or(CheckpointError::NoCheckpoint {
        dir: PathBuf::from("<memory>"),
    })?;
    Ok((segs, scalar))
}

/// An explicit solver's state restored from a checkpoint onto this rank:
/// the forest, `per_element` values per local element in SFC order (the
/// saved `f64` bits), simulated time (from its bits), and steps taken.
pub type SolverState<D> = (Forest<D>, Vec<f64>, f64, usize);

impl<D: Dim> Forest<D> {
    /// Write a recoverable checkpoint of an explicit solver into `dir`:
    /// this forest with `state` (`fmt.per_element` values per local
    /// element) as payload and epoch = `steps`, plus the CRC-trailed
    /// `solver.fst` holding the exact scalars (`time` bits, step count)
    /// under the solver's magic. Collective.
    ///
    /// Everything else a solver holds must be a deterministic function of
    /// the forest and its configuration, so that what
    /// [`Forest::load_solver`] hands back continues bitwise identically,
    /// even on a different rank count.
    pub fn save_solver(
        &self,
        comm: &impl Communicator,
        dir: &Path,
        fmt: SolverFormat,
        time: f64,
        steps: usize,
        state: &[f64],
    ) -> Result<(), CheckpointError> {
        let sidecar = (SOLVER_FILE, fmt.scalar_body(time, steps));
        let chunks = fmt.chunks(state);
        self.save_files(comm, dir, steps as u64, Some(&chunks), Some(sidecar))
    }

    /// This rank's solver checkpoint as one in-memory byte blob for
    /// diskless buddy mirroring: `[u64 segment length] ++ forest segment
    /// ++ scalar state`, the two parts byte-identical to the segment file
    /// and the `solver.fst` that [`Forest::save_solver`] would write.
    /// Purely local.
    pub fn solver_segment_bytes(
        &self,
        saved_ranks: usize,
        fmt: SolverFormat,
        time: f64,
        steps: usize,
        state: &[f64],
    ) -> Vec<u8> {
        let seg = self.segment_bytes(saved_ranks, steps as u64, Some(&fmt.chunks(state)));
        let scalars = fmt.scalar_body(time, steps);
        let mut blob = Vec::with_capacity(8 + seg.len() + scalars.len() + 4);
        (seg.len() as u64).encode(&mut blob);
        blob.extend_from_slice(&seg);
        blob.extend_from_slice(&scalars);
        blob.extend_from_slice(&crc32(&scalars).to_le_bytes());
        blob
    }

    /// Restore a solver checkpoint written by [`Forest::save_solver`],
    /// possibly onto a different rank count. On top of
    /// [`Forest::load_with_payload`]'s validation, `solver.fst` must
    /// exist, pass its CRC, carry `fmt.magic` and decode fully; its step
    /// count must equal the manifest epoch; and every local element must
    /// carry exactly `fmt.per_element` values.
    pub fn load_solver(
        conn: std::sync::Arc<crate::connectivity::Connectivity<D>>,
        comm: &impl Communicator,
        dir: &Path,
        fmt: SolverFormat,
    ) -> Result<SolverState<D>, CheckpointError> {
        let loaded = Self::load_with_payload::<f64>(conn, comm, dir)?;
        let spath = dir.join(SOLVER_FILE);
        let scalars = read_checked(&spath)?;
        Self::assemble_solver(loaded, &scalars, &spath, fmt)
    }

    /// [`Forest::load_solver`] from in-memory blobs produced by
    /// [`Forest::solver_segment_bytes`], one per saved rank in saved-rank
    /// order — the diskless (buddy) path.
    pub fn load_solver_from_segments(
        conn: std::sync::Arc<crate::connectivity::Connectivity<D>>,
        comm: &impl Communicator,
        blobs: &[Vec<u8>],
        fmt: SolverFormat,
    ) -> Result<SolverState<D>, CheckpointError> {
        let (segs, scalars) = split_segment_blobs(blobs)?;
        let loaded = Self::load_from_segment_bytes::<f64>(conn, comm, &segs)?;
        let origin = Path::new("<memory solver state>");
        Self::assemble_solver(loaded, strip_crc(scalars, origin)?, origin, fmt)
    }

    /// Shared tail of the two solver restore paths: decode the scalars
    /// and check them and the payload against the restored forest.
    fn assemble_solver(
        (forest, chunks, meta): (Self, Vec<Vec<f64>>, CheckpointMeta),
        scalars: &[u8],
        origin: &Path,
        fmt: SolverFormat,
    ) -> Result<SolverState<D>, CheckpointError> {
        let (time, steps) = parse_scalar_state(scalars, fmt.magic, origin)?;
        if steps as u64 != meta.epoch {
            let detail = "solver step count disagrees with checkpoint epoch";
            return Err(format_err(origin, detail));
        }
        if chunks.len() != forest.num_local() || chunks.iter().any(|c| c.len() != fmt.per_element) {
            let detail = "state payload does not match the mesh size";
            return Err(format_err(Path::new("<payload>"), detail));
        }
        Ok((forest, chunks.into_iter().flatten().collect(), time, steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::builders;
    use crate::dim::{D2, D3};
    use crate::forest::BalanceType;
    use forust_comm::run_spmd;
    use std::sync::Arc;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("forust_ckpt").join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn save_load_roundtrip_same_ranks() {
        let dir = tmpdir("same");
        let dir2 = dir.clone();
        let before = run_spmd(3, move |comm| {
            let conn = Arc::new(builders::moebius());
            let mut f = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1);
            f.refine(comm, true, |t, o| t == 2 && o.level < 3);
            f.balance(comm, BalanceType::Full);
            f.save(comm, &dir2).unwrap();
            f.num_global()
        });
        let dir3 = dir.clone();
        let after = run_spmd(3, move |comm| {
            let conn = Arc::new(builders::moebius());
            let f = Forest::<D2>::load(conn, comm, &dir3).unwrap();
            f.check_valid(comm);
            f.num_global()
        });
        assert_eq!(before[0], after[0]);
    }

    #[test]
    fn load_onto_different_rank_count() {
        let dir = tmpdir("differ");
        let dir2 = dir.clone();
        let before = run_spmd(4, move |comm| {
            let conn = Arc::new(builders::rotcubes6());
            let mut f = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            f.refine(comm, false, |t, _| t == 0);
            f.save(comm, &dir2).unwrap();
            f.num_global()
        });
        let dir3 = dir.clone();
        let after = run_spmd(2, move |comm| {
            let conn = Arc::new(builders::rotcubes6());
            let f = Forest::<D3>::load(conn, comm, &dir3).unwrap();
            f.check_valid(comm);
            let counts = f.counts().to_vec();
            assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
            f.num_global()
        });
        assert_eq!(before[0], after[0]);
    }

    /// Save a refined 2D forest from `ranks` ranks and return its global
    /// octant count.
    fn save_sample(dir: &Path, ranks: usize) -> u64 {
        let dir = dir.to_path_buf();
        run_spmd(ranks, move |comm| {
            let conn = Arc::new(builders::moebius());
            let mut f = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1);
            f.refine(comm, true, |t, o| t == 1 && o.level < 3);
            f.balance(comm, BalanceType::Full);
            f.save(comm, &dir).unwrap();
            f.num_global()
        })[0]
    }

    fn load_err(dir: &Path) -> CheckpointError {
        let dir = dir.to_path_buf();
        run_spmd(1, move |comm| {
            let conn = Arc::new(builders::moebius());
            Forest::<D2>::load(conn, comm, &dir)
                .map(|_| ())
                .unwrap_err()
        })
        .pop()
        .unwrap()
    }

    #[test]
    fn corrupt_segment_rejected() {
        let dir = tmpdir("corrupt");
        save_sample(&dir, 2);
        // Flip one bit in the middle of segment 1.
        let seg = dir.join("forest_1.fst");
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();
        let err = load_err(&dir);
        assert!(matches!(err, CheckpointError::Crc { .. }), "{err:?}");
    }

    #[test]
    fn corrupt_manifest_rejected() {
        let dir = tmpdir("corrupt_manifest");
        save_sample(&dir, 2);
        let m = dir.join("manifest.fst");
        let mut bytes = std::fs::read(&m).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&m, &bytes).unwrap();
        let err = load_err(&dir);
        assert!(matches!(err, CheckpointError::Crc { .. }), "{err:?}");
    }

    #[test]
    fn missing_segment_rejected_not_truncated() {
        // The regression the `saved_ranks` header exists to catch: a gap
        // in the segment files must be a typed error, not a silently
        // smaller forest.
        let dir = tmpdir("missing");
        save_sample(&dir, 3);
        std::fs::remove_file(dir.join("forest_1.fst")).unwrap();
        let err = load_err(&dir);
        assert!(
            matches!(
                err,
                CheckpointError::MissingSegment {
                    rank: 1,
                    saved_ranks: 3
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn missing_segment_rejected_without_manifest() {
        // Same gap detection when the manifest is absent (interrupted
        // save): segment 0's own saved_ranks header drives validation.
        let dir = tmpdir("missing_nomanifest");
        save_sample(&dir, 3);
        std::fs::remove_file(dir.join("manifest.fst")).unwrap();
        std::fs::remove_file(dir.join("forest_2.fst")).unwrap();
        let err = load_err(&dir);
        assert!(
            matches!(
                err,
                CheckpointError::MissingSegment {
                    rank: 2,
                    saved_ranks: 3
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn stale_tmp_from_interrupted_save_is_ignored() {
        // A crash mid-write leaves `*.fst.tmp` garbage but never a
        // partial file under the final name; a later load must succeed
        // and a later save must overwrite the stale tmp cleanly.
        let dir = tmpdir("stale_tmp");
        let before = save_sample(&dir, 2);
        std::fs::write(dir.join("forest_1.fst.tmp"), b"partial garbage").unwrap();
        std::fs::write(dir.join("manifest.fst.tmp"), b"more garbage").unwrap();
        let dir2 = dir.clone();
        let after = run_spmd(2, move |comm| {
            let conn = Arc::new(builders::moebius());
            let f = Forest::<D2>::load(conn, comm, &dir2).unwrap();
            f.check_valid(comm);
            f.num_global()
        });
        assert_eq!(before, after[0]);
        // Re-saving goes through the same tmp names and replaces them.
        save_sample(&dir, 2);
        assert_eq!(save_sample(&dir, 2), before);
    }

    #[test]
    fn empty_dir_is_no_checkpoint() {
        let dir = tmpdir("empty");
        let err = load_err(&dir);
        assert!(
            matches!(err, CheckpointError::NoCheckpoint { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn payload_rides_repartition_onto_fewer_ranks() {
        // Per-octant payloads must land on whichever rank owns the
        // octant after restore, in SFC order — the property the solver
        // checkpoint relies on.
        let dir = tmpdir("payload");
        let dir2 = dir.clone();
        run_spmd(3, move |comm| {
            let conn = Arc::new(builders::moebius());
            let mut f = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1);
            f.refine(comm, true, |t, o| t == 0 && o.level < 3);
            // Payload of octant = its global SFC position, twice.
            let start: u64 = f.counts()[..comm.rank()].iter().sum();
            let payload: Vec<Vec<u64>> = (0..f.num_local())
                .map(|i| vec![start + i as u64, 2 * (start + i as u64)])
                .collect();
            f.save_with_payload(comm, &dir2, 42, Some(&payload))
                .unwrap();
        });
        run_spmd(2, move |comm| {
            let conn = Arc::new(builders::moebius());
            let (f, payload, meta) =
                Forest::<D2>::load_with_payload::<u64>(conn, comm, &dir).unwrap();
            f.check_valid(comm);
            assert_eq!(meta.epoch, 42);
            assert_eq!(meta.saved_ranks, 3);
            assert_eq!(meta.global_octants, f.num_global());
            assert_eq!(payload.len(), f.num_local());
            let start: u64 = f.counts()[..comm.rank()].iter().sum();
            for (i, chunk) in payload.iter().enumerate() {
                let g = start + i as u64;
                assert_eq!(chunk, &vec![g, 2 * g]);
            }
        });
    }

    #[test]
    fn in_memory_segments_roundtrip_onto_fewer_ranks() {
        // segment_bytes -> load_from_segment_bytes must behave exactly
        // like the file path, including payload repartitioning — this is
        // the diskless buddy-restore building block.
        let blobs = run_spmd(3, move |comm| {
            let conn = Arc::new(builders::moebius());
            let mut f = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1);
            f.refine(comm, true, |t, o| t == 0 && o.level < 3);
            let start: u64 = f.counts()[..comm.rank()].iter().sum();
            let payload: Vec<Vec<u64>> =
                (0..f.num_local()).map(|i| vec![start + i as u64]).collect();
            f.segment_bytes(comm.size(), 7, Some(&payload))
        });
        // Corruption in a blob is rejected, same as for files.
        {
            let mut bad = blobs.clone();
            let mid = bad[1].len() / 2;
            bad[1][mid] ^= 0x40;
            run_spmd(1, move |comm| {
                let conn = Arc::new(builders::moebius());
                let err = Forest::<D2>::load_from_segment_bytes::<u64>(conn, comm, &bad)
                    .map(|_| ())
                    .unwrap_err();
                assert!(matches!(err, CheckpointError::Crc { .. }), "{err:?}");
            });
        }
        run_spmd(2, move |comm| {
            let conn = Arc::new(builders::moebius());
            let (f, payload, meta) =
                Forest::<D2>::load_from_segment_bytes::<u64>(conn, comm, &blobs).unwrap();
            f.check_valid(comm);
            assert_eq!(meta.epoch, 7);
            assert_eq!(meta.saved_ranks, 3);
            assert_eq!(payload.len(), f.num_local());
            let start: u64 = f.counts()[..comm.rank()].iter().sum();
            for (i, chunk) in payload.iter().enumerate() {
                assert_eq!(chunk, &vec![start + i as u64]);
            }
        });
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let dir = tmpdir("dim");
        let dir2 = dir.clone();
        run_spmd(1, move |comm| {
            let conn = Arc::new(builders::unit2d());
            let f = Forest::<D2>::new_uniform(conn, comm, 1);
            f.save(comm, &dir2).unwrap();
        });
        run_spmd(1, move |comm| {
            let conn = Arc::new(builders::unit3d());
            let err = Forest::<D3>::load(conn, comm, &dir).unwrap_err();
            assert!(
                matches!(err, CheckpointError::DimensionMismatch { found: 2, .. }),
                "{err:?}"
            );
        });
    }
}
