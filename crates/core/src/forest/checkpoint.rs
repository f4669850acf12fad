//! Forest checkpoint and restore (the `p4est_save`/`p4est_load` analogue),
//! hardened into a recoverable format.
//!
//! A checkpoint is one self-contained **segment blob** per saving rank,
//! encoded by [`Forest::segment_bytes`]: a fixed header, the rank's
//! octants in SFC order, `per_element` state values per octant and a
//! CRC32 trailer, all `Wire`-encoded (independent of Rust struct layout,
//! so checkpoints are portable across builds). Disk and memory hold the
//! same bytes — [`write_dir`] writes each blob verbatim as
//! `forest_<rank>.fst`, the buddy scheme mirrors it to a partner rank —
//! and [`Forest::from_segments`] is the one decoder for both. The blobs,
//! in saved-rank order, form the global SFC-ordered octant list, so each
//! current rank takes its contiguous interval of that list (as
//! `p4est_load` does) and the rank count may differ from the saved one.
//!
//! Robustness guarantees (the properties production restart leans on):
//!
//! - **Atomic files**: every file is written to a `.tmp` sibling, synced
//!   and renamed into place, so a crash mid-write never leaves a
//!   plausible but truncated file under the final name.
//! - **CRC32 on every blob**: the trailer travels with the blob, so a
//!   file and a mirrored copy are checked alike; corruption is a typed
//!   [`CheckpointError::Crc`], never silently decoded.
//! - **One header, checked on both paths**: dimension, tree count, saved
//!   rank count, global octant count, the writer's solver magic, epoch
//!   and time bits. Every blob of a set must carry the same header, the
//!   set must hold `saved_ranks` blobs, and their octants must add up to
//!   the global count — so a set mixing two epochs or two partitions is a
//!   typed error whether it came from disk or from memory.
//! - **Manifest**: after every segment is durable, rank 0 writes its own
//!   header as `manifest.fst`; [`read_dir`] checks every segment file
//!   against it, and a missing file is a typed
//!   [`CheckpointError::MissingSegment`] instead of a silently truncated
//!   forest.

use std::io::Write as IoWrite;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use forust_comm::{crc32, try_read_vec, Communicator, Wire};

use crate::connectivity::Connectivity;
use crate::dim::Dim;
use crate::forest::Forest;
use crate::octant::Octant;

/// First header field of every segment: guards against decoding another
/// file or an older format version (a v2 file is a `Format` error).
const MAGIC: u64 = 0x464f_5255_5354_0003; // "FORUST" v3
/// Bytes of the fixed header: eight `u64` fields.
const HEADER_LEN: usize = 8 * 8;
/// Name of the manifest file of a checkpoint directory.
const MANIFEST: &str = "manifest.fst";

/// What distinguishes one solver's checkpoints from another's: the magic
/// written into the header and the state values per element. A restore
/// under a different magic, or a payload of a different size, is a typed
/// [`CheckpointError::Format`] error.
#[derive(Debug, Clone, Copy)]
pub struct SolverFormat {
    /// The writer's magic.
    pub magic: u64,
    /// State values per element (e.g. nodes × components).
    pub per_element: usize,
}

/// The shared scalars of a restored checkpoint, from its header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointMeta {
    /// Caller-supplied epoch (the solver's step or iteration count).
    pub epoch: u64,
    /// Simulated time, restored from its saved bits.
    pub time: f64,
    /// Number of ranks (= segments) the checkpoint was saved from.
    pub saved_ranks: usize,
    /// Global octant count across all segments.
    pub global_octants: u64,
}

/// Typed failure of a checkpoint save or load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A blob failed its CRC32 integrity check.
    Crc {
        /// The corrupt file or segment.
        file: PathBuf,
        /// CRC stored in the trailer.
        expected: u32,
        /// CRC recomputed over the contents.
        actual: u32,
    },
    /// A blob decoded inconsistently (bad magic, truncated header, another
    /// solver's magic, a payload of the wrong size, a header disagreeing
    /// with the rest of the set).
    Format {
        /// The malformed file or segment.
        file: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// The checkpoint was saved from `saved_ranks` ranks but segment
    /// `rank` is missing — loading the remainder would silently truncate
    /// the forest.
    MissingSegment {
        /// Index of the missing segment.
        rank: usize,
        /// Total segments the checkpoint was saved with.
        saved_ranks: usize,
    },
    /// The segments together hold a different octant count than their
    /// header records.
    CountMismatch {
        /// Global octant count recorded in the header.
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
    /// No checkpoint (not even a partial one) exists.
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
                "checkpoint {} is corrupt: stored CRC {expected:#010x}, \
                 computed {actual:#010x}",
                file.display()
            ),
            CheckpointError::Format { file, detail } => {
                write!(f, "checkpoint {} is malformed: {detail}", file.display())
            }
            CheckpointError::MissingSegment { rank, saved_ranks } => write!(
                f,
                "checkpoint saved from {saved_ranks} ranks but segment {rank} is missing"
            ),
            CheckpointError::CountMismatch { expected, actual } => write!(
                f,
                "checkpoint header records {expected} octants but segments hold {actual}"
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

fn format_err(origin: &Path, detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Format {
        file: origin.to_path_buf(),
        detail: detail.into(),
    }
}

/// Append the CRC32 trailer of `buf`.
fn with_crc(mut buf: Vec<u8>) -> Vec<u8> {
    buf.extend_from_slice(&crc32(&buf).to_le_bytes());
    buf
}

/// Validate the CRC32 trailer of `bytes` and return the body before it.
fn strip_crc<'a>(bytes: &'a [u8], origin: &Path) -> Result<&'a [u8], CheckpointError> {
    if bytes.len() < 4 {
        let detail = format!("{} bytes is too short to carry a CRC trailer", bytes.len());
        return Err(format_err(origin, detail));
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

/// Write `bytes` atomically: to a `.tmp` sibling, synced, then renamed
/// into place.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("fst.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn segment_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("forest_{rank}.fst"))
}

/// The fixed header every segment starts with, and the whole of the
/// manifest: everything a restore checks before it reads an octant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    dim: u64,
    trees: u64,
    saved_ranks: u64,
    global_octants: u64,
    magic: u64,
    epoch: u64,
    time_bits: u64,
}

impl Header {
    fn encode(&self, buf: &mut Vec<u8>) {
        let Header {
            dim,
            trees,
            saved_ranks,
            global_octants,
            magic,
            epoch,
            time_bits,
        } = *self;
        [
            MAGIC,
            dim,
            trees,
            saved_ranks,
            global_octants,
            magic,
            epoch,
            time_bits,
        ]
        .encode(buf);
    }

    /// Check the CRC trailer of `blob`, decode its header, and return the
    /// header with the body after it.
    fn parse<'a>(blob: &'a [u8], origin: &Path) -> Result<(Header, &'a [u8]), CheckpointError> {
        let mut s = strip_crc(blob, origin)?;
        let fields =
            <[u64; 8]>::decode(&mut s).ok_or_else(|| format_err(origin, "truncated header"))?;
        let [magic, dim, trees, saved_ranks, global_octants, solver, epoch, time_bits] = fields;
        if magic != MAGIC {
            return Err(format_err(origin, "not a forust v3 checkpoint"));
        }
        let head = Header {
            dim,
            trees,
            saved_ranks,
            global_octants,
            magic: solver,
            epoch,
            time_bits,
        };
        Ok((head, s))
    }
}

/// Write one checkpoint into `dir`: this rank's segment `blob` (from
/// [`Forest::segment_bytes`]) verbatim as `forest_<rank>.fst`, then —
/// once every rank's segment is durable — rank 0 writes its own header as
/// `manifest.fst`. Collective. A crash at any point leaves either no
/// manifest, or a manifest whose segments are all durable; never a
/// half-written set that [`read_dir`] would accept as complete.
pub fn write_dir(comm: &impl Communicator, dir: &Path, blob: &[u8]) -> Result<(), CheckpointError> {
    std::fs::create_dir_all(dir)?;
    write_atomic(&segment_path(dir, comm.rank()), blob)?;
    // All segments durable before the manifest names them.
    comm.barrier();
    if comm.rank() == 0 {
        write_atomic(&dir.join(MANIFEST), &with_crc(blob[..HEADER_LEN].to_vec()))?;
    }
    // No rank returns (and possibly starts reading) before the manifest
    // exists.
    comm.barrier();
    Ok(())
}

/// Read the segment blobs of the checkpoint in `dir`, in saved-rank order,
/// byte for byte as [`write_dir`] received them.
///
/// The manifest fixes the segment count, and every segment's CRC and
/// header — dimension, epoch and global count included — must agree with
/// it. Without a manifest (a save interrupted before rank 0 wrote it) the
/// header of segment 0 stands in, so a gap in the files is still a typed
/// [`CheckpointError::MissingSegment`].
pub fn read_dir(dir: &Path) -> Result<Vec<Vec<u8>>, CheckpointError> {
    let (manifest, first) = (dir.join(MANIFEST), segment_path(dir, 0));
    let origin = match (manifest.exists(), first.exists()) {
        (true, _) => manifest,
        (false, true) => first,
        (false, false) => {
            return Err(CheckpointError::NoCheckpoint {
                dir: dir.to_path_buf(),
            })
        }
    };
    let want = Header::parse(&std::fs::read(&origin)?, &origin)?.0;
    let saved_ranks = want.saved_ranks as usize;
    (0..saved_ranks)
        .map(|r| {
            let path = segment_path(dir, r);
            if !path.exists() {
                return Err(CheckpointError::MissingSegment {
                    rank: r,
                    saved_ranks,
                });
            }
            let blob = std::fs::read(&path)?;
            if Header::parse(&blob, &path)?.0 != want {
                return Err(format_err(
                    &path,
                    "segment header disagrees with the manifest",
                ));
            }
            Ok(blob)
        })
        .collect()
}

impl<D: Dim> Forest<D> {
    /// This rank's checkpoint segment: the header (saved under
    /// `fmt.magic`, with `epoch` and the bits of `time`), the local
    /// octants, `state` (`fmt.per_element` values per local octant, in
    /// SFC order), and a CRC32 trailer. Purely local; callers coordinate
    /// `saved_ranks`, `epoch` and `time` themselves.
    ///
    /// Everything else a solver holds must be a deterministic function of
    /// the forest and its configuration, so that what
    /// [`Forest::from_segments`] hands back continues bitwise identically,
    /// even on a different rank count.
    pub fn segment_bytes<T: Wire>(
        &self,
        saved_ranks: usize,
        fmt: SolverFormat,
        epoch: u64,
        time: f64,
        state: &[T],
    ) -> Vec<u8> {
        let n = self.num_local();
        assert_eq!(
            state.len(),
            n * fmt.per_element,
            "checkpoint: per_element state values per local octant"
        );
        let head = Header {
            dim: D::DIM as u64,
            trees: self.conn.num_trees() as u64,
            saved_ranks: saved_ranks as u64,
            global_octants: self.num_global(),
            magic: fmt.magic,
            epoch,
            time_bits: time.to_bits(),
        };
        let mut buf = Vec::new();
        head.encode(&mut buf);
        (n as u64).encode(&mut buf);
        for (t, o) in self.iter_local() {
            (t, *o).encode(&mut buf);
        }
        for v in state {
            v.encode(&mut buf);
        }
        with_crc(buf)
    }

    /// Restore a forest and its state from segment blobs, one per saved
    /// rank in saved-rank order — from [`read_dir`] or from buddy memory.
    /// Collective; every rank must pass the identical blob set. This rank
    /// gets its contiguous interval of the global octant list and the
    /// state values riding with it.
    ///
    /// Checks, in order, per blob: CRC, format magic, dimension, solver
    /// magic, tree count, header equal to segment 0's, no fewer blobs than
    /// saved ranks, octants and state decoding to exactly
    /// `fmt.per_element` values per octant; then the octant total against
    /// the header's global count. Every check depends only on the blobs,
    /// so all ranks fail alike.
    pub fn from_segments<T: Wire>(
        conn: Arc<Connectivity<D>>,
        comm: &impl Communicator,
        segments: &[Vec<u8>],
        fmt: SolverFormat,
    ) -> Result<(Self, Vec<T>, CheckpointMeta), CheckpointError> {
        let (p, rank) = (comm.size() as u64, comm.rank() as u64);
        let pe = fmt.per_element;
        let mut want: Option<Header> = None;
        let mut trees: Vec<Vec<Octant<D>>> = vec![Vec::new(); conn.num_trees()];
        let mut state = Vec::new();
        let mut total = 0u64;
        for (i, blob) in segments.iter().enumerate() {
            let origin = PathBuf::from(format!("<segment {i}>"));
            let (head, mut s) = Header::parse(blob, &origin)?;
            if head.dim != D::DIM as u64 {
                return Err(CheckpointError::DimensionMismatch {
                    found: head.dim,
                    expected: D::DIM,
                });
            }
            if head.magic != fmt.magic {
                let detail = format!(
                    "written under solver magic {:#x}, expected {:#x}",
                    head.magic, fmt.magic
                );
                return Err(format_err(&origin, detail));
            }
            if head.trees != trees.len() as u64 {
                let detail = format!("{} trees, the connectivity has {}", head.trees, trees.len());
                return Err(format_err(&origin, detail));
            }
            let want = *want.get_or_insert(head);
            if head != want {
                return Err(format_err(&origin, "header disagrees with segment 0's"));
            }
            let saved_ranks = want.saved_ranks as usize;
            if segments.len() < saved_ranks {
                return Err(CheckpointError::MissingSegment {
                    rank: segments.len(),
                    saved_ranks,
                });
            }

            let octs: Vec<(u32, Octant<D>)> = u64::decode(&mut s)
                .and_then(|n| (0..n).map(|_| Wire::decode(&mut s)).collect())
                .ok_or_else(|| format_err(&origin, "octants do not decode"))?;
            if octs.iter().any(|&(t, _)| t as usize >= trees.len()) {
                return Err(format_err(&origin, "octant outside the connectivity"));
            }
            let mut values = try_read_vec::<T>(s)
                .ok_or_else(|| format_err(&origin, "state values do not decode"))?;
            if values.len() != octs.len() * pe {
                let detail = format!(
                    "{} state values for {} octants of {pe}",
                    values.len(),
                    octs.len()
                );
                return Err(format_err(&origin, detail));
            }

            // The part of this segment inside this rank's interval (u128:
            // a header's count cannot overflow the cut).
            let n = octs.len() as u64;
            let cut = |r: u64| (want.global_octants as u128 * r as u128 / p as u128) as u64;
            let (lo, hi) = (cut(rank), cut(rank + 1));
            let a = (lo.clamp(total, total + n) - total) as usize;
            let b = (hi.clamp(total, total + n) - total) as usize;
            for &(t, o) in &octs[a..b] {
                trees[t as usize].push(o);
            }
            state.extend(values.drain(a * pe..b * pe));
            total += n;
        }
        let want = want.ok_or_else(|| CheckpointError::NoCheckpoint {
            dir: PathBuf::from("<no segments>"),
        })?;
        if total != want.global_octants {
            return Err(CheckpointError::CountMismatch {
                expected: want.global_octants,
                actual: total,
            });
        }
        let meta = CheckpointMeta {
            epoch: want.epoch,
            time: f64::from_bits(want.time_bits),
            saved_ranks: want.saved_ranks as usize,
            global_octants: total,
        };
        Ok((Forest::from_parts(conn, trees, comm), state, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::builders;
    use crate::dim::{D2, D3};
    use crate::forest::BalanceType;
    use forust_comm::run_spmd;

    /// A forest-only checkpoint: no state values.
    const BARE: SolverFormat = SolverFormat {
        magic: 0x4241_5245,
        per_element: 0,
    };

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("forust_ckpt").join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn save<D: Dim>(
        f: &Forest<D>,
        comm: &impl Communicator,
        dir: &Path,
    ) -> Result<(), CheckpointError> {
        write_dir(
            comm,
            dir,
            &f.segment_bytes::<u8>(comm.size(), BARE, 0, 0.0, &[]),
        )
    }

    fn load<D: Dim>(
        conn: Arc<Connectivity<D>>,
        comm: &impl Communicator,
        dir: &Path,
    ) -> Result<Forest<D>, CheckpointError> {
        Ok(Forest::from_segments::<u8>(conn, comm, &read_dir(dir)?, BARE)?.0)
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
            save(&f, comm, &dir2).unwrap();
            f.num_global()
        });
        let dir3 = dir.clone();
        let after = run_spmd(3, move |comm| {
            let conn = Arc::new(builders::moebius());
            let f = load::<D2>(conn, comm, &dir3).unwrap();
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
            save(&f, comm, &dir2).unwrap();
            f.num_global()
        });
        let dir3 = dir.clone();
        let after = run_spmd(2, move |comm| {
            let conn = Arc::new(builders::rotcubes6());
            let f = load::<D3>(conn, comm, &dir3).unwrap();
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
            save(&f, comm, &dir).unwrap();
            f.num_global()
        })[0]
    }

    fn load_err(dir: &Path) -> CheckpointError {
        let dir = dir.to_path_buf();
        run_spmd(1, move |comm| {
            let conn = Arc::new(builders::moebius());
            load::<D2>(conn, comm, &dir).map(|_| ()).unwrap_err()
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
            let f = load::<D2>(conn, comm, &dir2).unwrap();
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
        const PAIRS: SolverFormat = SolverFormat {
            magic: 0x5041_4952,
            per_element: 2,
        };
        let dir = tmpdir("payload");
        let dir2 = dir.clone();
        run_spmd(3, move |comm| {
            let conn = Arc::new(builders::moebius());
            let mut f = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1);
            f.refine(comm, true, |t, o| t == 0 && o.level < 3);
            // Payload of octant = its global SFC position, twice.
            let start: u64 = f.counts()[..comm.rank()].iter().sum();
            let payload: Vec<u64> = (0..f.num_local())
                .flat_map(|i| [start + i as u64, 2 * (start + i as u64)])
                .collect();
            let blob = f.segment_bytes(comm.size(), PAIRS, 42, 0.0, &payload);
            write_dir(comm, &dir2, &blob).unwrap();
        });
        run_spmd(2, move |comm| {
            let conn = Arc::new(builders::moebius());
            let blobs = read_dir(&dir).unwrap();
            let (f, payload, meta) =
                Forest::<D2>::from_segments::<u64>(conn, comm, &blobs, PAIRS).unwrap();
            let payload: Vec<Vec<u64>> = payload.chunks(2).map(<[u64]>::to_vec).collect();
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

    /// One value per octant: its global SFC position.
    const POSITION: SolverFormat = SolverFormat {
        magic: 0x504f_5349,
        per_element: 1,
    };

    /// Segment blobs of a refined 2D forest on 3 ranks, each octant
    /// carrying its global position, saved under `epoch` after
    /// partitioning with `weight`.
    fn sample_blobs(epoch: u64, weight: fn(u32) -> u64) -> Vec<Vec<u8>> {
        run_spmd(3, move |comm| {
            let conn = Arc::new(builders::moebius());
            let mut f = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1);
            f.refine(comm, true, |t, o| t == 0 && o.level < 3);
            f.partition_weighted(comm, |t, _| weight(t));
            let start: u64 = f.counts()[..comm.rank()].iter().sum();
            let payload: Vec<u64> = (0..f.num_local()).map(|i| start + i as u64).collect();
            f.segment_bytes(comm.size(), POSITION, epoch, 0.5, &payload)
        })
    }

    fn restore_err(blobs: Vec<Vec<u8>>, fmt: SolverFormat) -> CheckpointError {
        run_spmd(1, move |comm| {
            let conn = Arc::new(builders::moebius());
            Forest::<D2>::from_segments::<u64>(conn, comm, &blobs, fmt)
                .map(|_| ())
                .unwrap_err()
        })
        .pop()
        .unwrap()
    }

    #[test]
    fn in_memory_segments_roundtrip_onto_fewer_ranks() {
        // segment_bytes -> from_segments must behave exactly like the
        // file path, including payload repartitioning — this is the
        // diskless buddy-restore building block.
        let blobs = run_spmd(3, move |comm| {
            let conn = Arc::new(builders::moebius());
            let mut f = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1);
            f.refine(comm, true, |t, o| t == 0 && o.level < 3);
            let start: u64 = f.counts()[..comm.rank()].iter().sum();
            let payload: Vec<u64> = (0..f.num_local()).map(|i| start + i as u64).collect();
            f.segment_bytes(comm.size(), POSITION, 7, 0.0, &payload)
        });
        // Corruption in a blob is rejected, same as for files.
        {
            let mut bad = blobs.clone();
            let mid = bad[1].len() / 2;
            bad[1][mid] ^= 0x40;
            run_spmd(1, move |comm| {
                let conn = Arc::new(builders::moebius());
                let err = Forest::<D2>::from_segments::<u64>(conn, comm, &bad, POSITION)
                    .map(|_| ())
                    .unwrap_err();
                assert!(matches!(err, CheckpointError::Crc { .. }), "{err:?}");
            });
        }
        run_spmd(2, move |comm| {
            let conn = Arc::new(builders::moebius());
            let (f, payload, meta) =
                Forest::<D2>::from_segments::<u64>(conn, comm, &blobs, POSITION).unwrap();
            let payload: Vec<Vec<u64>> = payload.chunks(1).map(<[u64]>::to_vec).collect();
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
            save(&f, comm, &dir2).unwrap();
        });
        run_spmd(1, move |comm| {
            let conn = Arc::new(builders::unit3d());
            let err = load::<D3>(conn, comm, &dir).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::DimensionMismatch { found: 2, .. }),
                "{err:?}"
            );
        });
    }

    #[test]
    fn mixed_epochs_rejected_on_both_paths() {
        // The memory path used to skip the epoch check: a set mixing two
        // epochs restored as if it were one checkpoint.
        let (old, new) = (sample_blobs(3, |_| 1), sample_blobs(4, |_| 1));
        let mixed = vec![new[0].clone(), old[1].clone(), new[2].clone()];
        let err = restore_err(mixed, POSITION);
        match err {
            CheckpointError::Format { file, .. } => assert_eq!(file, Path::new("<segment 1>")),
            other => panic!("expected a Format error on segment 1, got {other:?}"),
        }
        // On disk the manifest catches the stale segment first.
        let dir = tmpdir("mixed_epochs");
        for (r, blob) in new.iter().enumerate() {
            std::fs::write(segment_path(&dir, r), blob).unwrap();
        }
        std::fs::write(dir.join(MANIFEST), with_crc(new[0][..HEADER_LEN].to_vec())).unwrap();
        std::fs::write(segment_path(&dir, 1), &old[1]).unwrap();
        match read_dir(&dir).unwrap_err() {
            CheckpointError::Format { file, .. } => assert_eq!(file, segment_path(&dir, 1)),
            other => panic!("expected a Format error on forest_1.fst, got {other:?}"),
        }
    }

    #[test]
    fn count_mismatch_rejected_on_both_paths() {
        // Two partitions of the same forest at the same epoch: every
        // header agrees, but a set taking segments from both does not add
        // up to the global octant count.
        let even = sample_blobs(5, |_| 1);
        let skewed = sample_blobs(5, |t| if t == 0 { 9 } else { 1 });
        assert_eq!(even[0][..HEADER_LEN], skewed[0][..HEADER_LEN]);
        let mixed = vec![even[0].clone(), skewed[1].clone(), even[2].clone()];
        let err = restore_err(mixed.clone(), POSITION);
        assert!(
            matches!(err, CheckpointError::CountMismatch { expected, actual } if expected != actual),
            "{err:?}"
        );
        let dir = tmpdir("count_mismatch");
        let d = dir.clone();
        run_spmd(3, move |comm| {
            write_dir(comm, &d, &mixed[comm.rank()]).unwrap()
        });
        let err = restore_err(read_dir(&dir).unwrap(), POSITION);
        assert!(
            matches!(err, CheckpointError::CountMismatch { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn solver_magic_and_per_element_size_checked() {
        let blobs = sample_blobs(1, |_| 1);
        let foreign = SolverFormat {
            magic: POSITION.magic + 1,
            ..POSITION
        };
        match restore_err(blobs.clone(), foreign) {
            CheckpointError::Format { file, detail } => {
                assert_eq!(file, Path::new("<segment 0>"));
                assert!(detail.contains("magic"), "{detail}");
            }
            other => panic!("expected the magic check's Format error, got {other:?}"),
        }
        let wider = SolverFormat {
            per_element: 2,
            ..POSITION
        };
        match restore_err(blobs, wider) {
            CheckpointError::Format { detail, .. } => {
                assert!(detail.contains("state values"), "{detail}")
            }
            other => panic!("expected the per_element check's Format error, got {other:?}"),
        }
    }

    #[test]
    fn v2_segment_is_a_format_error() {
        let dir = tmpdir("v2");
        let mut body = Vec::new();
        [0x464f_5255_5354_0002u64, 2, 5, 1, 0, 0, 0, 0, 0].encode(&mut body);
        std::fs::write(segment_path(&dir, 0), with_crc(body)).unwrap();
        match read_dir(&dir).unwrap_err() {
            CheckpointError::Format { detail, .. } => assert!(detail.contains("v3"), "{detail}"),
            other => panic!("expected a Format error, got {other:?}"),
        }
    }

    #[test]
    fn manifest_written_after_every_segment() {
        // Rank 2 writes its segment last; the manifest must still be
        // younger than it, and present when any rank returns.
        let dir = tmpdir("manifest_order");
        let d = dir.clone();
        run_spmd(3, move |comm| {
            let conn = Arc::new(builders::moebius());
            let f = Forest::<D2>::new_uniform(conn, comm, 1);
            std::thread::sleep(std::time::Duration::from_millis(40 * comm.rank() as u64));
            save(&f, comm, &d).unwrap();
            assert!(d.join(MANIFEST).exists());
        });
        let mtime = |p: PathBuf| std::fs::metadata(p).unwrap().modified().unwrap();
        let manifest = mtime(dir.join(MANIFEST));
        for r in 0..3 {
            assert!(
                mtime(segment_path(&dir, r)) <= manifest,
                "segment {r} after the manifest"
            );
        }
    }
}
