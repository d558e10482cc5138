//! Checkpoint / restart — the paper's fault-tolerance future-work item.
//!
//! `ctx.checkpoint(dir, &done)` makes every PE serialize its local chares
//! (state, reduction sequence numbers, and any when-guard-buffered
//! messages) plus the collection metadata into `dir/pe<N>.ckpt`. A later
//! `Runtime::run_restored(dir, entry)` reads every file, re-installs the
//! collections and redistributes the chares by their placement policy —
//! possibly onto a *different* number of PEs — before running `entry`,
//! which re-kicks the application (e.g. re-broadcasts its Start message
//! with the saved iteration number).
//!
//! On top of the manual protocol sits Charm++-style *double in-memory
//! (buddy) checkpointing*: with `Runtime::auto_checkpoint(every, store)`
//! armed, the runtime snapshots every PE at a quiescence cadence and each
//! PE's image is also held in memory by its buddy `(pe+1) % npes`, so the
//! supervisor can rebuild a dead PE's state from the surviving copy. Every
//! image carries a monotonically increasing recovery `epoch`; restores only
//! accept a set of files that agree on it.
//!
//! Requirements, as in Charm++'s double checkpointing: all chare types are
//! registered migratable, and the checkpoint is taken at an application
//! sync point with no messages in flight and no suspended coroutines
//! (quiescence detection is the easy way to guarantee this — the automatic
//! cadence piggybacks on it). Futures and coroutine stacks are *not*
//! checkpointed.

use std::path::{Path, PathBuf};

use charm_wire::{wire_struct, WireBytes};

use crate::collections::CollSpec;
use crate::ids::{CollectionId, FutureId, Index, Pe};
use crate::msg::{EnvKind, LocMsg, MigrateMsg, OutPayload};
use crate::pe::{main_chare_id, PeState};

/// One serialized chare in a checkpoint.
#[derive(Clone)]
pub struct CkptChare {
    /// Its collection.
    pub coll: CollectionId,
    /// Its index.
    pub index: Index,
    /// Serialized state (the migratable pack).
    pub data: Vec<u8>,
    /// Reduction sequence number.
    pub red_seq: u64,
    /// When-guard-buffered messages, serialized, with reply futures and
    /// per-message guard ids. (Reply futures are only meaningful when
    /// restoring into the same run; cross-run restores should checkpoint
    /// with none pending.)
    pub buffered: Vec<(Vec<u8>, Option<FutureId>, Option<u32>)>,
}
wire_struct! { CkptChare { coll, index, data, red_seq, buffered } }

/// One PE's checkpoint file.
#[derive(Clone)]
pub struct CkptFile {
    /// Format version.
    pub version: u32,
    /// Number of PEs at checkpoint time.
    pub npes: u64,
    /// Recovery epoch: strictly increases with every checkpoint taken, and
    /// keeps increasing across restarts. A restore requires every file in
    /// the set to agree on it.
    pub epoch: u64,
    /// Collection metadata known to this PE.
    pub specs: Vec<CollSpec>,
    /// This PE's local chares.
    pub chares: Vec<CkptChare>,
}
wire_struct! { CkptFile { version, npes, epoch, specs, chares } }

/// Current checkpoint format version (2 added the recovery epoch).
pub const CKPT_VERSION: u32 = 2;

/// Where automatic checkpoints (`Runtime::auto_checkpoint`) are kept.
#[derive(Debug, Clone)]
pub enum Store {
    /// Per-generation subdirectories `ckpt-<epoch>/` under this root, each
    /// written atomically; survives process death and allows restoring onto
    /// a different PE count via [`latest_complete_dir`].
    Disk(PathBuf),
    /// Charm++-style double in-memory checkpointing: each PE keeps its own
    /// image plus a copy of its buddy's (`(pe+1) % npes` holds PE `pe`'s).
    /// No filesystem traffic; recovery is same-process only.
    Memory,
}

/// Everything that can go wrong reading or writing a checkpoint set.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure at `path`.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// A file's bytes did not decode as a checkpoint image.
    Decode { pe: usize, msg: String },
    /// Format version skew.
    Version {
        pe: usize,
        found: u32,
        expected: u32,
    },
    /// A `pe<N>.ckpt.tmp` survives in the directory: a writer crashed
    /// mid-checkpoint and the set cannot be trusted.
    TmpLeftover { path: PathBuf },
    /// No checkpoint files at all.
    Empty { dir: PathBuf },
    /// `pe<N>.ckpt` missing from a set whose files record `expected` PEs.
    Gap { pe: usize, expected: usize },
    /// A file for a PE beyond the recorded PE count.
    Stray { pe: usize, expected: usize },
    /// Files disagree about how many PEs took the checkpoint.
    NpesMismatch {
        pe: usize,
        found: u64,
        expected: u64,
    },
    /// Files come from different checkpoint generations.
    EpochMismatch {
        pe: usize,
        found: u64,
        expected: u64,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io { path, source } => {
                write!(f, "checkpoint I/O error at {}: {source}", path.display())
            }
            CkptError::Decode { pe, msg } => {
                write!(f, "checkpoint file for PE {pe} is corrupt: {msg}")
            }
            CkptError::Version {
                pe,
                found,
                expected,
            } => write!(
                f,
                "checkpoint file for PE {pe} has version {found} (expected {expected})"
            ),
            CkptError::TmpLeftover { path } => write!(
                f,
                "leftover temporary checkpoint file {} — a checkpoint was interrupted; \
                 the set is untrustworthy",
                path.display()
            ),
            CkptError::Empty { dir } => {
                write!(f, "no checkpoint files found in {}", dir.display())
            }
            CkptError::Gap { pe, expected } => write!(
                f,
                "checkpoint set is missing pe{pe}.ckpt (files record {expected} PEs)"
            ),
            CkptError::Stray { pe, expected } => write!(
                f,
                "checkpoint set has pe{pe}.ckpt but files record only {expected} PEs"
            ),
            CkptError::NpesMismatch {
                pe,
                found,
                expected,
            } => write!(
                f,
                "checkpoint file for PE {pe} records {found} PEs but PE 0's records {expected}"
            ),
            CkptError::EpochMismatch {
                pe,
                found,
                expected,
            } => write!(
                f,
                "checkpoint file for PE {pe} is from epoch {found} but PE 0's is from {expected}"
            ),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> CkptError {
    CkptError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Path of one PE's checkpoint file in `dir`.
pub fn pe_file(dir: &Path, pe: usize) -> PathBuf {
    dir.join(format!("pe{pe}.ckpt"))
}

/// Encode a checkpoint image into a shareable byte buffer (the same wire
/// format the files use). Used for the in-memory buddy copies, which travel
/// as refcounted payloads instead of touching the filesystem.
pub fn encode_image(file: &CkptFile) -> charm_wire::WireBytes {
    charm_wire::Codec::Fast.encode_shared(file)
}

/// Decode a checkpoint image produced by [`encode_image`] or read from a
/// `pe<N>.ckpt` file.
pub fn decode_image(bytes: &[u8]) -> Result<CkptFile, String> {
    charm_wire::Codec::Fast
        .decode(bytes)
        .map_err(|e| e.to_string())
}

/// Write one PE's checkpoint, returning the image size in bytes. The
/// serialized image goes through the thread's pooled scratch buffer, so
/// repeated checkpoints reuse one high-water allocation instead of growing
/// a fresh `Vec` each time.
///
/// The write is atomic and torn-file-proof: bytes land in
/// `pe<N>.ckpt.tmp`, are fsynced, and only then renamed into place. A crash
/// mid-write leaves the `.tmp` behind, which [`read_all`] rejects rather
/// than decoding garbage.
pub fn write_file(dir: &Path, pe: usize, file: &CkptFile) -> std::io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    charm_wire::pool::with_pool(|pool| {
        pool.with_scratch(|buf| {
            charm_wire::Codec::Fast.encode_into(buf, file);
            write_atomic(dir, pe, buf)?;
            Ok(buf.len() as u64)
        })
    })
}

fn write_atomic(dir: &Path, pe: usize, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = dir.join(format!("pe{pe}.ckpt.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, pe_file(dir, pe))
}

/// Read and validate a complete checkpoint set from `dir`.
///
/// Strict by design: any leftover `.tmp` file fails the whole set (a writer
/// died mid-checkpoint); every present file must decode at the current
/// format version; and the set must contain exactly `pe0..peN` where `N` is
/// the PE count recorded *inside* the files — a missing `pe1` with `pe0` and
/// `pe2` present is a [`CkptError::Gap`], not a silent truncation. All
/// files must agree on `npes` and on the recovery epoch.
pub fn read_all(dir: &Path) -> Result<Vec<CkptFile>, CkptError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    let mut present: Vec<usize> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".ckpt.tmp") {
            return Err(CkptError::TmpLeftover { path: entry.path() });
        }
        if let Some(pe) = name
            .strip_prefix("pe")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse::<usize>().ok())
        {
            present.push(pe);
        }
    }
    if present.is_empty() {
        return Err(CkptError::Empty {
            dir: dir.to_path_buf(),
        });
    }
    present.sort_unstable();
    present.dedup();

    let mut files: Vec<(usize, CkptFile)> = Vec::with_capacity(present.len());
    for &pe in &present {
        let path = pe_file(dir, pe);
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        let file: CkptFile =
            charm_wire::Codec::Fast
                .decode(&bytes)
                .map_err(|e| CkptError::Decode {
                    pe,
                    msg: e.to_string(),
                })?;
        if file.version != CKPT_VERSION {
            return Err(CkptError::Version {
                pe,
                found: file.version,
                expected: CKPT_VERSION,
            });
        }
        files.push((pe, file));
    }

    let expected_npes = files[0].1.npes;
    let expected_epoch = files[0].1.epoch;
    for (pe, file) in &files {
        if file.npes != expected_npes {
            return Err(CkptError::NpesMismatch {
                pe: *pe,
                found: file.npes,
                expected: expected_npes,
            });
        }
        if file.epoch != expected_epoch {
            return Err(CkptError::EpochMismatch {
                pe: *pe,
                found: file.epoch,
                expected: expected_epoch,
            });
        }
    }
    let expected = expected_npes as usize;
    for want in 0..expected {
        if !present.contains(&want) {
            return Err(CkptError::Gap { pe: want, expected });
        }
    }
    if let Some(&stray) = present.iter().find(|&&p| p >= expected) {
        return Err(CkptError::Stray {
            pe: stray,
            expected,
        });
    }
    Ok(files.into_iter().map(|(_, f)| f).collect())
}

/// Automatic disk checkpoints land in per-generation subdirectories of the
/// configured root; this names one.
pub fn epoch_dir(root: &Path, epoch: u64) -> PathBuf {
    root.join(format!("ckpt-{epoch}"))
}

/// Find the newest *complete* automatic checkpoint under `root`: the
/// highest-epoch `ckpt-<epoch>/` subdirectory whose file set passes
/// [`read_all`] validation. Incomplete generations (a crash mid-save) are
/// skipped, so a torn newest checkpoint falls back to the previous one.
pub fn latest_complete_dir(root: &Path) -> Result<(u64, PathBuf), CkptError> {
    let entries = std::fs::read_dir(root).map_err(|e| io_err(root, e))?;
    let mut gens: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(root, e))?;
        let name = entry.file_name();
        if let Some(epoch) = name
            .to_string_lossy()
            .strip_prefix("ckpt-")
            .and_then(|s| s.parse::<u64>().ok())
        {
            gens.push((epoch, entry.path()));
        }
    }
    gens.sort_by_key(|(e, _)| std::cmp::Reverse(*e));
    for (epoch, path) in gens {
        if read_all(&path).is_ok() {
            return Ok((epoch, path));
        }
    }
    Err(CkptError::Empty {
        dir: root.to_path_buf(),
    })
}

/// What the initiating PE does once every PE has acked its checkpoint.
enum CkptThen {
    /// `ctx.checkpoint(dir)`: complete the caller's future with the total
    /// chare count.
    Reply { fid: FutureId, total: u64 },
    /// Automatic checkpoint taken at quiescence (PE 0): the quiescence
    /// waiters were held so the application only resumes against fully
    /// saved state. `telemetry` marks that a telemetry sweep fell due at the
    /// same round and must run (machine still quiescent, waiters still
    /// parked) before they go.
    Release {
        waiters: Vec<FutureId>,
        telemetry: bool,
    },
}

/// In-memory checkpoint images one PE holds under `Store::Memory` buddy
/// checkpointing: its own plus the copies it keeps for the PE it is buddy
/// to (`self - 1 mod npes`), as `(owner, generation, image)`. The last two
/// generations per owner are retained, so a failure mid-generation `e`
/// still finds generation `e - 1` complete.
#[derive(Default)]
pub(crate) struct CkptStore {
    images: Vec<(Pe, u64, WireBytes)>,
}

impl CkptStore {
    /// Generations retained per owner (current + previous).
    const KEEP: usize = 2;

    fn store(&mut self, owner: Pe, epoch: u64, image: WireBytes) {
        self.images.retain(|(o, e, _)| *o != owner || *e != epoch);
        self.images.push((owner, epoch, image));
        self.images.sort_by_key(|(_, e, _)| *e);
        while self.images.iter().filter(|(o, _, _)| *o == owner).count() > Self::KEEP {
            if let Some(i) = self.images.iter().position(|(o, _, _)| *o == owner) {
                self.images.remove(i);
            }
        }
    }

    /// `owner`'s image for generation `epoch`, if this store holds it.
    pub(crate) fn image_of(&self, owner: Pe, epoch: u64) -> Option<&WireBytes> {
        let found = self
            .images
            .iter()
            .find(|(o, e, _)| *o == owner && *e == epoch);
        found.map(|(_, _, b)| b)
    }

    /// Every generation this store has any image for, ascending.
    pub(crate) fn epochs(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.images.iter().map(|(_, e, _)| *e).collect();
        v.dedup(); // `images` is kept sorted by generation
        v
    }
}

/// The messages [`PeState::on_checkpoint`] takes.
#[derive(Debug)]
pub enum CkptMsg {
    /// Save a checkpoint of this PE's chares (initiated by the PE that
    /// called `ctx.checkpoint`, or by PE 0 at the automatic cadence).
    Save {
        /// Target directory; `None` keeps the image purely in memory
        /// (`Store::Memory` buddy checkpointing).
        dir: Option<String>,
        /// Checkpoint generation being taken.
        epoch: u64,
        /// Whether to push an in-memory copy to the buddy PE.
        buddy: bool,
    },
    /// An in-memory checkpoint image pushed to the owner's buddy PE
    /// (`(owner+1) % npes`), which acks the initiator once it holds it.
    Buddy {
        /// The PE whose state this is.
        owner: Pe,
        /// The PE coordinating the checkpoint (receives the ack).
        initiator: Pe,
        /// Checkpoint generation.
        epoch: u64,
        /// Chares in the image (forwarded with the ack).
        saved: u64,
        /// The encoded [`CkptFile`] image; refcounted, so the owner's local
        /// copy and the buddy copy share bytes until the envelope crosses a
        /// PE boundary.
        image: WireBytes,
    },
    /// A PE finished writing its checkpoint file (back to the initiator).
    Ack {
        /// Chares it saved.
        saved: u64,
    },
    /// Install collection metadata during a restore: no members are
    /// constructed (they arrive as `LocMsg::Migrate` envelopes) and
    /// subtree counts start at zero. Relayed down the PE tree rooted at
    /// `root`.
    RestoreColl {
        /// The collection being re-installed.
        spec: CollSpec,
        /// Tree root (PE 0).
        root: Pe,
    },
}

/// One PE's checkpoint state.
///
/// **Envelopes:** [`CkptMsg`] ([`PeState::on_checkpoint`]).
/// **Invariants:** one checkpoint at a time per initiating PE, and
/// generation numbers it mints only grow (a restart starts above every
/// committed one). A PE acks through its buddy under
/// `Store::Memory`, so a committed generation implies buddy coverage. A
/// late or duplicate ack finds no window and is dropped. A save flushes
/// the aggregation buffers first and writes specs and chares in id order,
/// so an image is a function of the machine's state, not of hash order.
pub(crate) struct Ckpt {
    /// The checkpoint this PE initiated: acks still owed, and what then.
    pending: Option<(usize, CkptThen)>,
    /// In-memory images (own + buddy-held) under `Store::Memory`; salvaged
    /// by the restart supervisor after a PE failure.
    store: CkptStore,
    /// Next checkpoint generation this PE mints when it initiates one.
    next_epoch: u64,
}

impl Ckpt {
    /// No checkpoint in progress; the first generation minted here is
    /// `first_epoch`.
    pub(crate) fn new(first_epoch: u64) -> Ckpt {
        Ckpt {
            pending: None,
            store: CkptStore::default(),
            next_epoch: first_epoch,
        }
    }

    /// Hand the in-memory images to the restart supervisor.
    pub(crate) fn take_store(&mut self) -> CkptStore {
        std::mem::take(&mut self.store)
    }
}

// Scheduler code wherever it sits: the hot-path rules (DESIGN.md §6).
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing, clippy::disallowed_types)]
#[deny(clippy::iter_over_hash_type)]
impl PeState {
    /// The checkpoint slice of the dispatch switch; `src` is the sending PE
    /// (the initiator of a `Save`).
    pub(crate) fn on_checkpoint(&mut self, src: Pe, msg: CkptMsg) {
        match msg {
            CkptMsg::Save { dir, epoch, buddy } => self.ckpt_save(src, dir, epoch, buddy),
            // Buddy half of in-memory double checkpointing: hold `owner`'s
            // image so its death can be recovered from this PE's copy, then
            // ack the initiator on the owner's behalf.
            CkptMsg::Buddy {
                owner,
                initiator,
                epoch,
                saved,
                image,
            } => {
                self.ckpt.store.store(owner, epoch, image);
                self.emit(initiator, EnvKind::Ckpt(CkptMsg::Ack { saved }));
            }
            CkptMsg::Ack { saved } => self.ckpt_ack(saved),
            CkptMsg::RestoreColl { spec, root } => self.restore_coll(spec, root),
        }
    }

    /// Open a checkpoint window on this PE and ask every PE to save the
    /// next generation: into `dir` if given, and to its buddy if `buddy`.
    fn ckpt_begin(&mut self, then: CkptThen, dir: impl Fn(u64) -> Option<String>, buddy: bool) {
        assert!(
            self.ckpt.pending.is_none(),
            "checkpoint already in progress"
        );
        self.ckpt.pending = Some((self.npes, then));
        let epoch = self.ckpt.next_epoch;
        self.ckpt.next_epoch += 1;
        let dir = dir(epoch);
        for pe in 0..self.npes {
            let dir = dir.clone();
            self.emit(pe, EnvKind::Ckpt(CkptMsg::Save { dir, epoch, buddy }));
        }
    }

    /// `ctx.checkpoint(dir, &done)`: ask every PE to save into `dir`.
    pub(crate) fn start_manual_ckpt(&mut self, dir: String, fid: FutureId) {
        let then = CkptThen::Reply { fid, total: 0 };
        self.ckpt_begin(then, |_| Some(dir.clone()), false);
    }

    /// Whether this quiescence completion should trigger an automatic
    /// checkpoint (PE 0; cadence from `Runtime::auto_checkpoint`). The
    /// restore gate's own quiescence round never checkpoints — the machine
    /// is still re-installing chares at that point.
    pub(crate) fn auto_ckpt_due(&self) -> bool {
        self.cfg.auto_ckpt.as_ref().is_some_and(|(every, _)| {
            self.ckpt.pending.is_none()
                && self.entry_gate.is_none()
                && self.sweeps.round_is_multiple_of(*every)
        })
    }

    /// PE 0: take the automatic checkpoint, parking the quiescence waiters
    /// until every PE acks. `telemetry` carries a same-round telemetry
    /// sweep through the checkpoint (it starts once the last PE commits).
    pub(crate) fn start_auto_ckpt(&mut self, waiters: Vec<FutureId>, telemetry: bool) {
        let Some((_, store)) = self.cfg.auto_ckpt.clone() else {
            return;
        };
        let then = CkptThen::Release { waiters, telemetry };
        match store {
            Store::Disk(root) => {
                let dir = |epoch| Some(epoch_dir(&root, epoch).to_string_lossy().into_owned());
                self.ckpt_begin(then, dir, false)
            }
            Store::Memory => self.ckpt_begin(then, |_| None, true),
        }
    }

    #[expect(clippy::panic, reason = "panic: a lost checkpoint must fail loudly")]
    fn ckpt_save(&mut self, initiator: Pe, dir: Option<String>, epoch: u64, buddy: bool) {
        // Checkpoint-entry flush: the snapshot must not capture a machine
        // where already-counted sends sit in a sender-side aggregation
        // buffer — the buffer dies with this incarnation, and a restore
        // would then wait forever on traffic that no longer exists.
        self.flush_aggregation();
        let main_coll = main_chare_id().coll;
        let mut specs: Vec<CollSpec> = self
            .colls
            .specs()
            .filter(|spec| spec.id != main_coll)
            .cloned()
            .collect();
        // Sort: the image bytes (and the restore emission order derived
        // from them) must not depend on HashMap iteration order, or two
        // replays of one schedule diverge after a checkpoint.
        specs.sort_by_key(|spec| spec.id);
        let chares: Vec<CkptChare> = self
            .sorted_chares(|id| id.coll != main_coll)
            .into_iter()
            .map(|id| {
                let slot = self.slot(&id);
                let (data, buffered) = self.pack_chare(&id, slot, "checkpoint");
                CkptChare {
                    coll: id.coll,
                    index: id.index,
                    data,
                    red_seq: slot.red_seq,
                    buffered,
                }
            })
            .collect();
        let saved = chares.len() as u64;
        let file = CkptFile {
            version: CKPT_VERSION,
            npes: self.npes as u64,
            epoch,
            specs,
            chares,
        };
        let mut bytes = 0u64;
        if let Some(dir) = &dir {
            bytes += write_file(Path::new(dir), self.pe, &file)
                .unwrap_or_else(|e| panic!("checkpoint write failed on PE {}: {e}", self.pe));
        }
        if buddy {
            let image = encode_image(&file);
            bytes += image.len() as u64;
            self.ckpt.store.store(self.pe, epoch, image.clone());
            // Ship a copy to the buddy; the buddy acks the initiator on our
            // behalf, so a committed generation implies buddy coverage.
            let buddy_pe = (self.pe + 1) % self.npes;
            let owner = self.pe;
            let buddy = CkptMsg::Buddy {
                owner,
                initiator,
                epoch,
                saved,
                image,
            };
            self.emit(buddy_pe, EnvKind::Ckpt(buddy));
        } else {
            self.emit(initiator, EnvKind::Ckpt(CkptMsg::Ack { saved }));
        }
        if self.tracer.enabled() {
            self.tracer.ckpt_bytes += bytes;
            self.trace_event(|_| charm_trace::EventKind::Ckpt { bytes });
        }
    }

    fn ckpt_ack(&mut self, saved: u64) {
        // A late or duplicate ack after the checkpoint window closed is a
        // peer-protocol anomaly, not a local invariant violation: drop it
        // rather than bringing the PE down.
        //
        // The `mutation-ckptack` feature (tests only, never default)
        // reintroduces the pre-fix behaviour — panicking on the stray ack —
        // so the mutation smoke test can prove the model checker
        // rediscovers the original bug and shrinks its schedule.
        #[cfg(feature = "mutation-ckptack")]
        #[expect(clippy::panic, reason = "panic: the reintroduced bug (mutation test)")]
        let Some((left, mut then)) = self.ckpt.pending.take() else {
            panic!(
                "stray CkptAck on PE {} with no checkpoint in progress",
                self.pe
            );
        };
        #[cfg(not(feature = "mutation-ckptack"))]
        let Some((left, mut then)) = self.ckpt.pending.take() else {
            return;
        };
        if let CkptThen::Reply { total, .. } = &mut then {
            *total += saved;
        }
        if left > 1 {
            self.ckpt.pending = Some((left - 1, then));
            return;
        }
        // Generation committed on every PE.
        match then {
            CkptThen::Reply { fid, total } => self.send_future(fid, OutPayload::new(total as i64)),
            CkptThen::Release { waiters, telemetry } => self.release_qd_waiters(waiters, telemetry),
        }
    }

    fn restore_coll(&mut self, spec: CollSpec, root: Pe) {
        self.relay(self.cfg.tree, root, || {
            let spec = spec.clone();
            EnvKind::Ckpt(CkptMsg::RestoreColl { spec, root })
        });
        // A restored collection starts empty everywhere; members arrive as
        // `LocMsg::Migrate` envelopes, which maintain local/subtree counts.
        let coll = spec.id;
        if spec.id.creator as usize == self.pe {
            // Keep fresh collection ids from colliding with restored ones.
            self.seed
                .coll_seq
                .fetch_max(spec.id.seq + 1, std::sync::atomic::Ordering::Relaxed);
        }
        if self.colls.get(coll).is_none() {
            self.install_coll(spec, 0);
        }
        self.replay_parked_coll(coll);
    }

    /// PE 0, at bootstrap with a restore source: re-install the collections
    /// and redistribute the chares by their placement policy onto the
    /// *current* PE count (which may differ from the checkpoint's).
    pub(crate) fn restore_from_files(&mut self, files: Vec<CkptFile>) {
        let mut seen = std::collections::HashSet::new();
        let mut specs = Vec::new();
        for spec in files.iter().flat_map(|f| &f.specs) {
            if seen.insert(spec.id) {
                specs.push(spec.clone());
            }
        }
        for spec in &specs {
            let spec = spec.clone();
            self.emit(0, EnvKind::Ckpt(CkptMsg::RestoreColl { spec, root: 0 }));
        }
        for c in files.into_iter().flat_map(|f| f.chares) {
            #[expect(clippy::panic, reason = "panic: corrupt checkpoint input")]
            let spec = specs
                .iter()
                .find(|s| s.id == c.coll)
                .unwrap_or_else(|| panic!("checkpointed chare of unknown collection {}", c.coll));
            let dest = spec.place(&c.index, self.npes, &self.placements);
            let msg = Box::new(MigrateMsg {
                coll: c.coll,
                index: c.index,
                data: c.data,
                buffered: c.buffered,
                load_ns: 0,
                red_seq: c.red_seq,
                for_lb: false,
                trail: Vec::new(),
                seq: 0,
            });
            self.emit(dest, EnvKind::Loc(LocMsg::Migrate { msg }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collections::{CollKind, Placement};
    use crate::ids::ChareTypeId;

    fn sample(npes: u64, epoch: u64) -> CkptFile {
        CkptFile {
            version: CKPT_VERSION,
            npes,
            epoch,
            specs: vec![CollSpec {
                id: CollectionId { creator: 0, seq: 1 },
                ctype: ChareTypeId(2),
                kind: CollKind::Dense { dims: vec![4, 4] },
                placement: Placement::Block,
                use_lb: true,
            }],
            chares: vec![CkptChare {
                coll: CollectionId { creator: 0, seq: 1 },
                index: Index::from((1, 2)),
                data: vec![1, 2, 3],
                red_seq: 7,
                buffered: vec![(vec![9], None, None)],
            }],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn file_roundtrip() {
        let dir = tmpdir("roundtrip");
        write_file(&dir, 0, &sample(2, 5)).unwrap();
        write_file(&dir, 1, &sample(2, 5)).unwrap();
        let files = read_all(&dir).unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].chares.len(), 1);
        assert_eq!(files[0].chares[0].red_seq, 7);
        assert_eq!(files[0].epoch, 5);
        assert!(files[0].specs[0].use_lb);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn image_roundtrip_matches_file_format() {
        let dir = tmpdir("image");
        let f = sample(1, 9);
        let image = encode_image(&f);
        let back = decode_image(&image).unwrap();
        assert_eq!(back.epoch, 9);
        assert_eq!(back.chares[0].data, vec![1, 2, 3]);
        // The in-memory image is byte-identical to what lands on disk.
        write_file(&dir, 0, &f).unwrap();
        let on_disk = std::fs::read(pe_file(&dir, 0)).unwrap();
        assert_eq!(&on_disk[..], &image[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_errors() {
        assert!(matches!(
            read_all(Path::new("/nonexistent-ckpt-dir-xyz")),
            Err(CkptError::Io { .. })
        ));
    }

    #[test]
    fn version_mismatch_errors() {
        let dir = tmpdir("ver");
        let mut f = sample(1, 0);
        f.version = 999;
        write_file(&dir, 0, &f).unwrap();
        assert!(matches!(
            read_all(&dir),
            Err(CkptError::Version {
                pe: 0,
                found: 999,
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_file_is_a_typed_error() {
        let dir = tmpdir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(pe_file(&dir, 0), b"not a checkpoint").unwrap();
        assert!(matches!(
            read_all(&dir),
            Err(CkptError::Decode { pe: 0, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let dir = tmpdir("trunc");
        write_file(&dir, 0, &sample(1, 0)).unwrap();
        let full = std::fs::read(pe_file(&dir, 0)).unwrap();
        std::fs::write(pe_file(&dir, 0), &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            read_all(&dir),
            Err(CkptError::Decode { pe: 0, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_rejects_the_set() {
        let dir = tmpdir("tmpfile");
        write_file(&dir, 0, &sample(1, 0)).unwrap();
        std::fs::write(dir.join("pe0.ckpt.tmp"), b"torn").unwrap();
        assert!(matches!(read_all(&dir), Err(CkptError::TmpLeftover { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gap_in_set_is_detected() {
        let dir = tmpdir("gap");
        write_file(&dir, 0, &sample(3, 0)).unwrap();
        write_file(&dir, 2, &sample(3, 0)).unwrap();
        assert!(matches!(
            read_all(&dir),
            Err(CkptError::Gap { pe: 1, expected: 3 })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_file_beyond_npes_is_detected() {
        let dir = tmpdir("stray");
        write_file(&dir, 0, &sample(1, 0)).unwrap();
        write_file(&dir, 1, &sample(1, 0)).unwrap();
        assert!(matches!(
            read_all(&dir),
            Err(CkptError::Stray { pe: 1, expected: 1 })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn npes_disagreement_is_detected() {
        let dir = tmpdir("npes");
        write_file(&dir, 0, &sample(2, 0)).unwrap();
        write_file(&dir, 1, &sample(3, 0)).unwrap();
        assert!(matches!(
            read_all(&dir),
            Err(CkptError::NpesMismatch {
                pe: 1,
                found: 3,
                expected: 2
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_disagreement_is_detected() {
        let dir = tmpdir("epoch");
        write_file(&dir, 0, &sample(2, 4)).unwrap();
        write_file(&dir, 1, &sample(2, 5)).unwrap();
        assert!(matches!(
            read_all(&dir),
            Err(CkptError::EpochMismatch {
                pe: 1,
                found: 5,
                expected: 4
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_complete_skips_torn_generations() {
        let root = tmpdir("gens");
        // Epoch 1: complete. Epoch 2: torn (gap).
        write_file(&epoch_dir(&root, 1), 0, &sample(2, 1)).unwrap();
        write_file(&epoch_dir(&root, 1), 1, &sample(2, 1)).unwrap();
        write_file(&epoch_dir(&root, 2), 0, &sample(2, 2)).unwrap();
        let (epoch, path) = latest_complete_dir(&root).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(path, epoch_dir(&root, 1));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
