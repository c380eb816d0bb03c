//! Two-slot atomic snapshot store.
//!
//! The journaling discipline:
//!
//! 1. every save encodes the snapshot, writes it to a temp file in the
//!    checkpoint directory, and `fsync`s the file,
//! 2. the temp file is renamed over the slot **not** holding the newest
//!    valid snapshot (slots alternate A → B → A → …),
//! 3. the directory itself is fsynced so the rename is durable.
//!
//! Steps 1–3 are [`write_atomic`], exported for every other durable
//! document in the workspace.
//!
//! A crash before the rename leaves both slots untouched; a crash during
//! the rename is resolved by the filesystem (rename is atomic on POSIX);
//! a torn write can only ever damage the slot being replaced — the other
//! slot still holds the previous complete snapshot. The loader decodes
//! both slots, discards any that fail the CRC or structural checks, and
//! returns the survivor with the highest write sequence.

use crate::codec::{decode_snapshot, encode_snapshot, Snapshot};
use crate::CkptError;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// The two alternating snapshot slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// `slot_a.ckpt`.
    A,
    /// `slot_b.ckpt`.
    B,
}

impl Slot {
    /// File name of this slot inside the checkpoint directory.
    pub fn file_name(self) -> &'static str {
        match self {
            Slot::A => "slot_a.ckpt",
            Slot::B => "slot_b.ckpt",
        }
    }

    fn other(self) -> Slot {
        match self {
            Slot::A => Slot::B,
            Slot::B => Slot::A,
        }
    }
}

/// A successfully loaded snapshot plus provenance.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The decoded snapshot.
    pub snapshot: Snapshot,
    /// Which slot it came from.
    pub slot: Slot,
    /// True when the *other* slot held a newer-looking or corrupt file
    /// that failed validation — i.e. this load fell back to the older
    /// surviving snapshot.
    pub recovered_from_fallback: bool,
}

/// Journaled two-slot checkpoint store rooted at one directory.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Slot the next save will overwrite.
    next_slot: Slot,
    /// Sequence number the next save will stamp.
    next_seq: u64,
}

impl CheckpointStore {
    /// Open (creating if needed) the checkpoint directory and scan the
    /// slots to position the write cursor after the newest valid snapshot.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut store = Self {
            dir,
            next_slot: Slot::A,
            next_seq: 0,
        };
        let (a, b) = (store.read_slot(Slot::A), store.read_slot(Slot::B));
        let newest = match (&a, &b) {
            (Ok(sa), Ok(sb)) => Some(if sa.sequence >= sb.sequence {
                (Slot::A, sa.sequence)
            } else {
                (Slot::B, sb.sequence)
            }),
            (Ok(sa), Err(_)) => Some((Slot::A, sa.sequence)),
            (Err(_), Ok(sb)) => Some((Slot::B, sb.sequence)),
            (Err(_), Err(_)) => None,
        };
        if let Some((slot, seq)) = newest {
            store.next_slot = slot.other();
            store.next_seq = seq + 1;
        }
        Ok(store)
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Full path of a slot file.
    pub fn slot_path(&self, slot: Slot) -> PathBuf {
        self.dir.join(slot.file_name())
    }

    /// Atomically persist a snapshot, stamping its write sequence.
    ///
    /// The snapshot's `sequence` field is overwritten with the store's
    /// monotone counter so the loader can order the two slots.
    pub fn save(&mut self, snap: &mut Snapshot) -> Result<(), CkptError> {
        let _span = mbrpa_obs::span("ckpt.save");
        snap.sequence = self.next_seq;
        let bytes = encode_snapshot(snap);
        mbrpa_obs::add("ckpt.bytes_written", bytes.len() as u64);
        mbrpa_obs::add("ckpt.saves", 1);
        write_atomic(&self.slot_path(self.next_slot), &bytes)?;
        self.next_slot = self.next_slot.other();
        self.next_seq += 1;
        Ok(())
    }

    /// Decode one slot.
    fn read_slot(&self, slot: Slot) -> Result<Snapshot, CkptError> {
        let bytes = fs::read(self.slot_path(slot))?;
        decode_snapshot(&bytes)
    }

    /// Open a namespaced store `root/<id>/` for one job of a multi-job
    /// owner (a serving daemon's per-job checkpoint area). The id is
    /// restricted to `[A-Za-z0-9._-]` without a leading dot so a
    /// wire-supplied name can never escape `root` or hide from a rescan.
    pub fn open_namespaced(root: impl Into<PathBuf>, id: &str) -> Result<Self, CkptError> {
        if !valid_namespace_id(id) {
            return Err(crate::corrupt(format!(
                "invalid checkpoint namespace id {id:?}: need 1-128 chars of \
                 [A-Za-z0-9._-] with no leading dot"
            )));
        }
        Self::open(root.into().join(id))
    }

    /// Load the newest valid snapshot, falling back to the older slot when
    /// the newer one is missing, truncated, or corrupt. `Ok(None)` means no
    /// slot holds a valid snapshot (fresh directory, or both damaged).
    pub fn load_latest(&self) -> Result<Option<LoadedSnapshot>, CkptError> {
        let _span = mbrpa_obs::span("ckpt.load");
        mbrpa_obs::add("ckpt.loads", 1);
        let mut best: Option<(Slot, Snapshot)> = None;
        let mut any_invalid_file = false;
        for slot in [Slot::A, Slot::B] {
            match self.read_slot(slot) {
                Ok(snap) => {
                    let newer = best
                        .as_ref()
                        .is_none_or(|(_, cur)| snap.sequence > cur.sequence);
                    if newer {
                        best = Some((slot, snap));
                    }
                }
                Err(CkptError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(_) => any_invalid_file = true,
            }
        }
        Ok(best.map(|(slot, snapshot)| LoadedSnapshot {
            snapshot,
            slot,
            recovered_from_fallback: any_invalid_file,
        }))
    }
}

/// Is `id` acceptable as a checkpoint namespace (one path component,
/// no traversal, no hidden files)?
pub fn valid_namespace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 128
        && !id.starts_with('.')
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Write `bytes` to `path` atomically and durably — the one
/// implementation of the discipline every on-disk document in the
/// workspace relies on (checkpoint slots, job documents and state, cache
/// entries, the router's bodies and route records): temp file in the
/// same directory, `fsync`, rename over the target, `fsync` the
/// directory. A reader (or a restarted process) sees either the old
/// contents or the new, never a torn write. The temp name is dot-prefixed
/// (`.<name>.tmp`), so a crash mid-write leaves only a dotfile that
/// directory scans discard.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no parent"))?;
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(".{file_name}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // POSIX requires the directory fsync for the new entry to survive
    // power loss
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbrpa_linalg::Mat;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        // ord: Relaxed — unique-id counter; nothing is published, only distinctness matters
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("mbrpa-ckpt-store-{}-{tag}-{n}", std::process::id()))
    }

    fn snap(completed: u64) -> Snapshot {
        Snapshot {
            fingerprint: 42,
            sequence: 0,
            completed,
            n_omega_total: 8,
            accumulated_energy: -0.5 * completed as f64,
            warm_start: Mat::from_fn(4, 2, |i, j| completed as f64 + i as f64 - j as f64),
            omega: (0..completed)
                .map(|k| crate::OmegaSummary {
                    omega: 10.0 - k as f64,
                    weight: 1.0,
                    unit_node: 0.1,
                    energy_term: -0.1,
                    contribution: -0.01,
                    filter_rounds: 1,
                    error: 1e-4,
                    converged: true,
                    eigenvalues: vec![-0.1, -0.05],
                    timings_s: [0.0; 4],
                    history: vec![],
                })
                .collect(),
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = scratch_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save(&mut snap(1)).unwrap();
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.snapshot.completed, 1);
        assert!(!loaded.recovered_from_fallback);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slots_alternate_and_latest_wins() {
        let dir = scratch_dir("alternate");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save(&mut snap(1)).unwrap();
        store.save(&mut snap(2)).unwrap();
        store.save(&mut snap(3)).unwrap();
        // both slot files exist
        assert!(store.slot_path(Slot::A).exists());
        assert!(store.slot_path(Slot::B).exists());
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.snapshot.completed, 3);
        assert_eq!(loaded.snapshot.sequence, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_sequence_and_alternation() {
        let dir = scratch_dir("reopen");
        {
            let mut store = CheckpointStore::open(&dir).unwrap();
            store.save(&mut snap(1)).unwrap(); // seq 0 → slot A
        }
        {
            let mut store = CheckpointStore::open(&dir).unwrap();
            store.save(&mut snap(2)).unwrap(); // must go to slot B, seq 1
            let loaded = store.load_latest().unwrap().unwrap();
            assert_eq!(loaded.snapshot.completed, 2);
            assert_eq!(loaded.snapshot.sequence, 1);
            assert_eq!(loaded.slot, Slot::B);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_latest_falls_back_to_older_slot() {
        let dir = scratch_dir("fallback");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save(&mut snap(1)).unwrap();
        store.save(&mut snap(2)).unwrap();
        let latest_slot = store.load_latest().unwrap().unwrap().slot;
        // flip one byte in the newest slot
        let path = store.slot_path(latest_slot);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.slot, latest_slot.other());
        assert_eq!(loaded.snapshot.completed, 1);
        assert!(loaded.recovered_from_fallback);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_latest_falls_back_to_older_slot() {
        let dir = scratch_dir("truncate");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save(&mut snap(1)).unwrap();
        store.save(&mut snap(2)).unwrap();
        let latest_slot = store.load_latest().unwrap().unwrap().slot;
        let path = store.slot_path(latest_slot);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.snapshot.completed, 1);
        assert!(loaded.recovered_from_fallback);

        // a fresh store must not overwrite the sole valid snapshot next
        let store2 = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store2.next_slot, loaded.slot.other());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn both_slots_damaged_loads_none() {
        let dir = scratch_dir("bothbad");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save(&mut snap(1)).unwrap();
        store.save(&mut snap(2)).unwrap();
        for slot in [Slot::A, Slot::B] {
            fs::write(store.slot_path(slot), b"not a snapshot").unwrap();
        }
        assert!(store.load_latest().unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_loads_none() {
        let dir = scratch_dir("empty");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn namespace_id_charset_is_enforced() {
        for ok in ["job-1", "a", "run_42.v2", "ABC-def_0.9", &"x".repeat(128)] {
            assert!(valid_namespace_id(ok), "{ok:?} should be accepted");
        }
        for bad in [
            "",
            ".hidden",
            "..",
            "a/b",
            "a\\b",
            "job 1",
            "job\n",
            "über",
            &"x".repeat(129),
        ] {
            assert!(!valid_namespace_id(bad), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn namespaced_stores_are_isolated() {
        let root = scratch_dir("namespaces");
        let mut a = CheckpointStore::open_namespaced(&root, "job-a").unwrap();
        let mut b = CheckpointStore::open_namespaced(&root, "job-b").unwrap();
        a.save(&mut snap(1)).unwrap();
        b.save(&mut snap(2)).unwrap();
        // each namespace sees only its own snapshot
        assert_eq!(a.load_latest().unwrap().unwrap().snapshot.completed, 1);
        assert_eq!(b.load_latest().unwrap().unwrap().snapshot.completed, 2);

        let err = CheckpointStore::open_namespaced(&root, "../escape").unwrap_err();
        assert!(err.to_string().contains("invalid checkpoint namespace"));
        fs::remove_dir_all(&root).unwrap();
    }
}
