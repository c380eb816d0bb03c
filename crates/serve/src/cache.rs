//! Content-addressed exact result cache.
//!
//! RPA energies are deterministic given the discretized system and solver
//! configuration — the serving pipeline's bit-for-bit contract — so a
//! repeat submission of a semantically identical `.rpa` input is pure
//! recomputation waste. This store maps the canonical 128-bit input
//! fingerprint ([`mbrpa_core::canonical`]) to the finished
//! `mbrpa.result/1` document, letting the daemon answer a resubmission
//! with the *exact* stored energy (same `f64` bits) instead of spending
//! minutes in the Sternheimer/quadrature stack.
//!
//! Layout under the daemon root:
//!
//! ```text
//! <root>/cache/<fingerprint>.json   # mbrpa.cache-entry/1 documents
//! ```
//!
//! Design points:
//!
//! * **Crash safety** — entries are written with the same atomic
//!   temp-file/`fsync`/rename discipline as the job store. A `kill -9`
//!   mid-write leaves at worst a `.…​.tmp` dotfile, which the next open
//!   deletes; a reader never observes a torn entry.
//! * **Corruption tolerance** — every load (startup scan *and* each
//!   lookup) fully validates the entry: JSON parse, schema tag,
//!   fingerprint member matching the filename, and the embedded result's
//!   own validator including its `total_energy_bits` cross-check. Any
//!   failure deletes the file and reports a miss — a damaged store can
//!   cost recomputation, never a false hit.
//! * **LRU byte budget** — the store tracks per-entry sizes and evicts
//!   least-recently-used entries once the total exceeds the budget, so
//!   the cache directory cannot grow without bound under heavy traffic.
//!   Across restarts recency is the entry file's mtime, stamped by every
//!   insert and hit without an `fsync`: a hit writes nothing durable.
//!
//! The store is not internally synchronized; the daemon wraps it in a
//! `Mutex` (like the queue), and all counters are plain integers mutated
//! under that lock.

use crate::job::{validate_cache_entry_doc, CACHE_ENTRY_SCHEMA};
use crate::json::{self, obj, s, JsonValue};
use mbrpa_ckpt::write_atomic;
use mbrpa_core::is_fingerprint_hex;
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Default byte budget (64 MiB — thousands of result documents).
pub const DEFAULT_BUDGET: u64 = 64 * 1024 * 1024;

/// Monotonic counters the daemon exposes through `health/1` and the
/// cache admin endpoint.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounters {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing (or found a corrupt entry).
    pub misses: u64,
    /// Entries written by completed runs.
    pub insertions: u64,
    /// Entries removed by the LRU byte budget.
    pub evictions: u64,
    /// Admin flushes.
    pub flushes: u64,
    /// Corrupt or alien files dropped by scans and lookups.
    pub corrupt_dropped: u64,
}

/// One resident entry: fingerprint and on-disk size. The vector holding
/// these is kept in least-recently-used order (front = coldest).
#[derive(Clone, Debug)]
struct Entry {
    fingerprint: String,
    bytes: u64,
}

/// On-disk exact-result cache. See the module docs.
#[derive(Debug)]
pub struct CacheStore {
    dir: PathBuf,
    budget: u64,
    /// LRU order, coldest first.
    entries: Vec<Entry>,
    total_bytes: u64,
    counters: CacheCounters,
    /// The last recency stamp handed out (or found on disk by `open`).
    /// Every stamp comes from [`CacheStore::touch`], never from the
    /// kernel, which assigns mtimes from the tick clock, up to a tick
    /// behind `SystemTime::now()`: mixing the two would reorder touches.
    clock: SystemTime,
}

impl CacheStore {
    /// Open (creating if needed) the cache under `dir` with the given
    /// byte budget. Scans the directory: leftover temp dotfiles and any
    /// file that fails full validation are deleted; surviving entries
    /// enter the LRU by modification time — the stamp of their last
    /// insert or hit — with the fingerprint breaking ties, and the
    /// budget is enforced immediately.
    pub fn open(dir: impl Into<PathBuf>, budget: u64) -> io::Result<CacheStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut store = CacheStore {
            dir,
            budget,
            entries: Vec::new(),
            total_bytes: 0,
            counters: CacheCounters::default(),
            clock: SystemTime::UNIX_EPOCH,
        };
        let mut found: Vec<(SystemTime, Entry)> = Vec::new();
        for entry in fs::read_dir(&store.dir)? {
            let entry = entry?;
            let path = entry.path();
            if !entry.file_type()?.is_file() {
                continue;
            }
            // crash leftovers (`.<fp>.json.tmp`) and anything else that
            // is not a valid `<32-hex>.json` is junk — delete, never serve
            let name = entry.file_name();
            let fingerprint = name.to_str().and_then(|name| name.strip_suffix(".json"));
            let fingerprint = fingerprint.unwrap_or("");
            if !is_fingerprint_hex(fingerprint)
                || store.load_validated(&path, fingerprint).is_none()
            {
                store.drop_file(&path);
                continue;
            }
            let meta = entry.metadata()?;
            let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            found.push((
                modified,
                Entry {
                    fingerprint: fingerprint.to_string(),
                    bytes: meta.len(),
                },
            ));
        }
        // LRU order, coldest first; later stamps must sort after these
        // even if the wall clock has stepped back since they were made
        found.sort_by(|a, b| (a.0, &a.1.fingerprint).cmp(&(b.0, &b.1.fingerprint)));
        store.clock = found.last().map_or(store.clock, |(modified, _)| *modified);
        store.total_bytes = found.iter().map(|(_, e)| e.bytes).sum();
        store.entries = found.into_iter().map(|(_, e)| e).collect();
        store.evict_to_budget();
        Ok(store)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes of resident entries.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    fn entry_path(&self, fingerprint: &str) -> PathBuf {
        self.dir.join(format!("{fingerprint}.json"))
    }

    /// Best-effort delete of a junk/corrupt file, counted.
    fn drop_file(&mut self, path: &Path) {
        let _ = fs::remove_file(path);
        self.counters.corrupt_dropped += 1;
    }

    /// Stamp an entry file as the most recently used. Best-effort and not
    /// `fsync`ed: a lost stamp costs recency fidelity across the *next*
    /// restart, never correctness — `open`'s eviction order is its only
    /// consumer, and the in-memory order rules while the daemon runs.
    fn touch(&mut self, path: &Path) {
        self.clock = SystemTime::now().max(self.clock + Duration::from_nanos(1));
        let _ = File::options()
            .write(true)
            .open(path)
            .and_then(|file| file.set_modified(self.clock));
    }

    /// Read and fully validate one entry file; returns the embedded
    /// `mbrpa.result/1` object on success.
    fn load_validated(&self, path: &Path, fingerprint: &str) -> Option<JsonValue> {
        let text = fs::read_to_string(path).ok()?;
        let doc = json::parse(&text).ok()?;
        validate_cache_entry_doc(&doc).ok()?;
        // the fingerprint member must match the filename, or a renamed
        // file could serve the wrong calculation's energy
        if doc.get("fingerprint")?.as_str()? != fingerprint {
            return None;
        }
        doc.get("result").cloned()
    }

    /// Look up a fingerprint. A hit returns the stored `mbrpa.result/1`
    /// object and refreshes the entry's LRU position; a corrupt entry is
    /// deleted and reported as a miss.
    pub fn lookup(&mut self, fingerprint: &str) -> Option<JsonValue> {
        let Some(index) = self
            .entries
            .iter()
            .position(|e| e.fingerprint == fingerprint)
        else {
            self.counters.misses += 1;
            return None;
        };
        let path = self.entry_path(fingerprint);
        let entry = self.entries.remove(index);
        match self.load_validated(&path, fingerprint) {
            Some(result) => {
                // LRU touch: move to the hot end
                self.entries.push(entry);
                self.counters.hits += 1;
                self.touch(&path);
                Some(result)
            }
            None => {
                self.total_bytes = self.total_bytes.saturating_sub(entry.bytes);
                self.drop_file(&path);
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) the result document for a fingerprint,
    /// written atomically, then enforce the byte budget. Returns `false`
    /// without writing when the entry alone exceeds the budget (caching
    /// it would evict everything else and then itself next insert).
    pub fn insert(&mut self, fingerprint: &str, result: &JsonValue) -> io::Result<bool> {
        if !is_fingerprint_hex(fingerprint) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("`{fingerprint}` is not a canonical fingerprint"),
            ));
        }
        let doc = obj(vec![
            ("schema", s(CACHE_ENTRY_SCHEMA)),
            ("fingerprint", s(fingerprint)),
            ("result", result.clone()),
        ]);
        let bytes = doc.to_json().into_bytes();
        let size = bytes.len() as u64;
        if size > self.budget {
            return Ok(false);
        }
        let path = self.entry_path(fingerprint);
        write_atomic(&path, &bytes)?;
        self.touch(&path);
        if let Some(index) = self
            .entries
            .iter()
            .position(|e| e.fingerprint == fingerprint)
        {
            let old = self.entries.remove(index);
            self.total_bytes = self.total_bytes.saturating_sub(old.bytes);
        }
        self.entries.push(Entry {
            fingerprint: fingerprint.to_string(),
            bytes: size,
        });
        self.total_bytes += size;
        self.counters.insertions += 1;
        self.evict_to_budget();
        Ok(true)
    }

    /// Evict coldest entries until the total fits the budget. The entry
    /// at the hot end (the one just inserted or hit) is never evicted.
    fn evict_to_budget(&mut self) {
        while self.total_bytes > self.budget && self.entries.len() > 1 {
            let coldest = self.entries.remove(0);
            self.total_bytes = self.total_bytes.saturating_sub(coldest.bytes);
            let _ = fs::remove_file(self.entry_path(&coldest.fingerprint));
            self.counters.evictions += 1;
            mbrpa_obs::add("serve.cache.evict", 1);
        }
    }

    /// Drop every entry (admin flush). Returns how many were removed.
    pub fn flush(&mut self) -> usize {
        let flushed = self.entries.len();
        for entry in std::mem::take(&mut self.entries) {
            let _ = fs::remove_file(self.entry_path(&entry.fingerprint));
        }
        self.total_bytes = 0;
        self.counters.flushes += 1;
        flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::RESULT_SCHEMA;
    use crate::json::u;
    use crate::test_dir;

    fn result_value(energy: f64) -> JsonValue {
        obj(vec![
            ("schema", s(RESULT_SCHEMA)),
            ("id", s("job-000001")),
            ("n_d", u(125)),
            ("n_s", u(16)),
            ("n_atoms", u(8)),
            ("n_omega", u(3)),
            ("n_restored", u(0)),
            ("total_energy", JsonValue::Num(energy)),
            (
                "total_energy_bits",
                s(&format!("{:016x}", energy.to_bits())),
            ),
            ("energy_per_atom", JsonValue::Num(energy / 8.0)),
            ("wall_s", JsonValue::Num(1.25)),
        ])
    }

    /// What one `result_value` entry takes on disk; leaves `dir` empty.
    fn entry_bytes(dir: &Path) -> u64 {
        let mut cache = CacheStore::open(dir, DEFAULT_BUDGET).unwrap();
        cache.insert(&fp(9), &result_value(-1.0)).unwrap();
        let one = cache.total_bytes();
        cache.flush();
        one
    }

    fn fp(n: u8) -> String {
        format!("{:032x}", u128::from(n))
    }

    #[test]
    fn insert_then_lookup_roundtrips_exact_bits() {
        let dir = test_dir("roundtrip");
        let mut cache = CacheStore::open(&dir, DEFAULT_BUDGET).unwrap();
        let energy = -0.123_456_789_012_345_67;
        assert!(cache.insert(&fp(1), &result_value(energy)).unwrap());
        let hit = cache.lookup(&fp(1)).expect("entry just inserted");
        assert_eq!(
            hit.get("total_energy_bits").unwrap().as_str().unwrap(),
            format!("{:016x}", energy.to_bits())
        );
        assert!(cache.lookup(&fp(2)).is_none());
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_entries_and_drops_junk() {
        let dir = test_dir("reopen");
        {
            let mut cache = CacheStore::open(&dir, DEFAULT_BUDGET).unwrap();
            cache.insert(&fp(1), &result_value(-1.5)).unwrap();
            cache.insert(&fp(2), &result_value(-2.5)).unwrap();
        }
        // simulate a kill -9 mid-write: a partial temp dotfile …
        fs::write(dir.join(format!(".{}.json.tmp", fp(3))), b"{\"sch").unwrap();
        // … a torn entry (truncated JSON) …
        fs::write(dir.join(format!("{}.json", fp(4))), b"{\"schema\":\"mbr").unwrap();
        // … a well-formed entry whose fingerprint member lies …
        let alias = fs::read_to_string(dir.join(format!("{}.json", fp(1)))).unwrap();
        fs::write(dir.join(format!("{}.json", fp(5))), &alias).unwrap();
        // … and the recency journal a pre-mtime daemon kept beside the entries
        fs::write(dir.join("lru"), format!("{}\n{}\n", fp(2), fp(1))).unwrap();

        let mut cache = CacheStore::open(&dir, DEFAULT_BUDGET).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&fp(1)).is_some());
        assert!(cache.lookup(&fp(2)).is_some());
        assert!(cache.lookup(&fp(4)).is_none(), "torn entry must miss");
        assert!(cache.lookup(&fp(5)).is_none(), "aliased entry must miss");
        assert!(cache.counters().corrupt_dropped >= 4);
        assert!(!dir.join(format!(".{}.json.tmp", fp(3))).exists());
        assert!(!dir.join("lru").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_discovered_at_lookup_is_a_miss() {
        let dir = test_dir("corrupt_lookup");
        let mut cache = CacheStore::open(&dir, DEFAULT_BUDGET).unwrap();
        cache.insert(&fp(1), &result_value(-1.5)).unwrap();
        // corrupt it behind the store's back (disk damage)
        fs::write(dir.join(format!("{}.json", fp(1))), b"garbage").unwrap();
        assert!(cache.lookup(&fp(1)).is_none());
        assert_eq!(cache.len(), 0);
        assert!(!dir.join(format!("{}.json", fp(1))).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_budget_evicts_coldest_first() {
        let dir = test_dir("lru");
        let one = entry_bytes(&dir);
        // room for two entries, not three
        let mut cache = CacheStore::open(&dir, one * 2 + one / 2).unwrap();
        cache.insert(&fp(1), &result_value(-1.0)).unwrap();
        cache.insert(&fp(2), &result_value(-2.0)).unwrap();
        // touch 1 so 2 becomes the coldest
        assert!(cache.lookup(&fp(1)).is_some());
        cache.insert(&fp(3), &result_value(-3.0)).unwrap();
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.lookup(&fp(2)).is_none(), "coldest should be evicted");
        assert!(cache.lookup(&fp(1)).is_some());
        assert!(cache.lookup(&fp(3)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The restart-mid-sequence regression for the recency bug: insert
    /// 1 then 2 (so 2 is *younger on disk*), then hit 1 so 2 is the LRU
    /// coldest, restart, and force one eviction. A scan ordered by write
    /// time would forget the hit and evict the recently-used entry 1; the
    /// hit's stamp must make the reopened store drop 2 instead.
    #[test]
    fn lru_recency_survives_restart() {
        let dir = test_dir("lru_restart");
        let one = entry_bytes(&dir);
        {
            let mut cache = CacheStore::open(&dir, DEFAULT_BUDGET).unwrap();
            cache.insert(&fp(1), &result_value(-1.0)).unwrap();
            cache.insert(&fp(2), &result_value(-2.0)).unwrap();
            assert!(cache.lookup(&fp(1)).is_some(), "touch 1: 2 is now coldest");
        }
        // restart with room for two entries, not three
        let mut cache = CacheStore::open(&dir, one * 2 + one / 2).unwrap();
        cache.insert(&fp(3), &result_value(-3.0)).unwrap();
        assert_eq!(cache.counters().evictions, 1);
        assert!(
            cache.lookup(&fp(2)).is_none(),
            "the pre-restart coldest entry must be the one evicted"
        );
        assert!(cache.lookup(&fp(1)).is_some(), "the hit entry must survive");
        assert!(cache.lookup(&fp(3)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A hit writes nothing: after 64 inserts, a lookup leaves every file
    /// in the cache directory with the name, length and bytes it had and
    /// creates none — only the hit entry's mtime may move.
    #[test]
    fn a_hit_rewrites_no_file() {
        let dir = test_dir("hit_writes_nothing");
        let mut cache = CacheStore::open(&dir, DEFAULT_BUDGET).unwrap();
        for k in 0..64 {
            cache.insert(&fp(k), &result_value(-1.0)).unwrap();
        }
        let before = crate::files_in(&dir);
        assert_eq!(before.len(), 64, "one file per entry, nothing else");
        // not the hottest entry, so the recency order really changes
        assert!(cache.lookup(&fp(7)).is_some());
        assert_eq!(crate::files_in(&dir), before);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Recency across restarts against an in-memory LRU model: random
    /// insert / hit / reopen sequences, a reopen leaving room for `n`
    /// entries. Only the entry files' mtimes carry recency over, so after
    /// every reopen the files on disk must be the entries the model keeps.
    mod recency_model {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Op {
            Insert(u8),
            Hit(u8),
            Reopen(u64),
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                4 => (0u8..8).prop_map(Op::Insert),
                4 => (0u8..8).prop_map(Op::Hit),
                1 => (1u64..=8).prop_map(Op::Reopen),
            ]
        }

        /// Evict the model's coldest keys down to `room` (never the last).
        fn evict(model: &mut Vec<u8>, room: u64) {
            while model.len() as u64 > room && model.len() > 1 {
                model.remove(0);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn recency_survives_every_reopen(ops in proptest::collection::vec(op(), 1..60)) {
                let dir = test_dir("recency_model");
                // keys coldest first; every entry is `one` bytes long
                let (one, mut model, mut room) = (entry_bytes(&dir), Vec::new(), 8);
                let mut cache = CacheStore::open(&dir, DEFAULT_BUDGET).unwrap();
                for op in ops {
                    match op {
                        Op::Insert(key) => {
                            prop_assert!(cache.insert(&fp(key), &result_value(-1.0)).unwrap());
                            model.retain(|k| *k != key);
                            model.push(key);
                            evict(&mut model, room);
                        }
                        Op::Hit(key) => {
                            let held = model.contains(&key);
                            prop_assert_eq!(cache.lookup(&fp(key)).is_some(), held);
                            if held {
                                model.retain(|k| *k != key);
                                model.push(key);
                            }
                        }
                        Op::Reopen(entries) => {
                            room = entries;
                            cache = CacheStore::open(&dir, one * room + one / 2).unwrap();
                            evict(&mut model, room);
                            let mut on_disk: Vec<String> = fs::read_dir(&dir)
                                .unwrap()
                                .map(|e| e.unwrap().file_name().into_string().unwrap())
                                .collect();
                            on_disk.sort();
                            let mut kept: Vec<String> =
                                model.iter().map(|k| format!("{}.json", fp(*k))).collect();
                            kept.sort();
                            prop_assert_eq!(on_disk, kept);
                        }
                    }
                    prop_assert_eq!(cache.len(), model.len());
                }
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn oversized_entry_is_refused() {
        let dir = test_dir("oversized");
        let mut cache = CacheStore::open(&dir, 10).unwrap();
        assert!(!cache.insert(&fp(1), &result_value(-1.0)).unwrap());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.counters().insertions, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_empties_the_store() {
        let dir = test_dir("flush");
        let mut cache = CacheStore::open(&dir, DEFAULT_BUDGET).unwrap();
        cache.insert(&fp(1), &result_value(-1.0)).unwrap();
        cache.insert(&fp(2), &result_value(-2.0)).unwrap();
        assert_eq!(cache.flush(), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.total_bytes(), 0);
        assert!(cache.lookup(&fp(1)).is_none());
        // flushed on disk too: a reopen sees nothing
        let reopened = CacheStore::open(&dir, DEFAULT_BUDGET).unwrap();
        assert!(reopened.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_fingerprint_is_rejected() {
        let dir = test_dir("badfp");
        let mut cache = CacheStore::open(&dir, DEFAULT_BUDGET).unwrap();
        assert!(cache.insert("not-hex", &result_value(-1.0)).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
