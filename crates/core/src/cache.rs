//! Content-addressed, crash-safe on-disk cache for pipeline artifacts.
//!
//! The paper's premise is amortization — profile and cluster once,
//! re-execute the cheap plan across many machine configurations — and
//! this module is what makes that amortization survive process
//! boundaries. Every expensive stage (profiling passes, SimPoint /
//! COASTS / multi-level selection, ground-truth simulation, plan
//! execution) can store its product here and skip recomputation on the
//! next run.
//!
//! # Key derivation
//!
//! An entry is addressed by a [`CacheKey`]: the concatenated `Debug`
//! renderings of everything the artifact depends on (benchmark spec
//! including scale, projection seed/dim, clustering config, machine
//! config, ...), plus the artifact kind and the cache schema version.
//! Derived `Debug` prints every field, so any config change — including
//! a field added in a future version — changes the key material. The
//! material is hashed (2 × FNV-1a 64) to name the file, and the *full*
//! material string is stored inside the entry and compared on load, so
//! a hash collision degrades to a miss, never to wrong data.
//!
//! # Integrity model
//!
//! Writes are crash-safe: the entry is written to a temp file in the
//! same directory, `fsync`ed, renamed over the final name, and the
//! directory is `fsync`ed — a crash at any point leaves either the old
//! entry or the new one, never a torn file. Reads verify the schema
//! version, artifact kind, payload length, FNV-1a checksum, and the
//! full key material; any mismatch deletes the entry and reports a
//! miss, so corrupt or stale data is regenerated, never trusted.
//!
//! # Size budget and eviction
//!
//! A cache opened for a long-running service ([`ArtifactCache::
//! set_budget`]) enforces a byte budget with LRU eviction. Recency is
//! a logical sequence number (no wall-clock, so behaviour is
//! deterministic and testable) tracked per entry in an index file at
//! the cache root, written crash-safely via [`atomic_write`]; after a
//! `kill -9` the index is reconciled against the entries actually on
//! disk, so untracked files are adopted (as coldest) and stale rows
//! dropped. Capacity evictions count `core.cache.evictions`;
//! corrupt-entry deletions count `core.cache.verify_evictions` — the
//! two are never conflated, because one is healthy steady-state
//! behaviour and the other is data loss.
//!
//! # In-flight deduplication
//!
//! [`Singleflight`] collapses concurrent identical computations: the
//! first caller for a key becomes the leader and computes, every
//! concurrent caller for the same key blocks on a condvar and receives
//! a clone of the leader's result. The `mlpa-serve` daemon wraps its
//! per-request pipeline in this, so N identical concurrent requests
//! cost one computation.
//!
//! # Observability
//!
//! Lookups and stores run under `core.cache.get` / `core.cache.put`
//! spans and maintain the `core.cache.{hits,misses,stores,
//! verify_failures,verify_evictions,evictions,read_errors}` counters
//! plus the `core.cache.bytes` gauge, so a run report shows exactly
//! how warm a run was and the `mlpa-obs diff` gate can pin cache determinism.
//! `read_errors` (transient I/O failures on lookup) is deliberately
//! separate from a plain miss: a daemon operator must be able to tell
//! disk trouble from a cold cache.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::artifact::{Artifact, Dec, Enc};

/// Schema version baked into every key and entry header. Bump when the
/// artifact encoding changes; old entries then verify-fail and are
/// regenerated.
pub const CACHE_SCHEMA: &str = "mlpa-cache-v1";

/// Schema tag on the LRU index file's header line. The index lives at
/// `<root>/.lru-index`, a name [`ArtifactCache::path_for`] can never
/// produce for an entry.
const LRU_INDEX_SCHEMA: &str = "mlpa-cache-lru-v1";
const LRU_INDEX_FILE: &str = ".lru-index";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn checksum(bytes: &[u8]) -> u64 {
    fnv1a(bytes, FNV_OFFSET)
}

/// Key material for one cache entry: `label=Debug;` fields appended in
/// order. Everything an artifact's content depends on must be pushed
/// here — the cache never guesses at invalidation.
#[derive(Debug, Clone, Default)]
pub struct CacheKey {
    material: String,
}

impl CacheKey {
    /// Start an empty key (the schema version is added by the store).
    pub fn new() -> CacheKey {
        CacheKey::default()
    }

    /// Append one dependency as its `Debug` rendering.
    pub fn field<T: std::fmt::Debug + ?Sized>(mut self, label: &str, value: &T) -> CacheKey {
        let _ = write!(self.material, "{label}={value:?};");
        self
    }

    /// The accumulated key material.
    pub fn material(&self) -> &str {
        &self.material
    }
}

/// Write `bytes` to `path` crash-safely: temp file in the same
/// directory, `fsync`, atomic rename, then `fsync` of the directory.
/// Readers observe either the previous contents or the new contents in
/// full — never a torn write.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| format!("{} has no file name", path.display()))?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write = (|| -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = write {
        let _ = fs::remove_file(&tmp);
        return Err(format!("writing {}: {e}", tmp.display()));
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(format!("renaming into {}: {e}", path.display()));
    }
    // Make the rename itself durable; best-effort (some filesystems
    // reject directory fsync, and the data write above already synced).
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// A content-addressed artifact store rooted at one directory.
///
/// Cloneable handles are shared via `Arc`; the store itself is
/// stateless beyond its root and is safe to use from the parallel
/// suite workers (keys for distinct benchmarks never collide, and
/// same-key races resolve through the atomic rename).
#[derive(Debug)]
pub struct ArtifactCache {
    root: PathBuf,
    reuse: bool,
    budget: Option<u64>,
    /// LRU accounting, present only while a budget is configured.
    /// Interior mutability because the cache is shared via `Arc`.
    lru: Mutex<Option<LruState>>,
}

/// In-memory image of the LRU index.
#[derive(Debug, Default)]
struct LruState {
    /// Logical clock: bumped on every store and hit. Persisted, so
    /// recency survives restarts; never wall-clock, so eviction order
    /// is deterministic.
    seq: u64,
    /// Total tracked entry bytes (what the budget is enforced on).
    total: u64,
    /// Entry path relative to the root -> (last-touch seq, bytes).
    /// Sorted map so eviction ties break deterministically by path.
    entries: BTreeMap<String, (u64, u64)>,
}

impl ArtifactCache {
    /// Open (creating if needed) a cache rooted at `root`. Entries are
    /// both written and reused; see [`ArtifactCache::set_reuse`].
    pub fn open(root: impl Into<PathBuf>) -> Result<ArtifactCache, String> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| format!("creating cache dir {}: {e}", root.display()))?;
        Ok(ArtifactCache { root, reuse: true, budget: None, lru: Mutex::new(None) })
    }

    /// Control whether lookups may return stored entries. With reuse
    /// off the cache is record-only: every lookup misses (and is
    /// counted as a miss) but stores still happen — this is
    /// `mlpa-experiments --cache` without `--resume`.
    pub fn set_reuse(&mut self, reuse: bool) {
        self.reuse = reuse;
    }

    /// Whether lookups may return stored entries.
    pub fn reuse(&self) -> bool {
        self.reuse
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Total bytes currently tracked by the LRU index (0 without a
    /// budget).
    pub fn tracked_bytes(&self) -> u64 {
        self.lru.lock().map_or(0, |g| g.as_ref().map_or(0, |s| s.total))
    }

    /// Configure (or clear) a byte-size budget with LRU eviction.
    ///
    /// Setting a budget loads the on-disk index, reconciles it against
    /// the entries actually present (files unknown to the index — e.g.
    /// written before a crash persisted it — are adopted as coldest),
    /// immediately evicts down to the budget, and persists the result.
    /// The store then stays under the budget after every store.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan failures during reconciliation.
    pub fn set_budget(&mut self, budget: Option<u64>) -> Result<(), String> {
        self.budget = budget;
        let mut lru = self.lru.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match budget {
            None => {
                *lru = None;
            }
            Some(b) => {
                let mut state = self.load_index();
                self.reconcile(&mut state)?;
                self.enforce_budget(&mut state, b);
                self.persist_index(&state);
                mlpa_obs::gauge_set("core.cache.bytes", state.total);
                *lru = Some(state);
            }
        }
        Ok(())
    }

    fn rel_for(&self, kind: &str, material: &str) -> String {
        // Two independent FNV-1a passes give a 128-bit name; the full
        // key material is verified on load, so a collision is a miss.
        let mut h1 = fnv1a(kind.as_bytes(), FNV_OFFSET);
        h1 = fnv1a(material.as_bytes(), h1);
        let mut h2 = fnv1a(kind.as_bytes(), FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15);
        h2 = fnv1a(material.as_bytes(), h2);
        format!("{kind}/{h1:016x}{h2:016x}.art")
    }

    fn path_for(&self, kind: &str, material: &str) -> PathBuf {
        self.root.join(self.rel_for(kind, material))
    }

    fn index_path(&self) -> PathBuf {
        self.root.join(LRU_INDEX_FILE)
    }

    /// Parse the index file; a missing, stale, or corrupt index is an
    /// empty state — [`ArtifactCache::reconcile`] rebuilds it from the
    /// entries on disk (recency is lost, correctness is not).
    fn load_index(&self) -> LruState {
        let Ok(text) = fs::read_to_string(self.index_path()) else {
            return LruState::default();
        };
        let mut lines = text.lines();
        let mut state = LruState::default();
        let Some(header) = lines.next() else { return LruState::default() };
        let mut toks = header.split_whitespace();
        if toks.next() != Some("#") || toks.next() != Some(LRU_INDEX_SCHEMA) {
            return LruState::default();
        }
        for t in toks {
            if let Some(v) = t.strip_prefix("seq=") {
                state.seq = v.parse().unwrap_or(0);
            }
        }
        for line in lines {
            let mut parts = line.splitn(3, ' ');
            let (Some(at), Some(size), Some(rel)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let (Ok(at), Ok(size)) = (at.parse::<u64>(), size.parse::<u64>()) else { continue };
            state.entries.insert(rel.to_string(), (at, size));
        }
        state
    }

    /// Make the index agree with the filesystem: drop rows whose entry
    /// is gone, adopt entry files the index does not know (atime 0 =
    /// evicted first), refresh sizes, and recompute the total.
    fn reconcile(&self, state: &mut LruState) -> Result<(), String> {
        let mut on_disk: BTreeMap<String, u64> = BTreeMap::new();
        let dirs = fs::read_dir(&self.root)
            .map_err(|e| format!("scanning cache root {}: {e}", self.root.display()))?;
        for dir in dirs {
            let dir = dir.map_err(|e| format!("scanning cache root: {e}"))?;
            if !dir.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                continue;
            }
            let kind = dir.file_name().to_string_lossy().into_owned();
            let entries =
                fs::read_dir(dir.path()).map_err(|e| format!("scanning cache dir {kind}: {e}"))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("scanning cache dir {kind}: {e}"))?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if !name.ends_with(".art") {
                    continue;
                }
                let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
                on_disk.insert(format!("{kind}/{name}"), size);
            }
        }
        state.entries.retain(|rel, _| on_disk.contains_key(rel));
        for (rel, size) in on_disk {
            state.entries.entry(rel).and_modify(|e| e.1 = size).or_insert((0, size));
        }
        state.total = state.entries.values().map(|&(_, size)| size).sum();
        let max_atime = state.entries.values().map(|&(at, _)| at).max().unwrap_or(0);
        state.seq = state.seq.max(max_atime + 1);
        Ok(())
    }

    /// Write the index crash-safely. Called with the LRU lock held.
    fn persist_index(&self, state: &LruState) {
        let mut out = format!("# {LRU_INDEX_SCHEMA} seq={}\n", state.seq);
        for (rel, (at, size)) in &state.entries {
            let _ = writeln!(out, "{at} {size} {rel}");
        }
        if let Err(e) = atomic_write(&self.index_path(), out.as_bytes()) {
            mlpa_obs::elog!("cache", "cannot persist LRU index: {e}");
        }
    }

    /// Evict least-recently-used entries until `total <= budget`.
    /// Capacity evictions count `core.cache.evictions` — never the
    /// corruption counter.
    fn enforce_budget(&self, state: &mut LruState, budget: u64) {
        while state.total > budget {
            let victim = state
                .entries
                .iter()
                .min_by(|a, b| (a.1 .0, a.0).cmp(&(b.1 .0, b.0)))
                .map(|(rel, _)| rel.clone());
            let Some(rel) = victim else { break };
            let (_, size) = state.entries.remove(&rel).expect("victim present");
            state.total = state.total.saturating_sub(size);
            match fs::remove_file(self.root.join(&rel)) {
                Ok(()) => {
                    mlpa_obs::add("core.cache.evictions", 1);
                    mlpa_obs::vlog!("cache", "evicted {rel} ({size} bytes) for budget");
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    // Still dropped from accounting so the loop
                    // terminates; the orphan is re-adopted on the next
                    // reconcile.
                    mlpa_obs::elog!("cache", "cannot evict {rel}: {e}");
                }
            }
        }
    }

    /// Mark an entry as just-used (lookup hit). The bump is persisted
    /// with the next index write (store or eviction), trading a write
    /// per hit for slightly stale recency after a crash.
    fn touch(&self, kind: &str, material: &str) {
        let mut lru = self.lru.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(state) = lru.as_mut() {
            let rel = self.rel_for(kind, material);
            if let Some(e) = state.entries.get_mut(&rel) {
                e.0 = state.seq;
                state.seq += 1;
            }
        }
    }

    /// Track a freshly stored entry and enforce the budget.
    fn record_store(&self, kind: &str, material: &str, bytes: u64) {
        let mut lru = self.lru.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(state) = lru.as_mut() else { return };
        let rel = self.rel_for(kind, material);
        let seq = state.seq;
        state.seq += 1;
        let old = state.entries.insert(rel, (seq, bytes));
        state.total = state.total.saturating_sub(old.map_or(0, |(_, s)| s)) + bytes;
        if let Some(b) = self.budget {
            self.enforce_budget(state, b);
        }
        self.persist_index(state);
        mlpa_obs::gauge_set("core.cache.bytes", state.total);
    }

    /// Drop an entry from the accounting (verify-failure deletion).
    fn forget(&self, kind: &str, material: &str) {
        let mut lru = self.lru.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(state) = lru.as_mut() {
            let rel = self.rel_for(kind, material);
            if let Some((_, size)) = state.entries.remove(&rel) {
                state.total = state.total.saturating_sub(size);
                self.persist_index(state);
                mlpa_obs::gauge_set("core.cache.bytes", state.total);
            }
        }
    }

    /// Look up an artifact. Returns `None` on a miss, when reuse is
    /// disabled, or when the stored entry fails verification (in which
    /// case the entry is deleted so it is regenerated, never trusted).
    pub fn get<A: Artifact>(&self, key: &CacheKey) -> Option<A> {
        let _span = mlpa_obs::span("core.cache.get");
        let path = self.path_for(A::KIND, key.material());
        if !self.reuse {
            mlpa_obs::add("core.cache.misses", 1);
            return None;
        }
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                mlpa_obs::add("core.cache.misses", 1);
                return None;
            }
            Err(e) => {
                // A present-but-unreadable entry is disk trouble, not a
                // cold cache; count it apart from the plain miss so a
                // daemon operator can tell the two failure modes apart.
                mlpa_obs::add("core.cache.read_errors", 1);
                mlpa_obs::add("core.cache.misses", 1);
                mlpa_obs::elog!("cache", "read error on {}: {e}", path.display());
                return None;
            }
        };
        match verify_and_decode::<A>(&text, key.material()) {
            Ok(a) => {
                mlpa_obs::add("core.cache.hits", 1);
                self.touch(A::KIND, key.material());
                Some(a)
            }
            Err(e) => {
                mlpa_obs::add("core.cache.verify_failures", 1);
                mlpa_obs::add("core.cache.misses", 1);
                if fs::remove_file(&path).is_ok() {
                    // Corruption deletions are counted apart from
                    // capacity (LRU) evictions: one is data loss, the
                    // other healthy steady state.
                    mlpa_obs::add("core.cache.verify_evictions", 1);
                    self.forget(A::KIND, key.material());
                }
                mlpa_obs::vlog!("cache", "discarding bad entry {}: {e}", path.display());
                None
            }
        }
    }

    /// Store an artifact crash-safely. Failures are logged and counted
    /// but do not abort the pipeline — a cache that cannot be written
    /// degrades to recomputation, not to an error.
    pub fn put<A: Artifact>(&self, key: &CacheKey, value: &A) {
        let _span = mlpa_obs::span("core.cache.put");
        let mut enc = Enc::new();
        value.encode(&mut enc);
        let payload = enc.finish();
        let entry = format!(
            "# {CACHE_SCHEMA} kind={} len={} sum={:016x}\nkey={}\n{payload}",
            A::KIND,
            payload.len(),
            checksum(payload.as_bytes()),
            key.material(),
        );
        let path = self.path_for(A::KIND, key.material());
        if let Some(dir) = path.parent() {
            if let Err(e) = fs::create_dir_all(dir) {
                mlpa_obs::elog!("cache", "cannot create {}: {e}", dir.display());
                return;
            }
        }
        match atomic_write(&path, entry.as_bytes()) {
            Ok(()) => {
                mlpa_obs::add("core.cache.stores", 1);
                self.record_store(A::KIND, key.material(), entry.len() as u64);
            }
            Err(e) => mlpa_obs::elog!("cache", "store failed: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Singleflight: in-flight deduplication of identical computations
// ---------------------------------------------------------------------------

/// How a [`Singleflight::run`] call obtained its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightRole {
    /// This call ran the computation.
    Leader,
    /// This call waited on a concurrent leader and received a clone of
    /// its result — the signal `mlpa-serve` counts as an in-flight
    /// dedup.
    Follower,
}

enum SlotState<V> {
    Running,
    Done(V),
    /// The leader's closure panicked; followers re-panic with this
    /// message rather than hanging forever.
    Failed(String),
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    cv: Condvar,
}

/// Collapse concurrent identical computations onto one execution.
///
/// The first caller for a key becomes the *leader* and runs the
/// closure; callers arriving while it runs become *followers*, block
/// on a condvar, and receive a clone of the leader's result. Once the
/// leader finishes, the key is retired — a later call computes afresh
/// (the daemon's result cache is what makes *that* cheap).
///
/// Panic-safe: a panicking leader marks the slot failed and wakes all
/// followers (which then panic with the leader's message) instead of
/// leaving them blocked.
#[derive(Default)]
pub struct Singleflight<V: Clone> {
    slots: Mutex<HashMap<String, Arc<Slot<V>>>>,
}

impl<V: Clone> Singleflight<V> {
    /// An empty singleflight table.
    pub fn new() -> Singleflight<V> {
        Singleflight { slots: Mutex::new(HashMap::new()) }
    }

    /// Run `compute` for `key`, deduplicating against concurrent calls
    /// with the same key. Returns the result and this call's
    /// [`FlightRole`].
    ///
    /// # Panics
    ///
    /// Re-panics in followers when the leader's closure panicked.
    pub fn run<F: FnOnce() -> V>(&self, key: &str, compute: F) -> (V, FlightRole) {
        let (slot, leader) = {
            let mut slots = self.slots.lock().expect("singleflight map poisoned");
            match slots.get(key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::Running),
                        cv: Condvar::new(),
                    });
                    slots.insert(key.to_string(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };

        if !leader {
            let mut state = slot.state.lock().expect("singleflight slot poisoned");
            loop {
                match &*state {
                    SlotState::Running => {
                        state = slot.cv.wait(state).expect("singleflight slot poisoned");
                    }
                    SlotState::Done(v) => return (v.clone(), FlightRole::Follower),
                    SlotState::Failed(msg) => {
                        panic!("singleflight leader panicked: {msg}");
                    }
                }
            }
        }

        // Leader path. The guard settles the slot on every exit —
        // including an unwind out of `compute` — so followers can
        // never be left waiting on a slot nobody will complete.
        struct Settle<'a, V: Clone> {
            flight: &'a Singleflight<V>,
            key: &'a str,
            slot: &'a Arc<Slot<V>>,
            done: bool,
        }
        impl<V: Clone> Drop for Settle<'_, V> {
            fn drop(&mut self) {
                if !self.done {
                    let msg = format!("computation for {:?} panicked", self.key);
                    *self.slot.state.lock().expect("singleflight slot poisoned") =
                        SlotState::Failed(msg);
                    self.slot.cv.notify_all();
                }
                self.flight
                    .slots
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .remove(self.key);
            }
        }
        let mut settle = Settle { flight: self, key, slot: &slot, done: false };
        let value = compute();
        *slot.state.lock().expect("singleflight slot poisoned") = SlotState::Done(value.clone());
        slot.cv.notify_all();
        settle.done = true;
        drop(settle);
        (value, FlightRole::Leader)
    }
}

fn verify_and_decode<A: Artifact>(text: &str, material: &str) -> Result<A, String> {
    let (header, rest) = text.split_once('\n').ok_or("missing entry header")?;
    let mut toks = header.split_whitespace();
    if toks.next() != Some("#") {
        return Err("bad header prefix".into());
    }
    if toks.next() != Some(CACHE_SCHEMA) {
        return Err(format!("schema is not {CACHE_SCHEMA}"));
    }
    let mut kind = None;
    let mut len = None;
    let mut sum = None;
    for t in toks {
        if let Some(v) = t.strip_prefix("kind=") {
            kind = Some(v);
        } else if let Some(v) = t.strip_prefix("len=") {
            len = v.parse::<usize>().ok();
        } else if let Some(v) = t.strip_prefix("sum=") {
            sum = u64::from_str_radix(v, 16).ok();
        }
    }
    if kind != Some(A::KIND) {
        return Err(format!("kind {kind:?} is not {:?}", A::KIND));
    }
    let len = len.ok_or("missing/bad len")?;
    let sum = sum.ok_or("missing/bad sum")?;
    let (key_line, payload) = rest.split_once('\n').ok_or("missing key line")?;
    let stored = key_line.strip_prefix("key=").ok_or("missing key prefix")?;
    if stored != material {
        return Err("key material mismatch (hash collision or stale entry)".into());
    }
    if payload.len() != len {
        return Err(format!("payload is {} bytes, header says {len}", payload.len()));
    }
    let got = checksum(payload.as_bytes());
    if got != sum {
        return Err(format!("checksum {got:016x} does not match header {sum:016x}"));
    }
    let mut dec = Dec::new(payload);
    let value = A::decode(&mut dec)?;
    dec.done()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanPoint, SimulationPlan};

    use crate::testobs::counter_lock;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mlpa-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_plan() -> SimulationPlan {
        SimulationPlan::new(
            vec![
                PlanPoint { start: 0, len: 100, weight: 0.125 },
                PlanPoint { start: 300, len: 100, weight: 0.875 },
            ],
            1000,
        )
        .unwrap()
    }

    fn entry_path(cache: &ArtifactCache, key: &CacheKey) -> PathBuf {
        cache.path_for(SimulationPlan::KIND, key.material())
    }

    #[test]
    fn store_and_reload() {
        let root = tmp_root("roundtrip");
        let cache = ArtifactCache::open(&root).unwrap();
        let key = CacheKey::new().field("spec", "bench-a").field("n", &7u64);
        assert_eq!(cache.get::<SimulationPlan>(&key), None);
        let plan = sample_plan();
        cache.put(&key, &plan);
        assert_eq!(cache.get::<SimulationPlan>(&key), Some(plan));
        // A different key misses even with entries present.
        let other = CacheKey::new().field("spec", "bench-b").field("n", &7u64);
        assert_eq!(cache.get::<SimulationPlan>(&other), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reuse_off_is_record_only() {
        let root = tmp_root("record");
        let mut cache = ArtifactCache::open(&root).unwrap();
        cache.set_reuse(false);
        let key = CacheKey::new().field("spec", "bench-a");
        let plan = sample_plan();
        cache.put(&key, &plan);
        assert_eq!(cache.get::<SimulationPlan>(&key), None, "record-only must not reuse");
        cache.set_reuse(true);
        assert_eq!(cache.get::<SimulationPlan>(&key), Some(plan));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_are_discarded_and_regenerated() {
        let root = tmp_root("corrupt");
        let cache = ArtifactCache::open(&root).unwrap();
        let key = CacheKey::new().field("spec", "bench-a");
        let plan = sample_plan();

        // Bit flip in the payload.
        cache.put(&key, &plan);
        let path = entry_path(&cache, &key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.get::<SimulationPlan>(&key), None, "bit flip must be rejected");
        assert!(!path.exists(), "corrupt entry must be deleted");

        // Regeneration works after eviction.
        cache.put(&key, &plan);
        assert_eq!(cache.get::<SimulationPlan>(&key), Some(plan.clone()));

        // Truncation.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(cache.get::<SimulationPlan>(&key), None, "truncation must be rejected");
        assert!(!path.exists());

        // Version mismatch.
        cache.put(&key, &plan);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen(CACHE_SCHEMA, "mlpa-cache-v0", 1)).unwrap();
        assert_eq!(cache.get::<SimulationPlan>(&key), None, "old schema must be rejected");
        assert!(!path.exists());

        // Key-material mismatch (simulated hash collision): an entry
        // whose file name matches but whose key line differs.
        cache.put(&key, &plan);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen("spec=\"bench-a\"", "spec=\"bench-x\"", 1)).unwrap();
        assert_eq!(cache.get::<SimulationPlan>(&key), None, "foreign key must be rejected");

        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn read_errors_are_distinguished_from_plain_misses() {
        let _g = counter_lock();
        let root = tmp_root("read-error");
        let cache = ArtifactCache::open(&root).unwrap();
        let key = CacheKey::new().field("spec", "bench-a");
        let errors_before = mlpa_obs::counter_value("core.cache.read_errors");

        // An absent entry is a plain miss, never a read error.
        assert_eq!(cache.get::<SimulationPlan>(&key), None);
        assert_eq!(mlpa_obs::counter_value("core.cache.read_errors"), errors_before);

        // A directory squatting on the entry path makes the read fail
        // with a non-NotFound error (EISDIR) — the reliable stand-in
        // for transient I/O trouble even when tests run as root, where
        // permission bits are ignored.
        let path = entry_path(&cache, &key);
        fs::create_dir_all(&path).unwrap();
        assert_eq!(cache.get::<SimulationPlan>(&key), None, "read error degrades to a miss");
        assert_eq!(
            mlpa_obs::counter_value("core.cache.read_errors"),
            errors_before + 1,
            "a failed read must be counted apart from a cold miss"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[cfg(unix)]
    #[test]
    fn unreadable_permissions_entry_counts_as_read_error() {
        use std::os::unix::fs::PermissionsExt;
        let _g = counter_lock();
        let root = tmp_root("perm");
        let cache = ArtifactCache::open(&root).unwrap();
        let key = CacheKey::new().field("spec", "bench-a");
        cache.put(&key, &sample_plan());
        let path = entry_path(&cache, &key);
        fs::set_permissions(&path, fs::Permissions::from_mode(0o000)).unwrap();

        let errors_before = mlpa_obs::counter_value("core.cache.read_errors");
        let got = cache.get::<SimulationPlan>(&key);
        if got.is_none() {
            assert_eq!(
                mlpa_obs::counter_value("core.cache.read_errors"),
                errors_before + 1,
                "an unreadable entry must count as a read error"
            );
        }
        // A privileged process (root in CI containers) reads through
        // mode 000 and legitimately hits; the EISDIR-based test above
        // covers the counter in that environment.
        fs::set_permissions(&path, fs::Permissions::from_mode(0o644)).unwrap();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_deletions_count_verify_evictions_not_capacity_evictions() {
        let _g = counter_lock();
        let root = tmp_root("verify-evict");
        let cache = ArtifactCache::open(&root).unwrap();
        let key = CacheKey::new().field("spec", "bench-a");
        cache.put(&key, &sample_plan());
        let path = entry_path(&cache, &key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let verify_before = mlpa_obs::counter_value("core.cache.verify_evictions");
        let capacity_before = mlpa_obs::counter_value("core.cache.evictions");
        assert_eq!(cache.get::<SimulationPlan>(&key), None);
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert_eq!(mlpa_obs::counter_value("core.cache.verify_evictions"), verify_before + 1);
        assert_eq!(
            mlpa_obs::counter_value("core.cache.evictions"),
            capacity_before,
            "corruption deletions must not inflate the capacity-eviction counter"
        );
        let _ = fs::remove_dir_all(&root);
    }

    /// One entry's on-disk size, measured with a throwaway cache (all
    /// budget tests below store the same plan under same-length keys,
    /// so every entry has this size).
    fn entry_size() -> u64 {
        let root = tmp_root("size-probe");
        let cache = ArtifactCache::open(&root).unwrap();
        let key = CacheKey::new().field("n", &0u32);
        cache.put(&key, &sample_plan());
        let size = fs::metadata(entry_path(&cache, &key)).unwrap().len();
        let _ = fs::remove_dir_all(&root);
        size
    }

    fn art_bytes_on_disk(root: &Path) -> u64 {
        let mut total = 0;
        for dir in fs::read_dir(root).unwrap() {
            let dir = dir.unwrap();
            if !dir.file_type().unwrap().is_dir() {
                continue;
            }
            for entry in fs::read_dir(dir.path()).unwrap() {
                let entry = entry.unwrap();
                if entry.file_name().to_string_lossy().ends_with(".art") {
                    total += entry.metadata().unwrap().len();
                }
            }
        }
        total
    }

    #[test]
    fn budget_evicts_least_recently_used_and_store_stays_under() {
        let _g = counter_lock();
        let size = entry_size();
        let budget = size * 2 + size / 2; // room for two entries, not three
        let root = tmp_root("budget");
        let mut cache = ArtifactCache::open(&root).unwrap();
        cache.set_budget(Some(budget)).unwrap();
        let keys: Vec<CacheKey> = (1..=3u32).map(|i| CacheKey::new().field("n", &i)).collect();

        let evictions_before = mlpa_obs::counter_value("core.cache.evictions");
        cache.put(&keys[0], &sample_plan());
        cache.put(&keys[1], &sample_plan());
        // Touch entry 0 so entry 1 becomes the LRU victim.
        assert!(cache.get::<SimulationPlan>(&keys[0]).is_some());
        cache.put(&keys[2], &sample_plan());

        assert!(
            cache.get::<SimulationPlan>(&keys[0]).is_some(),
            "recently touched entry must survive the eviction pass"
        );
        assert_eq!(
            cache.get::<SimulationPlan>(&keys[1]),
            None,
            "least-recently-used entry must be evicted"
        );
        assert!(cache.get::<SimulationPlan>(&keys[2]).is_some());
        assert_eq!(mlpa_obs::counter_value("core.cache.evictions"), evictions_before + 1);
        assert!(cache.tracked_bytes() <= budget);
        assert!(
            art_bytes_on_disk(&root) <= budget,
            "store exceeds budget: {} > {budget}",
            art_bytes_on_disk(&root)
        );
        assert_eq!(mlpa_obs::gauge_value("core.cache.bytes"), cache.tracked_bytes());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn budget_recency_survives_restart_via_the_index_file() {
        let _g = counter_lock();
        let size = entry_size();
        let root = tmp_root("budget-restart");
        let key_a = CacheKey::new().field("n", &1u32);
        let key_b = CacheKey::new().field("n", &2u32);
        {
            let mut cache = ArtifactCache::open(&root).unwrap();
            cache.set_budget(Some(size * 10)).unwrap();
            cache.put(&key_a, &sample_plan());
            cache.put(&key_b, &sample_plan());
        }
        // Restart with a budget that fits only one entry: the index
        // remembers A is older, so A is the one evicted.
        let mut cache = ArtifactCache::open(&root).unwrap();
        cache.set_budget(Some(size + size / 2)).unwrap();
        assert_eq!(cache.get::<SimulationPlan>(&key_a), None, "older entry evicted on reopen");
        assert!(cache.get::<SimulationPlan>(&key_b).is_some(), "newer entry kept");
        assert!(art_bytes_on_disk(&root) <= size + size / 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn budget_reconciles_entries_unknown_to_the_index() {
        let _g = counter_lock();
        let size = entry_size();
        let root = tmp_root("budget-crash");
        let key_a = CacheKey::new().field("n", &1u32);
        let key_b = CacheKey::new().field("n", &2u32);
        {
            // Entries written with no budget configured: the index
            // file never existed — the kill -9 shape.
            let cache = ArtifactCache::open(&root).unwrap();
            cache.put(&key_a, &sample_plan());
            cache.put(&key_b, &sample_plan());
        }
        assert!(!root.join(LRU_INDEX_FILE).exists());
        let mut cache = ArtifactCache::open(&root).unwrap();
        cache.set_budget(Some(size * 10)).unwrap();
        assert_eq!(cache.tracked_bytes(), size * 2, "untracked entries adopted on reopen");
        assert!(root.join(LRU_INDEX_FILE).exists(), "reconciled index persisted");
        // Adopted entries are evictable like any other.
        let mut cache = ArtifactCache::open(&root).unwrap();
        cache.set_budget(Some(size / 2)).unwrap();
        assert_eq!(art_bytes_on_disk(&root), 0, "budget below one entry clears the store");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn singleflight_retires_keys_after_completion() {
        let flight = Singleflight::<u32>::new();
        assert_eq!(flight.run("k", || 1), (1, FlightRole::Leader));
        // The key is retired, not cached: a later call recomputes.
        assert_eq!(flight.run("k", || 2), (2, FlightRole::Leader));
        // Distinct keys never interact.
        assert_eq!(flight.run("other", || 3), (3, FlightRole::Leader));
    }

    #[test]
    fn singleflight_collapses_concurrent_identical_computations() {
        const THREADS: usize = 8;
        let flight = Singleflight::<Vec<u8>>::new();
        let computes = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(THREADS);
        let results: Vec<(Vec<u8>, FlightRole)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        flight.run("shared-key", || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Long enough that every thread released by
                            // the barrier reaches `run` while the leader
                            // is still computing.
                            std::thread::sleep(std::time::Duration::from_millis(200));
                            vec![0xAB; 64]
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one computation");
        let leaders = results.iter().filter(|(_, role)| *role == FlightRole::Leader).count();
        assert_eq!(leaders, 1, "exactly one leader");
        for (bytes, _) in &results {
            assert_eq!(bytes, &results[0].0, "all callers get byte-identical results");
        }
    }

    #[test]
    fn singleflight_leader_panic_wakes_followers_instead_of_hanging() {
        use std::panic::AssertUnwindSafe;
        let flight = Singleflight::<u32>::new();
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    flight.run("k", || {
                        std::thread::sleep(std::time::Duration::from_millis(150));
                        panic!("leader boom");
                    })
                }))
            });
            // Join the flight while the leader is mid-computation.
            std::thread::sleep(std::time::Duration::from_millis(40));
            let follower =
                s.spawn(|| std::panic::catch_unwind(AssertUnwindSafe(|| flight.run("k", || 7))));
            assert!(leader.join().unwrap().is_err(), "leader panic propagates to leader");
            assert!(
                follower.join().unwrap().is_err(),
                "follower must observe the leader's panic, not hang"
            );
        });
        // The failed key is retired; the next call computes fresh.
        assert_eq!(flight.run("k", || 9), (9, FlightRole::Leader));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_files() {
        let root = tmp_root("atomic");
        fs::create_dir_all(&root).unwrap();
        let path = root.join("f.txt");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n != "f.txt")
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        let _ = fs::remove_dir_all(&root);
    }
}
