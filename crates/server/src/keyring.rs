//! Key registry: key id → `(PublicKey, Party2)` with a per-key generation
//! lock and durable share persistence.
//!
//! One server process serves many key pairs; a session selects its key via
//! the wire hello ([`dlr_core::driver::HelloMsg`]). Each key's `P2` state
//! lives behind a single mutex — the **generation lock**: decrypt requests
//! hold it for the duration of `dec_respond`, a refresh holds it across
//! `ref_respond` + `ref_complete` + share persistence + generation bump.
//! A decrypt therefore never observes a half-refreshed share, and the
//! generation counter read under the same lock is always consistent with
//! the share that produced a response.
//!
//! ## Durability
//!
//! A key registered with a persist path gets its refreshed [`Share2`]
//! written **atomically** (temp file + rename + directory fsync) the
//! moment the refresh completes, while the generation lock is still held. A crash at any
//! point leaves the share file either at the old or the new generation —
//! never truncated, never torn. This is the §4.4 period structure: the
//! share on disk is the device's long-term secret state, and rolling it
//! back to a pre-refresh generation would let leakage from consecutive
//! periods accumulate against one share.

use dlr_core::dlr::{Party2, PublicKey, Share2};
use dlr_curve::Pairing;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lock a std mutex, recovering the guard if a previous holder panicked.
///
/// Every lock in this crate goes through here, so a panicking session
/// cannot take a key, the epoch clock or the statistics down with it.
/// Recovery is safe when no holder can leave the value half-updated:
///
/// - the scheduler's kick counter and `ServerStats::last_panic` are
///   overwritten whole (an integer bump, an `Option<String>` store);
/// - the wire aggregate (`ServerStats::wire`) and the worker inboxes only
///   see `merge`/`drain` and `push_back`/`pop_front`, which leave a valid
///   value even if an allocation fails part-way; the worst case is a
///   statistic short by one session or one lost handoff, never a wrong
///   reply;
/// - the generation lock ([`KeyEntry::with_state`]) around a decrypt:
///   `Party2::dec_respond` reads the share without changing it, and
///   [`KeyEntry::generation`] and [`KeyEntry::persist`] only read.
///
/// One holder is not safe to recover: a panic inside a **refresh** under
/// the generation lock. Once `Party2::ref_complete` has promoted the new
/// share, a panic before [`KeyEntry::commit_refresh`] bumps the
/// generation leaves P2 on the new share at the old generation, while P1,
/// which never got a reply, keeps the old share; the two no longer
/// recombine. Poisoning would not repair that either: it is the known
/// refresh-atomicity gap, closed only by a refresh that stages the new
/// share, persists it and promotes it after P1 has the reply.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Mutable per-key state guarded by the generation lock.
pub struct KeyState<E: Pairing> {
    /// The `P2` protocol state machine for this key.
    pub p2: Party2<E>,
    /// Refresh count since registration. Sessions bind to a generation at
    /// hello time; a mismatch on a later request means a refresh won the
    /// race and the client must re-sync.
    pub generation: u64,
    persist_path: Option<PathBuf>,
}

/// One registered key: identity plus locked state. The public key lives
/// *outside* the generation lock — it never changes across refreshes, and
/// keeping it here lets [`warm`](Self::warm) rebuild fixed-base tables
/// without touching the lock that serializes sessions.
pub struct KeyEntry<E: Pairing> {
    id: Vec<u8>,
    pk: PublicKey<E>,
    state: Mutex<KeyState<E>>,
}

impl<E: Pairing> KeyEntry<E> {
    /// The key's registry id.
    pub fn id(&self) -> &[u8] {
        &self.id
    }

    /// The key's public half (lock-free — immutable for the entry's life).
    pub fn public_key(&self) -> &PublicKey<E> {
        &self.pk
    }

    /// Build the key's fixed-base exponentiation tables (`z` tables plus
    /// the process-wide generator tables) **without acquiring the
    /// generation lock**. The keyring calls this at registration and the
    /// server calls it again after each committed refresh, so steady-state
    /// sessions never pay table precompute and a warm-up never stalls an
    /// in-flight decrypt. Idempotent: a second call finds the tables
    /// already built. Clones of the public key (including the one inside
    /// `P2`'s state) share the same tables.
    pub fn warm(&self) {
        self.pk.warm();
    }

    /// Current generation (brief lock acquisition).
    pub fn generation(&self) -> u64 {
        lock_recover(&self.state).generation
    }

    /// Run `f` under the generation lock.
    pub fn with_state<T>(&self, f: impl FnOnce(&mut KeyState<E>) -> T) -> T {
        f(&mut lock_recover(&self.state))
    }

    /// Complete a refresh **under an already-held state lock**: persist
    /// the new share atomically (if a path is registered) and bump the
    /// generation. The generation advances even if persistence fails —
    /// `P2`'s in-memory share has already moved past `ref_complete`, so
    /// the wire reply must stay consistent with it; the I/O error is
    /// returned alongside for the caller to count/report.
    pub fn commit_refresh(state: &mut KeyState<E>) -> (u64, io::Result<()>) {
        let persisted = match &state.persist_path {
            Some(path) => persist_atomically(path, &state.p2.share().to_bytes()),
            None => Ok(()),
        };
        state.generation += 1;
        (state.generation, persisted)
    }

    /// Persist the current share (used at graceful shutdown; refreshes
    /// already persisted eagerly, so this is a no-op-equivalent rewrite).
    pub fn persist(&self) -> io::Result<()> {
        let state = lock_recover(&self.state);
        match &state.persist_path {
            Some(path) => persist_atomically(path, &state.p2.share().to_bytes()),
            None => Ok(()),
        }
    }
}

/// Write `bytes` to `path` atomically: write + fsync a sibling temp file,
/// rename it over the target, then fsync the directory so the rename
/// itself survives a crash. Readers (and a crash-restarted server)
/// observe either the old or the new content, never a torn write, and a
/// refresh that returned is not rolled back by a power cut.
pub fn persist_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// The server's key registry. Insertion order defines the default key
/// (first inserted) used by sessions that skip the hello.
pub struct Keyring<E: Pairing> {
    entries: Vec<Arc<KeyEntry<E>>>,
    by_id: BTreeMap<Vec<u8>, usize>,
    public_keys: BTreeMap<Vec<u8>, PublicKey<E>>,
}

impl<E: Pairing> Default for Keyring<E> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            by_id: BTreeMap::new(),
            public_keys: BTreeMap::new(),
        }
    }
}

impl<E: Pairing> Keyring<E> {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a key without persistence (tests, ephemeral keys).
    pub fn insert(&mut self, id: &[u8], pk: PublicKey<E>, share: Share2<E>) {
        self.insert_inner(id, pk, share, None);
    }

    /// Register a key whose refreshed share is persisted to `path` after
    /// every refresh (and at graceful shutdown).
    pub fn insert_persistent(
        &mut self,
        id: &[u8],
        pk: PublicKey<E>,
        share: Share2<E>,
        path: PathBuf,
    ) {
        self.insert_inner(id, pk, share, Some(path));
    }

    fn insert_inner(
        &mut self,
        id: &[u8],
        pk: PublicKey<E>,
        share: Share2<E>,
        persist_path: Option<PathBuf>,
    ) {
        let entry = Arc::new(KeyEntry {
            id: id.to_vec(),
            pk: pk.clone(),
            state: Mutex::new(KeyState {
                p2: Party2::new(pk.clone(), share),
                generation: 0,
                persist_path,
            }),
        });
        // Pay table precompute at key load, not in the first session.
        entry.warm();
        if let Some(&idx) = self.by_id.get(id) {
            self.entries[idx] = entry;
        } else {
            self.by_id.insert(id.to_vec(), self.entries.len());
            self.entries.push(entry);
        }
        self.public_keys.insert(id.to_vec(), pk);
    }

    /// Look up a key by id.
    pub fn get(&self, id: &[u8]) -> Option<Arc<KeyEntry<E>>> {
        self.by_id.get(id).map(|&idx| Arc::clone(&self.entries[idx]))
    }

    /// The public key registered under `id`.
    pub fn public_key(&self, id: &[u8]) -> Option<&PublicKey<E>> {
        self.public_keys.get(id)
    }

    /// The default key (first registered), if any.
    pub fn default_entry(&self) -> Option<Arc<KeyEntry<E>>> {
        self.entries.first().map(Arc::clone)
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no key is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over all entries (registration order).
    pub fn entries(&self) -> impl Iterator<Item = &Arc<KeyEntry<E>>> {
        self.entries.iter()
    }

    /// Persist every key's current share (graceful-shutdown path).
    pub fn persist_all(&self) -> io::Result<()> {
        for entry in &self.entries {
            entry.persist()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_core::dlr;
    use dlr_core::params::SchemeParams;
    use dlr_curve::Toy;
    use rand::SeedableRng;

    type E = Toy;

    fn keygen(seed: u64) -> (PublicKey<E>, dlr::Share1<E>, Share2<E>) {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let params = SchemeParams::derive::<<E as Pairing>::Scalar>(16, 64);
        dlr::keygen::<E, _>(params, &mut r)
    }

    #[test]
    fn lookup_and_default() {
        let (pk, _s1, s2) = keygen(1);
        let (pk2, _s1b, s2b) = keygen(2);
        let mut ring = Keyring::<E>::new();
        ring.insert(b"alpha", pk, s2);
        ring.insert(b"beta", pk2, s2b);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.get(b"alpha").unwrap().id(), b"alpha");
        assert_eq!(ring.get(b"beta").unwrap().generation(), 0);
        assert!(ring.get(b"gamma").is_none());
        assert_eq!(ring.default_entry().unwrap().id(), b"alpha");
        assert!(ring.public_key(b"alpha").is_some());
    }

    #[test]
    fn insert_warms_fixed_base_tables() {
        let (pk, _s1, s2) = keygen(6);
        assert!(!pk.tables_warm(), "fresh keygen must not prebuild tables");
        let mut ring = Keyring::<E>::new();
        ring.insert(b"k", pk.clone(), s2);
        // the entry's copy, the ring's lookup copy, and the caller's
        // original all share one table cell
        assert!(ring.get(b"k").unwrap().public_key().tables_warm());
        assert!(ring.public_key(b"k").unwrap().tables_warm());
        assert!(pk.tables_warm());
    }

    #[test]
    fn warm_does_not_take_the_generation_lock() {
        let (pk, _s1, s2) = keygen(7);
        let mut ring = Keyring::<E>::new();
        ring.insert(b"k", pk, s2);
        let entry = ring.get(b"k").unwrap();

        // Hold the generation lock in another thread for longer than any
        // warm-up could reasonably take; `warm` must complete while the
        // lock is held, or sessions would stall behind epoch precompute.
        let hold = std::time::Duration::from_millis(400);
        let entry2 = Arc::clone(&entry);
        let locked = std::sync::mpsc::channel();
        let holder = std::thread::spawn(move || {
            entry2.with_state(|_state| {
                locked.0.send(()).unwrap();
                std::thread::sleep(hold);
            });
        });
        locked.1.recv().unwrap();
        let started = std::time::Instant::now();
        entry.warm();
        assert!(
            started.elapsed() < hold,
            "warm() blocked on the generation lock"
        );
        holder.join().unwrap();
    }

    #[test]
    fn atomic_persist_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dlr-keyring-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sk2.dlr");

        let (pk, _s1, s2) = keygen(3);
        let expect = s2.to_bytes();
        let mut ring = Keyring::<E>::new();
        ring.insert_persistent(b"k", pk.clone(), s2, path.clone());
        ring.persist_all().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), expect);
        // reparseable
        assert!(Share2::<E>::from_bytes(&std::fs::read(&path).unwrap(), &pk.params).is_ok());
        // no stray temp file left behind
        assert!(!dir.join("sk2.dlr.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_refresh_bumps_generation_and_persists() {
        let dir = std::env::temp_dir().join(format!("dlr-keyring2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sk2.dlr");

        let (pk, s1, s2) = keygen(4);
        let mut ring = Keyring::<E>::new();
        ring.insert_persistent(b"k", pk.clone(), s2, path.clone());
        let entry = ring.get(b"k").unwrap();

        // Run an actual refresh against the locked state, then commit.
        let mut r = rand::rngs::StdRng::seed_from_u64(5);
        let mut p1 = dlr::Party1::new(pk.clone(), s1);
        let generation = entry.with_state(|state| {
            let m1 = p1.ref_start(&mut r);
            let m2 = state.p2.ref_respond(&m1, &mut r).unwrap();
            state.p2.ref_complete().unwrap();
            p1.ref_finish(&m2).unwrap();
            p1.ref_complete().unwrap();
            let (generation, persisted) = KeyEntry::commit_refresh(state);
            persisted.unwrap();
            generation
        });
        assert_eq!(generation, 1);
        assert_eq!(entry.generation(), 1);
        // disk holds the *new* share
        let on_disk = Share2::<E>::from_bytes(&std::fs::read(&path).unwrap(), &pk.params).unwrap();
        entry.with_state(|state| assert_eq!(&on_disk, state.p2.share()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_lock_survives_a_panicking_holder() {
        let dir = std::env::temp_dir().join(format!("dlr-keyring3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sk2.dlr");

        let (pk, _s1, s2) = keygen(8);
        let expect = s2.to_bytes();
        let mut ring = Keyring::<E>::new();
        ring.insert_persistent(b"k", pk, s2, path.clone());
        let entry = ring.get(b"k").unwrap();

        // A holder that panics under the generation lock, as a dispatcher
        // inside the server's `catch_unwind` would, poisons the mutex.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            entry.with_state::<()>(|_state| panic!("holder panics under the generation lock"))
        }));
        assert!(panicked.is_err());
        assert!(entry.state.is_poisoned());

        // Every later holder recovers the guard instead of re-panicking.
        assert_eq!(entry.generation(), 0);
        assert_eq!(entry.with_state(|state| state.p2.share().to_bytes()), expect);
        entry.persist().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
