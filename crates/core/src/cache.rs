//! Content-hash caches for the serving layer: windows, CNF-ready
//! quantified miters, and solved per-target patches, keyed by the
//! content hashes of [`crate::hash`] and shared across engine runs
//! (and, through `eco_patchd`, across requests).
//!
//! The cache is strictly *sound* with respect to byte-identical
//! results: every key covers the full representation of whatever the
//! cached artifact depends on (see the key builders in
//! [`crate::engine`]), so a hit returns exactly the value a cold
//! computation would have produced. A warm engine therefore emits
//! fewer [`crate::EcoEvent::SatCall`]s but identical patches and
//! dispositions.
//!
//! Every table — the engine's window / CNF / solved-target layers
//! here, and the daemon's netlist / outcome / poison-pill tables — is
//! one [`CacheTable`]: an LRU map with its own
//! capacity, a per-key in-flight slot, and one [`TableStats`] record.
//! Fills are single-flight: when several callers miss the same key at
//! once, one computes and the others wait for its stored value. The
//! contract is on [`CacheTable`].

use crate::engine::TargetPatchReport;
use crate::miter::QuantifiedMiter;
use crate::window::Window;
use eco_aig::NodePatch;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Which cache layer a [`crate::EcoEvent::CacheQuery`] hit or missed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CacheLayer {
    /// Parsed-netlist layer (daemon-side: source text → parsed design).
    Netlist,
    /// Window-extraction layer (problem → logic window and divisors).
    Window,
    /// CNF-build layer (subproblem → [`QuantifiedMiter`]).
    Cnf,
    /// Solved-target layer (subproblem + options → patch and report).
    Target,
    /// Full-outcome layer (daemon-side: request → response).
    Outcome,
}

impl CacheLayer {
    /// All layers, in metric-exposition order.
    pub const ALL: [CacheLayer; 5] = [
        CacheLayer::Netlist,
        CacheLayer::Outcome,
        CacheLayer::Window,
        CacheLayer::Cnf,
        CacheLayer::Target,
    ];

    /// Position in [`CacheLayer::ALL`].
    pub fn index(self) -> usize {
        CacheLayer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("layer is listed")
    }

    /// Stable lowercase name (used in traces and metrics JSON).
    pub fn name(self) -> &'static str {
        match self {
            CacheLayer::Netlist => "netlist",
            CacheLayer::Window => "window",
            CacheLayer::Cnf => "cnf",
            CacheLayer::Target => "target",
            CacheLayer::Outcome => "outcome",
        }
    }
}

/// Cumulative counters of one [`CacheTable`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups answered by a stored value (including waiters that took
    /// a concurrent fill's value).
    pub hits: u64,
    /// Lookups that computed the value themselves.
    pub misses: u64,
    /// Entries evicted under the capacity bound.
    pub evictions: u64,
}

/// What [`CacheTable::get_or_fill`] hands back.
#[derive(Debug)]
pub enum Lookup<V, R> {
    /// A stored value: found, or published by a concurrent fill.
    Hit(V),
    /// This caller ran the fill; its full result.
    Miss(R),
}

/// One LRU cache table keyed by 128-bit content hashes, with
/// single-flight fills.
///
/// # Fill contract
///
/// [`CacheTable::get_or_fill`] behaves as follows:
///
/// 1. A hit returns the stored value and counts a hit.
/// 2. On a miss with no fill in flight, the caller runs the fill and
///    counts a miss. The fill also says whether its value may be
///    stored: only clean results are (never a parse error, a governor
///    trip, an injected fault, or a degraded target report).
/// 3. On a miss while a fill is in flight, the caller waits for that
///    fill. If it stored a value, the waiter takes it and counts a
///    hit. If it stored nothing — it failed, declined, or panicked —
///    the waiter computes the value itself and counts a miss, so a
///    waiter never receives a degraded or errored answer computed for
///    someone else. The wait ends at the caller's own deadline: a
///    waiter whose deadline passes first stops waiting and computes
///    the value itself (counting a miss), so its own governor trips
///    just as it would have without the cache. Fills that do no
///    governed work (parsing, windowing, CNF building) pass no
///    deadline: waiting for one never takes longer than running it.
/// 4. A panicking fill releases its waiters and keeps unwinding.
/// 5. Fills nest only in the order outcome → {netlist, window,
///    target → CNF}: a fill never waits on a key of its own table or
///    of an earlier one, which is why fills cannot deadlock. The table
///    lock itself is never held while a fill runs.
///
/// Eviction is least-recently-used within the table; each get, put,
/// and fill registration advances the table's own tick.
#[derive(Debug)]
pub struct CacheTable<V> {
    state: Mutex<TableState<V>>,
    /// Signalled whenever a registered fill finishes.
    filled: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct TableState<V> {
    /// key → (last-use tick, value).
    entries: HashMap<u128, (u64, V)>,
    /// key → ticket of the fill in flight for it.
    filling: HashMap<u128, u64>,
    /// Callers blocked on some fill of this table.
    waiting: usize,
    tick: u64,
    stats: TableStats,
}

impl<V: Clone> TableState<V> {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The stored value, refreshed as most recently used (uncounted).
    fn touch(&mut self, key: u128) -> Option<V> {
        let tick = self.next_tick();
        self.entries.get_mut(&key).map(|(used, value)| {
            *used = tick;
            value.clone()
        })
    }

    /// Inserts under the capacity bound, evicting the least-recently
    /// used entry when full.
    fn insert(&mut self, key: u128, value: V, capacity: usize) {
        let tick = self.next_tick();
        if !self.entries.contains_key(&key) && self.entries.len() >= capacity {
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(key, (tick, value));
    }
}

impl<V: Clone> CacheTable<V> {
    /// A table holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> CacheTable<V> {
        CacheTable {
            state: Mutex::new(TableState {
                entries: HashMap::new(),
                filling: HashMap::new(),
                waiting: 0,
                tick: 0,
                stats: TableStats::default(),
            }),
            filled: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    // The lock is never held across caller code, so a poisoned lock
    // still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, TableState<V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stored value for `key`; counts a hit or a miss.
    pub fn get(&self, key: u128) -> Option<V> {
        let mut state = self.lock();
        let hit = state.touch(key);
        match hit {
            Some(_) => state.stats.hits += 1,
            None => state.stats.misses += 1,
        }
        hit
    }

    /// Stores `value` under `key`, evicting the stalest entry when the
    /// table is full.
    pub fn put(&self, key: u128, value: V) {
        self.lock().insert(key, value, self.capacity);
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> TableStats {
        self.lock().stats
    }

    /// Looks `key` up, running `fill` on a miss under the single-flight
    /// contract of [`CacheTable`]. `fill` returns its full result plus
    /// the value to store (`None` when the result must not be cached).
    /// `deadline` bounds the wait for a concurrent fill (`None` = wait
    /// until it finishes).
    pub fn get_or_fill<R>(
        &self,
        key: u128,
        deadline: Option<Instant>,
        fill: impl FnOnce() -> (R, Option<V>),
    ) -> Lookup<V, R> {
        let mut state = self.lock();
        if let Some(value) = state.touch(key) {
            state.stats.hits += 1;
            return Lookup::Hit(value);
        }
        if let Some(&ticket) = state.filling.get(&key) {
            let in_flight = move |s: &mut TableState<V>| s.filling.get(&key) == Some(&ticket);
            state.waiting += 1;
            state = match deadline {
                None => self
                    .filled
                    .wait_while(state, in_flight)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    self.filled
                        .wait_timeout_while(state, left, in_flight)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            state.waiting -= 1;
            if let Some(value) = state.touch(key) {
                state.stats.hits += 1;
                return Lookup::Hit(value);
            }
        }
        state.stats.misses += 1;
        // A waiter whose fill stored nothing takes the slot when it is
        // free; otherwise (a newer fill, or its deadline passed) it
        // computes alongside the fill in flight.
        let owner = !state.filling.contains_key(&key);
        if owner {
            let ticket = state.next_tick();
            state.filling.insert(key, ticket);
        }
        drop(state);
        let mut slot = FillSlot {
            table: self,
            key,
            owner,
            value: None,
        };
        let (result, value) = fill();
        slot.value = value;
        drop(slot);
        Lookup::Miss(result)
    }
}

/// Publishes a fill's outcome on every exit path, unwinding included:
/// stores the value (if any), frees the in-flight slot, and wakes the
/// waiters — all under one lock, so a waiter sees the stored value.
struct FillSlot<'a, V: Clone> {
    table: &'a CacheTable<V>,
    key: u128,
    /// Whether this fill holds the key's in-flight slot.
    owner: bool,
    value: Option<V>,
}

impl<V: Clone> Drop for FillSlot<'_, V> {
    fn drop(&mut self) {
        let mut state = self.table.lock();
        if let Some(value) = self.value.take() {
            state.insert(self.key, value, self.table.capacity);
        }
        if self.owner {
            state.filling.remove(&self.key);
            let waiters = state.waiting > 0;
            drop(state);
            if waiters {
                self.table.filled.notify_all();
            }
        }
    }
}

/// Cumulative hit/miss/eviction counters of an [`EcoCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Window-layer hits.
    pub window_hits: u64,
    /// Window-layer misses.
    pub window_misses: u64,
    /// CNF(miter)-layer hits.
    pub cnf_hits: u64,
    /// CNF(miter)-layer misses.
    pub cnf_misses: u64,
    /// Solved-target-layer hits.
    pub target_hits: u64,
    /// Solved-target-layer misses.
    pub target_misses: u64,
    /// Entries evicted under the capacity bound (all layers).
    pub evictions: u64,
}

impl CacheStats {
    /// Total hits across all engine-side layers.
    pub fn hits(&self) -> u64 {
        self.window_hits + self.cnf_hits + self.target_hits
    }

    /// Total misses across all engine-side layers.
    pub fn misses(&self) -> u64 {
        self.window_misses + self.cnf_misses + self.target_misses
    }
}

/// A solved `(window, target, weights)` triple: the patch network plus
/// its report, reusable whenever the same subproblem recurs.
#[derive(Clone, Debug)]
pub(crate) struct CachedSolve {
    pub(crate) patch: NodePatch,
    pub(crate) report: TargetPatchReport,
}

/// Shared, thread-safe content-hash cache attached to an engine with
/// [`crate::EcoEngine::with_cache`]. Cloning shares the same storage
/// (`Arc` bumps), so one cache can serve many engines — the daemon
/// keeps exactly one for its whole lifetime.
#[derive(Clone)]
pub struct EcoCache {
    pub(crate) windows: Arc<CacheTable<Window>>,
    pub(crate) miters: Arc<CacheTable<Arc<QuantifiedMiter>>>,
    pub(crate) solves: Arc<CacheTable<CachedSolve>>,
}

impl std::fmt::Debug for EcoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcoCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl EcoCache {
    /// A cache holding at most `capacity` entries *per layer* (minimum
    /// 1), LRU-evicted.
    pub fn new(capacity: usize) -> EcoCache {
        EcoCache {
            windows: Arc::new(CacheTable::new(capacity)),
            miters: Arc::new(CacheTable::new(capacity)),
            solves: Arc::new(CacheTable::new(capacity)),
        }
    }

    /// Cumulative statistics since construction.
    pub fn stats(&self) -> CacheStats {
        let (w, c, t) = (
            self.windows.stats(),
            self.miters.stats(),
            self.solves.stats(),
        );
        CacheStats {
            window_hits: w.hits,
            window_misses: w.misses,
            cnf_hits: c.hits,
            cnf_misses: c.misses,
            target_hits: t.hits,
            target_misses: t.misses,
            evictions: w.evictions + c.evictions + t.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    fn window(n: usize) -> Window {
        Window {
            outputs: vec![n],
            inputs: vec![],
            divisors: vec![],
        }
    }

    #[test]
    fn lru_eviction_under_capacity_bound() {
        let table = CacheTable::new(2);
        table.put(1, window(1));
        table.put(2, window(2));
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(table.get(1).is_some());
        table.put(3, window(3));
        assert_eq!(table.len(), 2);
        assert!(table.get(2).is_none(), "LRU entry evicted");
        assert!(table.get(1).is_some());
        assert!(table.get(3).is_some());
        let stats = table.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn shared_clones_see_one_store() {
        let a = EcoCache::new(8);
        let b = a.clone();
        a.windows.put(42, window(0));
        assert!(b.windows.get(42).is_some());
        assert_eq!(b.stats().window_hits, 1);
    }

    #[test]
    fn fills_store_only_what_they_offer() {
        let table = CacheTable::new(4);
        let declined = table.get_or_fill(1, None, || ("error", None));
        assert!(matches!(declined, Lookup::Miss("error")));
        assert!(table.is_empty(), "a declined fill stores nothing");
        assert!(matches!(
            table.get_or_fill(1, None, || (7, Some(7))),
            Lookup::Miss(7)
        ));
        assert!(matches!(
            table.get_or_fill(1, None, || -> (i32, Option<i32>) { unreachable!("stored") }),
            Lookup::Hit(7)
        ));
        let stats = table.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    /// Runs `first` as the in-flight fill of key 1, finishing only once
    /// a second caller of the same key waits on it; returns the second
    /// caller's lookup.
    fn race_a_waiter(
        table: &CacheTable<u32>,
        first: impl FnOnce() -> (u32, Option<u32>) + Send,
    ) -> Lookup<u32, u32> {
        let started = Barrier::new(2);
        thread::scope(|s| {
            let filler = s.spawn(|| {
                table.get_or_fill(1, None, || {
                    started.wait();
                    while table.lock().waiting == 0 {
                        thread::yield_now();
                    }
                    first()
                })
            });
            started.wait();
            let waiter = table.get_or_fill(1, None, || (2, Some(2)));
            let _ = filler.join();
            waiter
        })
    }

    #[test]
    fn a_waiter_takes_the_stored_value_of_a_concurrent_fill() {
        let table = CacheTable::new(4);
        let waiter = race_a_waiter(&table, || (1, Some(1)));
        assert!(matches!(waiter, Lookup::Hit(1)));
        let stats = table.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn a_fill_that_stores_nothing_sends_waiters_to_compute() {
        let table = CacheTable::new(4);
        let waiter = race_a_waiter(&table, || (1, None));
        assert!(
            matches!(waiter, Lookup::Miss(2)),
            "the waiter computes its own value"
        );
        assert_eq!(table.stats().misses, 2);
        assert!(matches!(table.get(1), Some(2)), "the waiter's value stored");
    }

    #[test]
    fn a_waiter_stops_waiting_at_its_deadline() {
        let table = CacheTable::new(4);
        let started = Barrier::new(2);
        let gave_up = AtomicBool::new(false);
        let waiter = thread::scope(|s| {
            let filler = s.spawn(|| {
                table.get_or_fill(1, None, || {
                    started.wait();
                    // Hold the slot until the waiter has given up.
                    while !gave_up.load(Ordering::Relaxed) {
                        thread::yield_now();
                    }
                    (1, Some(1))
                })
            });
            started.wait();
            let deadline = Instant::now() + Duration::from_millis(20);
            let waiter = table.get_or_fill(1, Some(deadline), || (2, None));
            gave_up.store(true, Ordering::Relaxed);
            assert!(matches!(filler.join(), Ok(Lookup::Miss(1))));
            waiter
        });
        assert!(
            matches!(waiter, Lookup::Miss(2)),
            "the waiter computes its own value while the fill still runs"
        );
        assert_eq!(table.stats().misses, 2);
        assert!(matches!(table.get(1), Some(1)), "the owner's value stored");
    }

    #[test]
    fn a_panicking_fill_releases_a_waiter_that_fills_the_key() {
        let table = CacheTable::new(4);
        let waiter = race_a_waiter(&table, || panic!("fill failed"));
        assert!(matches!(waiter, Lookup::Miss(2)));
        assert!(matches!(table.get(1), Some(2)));
        // The lock survived the unwind: the table still serves.
        assert_eq!(table.stats().misses, 2);
    }
}
