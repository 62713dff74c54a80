//! Content-hash caches for the serving layer: windows, CNF-ready
//! quantified miters, and solved per-target patches, keyed by the
//! snapshot hashes of [`crate::snapshot`] and shared across engine
//! runs (and, through `eco_patchd`, across requests).
//!
//! The cache is strictly *sound* with respect to byte-identical
//! results: every key covers the full representation of whatever the
//! cached artifact depends on (see the key builders in
//! [`crate::engine`]), so a hit returns exactly the value a cold
//! computation would have produced. A warm engine therefore emits
//! fewer [`crate::EcoEvent::SatCall`]s but identical patches and
//! dispositions.
//!
//! Each layer is an LRU map with a shared per-layer capacity bound;
//! evictions are counted in [`CacheStats`].

use crate::engine::TargetPatchReport;
use crate::miter::QuantifiedMiter;
use crate::window::Window;
use eco_aig::NodePatch;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Which cache layer a [`crate::EcoEvent::CacheQuery`] hit or missed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CacheLayer {
    /// Parsed-netlist layer (daemon-side: source text → parsed design).
    Netlist,
    /// Window-extraction layer (problem → [`Window`]).
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

struct Entry<T> {
    value: T,
    used: u64,
}

struct Layer<T> {
    map: HashMap<u128, Entry<T>>,
}

impl<T> Default for Layer<T> {
    fn default() -> Layer<T> {
        Layer {
            map: HashMap::new(),
        }
    }
}

impl<T: Clone> Layer<T> {
    fn get(&mut self, key: u128, tick: u64) -> Option<T> {
        let entry = self.map.get_mut(&key)?;
        entry.used = tick;
        Some(entry.value.clone())
    }

    /// Inserts under the capacity bound, evicting the least-recently
    /// used entry when full. Returns the number of evictions (0 or 1).
    fn put(&mut self, key: u128, value: T, tick: u64, capacity: usize) -> u64 {
        let mut evicted = 0;
        if !self.map.contains_key(&key) && self.map.len() >= capacity {
            if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, e)| e.used) {
                self.map.remove(&victim);
                evicted = 1;
            }
        }
        self.map.insert(key, Entry { value, used: tick });
        evicted
    }
}

/// A shared, immutable batch of class-layer witness pattern pairs
/// (`(input_a, input_b)` valuations), as stored in the cache side
/// table and replayed into a fresh [`crate::classes::EquivClasses`].
pub(crate) type WitnessPatterns = Arc<Vec<(Vec<bool>, Vec<bool>)>>;

#[derive(Default)]
struct CacheInner {
    tick: u64,
    windows: Layer<Window>,
    miters: Layer<Arc<QuantifiedMiter>>,
    solves: Layer<CachedSolve>,
    /// Class-layer counterexample witnesses, keyed like `miters`. A
    /// side table rather than a [`CacheLayer`]: hits and misses are
    /// deliberately unobserved (witness reuse is a warm-start hint that
    /// must not perturb the event stream or [`CacheStats`]).
    witnesses: Layer<WitnessPatterns>,
    stats: CacheStats,
}

impl CacheInner {
    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Shared, thread-safe content-hash cache attached to an engine with
/// [`crate::EcoEngine::with_cache`]. Cloning shares the same storage
/// (an `Arc` bump), so one cache can serve many engines — the daemon
/// keeps exactly one for its whole lifetime.
#[derive(Clone)]
pub struct EcoCache {
    inner: Arc<Mutex<CacheInner>>,
    capacity: usize,
}

impl std::fmt::Debug for EcoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcoCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl EcoCache {
    /// A cache holding at most `capacity` entries *per layer* (minimum
    /// 1), LRU-evicted.
    pub fn new(capacity: usize) -> EcoCache {
        EcoCache {
            inner: Arc::new(Mutex::new(CacheInner::default())),
            capacity: capacity.max(1),
        }
    }

    /// The per-layer capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative statistics since construction.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().map(|g| g.stats).unwrap_or_default()
    }

    /// Current entry count of the named engine-side layer (tests and
    /// diagnostics).
    pub fn len(&self, layer: CacheLayer) -> usize {
        let Ok(guard) = self.inner.lock() else {
            return 0;
        };
        match layer {
            CacheLayer::Window => guard.windows.map.len(),
            CacheLayer::Cnf => guard.miters.map.len(),
            CacheLayer::Target => guard.solves.map.len(),
            _ => 0,
        }
    }

    /// `true` when every engine-side layer is empty.
    pub fn is_empty(&self) -> bool {
        self.len(CacheLayer::Window) == 0
            && self.len(CacheLayer::Cnf) == 0
            && self.len(CacheLayer::Target) == 0
    }

    pub(crate) fn get_window(&self, key: u128) -> Option<Window> {
        let mut g = self.inner.lock().ok()?;
        let tick = g.bump();
        let hit = g.windows.get(key, tick);
        match hit {
            Some(w) => {
                g.stats.window_hits += 1;
                Some(w)
            }
            None => {
                g.stats.window_misses += 1;
                None
            }
        }
    }

    pub(crate) fn put_window(&self, key: u128, window: Window) {
        if let Ok(mut g) = self.inner.lock() {
            let tick = g.bump();
            let evicted = g.windows.put(key, window, tick, self.capacity);
            g.stats.evictions += evicted;
        }
    }

    pub(crate) fn get_miter(&self, key: u128) -> Option<Arc<QuantifiedMiter>> {
        let mut g = self.inner.lock().ok()?;
        let tick = g.bump();
        let hit = g.miters.get(key, tick);
        match hit {
            Some(m) => {
                g.stats.cnf_hits += 1;
                Some(m)
            }
            None => {
                g.stats.cnf_misses += 1;
                None
            }
        }
    }

    pub(crate) fn put_miter(&self, key: u128, miter: Arc<QuantifiedMiter>) {
        if let Ok(mut g) = self.inner.lock() {
            let tick = g.bump();
            let evicted = g.miters.put(key, miter, tick, self.capacity);
            g.stats.evictions += evicted;
        }
    }

    pub(crate) fn get_witnesses(&self, key: u128) -> Option<WitnessPatterns> {
        let mut g = self.inner.lock().ok()?;
        let tick = g.bump();
        g.witnesses.get(key, tick)
    }

    pub(crate) fn put_witnesses(&self, key: u128, witnesses: WitnessPatterns) {
        if let Ok(mut g) = self.inner.lock() {
            let tick = g.bump();
            let evicted = g.witnesses.put(key, witnesses, tick, self.capacity);
            g.stats.evictions += evicted;
        }
    }

    pub(crate) fn get_solve(&self, key: u128) -> Option<CachedSolve> {
        let mut g = self.inner.lock().ok()?;
        let tick = g.bump();
        let hit = g.solves.get(key, tick);
        match hit {
            Some(s) => {
                g.stats.target_hits += 1;
                Some(s)
            }
            None => {
                g.stats.target_misses += 1;
                None
            }
        }
    }

    pub(crate) fn put_solve(&self, key: u128, solve: CachedSolve) {
        if let Ok(mut g) = self.inner.lock() {
            let tick = g.bump();
            let evicted = g.solves.put(key, solve, tick, self.capacity);
            g.stats.evictions += evicted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_under_capacity_bound() {
        let cache = EcoCache::new(2);
        let w = |n: usize| Window {
            outputs: vec![n],
            inputs: vec![],
            divisors: vec![],
        };
        cache.put_window(1, w(1));
        cache.put_window(2, w(2));
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.get_window(1).is_some());
        cache.put_window(3, w(3));
        assert_eq!(cache.len(CacheLayer::Window), 2);
        assert!(cache.get_window(2).is_none(), "LRU entry evicted");
        assert!(cache.get_window(1).is_some());
        assert!(cache.get_window(3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.window_hits, 3);
        assert_eq!(stats.window_misses, 1);
    }

    #[test]
    fn shared_clones_see_one_store() {
        let a = EcoCache::new(8);
        let b = a.clone();
        a.put_window(
            42,
            Window {
                outputs: vec![],
                inputs: vec![],
                divisors: vec![],
            },
        );
        assert!(b.get_window(42).is_some());
        assert_eq!(b.stats().window_hits, 1);
    }
}
