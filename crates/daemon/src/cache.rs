//! The daemon-side cache layers: parsed netlists keyed by the hash of
//! their Verilog text, and whole outcomes keyed by the full request
//! fingerprint. The engine-side layers (window / CNF / solved-target)
//! live in [`eco_core::EcoCache`]; the daemon shares one instance of
//! that across every request it serves.
//!
//! Every table is an [`eco_core::CacheTable`], so fills follow its
//! single-flight contract: N identical concurrent requests do exactly
//! one solve, and a fill that stores nothing (a parse error, a
//! governor-tripped or fault-injected outcome, a panic) sends its
//! waiters to compute for themselves.
//!
//! Outcome entries are stored only for clean runs — no governor trip,
//! no injected fault — so a result degraded by resource pressure is
//! never replayed as if it were the answer. An outcome hit returns the
//! stored response fields (byte-identical patched Verilog) without
//! touching the engine: zero SAT calls, visible in the per-request
//! [`RunMetrics`](eco_core::RunMetrics) as `sat_calls.total == 0` with
//! `cache.outcome_hits == 1`.

use eco_core::{CacheStats, CacheTable, ContentHasher, EcoCache, Lookup};
use eco_netlist::{AigConversion, Netlist, ParsedModule};
use std::sync::Arc;

/// Domain tag for parsed-netlist keys.
const TAG_NETLIST: u64 = 0x4e_45_54; // "NET"
/// Domain tag for outcome keys.
const TAG_OUTCOME: u64 = 0x4f_55_54; // "OUT"

/// A parsed implementation or specification, shared across requests.
#[derive(Debug)]
pub(crate) struct ParsedDesign {
    /// The parsed module (netlist plus `// eco_target` directives).
    pub module: ParsedModule,
    /// The netlist-to-AIG conversion (net-to-literal map included).
    pub conversion: AigConversion,
}

impl ParsedDesign {
    pub(crate) fn netlist(&self) -> &Netlist {
        &self.module.netlist
    }
}

/// A stored clean outcome: everything needed to answer an identical
/// request again without running the engine.
#[derive(Clone, Debug)]
pub(crate) struct CachedOutcome {
    pub verified: bool,
    pub cost: u64,
    pub gates: u64,
    pub dispositions: Vec<String>,
    pub patched_verilog: String,
    pub num_targets: usize,
}

/// Aggregated daemon cache statistics: the daemon-side layers plus
/// the engine-side [`CacheStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DaemonCacheStats {
    /// Parsed-netlist layer hits.
    pub netlist_hits: u64,
    /// Parsed-netlist layer misses.
    pub netlist_misses: u64,
    /// Outcome layer hits.
    pub outcome_hits: u64,
    /// Outcome layer misses.
    pub outcome_misses: u64,
    /// Quarantined request fingerprints currently held as poison
    /// pills (requests whose solve path panicked; identical retries
    /// are rejected fast instead of re-crashing a worker).
    pub poison_pills: u64,
    /// Fast rejections served from the poison-pill layer.
    pub poison_hits: u64,
    /// Entries evicted from the daemon-side layers.
    pub evictions: u64,
    /// Engine-side (window / CNF / solved-target) statistics.
    pub engine: CacheStats,
}

impl DaemonCacheStats {
    /// Serializes the statistics as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"netlist_hits\":{},\"netlist_misses\":{},\"outcome_hits\":{},\
             \"outcome_misses\":{},\"poison_pills\":{},\"poison_hits\":{},\
             \"evictions\":{},\"engine\":{{\
             \"window_hits\":{},\"window_misses\":{},\"cnf_hits\":{},\"cnf_misses\":{},\
             \"target_hits\":{},\"target_misses\":{},\"evictions\":{}}}}}",
            self.netlist_hits,
            self.netlist_misses,
            self.outcome_hits,
            self.outcome_misses,
            self.poison_pills,
            self.poison_hits,
            self.evictions,
            self.engine.window_hits,
            self.engine.window_misses,
            self.engine.cnf_hits,
            self.engine.cnf_misses,
            self.engine.target_hits,
            self.engine.target_misses,
            self.engine.evictions,
        )
    }
}

/// The daemon's cache: netlist, outcome, and poison-pill tables plus
/// the shared engine-side [`EcoCache`]. Cheap to clone (all state is
/// shared).
#[derive(Clone)]
pub struct DaemonCache {
    netlist: Arc<CacheTable<Arc<ParsedDesign>>>,
    pub(crate) outcome: Arc<CacheTable<Arc<CachedOutcome>>>,
    /// Quarantined request fingerprints → panic message. An entry
    /// means "this exact request crashed a worker"; retries are
    /// answered from here without touching the engine.
    poison: Arc<CacheTable<Arc<String>>>,
    engine: EcoCache,
}

impl std::fmt::Debug for DaemonCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl DaemonCache {
    /// Creates a cache holding at most `capacity` entries per layer
    /// (clamped to at least one).
    pub fn new(capacity: usize) -> DaemonCache {
        DaemonCache {
            netlist: Arc::new(CacheTable::new(capacity)),
            outcome: Arc::new(CacheTable::new(capacity)),
            poison: Arc::new(CacheTable::new(capacity)),
            engine: EcoCache::new(capacity),
        }
    }

    /// The shared engine-side cache, for
    /// [`EcoEngine::with_cache`](eco_core::EcoEngine::with_cache).
    pub fn engine(&self) -> EcoCache {
        self.engine.clone()
    }

    /// Current statistics across all layers.
    pub fn stats(&self) -> DaemonCacheStats {
        let (netlist, outcome) = (self.netlist.stats(), self.outcome.stats());
        DaemonCacheStats {
            netlist_hits: netlist.hits,
            netlist_misses: netlist.misses,
            outcome_hits: outcome.hits,
            outcome_misses: outcome.misses,
            poison_pills: self.poison.len() as u64,
            poison_hits: self.poison.stats().hits,
            evictions: netlist.evictions + outcome.evictions,
            engine: self.engine.stats(),
        }
    }

    /// Quarantines a request fingerprint after a worker panic: every
    /// later request with the same fingerprint is answered by
    /// [`DaemonCache::poisoned`] without touching the engine.
    pub(crate) fn poison(&self, key: u128, message: &str) {
        self.poison.put(key, Arc::new(message.to_string()));
    }

    /// The stored panic message when `key` is quarantined; counts a
    /// poison hit on match.
    pub(crate) fn poisoned(&self, key: u128) -> Option<Arc<String>> {
        self.poison.get(key)
    }

    /// Parses `text` through the netlist layer; the returned flag is
    /// `true` on a hit. A parse or conversion failure is never cached,
    /// so every caller of a failing text (concurrent ones included)
    /// parses it and gets the error, and a later corrected request
    /// re-parses.
    pub(crate) fn parsed(&self, text: &str) -> Result<(Arc<ParsedDesign>, bool), String> {
        let key = {
            let mut h = ContentHasher::new(TAG_NETLIST);
            h.write_bytes(text.as_bytes());
            h.finish128()
        };
        let parse = || -> Result<Arc<ParsedDesign>, String> {
            let module = eco_netlist::parse_verilog(text).map_err(|e| e.to_string())?;
            let conversion = module.netlist.to_aig().map_err(|e| e.to_string())?;
            Ok(Arc::new(ParsedDesign { module, conversion }))
        };
        // Parsing is ungoverned, so waiting for a concurrent parse of
        // the same text never takes longer than parsing it here.
        let lookup = self.netlist.get_or_fill(key, None, || {
            let parsed = parse();
            let stored = parsed.as_ref().ok().cloned();
            (parsed, stored)
        });
        match lookup {
            Lookup::Hit(design) => Ok((design, true)),
            Lookup::Miss(parsed) => parsed.map(|design| (design, false)),
        }
    }
}

/// The full-request fingerprint: netlist texts, targets, weights, and
/// every result-affecting option. Two requests share a key exactly
/// when they must produce byte-identical answers.
pub(crate) fn outcome_key(req: &crate::protocol::EcoRequest) -> u128 {
    let mut h = ContentHasher::new(TAG_OUTCOME);
    h.write_bytes(req.impl_verilog.as_bytes());
    h.write_bytes(req.spec_verilog.as_bytes());
    h.write(req.targets.len() as u64);
    for t in &req.targets {
        h.write_bytes(t.as_bytes());
    }
    let mut weights = req.weights.clone();
    weights.sort();
    h.write(weights.len() as u64);
    for (net, w) in &weights {
        h.write_bytes(net.as_bytes());
        h.write(*w);
    }
    h.write(req.default_weight);
    // Options are hashed field-by-field (a Debug rendering would also
    // capture observability-only fields). `trace_id` is deliberately
    // excluded: it names trace spans, never the answer.
    let opts = &req.options;
    let mut opt_u64 = |v: Option<u64>| match v {
        None => h.write(0),
        Some(x) => {
            h.write(1);
            h.write(x);
        }
    };
    opt_u64(opts.budget);
    opt_u64(opts.global_conflicts);
    opt_u64(opts.deadline_ms);
    opt_u64(opts.hold_ms);
    opt_u64(opts.structural_fallback.map(u64::from));
    match &opts.method {
        None => h.write(0),
        Some(m) => {
            h.write(1);
            h.write_bytes(m.as_bytes());
        }
    }
    h.write(u64::from(opts.inject_panic));
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EcoRequest, RequestOptions};

    fn request(spec: &str) -> EcoRequest {
        EcoRequest {
            id: "r".to_string(),
            impl_verilog: "impl".to_string(),
            spec_verilog: spec.to_string(),
            targets: vec!["t".to_string()],
            weights: vec![("a".to_string(), 1), ("b".to_string(), 2)],
            default_weight: 1,
            options: RequestOptions::default(),
        }
    }

    #[test]
    fn outcome_keys_ignore_id_and_weight_order() {
        let a = request("spec");
        let mut b = a.clone();
        b.id = "different-id".to_string();
        b.weights.reverse();
        assert_eq!(outcome_key(&a), outcome_key(&b));
        let mut c = a.clone();
        c.spec_verilog.push(' ');
        assert_ne!(outcome_key(&a), outcome_key(&c));
        let mut d = a.clone();
        d.options.budget = Some(9);
        assert_ne!(outcome_key(&a), outcome_key(&d));
    }

    #[test]
    fn outcome_keys_ignore_the_trace_id() {
        let a = request("spec");
        let mut b = a.clone();
        b.options.trace_id = Some("perfetto-lane-4".to_string());
        assert_eq!(
            outcome_key(&a),
            outcome_key(&b),
            "trace_id is observability-only and must not split the cache"
        );
        // Adjacent option fields must not alias each other's encoding.
        let mut c = a.clone();
        c.options.budget = Some(5);
        let mut d = a.clone();
        d.options.global_conflicts = Some(5);
        assert_ne!(outcome_key(&c), outcome_key(&d));
    }

    #[test]
    fn netlist_layer_hits_on_identical_text_and_reports_errors() {
        let cache = DaemonCache::new(4);
        let src = "module m(a, y);\ninput a;\noutput y;\nnot g0(y, a);\nendmodule\n";
        let (first, hit) = cache.parsed(src).expect("parses");
        assert!(!hit);
        let (second, hit) = cache.parsed(src).expect("parses");
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert!(cache.parsed("not verilog").is_err());
        // The failure was not cached: it fails again (and counts a miss).
        assert!(cache.parsed("not verilog").is_err());
        let stats = cache.stats();
        assert_eq!(stats.netlist_hits, 1);
        assert_eq!(stats.netlist_misses, 3);
    }

    /// A netlist large enough that concurrent callers overlap its parse.
    fn chain_netlist(gates: usize) -> String {
        let mut src = String::from("module m(a, y);\ninput a;\noutput y;\n");
        for i in 0..gates {
            src.push_str(&format!("wire w{i};\n"));
        }
        src.push_str("not g0(w0, a);\n");
        for i in 1..gates {
            src.push_str(&format!("not g{i}(w{i}, w{});\n", i - 1));
        }
        src.push_str(&format!("buf gy(y, w{});\nendmodule\n", gates - 1));
        src
    }

    #[test]
    fn concurrent_cold_parses_of_one_text_fill_once() {
        const CALLERS: usize = 8;
        let cache = DaemonCache::new(4);
        let src = chain_netlist(20_000);
        let barrier = std::sync::Barrier::new(CALLERS);
        let designs: Vec<Arc<ParsedDesign>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.parsed(&src).expect("parses").0
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert!(designs.iter().all(|d| Arc::ptr_eq(d, &designs[0])));
        let stats = cache.stats();
        assert_eq!(stats.netlist_misses, 1, "one text, one parse");
        assert_eq!(stats.netlist_hits, CALLERS as u64 - 1);
    }

    #[test]
    fn concurrent_failing_parses_each_parse_and_cache_nothing() {
        const CALLERS: usize = 4;
        let cache = DaemonCache::new(4);
        // Valid up to its last line, so every caller pays the full parse.
        let src = chain_netlist(20_000).replace("endmodule", "frob gz(y, a);\nendmodule");
        let barrier = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|s| {
            for _ in 0..CALLERS {
                s.spawn(|| {
                    barrier.wait();
                    assert!(cache.parsed(&src).is_err());
                });
            }
        });
        // Nothing was cached: the next call parses (and fails) again.
        let before = cache.stats().netlist_misses;
        assert!(cache.parsed(&src).is_err());
        assert_eq!(cache.stats().netlist_misses, before + 1);
    }

    #[test]
    fn poison_pills_quarantine_fingerprints_and_count_hits() {
        let cache = DaemonCache::new(4);
        assert!(cache.poisoned(7).is_none());
        cache.poison(7, "injected solver panic");
        let pill = cache.poisoned(7).expect("quarantined");
        assert_eq!(pill.as_str(), "injected solver panic");
        assert!(cache.poisoned(8).is_none(), "other fingerprints unaffected");
        let stats = cache.stats();
        assert_eq!(stats.poison_pills, 1);
        assert_eq!(stats.poison_hits, 1);
    }

    #[test]
    fn outcome_layer_evicts_the_stalest_entry_at_capacity() {
        let cache = DaemonCache::new(2);
        let entry = |tag: &str| CachedOutcome {
            verified: true,
            cost: 0,
            gates: 0,
            dispositions: vec!["patched".to_string()],
            patched_verilog: tag.to_string(),
            num_targets: 1,
        };
        cache.outcome.put(1, Arc::new(entry("one")));
        cache.outcome.put(2, Arc::new(entry("two")));
        assert!(cache.outcome.get(1).is_some()); // refresh key 1
        cache.outcome.put(3, Arc::new(entry("three"))); // evicts key 2
        assert!(cache.outcome.get(2).is_none());
        assert!(cache.outcome.get(1).is_some());
        assert!(cache.outcome.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }
}
