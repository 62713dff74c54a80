//! # eco-daemon
//!
//! `eco_patchd`: a persistent serving daemon for the ECO engine. It
//! accepts a stream of ECO requests as JSON Lines — one request object
//! per line, over stdin/stdout or a unix domain socket — and answers
//! each with a patched netlist, per-request [`RunMetrics`] telemetry,
//! and cache hit/miss accounting.
//!
//! Serving many requests from one process is what makes the
//! content-hash caches pay off: across requests the daemon reuses
//!
//! - **parsed netlists** (keyed by the hash of the Verilog text),
//! - **window extractions, CNF builds, and solved targets** (the
//!   engine-side [`eco_core::EcoCache`] layers, keyed by canonical
//!   cone hashes of the problem's AIGs), and
//! - **whole outcomes** (keyed by the full request fingerprint), so an
//!   identical re-run performs zero SAT calls and returns the stored,
//!   byte-identical patched netlist.
//!
//! A sequential ECO stream — the same design revised gate by gate —
//! hits the window and CNF layers for every untouched cone, which is
//! the serving-side realization of the paper's observation that ECO
//! effort should scale with the size of the *change*, not the design.
//!
//! Every layer is an [`eco_core::CacheTable`], whose fills are
//! single-flight: concurrent callers that miss the same key wait for
//! one fill and take its stored value as a hit, so N identical
//! concurrent requests do exactly one solve. A fill that stores
//! nothing (an error, a governor trip, an injected fault, a panic)
//! sends its waiters to compute for themselves; no request is handed
//! an answer degraded for another. A request waits only until its own
//! deadline, so sharing a fill never delays its anytime answer. Fills
//! nest only as outcome →
//! {netlist, window, target → CNF}, so they cannot deadlock. The full
//! contract is on [`eco_core::CacheTable`].
//!
//! Each request runs under one [`eco_core::ResourceGovernor`] built
//! from its own limits: its deadline (counted from when the daemon
//! starts answering it) and its `global_conflicts` pool. The daemon
//! adds no limit of its own, so a request that trips its limits
//! degrades alone; the rest of the stream is unharmed.
//!
//! The daemon is also built to *stay up*: every request's solve path
//! runs behind an unwind boundary (a panicking request answers
//! `"status":"panic"` and its fingerprint is quarantined as a poison
//! pill), admission is bounded by a load-shedding queue
//! ([`RequestQueue`]) with `"status":"overloaded"` + `retry_after_ms`
//! responses, requests whose deadline expired while queued are shed
//! before any solver work, and the `drain`/`health` commands give
//! operators a graceful way out and a live view in. See
//! [`server`] for the full resilience story.
//!
//! [`RunMetrics`]: eco_core::RunMetrics

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod telemetry;

pub use cache::{DaemonCache, DaemonCacheStats};
pub use journal::{Journal, Level};
pub use protocol::{parse_request, EcoRequest, EcoResponse, Request, RequestOptions};
pub use queue::{Admission, QueuedRequest, RequestQueue};
pub use server::{run_cli, Daemon, DaemonConfig};
pub use telemetry::Telemetry;
