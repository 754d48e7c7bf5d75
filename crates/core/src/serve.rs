//! The concurrent multi-query serving layer.
//!
//! A [`SessionServer`] wraps a [`Session`] and serves many queries over
//! the session's *shared* simulated device fleet — the single-node shape
//! of a multi-tenant coordinator. Queries are submitted up front
//! ([`SessionServer::submit`] / [`SessionServer::submit_with`], each
//! returning a [`QueryHandle`]) and executed together by the blocking
//! batch scheduler [`SessionServer::run_all`]. Three cooperating pieces:
//!
//! 1. **Device-aware admission control.** Every submission is lowered and
//!    placed immediately, and its worst-case GPU working-set footprint is
//!    read from the optimizer's [`StageCost`](crate::cost::StageCost)
//!    estimates (attached by [`Placement::Auto`](crate::Placement) plans,
//!    re-derived from the [`CostModel`] for manual placements). The
//!    scheduler admits queries FIFO while their summed footprints fit the
//!    fleet's smallest GPU memory ([`SessionServer::gpu_budget`]); a
//!    second GPU-hungry query *queues* — counted in
//!    [`QueryOutcome::admission_wait`] — instead of OOM-failing or
//!    thrashing the broadcast working set. A query whose footprint alone
//!    exceeds the budget is admitted when the fleet is otherwise idle, so
//!    it fails (or co-processes) exactly as it would solo, in isolation.
//!
//! 2. **Fair interleaving with per-query sim-time isolation.** Admitted
//!    queries advance round-robin, one placed stage per round, each
//!    through its own [`QueryExec`] whose simulated clock starts at zero
//!    and whose workers are instantiated per stage. Interleaving therefore
//!    cannot perturb results: every query's rows *and* simulated makespan
//!    are bit-identical to a solo [`Session::execute`] run, at any thread
//!    count and any admission order (asserted in `tests/serve.rs`).
//!
//! 3. **A cross-query build-side cache.** Query lowering already memoises
//!    structurally identical build sides *within* a query; the
//!    [`BuildCache`] generalises that across queries, keyed on the
//!    structural fingerprints in
//!    [`LoweredQuery::build_fingerprints`](crate::query::LoweredQuery).
//!    A repeated query re-probing the same dimension tables skips the
//!    build — and, when the table was broadcast by the producing query,
//!    the PCIe broadcast too (skipped builds are counted in
//!    [`QueryReport::builds_cached`]). Entries are validated against the
//!    session catalog's version counter: re-registering a table
//!    invalidates every cached hash table built over its old contents
//!    ([`CacheStats::invalidations`]). The cache can be bounded
//!    ([`SessionServer::with_build_cache_capacity`]): over capacity it
//!    evicts least-recently-used first, counted in
//!    [`CacheStats::evictions`] and [`ServeMetrics::builds_evicted`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hape_sim::SimTime;
use hape_storage::Table;

use crate::catalog::TableRegistration;
use crate::cost::{CostModel, HtEstimates};
use crate::engine::{ExecConfig, QueryExec, QueryReport};
use crate::error::HapeError;
use crate::exchange::Exchange;
use crate::fault::{FaultPlan, HealthRegistry};
use crate::place::{PlacedPlan, PlacedStage};
use crate::plan::JoinTable;
use crate::query::{LoweredQuery, Query};
use crate::session::Session;
use crate::trace::{Span, SpanKind, TraceRecorder};

/// Identifies one submitted query within its [`SessionServer`]; index into
/// [`ServeReport::outcomes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryHandle(usize);

impl QueryHandle {
    /// Submission index (0-based, in submission order).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// How one submitted query left the batch — the serving layer's summary
/// on top of the per-query [`QueryOutcome::report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Ran to completion without fault-plane intervention.
    Completed,
    /// Ran to completion, but only through the fault plane's recovery
    /// machinery: priced transfer retries and/or mid-query re-placements
    /// on the surviving fleet. Results are still bit-identical to a
    /// fault-free run.
    Degraded {
        /// Priced transfer retries absorbed.
        retries: usize,
        /// Mid-query re-placements absorbed.
        replans: usize,
    },
    /// The query's simulated time exceeded its submission budget
    /// ([`SessionServer::submit_with_budget`]): it stops at the next
    /// stage barrier with the partial report it had — a scheduling
    /// outcome, not an error.
    TimedOut {
        /// The sim-time budget it was submitted under.
        budget: SimTime,
        /// Simulated time elapsed when the deadline was detected.
        elapsed: SimTime,
    },
    /// Canceled via its [`CancelToken`] before finishing; stops at the
    /// next stage barrier with the partial report it had.
    Canceled,
    /// Preparation or execution failed; the error is in
    /// [`QueryOutcome::report`].
    Failed,
}

/// Cooperative cancellation for one submission: obtained from
/// [`SessionServer::cancel_token`], trippable from any thread (the
/// scheduler checks it between stage steps — the serving-layer face of
/// `QueryHandle` cancellation).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation: the owning query stops at its next stage
    /// barrier and finishes as [`Outcome::Canceled`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once cancellation was requested.
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A successfully prepared submission: lowered, placed and footprinted at
/// submit time (failures are stored and reported per query instead).
struct PreparedPlan {
    lowered: LoweredQuery,
    placed: PlacedPlan,
    /// Worst-case per-GPU working-set bytes across the plan's stages —
    /// the admission signal.
    gpu_footprint: u64,
    /// Session catalog version at submit time; cache entries produced by
    /// this query carry it.
    version: u64,
}

/// One pending submission (prepared plan or its preparation error).
struct Prepared {
    handle: QueryHandle,
    name: String,
    prep: Result<PreparedPlan, HapeError>,
    /// Per-query sim-time deadline (`None` = unbounded).
    budget: Option<SimTime>,
    /// Cooperative cancellation flag, shared with handed-out tokens.
    cancel: CancelToken,
}

/// Hit/miss/invalidation counters of the [`BuildCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: usize,
    /// Lookups that found no (valid) entry.
    pub misses: usize,
    /// Entries evicted because the catalog version moved past them.
    pub invalidations: usize,
    /// Entries evicted least-recently-used-first by the capacity bound.
    pub evictions: usize,
}

struct CacheEntry {
    /// Catalog version the table was built under.
    version: u64,
    /// Device health epoch ([`HealthRegistry::epoch`]) at insert time.
    /// A broadcast-resident entry inserted before a GPU failure may name
    /// a device copy that died with the device, so a hit under a newer
    /// epoch downgrades the entry to host-resident (the host `Arc` copy
    /// is always valid) and counts an invalidation.
    epoch: u64,
    /// Whether the producing plan broadcast the table to GPU memory (a
    /// hit then also skips the broadcast: the table is device-resident).
    broadcast: bool,
    /// Recency stamp ([`BuildCache::tick`] at the last hit or insert) —
    /// the LRU eviction order.
    last_used: u64,
    table: Arc<JoinTable>,
}

/// The cross-query build-side cache: structural fingerprint → built hash
/// table, validated against the session catalog's version counter and
/// optionally bounded to `capacity` entries with LRU eviction.
#[derive(Default)]
pub struct BuildCache {
    entries: HashMap<String, CacheEntry>,
    stats: CacheStats,
    /// Maximum live entries (`None` = unbounded).
    capacity: Option<usize>,
    /// Monotonic recency clock; bumped on every hit and insert.
    tick: u64,
}

impl BuildCache {
    /// Look up a fingerprint. A hit requires the entry to have been built
    /// under the *current* catalog version (stale entries are evicted and
    /// counted as invalidations) and the requesting plan to have been
    /// prepared under it too (a plan lowered over an older snapshot must
    /// rebuild from its own snapshot). Returns the table and whether it
    /// is device-resident.
    fn lookup(
        &mut self,
        fingerprint: &str,
        current_version: u64,
        plan_version: u64,
        current_epoch: u64,
    ) -> Option<(Arc<JoinTable>, bool)> {
        self.tick += 1;
        match self.entries.get_mut(fingerprint) {
            Some(e) if e.version == current_version && plan_version == current_version => {
                self.stats.hits += 1;
                e.last_used = self.tick;
                if e.broadcast && e.epoch != current_epoch {
                    // The fleet lost a device since this entry was
                    // broadcast: its device-resident copy cannot be
                    // trusted. Serve the host copy and re-key the entry
                    // to the current epoch.
                    e.broadcast = false;
                    e.epoch = current_epoch;
                    self.stats.invalidations += 1;
                }
                Some((e.table.clone(), e.broadcast))
            }
            Some(e) if e.version != current_version => {
                self.entries.remove(fingerprint);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(
        &mut self,
        fingerprint: String,
        version: u64,
        epoch: u64,
        broadcast: bool,
        table: Arc<JoinTable>,
    ) {
        self.tick += 1;
        self.entries.insert(
            fingerprint,
            CacheEntry { version, epoch, broadcast, last_used: self.tick, table },
        );
        if let Some(cap) = self.capacity {
            while self.entries.len() > cap.max(1) {
                let oldest = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("cache over capacity is non-empty");
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// What happened to one submitted query.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The submission's handle.
    pub handle: QueryHandle,
    /// The query's display name.
    pub query: String,
    /// Scheduler rounds this query spent queued behind the GPU-memory
    /// admission gate before starting (0 = admitted immediately).
    pub admission_wait: usize,
    /// GPU working-set bytes the admission controller reserved for it.
    pub gpu_reserved: u64,
    /// How the query left the batch: completed cleanly, completed
    /// degraded (fault-plane recovery), timed out, canceled, or failed.
    pub outcome: Outcome,
    /// The query's report, bit-identical to a solo run — or its error
    /// (preparation or execution), isolated to this query.
    pub report: Result<QueryReport, HapeError>,
}

/// Aggregate metrics of one [`SessionServer::run_all`] batch — the
/// serving layer's contribution to the tracing + metrics plane
/// ([`mod@crate::trace`]), snapshotted into [`ServeReport::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Queries in the batch (successes and failures).
    pub queries: usize,
    /// Queries whose outcome is an error (preparation or execution).
    pub failures: usize,
    /// Total scheduler rounds queries spent queued behind admission.
    pub admission_waits: usize,
    /// Build stages served from the cross-query cache across the batch.
    pub builds_cached: usize,
    /// Cache entries the capacity bound evicted (LRU-first) during the
    /// batch. Always 0 on an unbounded cache.
    pub builds_evicted: usize,
    /// The build cache's cumulative counters after the batch.
    pub cache: CacheStats,
}

/// The batch result of [`SessionServer::run_all`].
#[derive(Debug)]
pub struct ServeReport {
    /// Per-query outcomes, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// The GPU admission budget the batch ran under (`None` on a fleet
    /// without GPUs: admission then never queues).
    pub gpu_budget: Option<u64>,
    /// Aggregate batch metrics (always populated, tracing or not).
    pub metrics: ServeMetrics,
}

impl ServeReport {
    /// The outcome of one submission. Panics on a handle from a
    /// different batch (handles are not reused across batches).
    pub fn outcome(&self, handle: QueryHandle) -> &QueryOutcome {
        self.outcomes
            .iter()
            .find(|o| o.handle == handle)
            .unwrap_or_else(|| panic!("handle {handle:?} is not part of this batch"))
    }

    /// The report of one submission.
    pub fn report(&self, handle: QueryHandle) -> &Result<QueryReport, HapeError> {
        &self.outcome(handle).report
    }
}

impl std::fmt::Display for ServeReport {
    /// One header line plus one line per query, in submission order —
    /// what concurrency front-ends print for a batch.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let budget = match self.gpu_budget {
            Some(b) => format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64),
            None => "none".to_string(),
        };
        writeln!(
            f,
            "served {} queries (gpu budget {budget}): {} failed, {} admission waits, \
             {} cached builds, {} evicted",
            self.metrics.queries,
            self.metrics.failures,
            self.metrics.admission_waits,
            self.metrics.builds_cached,
            self.metrics.builds_evicted,
        )?;
        for o in &self.outcomes {
            match &o.report {
                Ok(r) => {
                    let tag = match o.outcome {
                        Outcome::Completed => "ok",
                        Outcome::Degraded { .. } => "degrad",
                        Outcome::TimedOut { .. } => "t-out",
                        Outcome::Canceled => "cancel",
                        Outcome::Failed => "error",
                    };
                    writeln!(
                        f,
                        "  {:<12} {:<6} time={:<12} groups={:<6} packets={}cpu+{}gpu \
                         waits={} cached={}",
                        o.query,
                        tag,
                        r.time.to_string(),
                        r.rows.len(),
                        r.packets_cpu,
                        r.packets_gpu,
                        o.admission_wait,
                        r.builds_cached,
                    )?;
                }
                Err(e) => writeln!(f, "  {:<12} error  {e}", o.query)?,
            }
        }
        Ok(())
    }
}

/// A concurrent multi-query server over one [`Session`]: submit many
/// queries, then run them as one admission-controlled, fairly interleaved
/// batch over the session's shared device fleet. See the module docs for
/// the scheduling semantics.
pub struct SessionServer {
    session: Session,
    cache: BuildCache,
    cache_enabled: bool,
    pending: Vec<Prepared>,
    next_id: usize,
    trace: TraceRecorder,
    /// The fault plan every served query runs under (off by default).
    faults: FaultPlan,
    /// Fleet-wide device health, shared across all served queries: a GPU
    /// one query loses permanently stays quarantined for the whole
    /// server's lifetime.
    health: HealthRegistry,
}

impl SessionServer {
    /// A server over a session (build cache enabled, tracing off).
    pub fn new(session: Session) -> Self {
        SessionServer {
            session,
            cache: BuildCache::default(),
            cache_enabled: true,
            pending: Vec::new(),
            next_id: 0,
            trace: TraceRecorder::off(),
            faults: FaultPlan::off(),
            health: HealthRegistry::new(),
        }
    }

    /// Attach a [`TraceRecorder`]: every query executed by
    /// [`SessionServer::run_all`] records its spans and counters into it,
    /// plus the serving layer's own events — admission grants/waits and
    /// cross-query cache hits/misses. Recording never changes results or
    /// simulated makespans.
    pub fn with_trace(mut self, trace: TraceRecorder) -> Self {
        self.trace = trace;
        self
    }

    /// Arm the fault-injection plane for every query this server runs
    /// (off by default — see [`crate::fault`]). All queries share one
    /// fleet [`HealthRegistry`]: a permanent device loss quarantines the
    /// device for later queries and shrinks the admission budget.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The fleet's shared device-health registry.
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// Enable or disable the cross-query build cache (enabled by
    /// default). Disabling makes every batch fully cold — the mode the
    /// determinism tests use, since a cache hit legitimately *shortens* a
    /// query's simulated makespan relative to solo execution.
    pub fn with_build_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// Bound the build cache to at most `capacity` entries (at least 1).
    /// Over capacity it evicts the least-recently-used entry — recency is
    /// bumped by hits and inserts — counting [`CacheStats::evictions`].
    /// The default cache is unbounded.
    pub fn with_build_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache.capacity = Some(capacity.max(1));
        self
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The cross-query build cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cached build-side tables currently held.
    pub fn cached_builds(&self) -> usize {
        self.cache.len()
    }

    /// The admission budget: the smallest *surviving* GPU device-memory
    /// capacity in the fleet (`None` without GPUs, or once every GPU is
    /// quarantined). Summed reserved footprints of admitted queries never
    /// exceed it unless a single query alone does (which is then admitted
    /// solo, to fail or co-process exactly as it would outside the
    /// server). Recomputed per admission round, so a device lost
    /// mid-batch tightens (or widens, if it was the smallest) the gate
    /// for everything still queued.
    pub fn gpu_budget(&self) -> Option<u64> {
        let failed = self.health.failed();
        self.session
            .engine()
            .server
            .gpus
            .iter()
            .enumerate()
            .filter(|(i, _)| !failed.contains(i))
            .map(|(_, g)| g.dram_capacity as u64)
            .min()
    }

    /// Register a table under its own name (bumps the catalog version —
    /// see [`SessionServer::register_table`]).
    pub fn register(&mut self, table: Table) {
        self.session.register(table);
    }

    /// Register a table under an explicit name, reporting whether it was
    /// fresh or replaced an existing table. Either way the catalog version
    /// advances, invalidating every cached build-side hash table on its
    /// next lookup — the typed invalidation path for replacing a table
    /// mid-session.
    pub fn register_table(
        &mut self,
        name: impl Into<String>,
        table: Table,
    ) -> TableRegistration {
        self.session.register_table(name, table)
    }

    /// Submit a query under the session's default config. Lowering,
    /// placement and the admission footprint estimate run now; failures
    /// are stored and surface as the query's [`QueryOutcome::report`]
    /// error (never aborting the batch).
    pub fn submit(&mut self, query: &Query) -> QueryHandle {
        let config = self.session.config().clone();
        self.submit_with(query, &config)
    }

    /// Submit under an explicit per-query config (placement, packet
    /// sizing, threads).
    pub fn submit_with(&mut self, query: &Query, config: &ExecConfig) -> QueryHandle {
        self.submit_inner(query, config, None)
    }

    /// Submit with a per-query simulated-time deadline: once the query's
    /// sim clock exceeds `budget` it stops at the next stage barrier and
    /// finishes as [`Outcome::TimedOut`] with the partial report it had —
    /// a scheduling outcome, not an error.
    pub fn submit_with_budget(
        &mut self,
        query: &Query,
        config: &ExecConfig,
        budget: SimTime,
    ) -> QueryHandle {
        self.submit_inner(query, config, Some(budget))
    }

    fn submit_inner(
        &mut self,
        query: &Query,
        config: &ExecConfig,
        budget: Option<SimTime>,
    ) -> QueryHandle {
        let handle = QueryHandle(self.next_id);
        self.next_id += 1;
        let prep = self.prepare(query, config);
        self.pending.push(Prepared {
            handle,
            name: query.name.clone(),
            prep,
            budget,
            cancel: CancelToken::new(),
        });
        handle
    }

    /// The cancellation token of a pending submission (`None` once the
    /// batch ran or for a foreign handle). Tokens are `Clone + Send`:
    /// trip one from any thread while [`SessionServer::run_all`] blocks
    /// and the query stops at its next stage barrier as
    /// [`Outcome::Canceled`].
    pub fn cancel_token(&self, handle: QueryHandle) -> Option<CancelToken> {
        self.pending.iter().find(|p| p.handle == handle).map(|p| p.cancel.clone())
    }

    /// Request cancellation of a pending submission (sugar for tripping
    /// its [`CancelToken`]). Returns false for an unknown handle.
    pub fn cancel(&self, handle: QueryHandle) -> bool {
        match self.cancel_token(handle) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Queries submitted and not yet run.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    fn prepare(&self, query: &Query, config: &ExecConfig) -> Result<PreparedPlan, HapeError> {
        let lowered = self.session.lower(query)?;
        let placed = self.session.place_lowered(&lowered, config)?;
        // Admission-time static verification: refuse structurally broken
        // plans up front (isolated into this query's outcome, never
        // aborting the batch). Capacity-class diagnostics stay with the
        // admission gate below, which queues rather than refuses.
        if let Err(e) = crate::verify::verify_placed(
            &placed,
            &lowered.catalog,
            &self.session.engine().server,
        ) {
            if let Some(structural) = e.structural() {
                return Err(structural.into());
            }
        }
        let gpu_footprint = gpu_footprint(&self.session, &lowered, &placed);
        Ok(PreparedPlan {
            lowered,
            placed,
            gpu_footprint,
            version: self.session.catalog().version(),
        })
    }

    /// Run every pending submission as one batch: admission-gate on GPU
    /// memory, interleave admitted queries round-robin (one placed stage
    /// per round), serve and harvest the build cache, and return per-query
    /// outcomes in submission order. Blocks until the whole batch is
    /// done; per-query failures are isolated into their outcomes.
    pub fn run_all(&mut self) -> ServeReport {
        let prepared = std::mem::take(&mut self.pending);
        let evictions_before = self.cache.stats.evictions;
        let gpu_budget = self.gpu_budget();
        let cache_enabled = self.cache_enabled;
        let current_version = self.session.catalog().version();
        let engine = self.session.engine();

        // Split preparation failures out; the live plans are owned here so
        // the per-query executions can borrow their catalogs and plans.
        struct Live {
            handle: QueryHandle,
            name: String,
            plan: PreparedPlan,
            budget: Option<SimTime>,
            cancel: CancelToken,
        }
        let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(prepared.len());
        let mut live: Vec<Live> = Vec::new();
        for p in prepared {
            match p.prep {
                Ok(plan) => live.push(Live {
                    handle: p.handle,
                    name: p.name,
                    plan,
                    budget: p.budget,
                    cancel: p.cancel,
                }),
                Err(e) => outcomes.push(QueryOutcome {
                    handle: p.handle,
                    query: p.name,
                    admission_wait: 0,
                    gpu_reserved: 0,
                    outcome: Outcome::Failed,
                    report: Err(e),
                }),
            }
        }

        struct Slot<'a> {
            handle: QueryHandle,
            name: &'a str,
            plan: &'a PreparedPlan,
            budget: Option<SimTime>,
            cancel: &'a CancelToken,
            exec: Option<QueryExec<'a>>,
            report: Option<Result<QueryReport, HapeError>>,
            outcome: Option<Outcome>,
            admission_wait: usize,
            reserved: u64,
        }
        let mut slots: Vec<Slot> = live
            .iter()
            .map(|l| Slot {
                handle: l.handle,
                name: &l.name,
                plan: &l.plan,
                budget: l.budget,
                cancel: &l.cancel,
                exec: None,
                report: None,
                outcome: None,
                admission_wait: 0,
                reserved: 0,
            })
            .collect();

        let mut reserved_total = 0u64;
        loop {
            // ---- Admission: FIFO in submission order, head-of-line
            // blocking (a queued query is never overtaken, so admission
            // order — and thus the cache's build/hit pattern — is
            // deterministic). A query is admitted when its footprint fits
            // the remaining budget, or unconditionally when the fleet is
            // idle (an oversized query then runs solo, failing or
            // co-processing exactly as it would outside the server).
            //
            // The budget is recomputed every round against the *surviving*
            // fleet: a GPU quarantined mid-batch changes the gate for
            // everything still queued.
            let budget = self.gpu_budget().unwrap_or(u64::MAX);
            for slot in slots.iter_mut() {
                if slot.report.is_some() || slot.exec.is_some() {
                    continue;
                }
                let fp = slot.plan.gpu_footprint;
                if fp != 0 && reserved_total != 0 && reserved_total.saturating_add(fp) > budget
                {
                    break; // head of line waits; everyone behind it too
                }
                reserved_total += fp;
                slot.reserved = fp;
                if self.trace.is_enabled() {
                    let now = self.trace.now_ns();
                    self.trace.record(
                        Span::new(
                            SpanKind::Admission,
                            format!("admit {}", slot.name),
                            slot.name,
                        )
                        .at_wall(now, now)
                        .rows(slot.admission_wait as u64, fp),
                    );
                    self.trace.add("admission.grants", 1);
                }
                match engine.begin(&slot.plan.lowered.catalog, &slot.plan.placed) {
                    Ok(exec) => {
                        slot.exec = Some(
                            exec.with_trace(&self.trace)
                                .with_fault_health(&self.faults, self.health.clone()),
                        );
                    }
                    Err(e) => {
                        // Admission failed at execution setup: isolate the
                        // error into this query and release its reservation.
                        slot.report = Some(Err(HapeError::Engine(e)));
                        slot.outcome = Some(Outcome::Failed);
                        reserved_total -= fp;
                        slot.reserved = 0;
                    }
                }
            }

            // ---- One fair round: each admitted query advances one stage.
            let mut progressed = false;
            for slot in slots.iter_mut() {
                let Some(exec) = slot.exec.as_mut() else {
                    // Still queued behind the admission gate: one more
                    // round of waiting.
                    if slot.report.is_none() {
                        slot.admission_wait += 1;
                        self.trace.add("admission.waits", 1);
                    }
                    continue;
                };
                progressed = true;
                // ---- Cancellation: checked between stage steps. The
                // query keeps the partial report it accumulated.
                if slot.cancel.is_canceled() {
                    let exec = slot.exec.take().expect("exec present");
                    slot.report = Some(Ok(exec.finish()));
                    slot.outcome = Some(Outcome::Canceled);
                    reserved_total -= slot.reserved;
                    if self.trace.is_enabled() {
                        self.trace.add("serve.canceled", 1);
                    }
                    continue;
                }
                // ---- Serve the next stage from the cross-query cache if
                // it is a build we already hold: a hash table built by an
                // *earlier* query this round is visible to later ones
                // immediately. The install makes `step` skip the stage —
                // no build work, no broadcast, no simulated time.
                if cache_enabled {
                    if let Some(PlacedStage::Build { name, .. }) =
                        slot.plan.placed.stages.get(exec.stage_index())
                    {
                        if let Some(fpr) = slot.plan.lowered.build_fingerprints.get(name) {
                            let hit = self.cache.lookup(
                                fpr,
                                current_version,
                                slot.plan.version,
                                self.health.epoch(),
                            );
                            if self.trace.is_enabled() {
                                let now = self.trace.now_ns();
                                let (what, key) = if hit.is_some() {
                                    ("hit", "cache.hits")
                                } else {
                                    ("miss", "cache.misses")
                                };
                                self.trace.add(key, 1);
                                self.trace.record(
                                    Span::new(
                                        SpanKind::Cache,
                                        format!("cache {what} {name}"),
                                        slot.name,
                                    )
                                    .at_wall(now, now),
                                );
                            }
                            if let Some((table, resident)) = hit {
                                exec.install_cached_build(name, table, resident);
                            }
                        }
                    }
                }
                let stepped = exec.step();
                let finished = exec.is_done();
                if let Err(e) = stepped {
                    slot.report = Some(Err(HapeError::Engine(e)));
                    slot.outcome = Some(Outcome::Failed);
                } else {
                    // Harvest a freshly built (not cache-served) hash
                    // table into the cache right away, so queries later in
                    // this same round already hit it at admission.
                    if cache_enabled && slot.plan.version == current_version {
                        let done = exec.stage_index() - 1;
                        if let Some(PlacedStage::Build { name, .. }) =
                            slot.plan.placed.stages.get(done)
                        {
                            if let (Some(fpr), Some(table)) = (
                                slot.plan.lowered.build_fingerprints.get(name),
                                exec.built_table(name),
                            ) {
                                if !self.cache.entries.contains_key(fpr) {
                                    self.cache.insert(
                                        fpr.clone(),
                                        slot.plan.version,
                                        self.health.epoch(),
                                        plan_broadcasts(&slot.plan.placed, name),
                                        table,
                                    );
                                }
                            }
                        }
                    }
                    if finished {
                        let report = slot.exec.take().expect("exec present").finish();
                        slot.outcome = Some(if report.retries > 0 || report.replans > 0 {
                            Outcome::Degraded {
                                retries: report.retries,
                                replans: report.replans,
                            }
                        } else {
                            Outcome::Completed
                        });
                        slot.report = Some(Ok(report));
                    } else if let Some(budget) = slot.budget {
                        // ---- Per-query sim-time deadline, checked at the
                        // stage barrier: over budget finishes with the
                        // partial report — a scheduling outcome, not an
                        // error.
                        let over =
                            slot.exec.as_ref().is_some_and(|exec| exec.sim_time() > budget);
                        if over {
                            let exec = slot.exec.take().expect("exec present");
                            let elapsed = exec.sim_time();
                            slot.report = Some(Ok(exec.finish()));
                            slot.outcome = Some(Outcome::TimedOut { budget, elapsed });
                            if self.trace.is_enabled() {
                                self.trace.add("serve.timed_out", 1);
                            }
                        }
                    }
                }
                if slot.report.is_some() {
                    // Done (or failed): release the reservation and drop
                    // the execution state.
                    slot.exec = None;
                    reserved_total -= slot.reserved;
                }
            }
            if !progressed {
                break; // nothing running and nothing admitted: batch done
            }
        }

        for slot in slots {
            outcomes.push(QueryOutcome {
                handle: slot.handle,
                query: slot.name.to_string(),
                admission_wait: slot.admission_wait,
                gpu_reserved: slot.reserved,
                outcome: slot.outcome.expect("scheduler resolves every slot"),
                report: slot.report.expect("scheduler drains every slot"),
            });
        }
        outcomes.sort_by_key(|o| o.handle.0);
        let metrics = ServeMetrics {
            queries: outcomes.len(),
            failures: outcomes.iter().filter(|o| o.report.is_err()).count(),
            admission_waits: outcomes.iter().map(|o| o.admission_wait).sum(),
            builds_cached: outcomes
                .iter()
                .filter_map(|o| o.report.as_ref().ok())
                .map(|r| r.builds_cached)
                .sum(),
            builds_evicted: self.cache.stats.evictions - evictions_before,
            cache: self.cache.stats(),
        };
        ServeReport { outcomes, gpu_budget, metrics }
    }
}

/// Whether any stage of the plan broadcasts hash table `ht` into GPU
/// memory — a cache entry produced by such a plan is device-resident, so
/// later hits skip the PCIe broadcast too.
fn plan_broadcasts(placed: &PlacedPlan, ht: &str) -> bool {
    placed.stages.iter().any(|stage| {
        stage.segments().iter().any(|seg| {
            seg.broadcast_moves()
                .any(|e| matches!(e, Exchange::MemMove { table: Some(t), .. } if t == ht))
        })
    })
}

/// Worst-case per-GPU working-set bytes across the plan's stages — the
/// admission signal. Optimizer-placed plans carry their chosen
/// [`StageCost`](crate::cost::StageCost)s; manual placements re-run the
/// cost model's capacity walk over the placed stages. Estimation failures
/// degrade to 0 (admit immediately): execution still capacity-checks for
/// real, so the worst case is solo-equivalent behaviour, never a new
/// failure mode.
fn gpu_footprint(session: &Session, lowered: &LoweredQuery, placed: &PlacedPlan) -> u64 {
    if let Some(costs) = &placed.costs {
        return costs
            .stages
            .iter()
            .filter(|c| c.gpu_capacity.is_some())
            .map(|c| c.gpu_required)
            .max()
            .unwrap_or(0);
    }
    let model = CostModel::new(&session.engine().server, &lowered.catalog);
    let mut hts: HtEstimates = HashMap::new();
    let mut worst = 0u64;
    for stage in &placed.stages {
        let Ok(est) = model.estimate_pipeline(stage.pipeline(), &hts) else {
            return 0;
        };
        let mut devices: Vec<_> = stage.segments().iter().map(|s| s.target).collect();
        if let PlacedStage::CoProcess { gpus, .. } = stage {
            devices.extend(gpus.iter().copied());
        }
        let is_build = matches!(stage, PlacedStage::Build { .. });
        let packet_rows = ExecConfig::stage_packet_rows(is_build, placed.packet_rows);
        if let Ok(cost) = model.stage_cost(&est, &devices, is_build, packet_rows) {
            if cost.gpu_capacity.is_some() {
                worst = worst.max(cost.gpu_required);
            }
        }
        if let PlacedStage::Build { name, .. } = stage {
            hts.insert(name.clone(), est.table_estimate());
        }
    }
    worst
}
