//! Parallel reduced exploration: a work-stealing frontier over N worker
//! threads with a sharded visited map.
//!
//! [`CompiledSystem::explore_parallel`] explores the same reduced state
//! space as [`CompiledSystem::explore_por`] (the ample-set partial-order
//! reduction is a pure function of a configuration, so it parallelises
//! untouched), but spreads the frontier over `threads` workers:
//!
//! * each worker owns a `crossbeam::deque::Worker` FIFO and steals from its
//!   peers (and from the seeding `Injector`) when its own queue drains;
//! * the visited map is split into `SHARDS` shards, each an `FxHashMap`
//!   behind a `parking_lot::Mutex`; a configuration is routed to its shard
//!   by the top bits of the 64-bit content hash cached inside
//!   the packed configuration, so insert-or-lookup never re-hashes the state and
//!   two workers only contend when they touch the same shard at the same
//!   instant;
//! * every shard slot records the `(parent, machine, transition)` edge that
//!   first discovered the configuration, so violations still carry a
//!   replayable counterexample trace (parent order is discovery order,
//!   which under parallel interleaving is *a* valid trace but not
//!   necessarily a shortest one);
//! * termination uses an in-flight work token: the counter is incremented
//!   before a job becomes stealable and decremented after its expansion is
//!   fully recorded, so it reaches zero exactly when no job exists and none
//!   can be created — the worker that drops it to zero raises the `done`
//!   flag and every idle worker exits its backoff loop.
//!
//! The outcome is deterministic whenever the search is not truncated: the
//! set of visited configurations, `configurations`/`transitions` counts,
//! verdict, `final_reachable` and `live` are all functions of the reduced
//! state space, and the violation list is sorted into a canonical order
//! before it is returned. Under truncation (`max_configs` hit) the visited
//! subset depends on scheduling, exactly as the sequential engines'
//! truncated prefixes depend on expansion order.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use crossbeam::utils::Backoff;
use parking_lot::Mutex;

use zooid_mpst::common::intern::FxHashMap;

use crate::engine::{all_can_finish, CTrans, CompiledSystem, PackedConfig};
use crate::system::{ExplorationOutcome, TraceStep, Violation, ViolationKind};

/// Number of visited-map shards (a power of two; the routing key is the top
/// `SHARD_BITS` of the cached configuration hash, where FxHash concentrates
/// its entropy).
const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS;

/// Global id of a visited configuration: shard index in the high 32 bits,
/// slot within the shard in the low 32.
type Gid = u64;

fn gid(shard: usize, slot: u32) -> Gid {
    ((shard as u64) << 32) | u64::from(slot)
}

fn gid_shard(g: Gid) -> usize {
    (g >> 32) as usize
}

fn gid_slot(g: Gid) -> usize {
    (g & 0xffff_ffff) as usize
}

fn shard_of(hash: u64) -> usize {
    (hash >> (64 - SHARD_BITS)) as usize
}

/// One shard of the visited map.
#[derive(Default)]
struct Shard {
    /// Cached content hash → slots holding configurations with that hash
    /// (a collision list, almost always of length 1). Keying on the `u64`
    /// means a probe hashes one word, never the packed vectors.
    buckets: FxHashMap<u64, Vec<u32>>,
    configs: Vec<PackedConfig>,
    /// `(parent gid, acting machine, transition)` discovery edge per slot;
    /// `None` for the initial configuration.
    parents: Vec<Option<(Gid, u32, CTrans)>>,
}

/// A unit of work: one admitted configuration to expand. The configuration
/// travels with the job so expansion never locks its home shard.
struct Job {
    gid: Gid,
    cfg: PackedConfig,
}

/// What one worker learned about one expanded configuration (merged into
/// the liveness fixpoint after the workers join).
struct ExpandRecord {
    gid: Gid,
    /// Admitted or already-visited successors (truncation-dropped ones are
    /// absent, exactly like the sequential engines' successor lists).
    succs: Vec<Gid>,
    /// Raw successor count before admission filtering — what the
    /// "every configuration can move or is final" half of liveness reads.
    raw_succs: usize,
    is_final: bool,
}

/// Per-worker accumulator, merged after the pool drains.
#[derive(Default)]
struct WorkerOut {
    transitions: usize,
    found: Vec<(ViolationKind, Gid)>,
    expanded: Vec<ExpandRecord>,
}

/// Shared state of one parallel exploration.
struct Pool<'a> {
    sys: &'a CompiledSystem,
    bound: usize,
    max_configs: usize,
    shards: Vec<Mutex<Shard>>,
    injector: Injector<Job>,
    /// Jobs created but not yet fully expanded; 0 ⟺ the exploration is over.
    in_flight: AtomicUsize,
    /// Total configurations admitted across all shards (the `max_configs`
    /// budget).
    admitted: AtomicUsize,
    truncated: AtomicBool,
    done: AtomicBool,
}

enum Inserted {
    /// Fresh configuration, admitted under the budget.
    New(Gid),
    /// Already in the visited map.
    Existing(Gid),
    /// Fresh, but the budget is exhausted: dropped, search truncated.
    Truncated,
}

impl<'a> Pool<'a> {
    fn new(sys: &'a CompiledSystem, bound: usize, max_configs: usize) -> Self {
        Pool {
            sys,
            bound,
            max_configs,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            injector: Injector::new(),
            in_flight: AtomicUsize::new(0),
            admitted: AtomicUsize::new(0),
            truncated: AtomicBool::new(false),
            done: AtomicBool::new(false),
        }
    }

    /// Inserts `cfg` into its shard (routed by the cached hash), recording
    /// `parent` as its discovery edge if it is new.
    fn insert(&self, cfg: &PackedConfig, parent: Option<(Gid, u32, CTrans)>) -> Inserted {
        let hash = cfg.cached_hash();
        let s = shard_of(hash);
        let mut guard = self.shards[s].lock();
        let shard = &mut *guard;
        if let Some(slots) = shard.buckets.get(&hash) {
            for &slot in slots {
                if &shard.configs[slot as usize] == cfg {
                    return Inserted::Existing(gid(s, slot));
                }
            }
        }
        // Admission under the global budget. The counter may transiently
        // overshoot by the number of racing workers; the losing increments
        // are rolled back and never admit a configuration.
        let n = self.admitted.fetch_add(1, Ordering::Relaxed);
        if n >= self.max_configs {
            self.admitted.fetch_sub(1, Ordering::Relaxed);
            self.truncated.store(true, Ordering::Relaxed);
            return Inserted::Truncated;
        }
        let slot = u32::try_from(shard.configs.len()).expect("shard overflow");
        shard.buckets.entry(hash).or_default().push(slot);
        shard.configs.push(cfg.clone());
        shard.parents.push(parent);
        Inserted::New(gid(s, slot))
    }

    /// Expands one job: classify it, admit its successors, queue the fresh
    /// ones on the worker's own deque. `succs` is the worker's reusable
    /// expansion buffer (one allocation per worker, not per configuration).
    fn process(
        &self,
        job: Job,
        local: &Worker<Job>,
        succs: &mut Vec<(PackedConfig, u32, CTrans)>,
        out: &mut WorkerOut,
    ) {
        self.sys.expand(&job.cfg, self.bound, true, succs);
        out.transitions += succs.len();

        let is_final = self.sys.is_final(&job.cfg);
        let unspec = self.sys.has_unspecified_reception(&job.cfg);
        if succs.is_empty() && !is_final {
            if let Some(kind) = self.sys.classify_terminal(&job.cfg, unspec) {
                out.found.push((kind, job.gid));
            }
        }
        if unspec {
            out.found.push((ViolationKind::UnspecifiedReception, job.gid));
        }

        let raw_succs = succs.len();
        let mut list = Vec::with_capacity(succs.len());
        for (next, machine, trans) in succs.drain(..) {
            match self.insert(&next, Some((job.gid, machine, trans))) {
                Inserted::New(g) => {
                    // Count the token *before* the job becomes stealable so
                    // `in_flight` can never under-report outstanding work.
                    self.in_flight.fetch_add(1, Ordering::AcqRel);
                    local.push(Job { gid: g, cfg: next });
                    list.push(g);
                }
                Inserted::Existing(g) => list.push(g),
                Inserted::Truncated => {}
            }
        }
        out.expanded.push(ExpandRecord {
            gid: job.gid,
            succs: list,
            raw_succs,
            is_final,
        });
    }

    /// Steals one job, preferring the shared injector over peer deques.
    /// Loops on [`Steal::Retry`] per source, as the real lock-free deque
    /// demands (the mutex-backed stub never reports it).
    fn steal(&self, stealers: &[Stealer<Job>]) -> Option<Job> {
        loop {
            match self.injector.steal() {
                Steal::Success(job) => return Some(job),
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        for stealer in stealers {
            loop {
                match stealer.steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    /// One worker: drain the local deque, steal from the injector and the
    /// peers, back off while idle, exit when the in-flight count hits zero.
    ///
    /// A worker that panics mid-job would leave its in-flight token counted
    /// forever and hang its peers in the backoff loop (and the scope join
    /// behind them); the unwind guard raises `done` instead, so the peers
    /// drain and exit, the scope joins, and the panic propagates.
    fn run_worker(&self, local: &Worker<Job>, stealers: &[Stealer<Job>], out: &mut WorkerOut) {
        struct DoneOnUnwind<'a>(&'a AtomicBool);
        impl Drop for DoneOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Release);
                }
            }
        }
        let _guard = DoneOnUnwind(&self.done);

        let mut backoff = Backoff::new();
        let mut succs: Vec<(PackedConfig, u32, CTrans)> = Vec::new();
        loop {
            match local.pop().or_else(|| self.steal(stealers)) {
                Some(job) => {
                    backoff.reset();
                    self.process(job, local, &mut succs, out);
                    if self.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
                        self.done.store(true, Ordering::Release);
                    }
                }
                None => {
                    if self.done.load(Ordering::Acquire) {
                        break;
                    }
                    backoff.snooze();
                }
            }
        }
    }
}

impl CompiledSystem {
    /// Explores the reduced state space (the same ample-set partial-order
    /// reduction as [`CompiledSystem::explore_por`]) on a work-stealing
    /// frontier of `threads` workers over a sharded visited map.
    ///
    /// With `threads <= 1` the worker loop runs on the calling thread (no
    /// spawn); the verdict, counts, `final_reachable` and `live` are
    /// identical to [`CompiledSystem::explore_por`] whenever the search is
    /// not truncated. Violations are returned in a canonical order (sorted
    /// by kind and configuration) so repeated runs are comparable; their
    /// traces replay through [`crate::System::successors`] but, being
    /// discovery-order parent chains, are not guaranteed shortest.
    pub fn explore_parallel(
        &self,
        bound: usize,
        max_configs: usize,
        threads: usize,
    ) -> ExplorationOutcome {
        if max_configs == 0 {
            return Self::empty_outcome();
        }
        let threads = threads.max(1);
        let pool = Pool::new(self, bound, max_configs);

        // Seed: the initial configuration is always admitted (max_configs
        // >= 1 here) and enters through the injector.
        let init = self.initial_config();
        let seed = match pool.insert(&init, None) {
            Inserted::New(g) => g,
            _ => unreachable!("fresh pool admits the initial configuration"),
        };
        pool.in_flight.store(1, Ordering::Release);
        pool.injector.push(Job {
            gid: seed,
            cfg: init,
        });

        let workers: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<Job>> = workers.iter().map(Worker::stealer).collect();
        let mut outs: Vec<WorkerOut> = (0..threads).map(|_| WorkerOut::default()).collect();

        if threads == 1 {
            let mut out = outs.pop().expect("one accumulator");
            pool.run_worker(&workers[0], &[], &mut out);
            outs.push(out);
        } else {
            std::thread::scope(|scope| {
                for (w, (worker, out)) in workers.iter().zip(outs.iter_mut()).enumerate() {
                    // Each worker steals from every peer but itself.
                    let peers: Vec<Stealer<Job>> = stealers
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != w)
                        .map(|(_, s)| s.clone())
                        .collect();
                    let pool = &pool;
                    scope.spawn(move || pool.run_worker(worker, &peers, out));
                }
            });
        }

        self.merge(pool, outs)
    }

    /// Merges the per-worker accumulators and shard tables into the final
    /// [`ExplorationOutcome`] (liveness fixpoint, violation materialisation).
    fn merge(&self, pool: Pool<'_>, outs: Vec<WorkerOut>) -> ExplorationOutcome {
        let shards: Vec<Shard> = pool.shards.into_iter().map(Mutex::into_inner).collect();

        // Dense re-indexing: prefix offsets turn a (shard, slot) gid into a
        // contiguous index for the fixpoint's side arrays.
        let mut offsets = Vec::with_capacity(SHARDS);
        let mut total = 0usize;
        for shard in &shards {
            offsets.push(total);
            total += shard.configs.len();
        }
        let dense = |g: Gid| offsets[gid_shard(g)] + gid_slot(g);

        let mut transitions = 0usize;
        let mut found: Vec<(ViolationKind, Gid)> = Vec::new();
        let mut final_reachable = false;
        let mut live = true;
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut final_dense: Vec<u32> = Vec::new();
        let truncated = pool.truncated.load(Ordering::Relaxed);

        for out in outs {
            transitions += out.transitions;
            found.extend(out.found);
            for rec in out.expanded {
                let idx = dense(rec.gid) as u32;
                if rec.is_final {
                    final_reachable = true;
                    final_dense.push(idx);
                }
                live &= rec.is_final || rec.raw_succs > 0;
                for &succ in &rec.succs {
                    preds[dense(succ)].push(idx);
                }
            }
        }

        // Liveness, second half (identical to the sequential engines): when
        // the protocol can terminate and the bounded state space was fully
        // covered, termination must remain reachable from every
        // configuration. The ample reduction preserves exactly which
        // terminal configurations are reachable from where, so running the
        // fixpoint on the reduced graph yields the full graph's answer.
        if final_reachable && live && !truncated {
            live = all_can_finish(&preds, final_dense);
        }

        // Materialise violations: decode each offending configuration and
        // walk its discovery edges back to the root. Sorting puts repeated
        // runs (whose worker interleavings differ) in one canonical order.
        let mut violations: Vec<Violation> = found
            .into_iter()
            .map(|(kind, g)| {
                let config = self.decode(&shards[gid_shard(g)].configs[gid_slot(g)]);
                let mut trace: Vec<TraceStep> = Vec::new();
                let mut cur = g;
                while let Some((parent, machine, trans)) =
                    shards[gid_shard(cur)].parents[gid_slot(cur)]
                {
                    trace.push(TraceStep {
                        role: self.roles()[machine as usize].clone(),
                        action: self.action(trans),
                        config: self.decode(&shards[gid_shard(cur)].configs[gid_slot(cur)]),
                    });
                    cur = parent;
                }
                trace.reverse();
                Violation {
                    kind,
                    config,
                    trace,
                }
            })
            .collect();
        violations.sort_by(|a, b| (a.kind, &a.config).cmp(&(b.kind, &b.config)));

        let pick = |kind: ViolationKind| {
            violations
                .iter()
                .filter(|v| v.kind == kind)
                .map(|v| v.config.clone())
                .collect::<Vec<_>>()
        };
        ExplorationOutcome {
            configurations: total,
            transitions,
            deadlocks: pick(ViolationKind::Deadlock),
            orphan_messages: pick(ViolationKind::OrphanMessage),
            unspecified_receptions: pick(ViolationKind::UnspecifiedReception),
            truncated,
            final_reachable,
            live,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_mpst::generators;

    use crate::system::{System, Verdict};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn compiled_systems_cross_thread_boundaries() {
        assert_send_sync::<CompiledSystem>();
        assert_send_sync::<Pool<'static>>();
    }

    #[test]
    fn parallel_agrees_with_por_on_case_studies() {
        for (name, g) in [
            ("ring3", generators::ring3()),
            ("two_buyer", generators::two_buyer()),
            ("fanout/5", generators::fanout_n(5)),
        ] {
            let system = System::from_global(&g).expect("projectable");
            let compiled = system.compile();
            for bound in [0, 1, 2] {
                let por = compiled.explore_por(bound, 200_000);
                for threads in [1, 2, 4] {
                    let par = compiled.explore_parallel(bound, 200_000, threads);
                    assert_eq!(par.verdict(), por.verdict(), "{name} bound {bound}");
                    assert_eq!(
                        par.configurations, por.configurations,
                        "{name} bound {bound} threads {threads}"
                    );
                    assert_eq!(
                        par.transitions, por.transitions,
                        "{name} bound {bound} threads {threads}"
                    );
                    assert_eq!(par.final_reachable, por.final_reachable, "{name}");
                    assert_eq!(par.live, por.live, "{name}");
                    assert!(!par.truncated, "{name}");
                }
            }
        }
    }

    #[test]
    fn parallel_respects_the_configuration_budget() {
        let g = generators::fanout_n(6);
        let system = System::from_global(&g).expect("projectable");
        let compiled = system.compile();
        let outcome = compiled.explore_parallel(2, 5, 4);
        assert!(outcome.truncated);
        assert!(outcome.configurations <= 5);
        assert_eq!(outcome.verdict(), Verdict::Inconclusive);
        assert_eq!(
            compiled.explore_parallel(2, 0, 2).configurations,
            0,
            "degenerate budget admits nothing"
        );
    }
}
