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
//! * configurations use the sequential engine's encoding, `[machine states
//!   | one length per channel | the queued message ids, channel by
//!   channel]`, in the same word width (a byte when every state index,
//!   message id and the bound fit in one, `u32` otherwise), and a worker
//!   builds each successor in one reusable buffer with the same successor
//!   function. It takes the successor's hash from its parent's (which the
//!   job carries) with the same incremental `successor_hash`, before it
//!   locks anything;
//! * the visited map is split into `SHARDS` shards, each a word arena with
//!   an open-addressing index of ids (the sequential engine's visited set)
//!   behind a `parking_lot::Mutex`. A configuration is routed to its shard
//!   by the top bits of its hash, and the shard's index reads lower
//!   bits of the same hash, so a probe under the lock compares cached
//!   hashes and slices and hashes nothing, and two workers only contend when
//!   they touch the same shard at the same instant. A shard stores each
//!   configuration once in its arena, and the job that expands it carries
//!   one boxed copy, so the pool holds at most one heap slice per
//!   configuration;
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

use crate::engine::{
    all_can_finish, predecessors, CTrans, CompiledSystem, ConfigArena, Expansion, Interned, Width,
    Word,
};
use crate::system::{ExplorationOutcome, TraceStep, Violation, ViolationKind};

/// Number of visited-map shards (a power of two; the routing key is the top
/// `SHARD_BITS` of the configuration's hash, a sum of mixed terms with
/// entropy in every bit — see [`ConfigArena`]; a test checks the spread).
const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS;

/// Global id of a visited configuration: shard index in the high 32 bits,
/// id within the shard's arena in the low 32.
type Gid = u64;

fn gid(shard: usize, slot: u32) -> Gid {
    ((shard as u64) << 32) | u64::from(slot)
}

fn gid_shard(g: Gid) -> usize {
    (g >> 32) as usize
}

fn gid_slot(g: Gid) -> u32 {
    g as u32
}

fn shard_of(hash: u64) -> usize {
    (hash >> (64 - SHARD_BITS)) as usize
}

/// One shard of the visited map: the configurations routed here, each
/// stored once in the shard's [`ConfigArena`] (whose index is keyed on the
/// hash the worker computed before it locked, so a probe under the lock
/// hashes nothing).
#[derive(Default)]
struct Shard<W> {
    arena: ConfigArena<W>,
    /// `(parent gid, acting machine, transition)` discovery edge per
    /// configuration; `None` for the initial configuration.
    parents: Vec<Option<(Gid, u32, CTrans)>>,
}

/// A unit of work: one admitted configuration to expand. The configuration
/// travels with the job, its one heap slice, with its hash, so expansion
/// never locks its home shard.
struct Job<W> {
    gid: Gid,
    hash: u64,
    cfg: Box<[W]>,
}

/// Per-worker accumulator, merged after the pool drains.
#[derive(Default)]
struct WorkerOut {
    transitions: usize,
    found: Vec<(ViolationKind, Gid)>,
    /// `(configuration, successor)` for every admitted or already-visited
    /// successor, recorded only while the search is complete (the liveness
    /// fixpoint reads them).
    edges: Vec<(Gid, Gid)>,
    finals: Vec<Gid>,
    /// Some configuration expanded here is neither final nor has a step.
    stuck: bool,
}

/// A worker's reusable buffers: the expansion of its current job and the
/// successor being built (one allocation each per worker, not per
/// configuration).
#[derive(Default)]
struct Scratch<W> {
    ex: Expansion,
    next: Vec<W>,
}

/// Shared state of one parallel exploration on `W` words (`u32`, the
/// reference width, unless named).
struct Pool<'a, W = u32> {
    sys: &'a CompiledSystem,
    bound: usize,
    max_configs: usize,
    shards: Vec<Mutex<Shard<W>>>,
    injector: Injector<Job<W>>,
    /// Jobs created but not yet fully expanded; 0 ⟺ the exploration is over.
    in_flight: AtomicUsize,
    /// Total configurations admitted across all shards (the `max_configs`
    /// budget).
    admitted: AtomicUsize,
    truncated: AtomicBool,
    done: AtomicBool,
}

impl<'a, W: Word> Pool<'a, W> {
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

    /// Admission under the global budget. The counter may transiently
    /// overshoot by the number of racing workers; the losing increments are
    /// rolled back and never admit a configuration.
    fn admit(&self) -> bool {
        if self.admitted.fetch_add(1, Ordering::Relaxed) < self.max_configs {
            return true;
        }
        self.admitted.fetch_sub(1, Ordering::Relaxed);
        self.truncated.store(true, Ordering::Relaxed);
        false
    }

    /// Inserts the encoded configuration `cfg` (hash `hash`) into
    /// its shard, recording `parent` as its discovery edge if it is new.
    fn insert(&self, cfg: &[W], hash: u64, parent: Option<(Gid, u32, CTrans)>) -> Interned<Gid> {
        let s = shard_of(hash);
        let mut guard = self.shards[s].lock();
        let shard = &mut *guard;
        match shard.arena.intern(cfg, hash, || self.admit()) {
            Interned::New(slot) => {
                shard.parents.push(parent);
                Interned::New(gid(s, slot))
            }
            Interned::Existing(slot) => Interned::Existing(gid(s, slot)),
            Interned::Refused => Interned::Refused,
        }
    }

    /// Expands one job: classify it, admit its successors, queue the fresh
    /// ones on the worker's own deque.
    fn process(
        &self,
        job: Job<W>,
        local: &Worker<Job<W>>,
        scratch: &mut Scratch<W>,
        out: &mut WorkerOut,
    ) {
        let Scratch { ex, next } = scratch;
        self.sys.expand(&job.cfg, self.bound, true, ex);
        out.transitions += ex.steps.len();
        if ex.is_final {
            out.finals.push(job.gid);
        }
        out.stuck |= !ex.is_final && ex.steps.is_empty();
        out.found
            .extend(ex.violations.iter().map(|&kind| (kind, job.gid)));

        for &step in &ex.steps {
            next.clear();
            self.sys.write_successor(&job.cfg, ex, step, next);
            let parent = Some((job.gid, step.machine, step.trans));
            let hash = self.sys.successor_hash(job.hash, &job.cfg, ex, step, next);
            let g = match self.insert(next, hash, parent) {
                Interned::New(g) => {
                    // Count the token *before* the job becomes stealable so
                    // `in_flight` can never under-report outstanding work.
                    self.in_flight.fetch_add(1, Ordering::AcqRel);
                    local.push(Job {
                        gid: g,
                        hash,
                        cfg: next.as_slice().into(),
                    });
                    g
                }
                Interned::Existing(g) => g,
                Interned::Refused => continue,
            };
            // Once truncated the fixpoint is skipped, so edges are dead.
            if !self.truncated.load(Ordering::Relaxed) {
                out.edges.push((job.gid, g));
            }
        }
    }

    /// Steals one job, preferring the shared injector over peer deques.
    /// Loops on [`Steal::Retry`] per source, as the real lock-free deque
    /// demands (the mutex-backed stub never reports it).
    fn steal(&self, stealers: &[Stealer<Job<W>>]) -> Option<Job<W>> {
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
    fn run_worker(
        &self,
        local: &Worker<Job<W>>,
        stealers: &[Stealer<Job<W>>],
        out: &mut WorkerOut,
    ) {
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
        let mut scratch = Scratch::default();
        loop {
            match local.pop().or_else(|| self.steal(stealers)) {
                Some(job) => {
                    backoff.reset();
                    self.process(job, local, &mut scratch, out);
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
        match self.width(bound) {
            Width::Byte => self.explore_parallel_words::<u8>(bound, max_configs, threads),
            Width::Wide => self.explore_parallel_words::<u32>(bound, max_configs, threads),
        }
    }

    /// [`CompiledSystem::explore_parallel`] on `W` words (`max_configs` >
    /// 0).
    fn explore_parallel_words<W: Word>(
        &self,
        bound: usize,
        max_configs: usize,
        threads: usize,
    ) -> ExplorationOutcome {
        let threads = threads.max(1);
        let pool = Pool::<W>::new(self, bound, max_configs);

        // Seed: the initial configuration is always admitted (max_configs
        // >= 1 here) and enters through the injector.
        let init = self.initial_config::<W>();
        let hash = self.config_hash(&init);
        let Interned::New(seed) = pool.insert(&init, hash, None) else {
            unreachable!("fresh pool admits the initial configuration");
        };
        pool.in_flight.store(1, Ordering::Release);
        pool.injector.push(Job {
            gid: seed,
            hash,
            cfg: init.into_boxed_slice(),
        });

        let workers: Vec<Worker<Job<W>>> = (0..threads).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<Job<W>>> = workers.iter().map(Worker::stealer).collect();
        let mut outs: Vec<WorkerOut> = (0..threads).map(|_| WorkerOut::default()).collect();

        if threads == 1 {
            let mut out = outs.pop().expect("one accumulator");
            pool.run_worker(&workers[0], &[], &mut out);
            outs.push(out);
        } else {
            std::thread::scope(|scope| {
                for (w, (worker, out)) in workers.iter().zip(outs.iter_mut()).enumerate() {
                    // Each worker steals from every peer but itself.
                    let peers: Vec<Stealer<Job<W>>> = stealers
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
    fn merge<W: Word>(&self, pool: Pool<'_, W>, outs: Vec<WorkerOut>) -> ExplorationOutcome {
        let shards: Vec<Shard<W>> = pool.shards.into_iter().map(Mutex::into_inner).collect();

        // Dense re-indexing: prefix offsets turn a (shard, slot) gid into a
        // contiguous index for the fixpoint.
        let mut offsets = Vec::with_capacity(SHARDS);
        let mut total = 0usize;
        for shard in &shards {
            offsets.push(total);
            total += shard.arena.len();
        }
        let dense = |g: Gid| (offsets[gid_shard(g)] + gid_slot(g) as usize) as u32;

        let transitions = outs.iter().map(|out| out.transitions).sum();
        let final_reachable = outs.iter().any(|out| !out.finals.is_empty());
        let mut live = !outs.iter().any(|out| out.stuck);
        let truncated = pool.truncated.load(Ordering::Relaxed);

        // Liveness, second half (identical to the sequential engines): when
        // the protocol can terminate and the bounded state space was fully
        // covered, termination must remain reachable from every
        // configuration. The ample reduction preserves exactly which
        // terminal configurations are reachable from where, so running the
        // fixpoint on the reduced graph yields the full graph's answer.
        if final_reachable && live && !truncated {
            let edges = outs
                .iter()
                .flat_map(|out| &out.edges)
                .map(|&(from, to)| (dense(from), dense(to)));
            let (pred_offsets, preds) = predecessors(total, edges);
            let finals = outs.iter().flat_map(|out| &out.finals).map(|&g| dense(g));
            live = all_can_finish(&pred_offsets, &preds, finals.collect());
        }

        // Materialise violations: decode each offending configuration and
        // walk its discovery edges back to the root. Sorting puts repeated
        // runs (whose worker interleavings differ) in one canonical order.
        let config_of = |g: Gid| self.decode(shards[gid_shard(g)].arena.config(gid_slot(g)));
        let mut violations: Vec<Violation> = outs
            .into_iter()
            .flat_map(|out| out.found)
            .map(|(kind, g)| {
                let config = config_of(g);
                let mut trace: Vec<TraceStep> = Vec::new();
                let mut cur = g;
                while let Some((parent, machine, trans)) =
                    shards[gid_shard(cur)].parents[gid_slot(cur) as usize]
                {
                    trace.push(TraceStep {
                        role: self.roles()[machine as usize].clone(),
                        action: self.action(trans),
                        config: config_of(cur),
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
    fn the_configuration_hash_spreads_over_every_shard() {
        // The shard is the hash's top bits: a chain's configurations differ
        // in a few machine states and queue words, and each shard must still
        // get at least a quarter of its fair share.
        let compiled = System::from_global(&generators::chain_n(64))
            .expect("projectable")
            .compile();
        let arena = compiled.reach(2, true, 20_000, |_, _| {});
        let mut per_shard = [0usize; SHARDS];
        for id in 0..arena.len() {
            per_shard[shard_of(arena.hash(id as u32))] += 1;
        }
        let fair = arena.len() / SHARDS;
        let least = per_shard.iter().min().copied().unwrap_or(0);
        assert!(4 * least >= fair, "{least} in the emptiest shard, fair {fair}");
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
