//! The layer replay: the workload's own inputs pushed through each layer's
//! public functions in isolation, one `replay.<layer>` span per call. What
//! the layers add up to is held against what the run cost end to end; the
//! remainder is reported, not hidden.

use std::hint::black_box;
use std::sync::Arc;

use zooid_cfsm::{Cfsm, CompiledSystem, System};
use zooid_dsl::Protocol;
use zooid_mpst::global::GlobalType;
use zooid_mpst::projection::project_all;
use zooid_mpst::{Role, Trace};
use zooid_proc::{erase, CompiledProc};
use zooid_runtime::cexec::CompiledEndpointTask;
use zooid_runtime::checkpoint::SessionCheckpoint;
use zooid_runtime::transport::{InMemoryNetwork, InMemoryTransport};
use zooid_runtime::wal::{encode_quantum, WalIndexer};
use zooid_runtime::{
    BatchLayout, CompiledMonitor, EndpointProgram, ExecOptions, SessionBatch, StepOutcome,
};
use zooid_server::{ProtocolRegistry, SafetyBudget};

use crate::fixtures::LONG_ACTIONS;
use crate::serve::{host, Hosted};
use crate::trace::Tracer;
use crate::workloads::{Card, Kind, MemPlan, Report, SHARDS};

/// The registration pipeline over a list of global types, layer by layer,
/// against the cold registration of the same list into a fresh registry.
pub fn registration(report: &mut Report, tracer: &mut Tracer, list: &[(String, GlobalType)]) {
    let budget = SafetyBudget::default();
    let fresh = || -> Vec<(String, GlobalType)> { list.to_vec() };

    // The whole: what `register_cold_ms` times.
    let mut registry = ProtocolRegistry::new();
    let (_, cold_ns) = tracer.time("replay.registry.register_cold", || {
        for (name, global) in fresh() {
            if let Ok(protocol) = Protocol::new(name, global) {
                let _ = black_box(registry.register(protocol));
            }
        }
    });

    // The parts.
    let inputs = fresh();
    let (protocols, new_ns) = tracer.time("replay.dsl.protocol.new", || {
        inputs
            .into_iter()
            .filter_map(|(name, global)| Protocol::new(name, global).ok())
            .collect::<Vec<_>>()
    });
    let (locals, project_ns) = tracer.time("replay.mpst.projection.project_all", || {
        protocols
            .iter()
            .filter_map(|p| project_all(p.global()).ok())
            .collect::<Vec<_>>()
    });
    let (machines, from_local_ns) = tracer.time("replay.cfsm.machine.from_local", || {
        locals
            .iter()
            .map(|locals| {
                locals
                    .iter()
                    .map(|(role, local)| Cfsm::from_local_type(role.clone(), local))
                    .collect::<Result<Vec<_>, _>>()
                    .expect("projections are machines")
            })
            .collect::<Vec<_>>()
    });
    let (compiled, compile_ns) = tracer.time("replay.cfsm.system.compile", || {
        machines
            .into_iter()
            .map(|m| System::new(m).expect("one machine per role").compile())
            .collect::<Vec<CompiledSystem>>()
    });
    let (configs, por_ns) = tracer.time("replay.cfsm.engine.explore_por", || {
        compiled
            .iter()
            .map(|c| {
                c.explore_por(budget.channel_bound, budget.max_configs)
                    .configurations
            })
            .sum::<usize>()
    });
    let (_, t2_ns) = tracer.time("replay.cfsm.parallel.explore_t2", || {
        for c in &compiled {
            black_box(
                c.explore_parallel(budget.channel_bound, budget.max_configs, 2)
                    .configurations,
            );
        }
    });

    // Warm: the same types under new names hit the registry's type cache.
    let twins: Vec<Protocol> = list
        .iter()
        .filter_map(|(name, global)| Protocol::new(format!("{name}.warm"), global.clone()).ok())
        .collect();
    let registered = twins.len().max(1) as f64;
    let (_, warm_ns) = tracer.time("replay.registry.warm_lookup", || {
        for twin in twins {
            let _ = black_box(registry.register(twin));
        }
    });

    report.value("dsl.protocol.new_us", new_ns / 1e3);
    report.value("mpst.projection.project_all_us", project_ns / 1e3);
    report.value("cfsm.machine.from_local_us", from_local_ns / 1e3);
    report.value("cfsm.system.compile_us", compile_ns / 1e3);
    report.value("cfsm.engine.explore_por_us", por_ns / 1e3);
    report.value("cfsm.engine.configs_visited", configs as f64);
    report.value("cfsm.parallel.explore_t2_us", t2_ns / 1e3);
    report.value(
        "server.registry.cold_unattributed_share",
        1.0 - (new_ns + project_ns + from_local_ns + compile_ns + por_ns) / cold_ns.max(1.0),
    );
    report.value("server.registry.warm_lookup_ns", warm_ns / registered);
}

/// One fixture lowered by hand, the way the registry does it on a miss.
struct Lowered {
    roles: Arc<[Role]>,
    programs: Vec<Arc<EndpointProgram>>,
    system: Arc<CompiledSystem>,
    /// `None`: not batch-eligible, the sessions run on the slab.
    layout: Option<Arc<BatchLayout>>,
}

/// Runs one session of compiled tasks under a live compiled monitor, as a
/// shard's slab does; returns the visible actions performed.
fn slab_session(lowered: &Lowered, host: &Hosted, options: &ExecOptions) -> usize {
    let mut network = InMemoryNetwork::new(lowered.roles.iter().cloned());
    let mut tasks: Vec<(CompiledEndpointTask, InMemoryTransport)> = lowered
        .roles
        .iter()
        .zip(&lowered.programs)
        .map(|(role, program)| {
            let externals = host
                .shared
                .iter()
                .find(|(cert, _)| cert.role() == role)
                .map(|(_, externals)| externals.clone())
                .expect("every role is cast");
            (
                CompiledEndpointTask::new(Arc::clone(program), externals, options.clone()),
                network.take_endpoint(role).expect("unique roles"),
            )
        })
        .collect();
    let mut monitor = CompiledMonitor::new(Arc::clone(&lowered.system));
    let mut actions = 0;
    loop {
        let mut progressed = false;
        for (task, transport) in &mut tasks {
            while let StepOutcome::Progress = task.step_mem(transport, &mut |va, interned| {
                match interned {
                    Some(interned) => monitor.observe_interned(interned, || erase(va)),
                    None => monitor.observe(&erase(va)),
                };
            }) {
                progressed = true;
                actions += 1;
            }
        }
        if !progressed || tasks.iter().all(|(task, _)| task.is_done()) {
            return actions;
        }
    }
}

/// Set-up, admission and stepping layers of a serving workload, weighted by
/// its deck, and the share of the measured CPU per session they leave
/// unexplained. `wire_ns` is what the wire codec adds per session on the
/// TCP workload.
pub fn serving(
    report: &mut Report,
    tracer: &mut Tracer,
    plan: &MemPlan,
    hosted: &[Hosted],
    cpu_us_per_session: f64,
    wire_ns: f64,
) {
    // A registry of its own: the measured server consumed the first.
    let (registry, _) = host(plan);

    let (_, certify_ns) = tracer.time("replay.proc.typing.certify", || {
        for host in hosted {
            black_box(host.fixture.cast(&host.protocol));
        }
    });
    let (lowered, lower_ns) = tracer.time("replay.proc.compile.lower", || {
        hosted
            .iter()
            .map(|host| {
                let system = Arc::clone(registry.get(host.id).expect("hosted").compiled());
                let mut cast: Vec<_> = host.shared.iter().collect();
                cast.sort_by(|a, b| a.0.role().cmp(b.0.role()));
                let programs = cast
                    .iter()
                    .map(|(cert, externals)| {
                        let compiled = CompiledProc::compile(cert.proc(), cert.role(), externals)
                            .expect("benchmark endpoints lower");
                        Arc::new(EndpointProgram::with_system(Arc::new(compiled), &system))
                    })
                    .collect();
                let roles = cast
                    .iter()
                    .map(|(cert, _)| cert.role().clone())
                    .collect::<Vec<_>>();
                Lowered {
                    roles: roles.into(),
                    programs,
                    system,
                    layout: None,
                }
            })
            .collect::<Vec<_>>()
    });
    let instrs: usize = lowered
        .iter()
        .flat_map(|l| l.programs.iter())
        .map(|p| p.program().instr_count())
        .sum();
    let mut lowered = lowered;
    let (_, layout_ns) = tracer.time("replay.runtime.cbatch.layout_new", || {
        for l in &mut lowered {
            l.layout = BatchLayout::new(
                Arc::clone(&l.roles),
                l.programs.clone(),
                Arc::clone(&l.system),
            );
        }
    });
    report.value("proc.typing.certify_us", certify_ns / 1e3);
    report.value("proc.compile.lower_us", lower_ns / 1e3);
    report.value("proc.compile.instrs", instrs as f64);
    report.value("runtime.cbatch.layout_new_us", layout_ns / 1e3);

    // Per fixture: program-cache hits (shared handle and fresh cast), batch
    // admission, stepping per action on the path its sessions take.
    let cards_of = |fixture: usize| plan.deck.iter().filter(move |c| c.fixture == fixture);
    let deck = plan.deck.len() as f64;
    let (mut program_ns, mut admit_ns, mut batch_ns, mut slab_ns) = (0.0, 0.0, 0.0, 0.0);
    let (mut batch_actions, mut slab_actions, mut batch_sessions) = (0.0, 0.0, 0.0);
    // One accepted global trace per batched protocol, for the monitor replay.
    let mut traces: Vec<(Arc<CompiledSystem>, Trace)> = Vec::new();
    for (index, (host, lowered)) in hosted.iter().zip(&lowered).enumerate() {
        let count = cards_of(index).count();
        if count == 0 {
            continue;
        }
        let artifacts = registry.get(host.id).expect("hosted");
        let lookup = |cast: &[(zooid_dsl::CertifiedProcess, zooid_proc::Externals)]| {
            for (cert, externals) in cast {
                black_box(artifacts.endpoint_program(cert.role(), cert.proc(), externals));
            }
        };
        lookup(&host.shared); // the miss that fills the cache
        const LOOKUPS: usize = 200;
        let fresh_cast = host.shared.to_vec();
        let (_, shared_ns) = tracer.time("replay.registry.endpoint_program", || {
            for _ in 0..LOOKUPS {
                lookup(&host.shared);
            }
        });
        let (_, fresh_ns) = tracer.time("replay.registry.endpoint_program", || {
            for _ in 0..LOOKUPS {
                lookup(&fresh_cast);
            }
        });
        let fresh_cards = cards_of(index).filter(|c| c.fresh).count() as f64;
        program_ns +=
            (fresh_cards * fresh_ns + (count as f64 - fresh_cards) * shared_ns) / LOOKUPS as f64;

        // The width a shard sees: this protocol's share of what is in
        // flight on it.
        let width = ((plan.in_flight / SHARDS) as f64 * count as f64 / deck)
            .round()
            .max(1.0) as usize;
        for long in [false, true] {
            let cards = cards_of(index)
                .filter(|c| (c.kind == Kind::Long) == long)
                .count() as f64;
            if cards == 0.0 {
                continue;
            }
            let card = Card {
                fixture: index,
                kind: if long { Kind::Long } else { Kind::Normal },
                fresh: false,
                record: true,
            };
            let options = host.options(card);
            let actions = if long {
                LONG_ACTIONS
            } else {
                host.fixture.actions
            } as f64;
            match &lowered.layout {
                Some(layout) => {
                    let mut batch = SessionBatch::new(Arc::clone(layout), options, width);
                    const ROUNDS: usize = 8;
                    let (mut admit, mut step, mut stepped) = (0.0, 0.0, 0usize);
                    for round in 0..ROUNDS {
                        let (_, ns) = tracer.time("replay.runtime.cbatch.admit", || {
                            for token in 0..width {
                                assert!(batch.admit(token as u64), "sized for the width");
                            }
                        });
                        admit += ns;
                        let (out, ns) = tracer.time("replay.runtime.cbatch.step", || {
                            batch.run_quantum(usize::MAX)
                        });
                        step += ns;
                        stepped += out.actions;
                        assert!(batch.is_empty(), "an unbounded quantum drains the batch");
                        if round == 0 && !long {
                            let trace = match (out.finished.first(), out.demoted.first()) {
                                (Some(finished), _) => finished.global_trace.clone(),
                                (None, Some(straggler)) => straggler.monitor.trace().clone(),
                                (None, None) => Trace::empty(),
                            };
                            traces.push((Arc::clone(&lowered.system), trace));
                        }
                    }
                    let sessions = (ROUNDS * width) as f64;
                    admit_ns += cards * admit / sessions;
                    batch_ns += cards * actions * step / stepped.max(1) as f64;
                    batch_actions += cards * actions;
                    batch_sessions += cards;
                }
                None => {
                    const SESSIONS: usize = 16;
                    let (stepped, ns) = tracer.time("replay.runtime.cexec.step", || {
                        (0..SESSIONS)
                            .map(|_| slab_session(lowered, host, &options))
                            .sum::<usize>()
                    });
                    slab_ns += cards * actions * ns / stepped.max(1) as f64;
                    slab_actions += cards * actions;
                }
            }
        }
    }
    let program_ns = program_ns / deck;
    let admit_ns = admit_ns / batch_sessions.max(1.0);
    report.value("server.registry.endpoint_program_ns", program_ns);
    report.value("runtime.cbatch.admit_ns", admit_ns);
    report.value(
        "runtime.cbatch.step_ns_per_action",
        batch_ns / batch_actions.max(1.0),
    );
    report.value(
        "runtime.cexec.step_ns_per_action",
        slab_ns / slab_actions.max(1.0),
    );

    // Informational: the monitor's share of the two step figures.
    let (observed, observe_ns) = tracer.time("replay.runtime.monitor.observe", || {
        let mut observed = 0usize;
        for (system, trace) in &traces {
            for _ in 0..16 {
                let mut monitor = CompiledMonitor::new(Arc::clone(system));
                for action in trace.iter() {
                    black_box(monitor.observe(action));
                }
                observed += trace.len();
            }
        }
        observed
    });
    report.value(
        "runtime.monitor.observe_ns_per_action",
        observe_ns / observed.max(1) as f64,
    );

    let submit_ns = report.get("server.server.submit_ns").unwrap_or(0.0);
    let replayed_ns = submit_ns
        + program_ns
        + admit_ns * batch_sessions / deck
        + (batch_ns + slab_ns) / deck
        + wire_ns;
    report.value(
        "session.unattributed_share",
        1.0 - replayed_ns / (cpu_us_per_session * 1e3).max(1.0),
    );
    report.notes.push(format!(
        "replayed layers explain {:.3} us of {:.3} us CPU per session (submit {:.0} ns, program lookup {:.0} ns, admit {:.0} ns, stepping {:.0} ns, wire {:.0} ns)",
        replayed_ns / 1e3,
        cpu_us_per_session,
        submit_ns,
        program_ns,
        admit_ns * batch_sessions / deck,
        (batch_ns + slab_ns) / deck,
        wire_ns
    ));
}

/// The checkpoint and write-ahead codecs over mid-flight states of the
/// workload's sessions.
pub fn durability(report: &mut Report, tracer: &mut Tracer, host: &Hosted) {
    let mut registry = ProtocolRegistry::new();
    let id = registry.register(host.protocol.clone()).expect("registers");
    let artifacts = registry.get(id).expect("registered");
    let system = Arc::clone(artifacts.compiled());
    let mut cast: Vec<_> = host.shared.iter().collect();
    cast.sort_by(|a, b| a.0.role().cmp(b.0.role()));
    let programs: Vec<Arc<EndpointProgram>> = cast
        .iter()
        .map(|(cert, externals)| {
            artifacts
                .endpoint_program(cert.role(), cert.proc(), externals)
                .expect("benchmark endpoints lower")
        })
        .collect();
    let roles: Arc<[Role]> = cast
        .iter()
        .map(|(c, _)| c.role().clone())
        .collect::<Vec<_>>()
        .into();
    let layout = BatchLayout::new(roles, programs.clone(), Arc::clone(&system))
        .expect("the long workload is batch-eligible");
    let options = host
        .fixture
        .max_steps
        .map_or_else(ExecOptions::default, ExecOptions::with_max_steps);

    // 32 sessions stopped part-way through: one quantum of 2048 actions.
    const SESSIONS: usize = 32;
    let mut batch = SessionBatch::new(Arc::clone(&layout), options, SESSIONS);
    for token in 0..SESSIONS {
        assert!(batch.admit(token as u64));
    }
    batch.run_quantum(2048);
    let states = batch.demote_all();
    assert_eq!(states.len(), SESSIONS, "the sessions are still in flight");

    let (blobs, encode_ns) = tracer.time("replay.runtime.checkpoint.encode", || {
        states
            .iter()
            .map(|state| SessionCheckpoint::from_demoted(state).encode())
            .collect::<Vec<_>>()
    });
    let (_, decode_ns) = tracer.time("replay.runtime.checkpoint.decode_recertify", || {
        for blob in &blobs {
            let restored = SessionCheckpoint::decode(blob)
                .expect("own encoding decodes")
                .into_demoted(&programs, &system)
                .expect("own checkpoint re-validates");
            black_box(restored.endpoints.len());
        }
    });

    let indexer = WalIndexer::new(layout.programs());
    let records: Vec<_> = states
        .iter()
        .flat_map(|state| {
            let token = state.token;
            state
                .endpoints
                .iter()
                .flat_map(|endpoint| endpoint.actions.iter())
                .map(move |action| (token, action))
        })
        .map(|(token, action)| {
            indexer
                .record(token, action)
                .expect("skeleton actions columnarise")
        })
        .collect();
    let (bytes, wal_ns) = tracer.time("replay.runtime.wal.encode", || {
        encode_quantum(&records).len()
    });
    let logged = records.len().max(1) as f64;

    report.value(
        "runtime.checkpoint.encode_ns_per_session",
        encode_ns / SESSIONS as f64,
    );
    report.value(
        "runtime.checkpoint.decode_recertify_ns_per_session",
        decode_ns / SESSIONS as f64,
    );
    report.value("runtime.wal.encode_ns_per_action", wal_ns / logged);
    report.value("runtime.wal.bytes_per_action", bytes as f64 / logged);
}
