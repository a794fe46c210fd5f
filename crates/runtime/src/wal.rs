//! A write-only columnar encoding of logged actions, which the benchmark's
//! layer replay times.
//!
//! A logged action is two parts, split exactly like the batch plane splits
//! a session population: the **skeleton** — which session, which role,
//! which pre-compiled communication *site* (the per-program
//! [`ActionTemplate`](crate::cexec::ActionTemplate) id) — is three dense
//! integers, while the **variables** — the payload values — are the only
//! self-describing bytes. [`encode_quantum`] writes a quantum's skeleton
//! column first and its value column after it, so the fixed-width ids pack
//! contiguously and a record spells no name at all.
//!
//! There is no log file, no scan and no recovery: no serving path writes a
//! trace log, and a session interrupted for good is re-run from its cast. A
//! log of the externals' results (the ROADMAP's input log) is meant to
//! replace this module.

use std::sync::Arc;

use zooid_mpst::common::intern::FxHashMap;
use zooid_mpst::{Label, Role};
use zooid_proc::{Value, ValueAction};

use crate::cexec::EndpointProgram;
use crate::codec::{put_u16, put_u32, put_u64, put_value};

/// One logged action: the columnar skeleton (`session`, `role`, `event`)
/// plus the payload value. `role` is the index of the acting role in the
/// protocol's sorted role table; `event` is the per-program
/// [`ActionTemplate`](crate::cexec::ActionTemplate) id of the communication
/// site — together they name the action's direction, peer, label and sort
/// without serializing any of them.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The session the action belongs to.
    pub session: u64,
    /// Index of the acting role in the protocol's sorted role table.
    pub role: u16,
    /// The acting role's per-program event (template) id.
    pub event: u32,
    /// The payload value.
    pub value: Value,
}

/// Maps [`ValueAction`]s to columnar [`WalRecord`]s for one protocol's
/// compiled per-role programs.
///
/// Only sites the compiled data plane pre-resolved (an interned
/// [`ActionTemplate`](crate::cexec::ActionTemplate) per event) are
/// indexable — which is exactly the serving plane's steady state.
#[derive(Debug)]
pub struct WalIndexer {
    roles: Vec<Role>,
    /// Per role: `(is_send, peer, label) → event id`.
    sites: Vec<FxHashMap<(bool, Role, Label), u32>>,
}

impl WalIndexer {
    /// Builds the site index for one program per role (in the protocol's
    /// sorted role order — the same order checkpoints and batches use).
    pub fn new(programs: &[Arc<EndpointProgram>]) -> Self {
        let roles = programs
            .iter()
            .map(|p| p.program().role().clone())
            .collect();
        let sites = programs
            .iter()
            .map(|program| {
                let events = program.program().events();
                program
                    .templates()
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        (
                            (events[i].is_send, t.peer.clone(), t.label.clone()),
                            i as u32,
                        )
                    })
                    .collect()
            })
            .collect();
        WalIndexer { roles, sites }
    }

    /// Columnarizes one action: resolves its subject to a role index and
    /// its `(direction, peer, label)` site to the per-program event id.
    /// `None` when the subject or site is unknown to the compiled programs
    /// (e.g. a tree-walking endpoint) — such actions cannot be logged
    /// skeleton-style.
    pub fn record(&self, session: u64, action: &ValueAction) -> Option<WalRecord> {
        let subject = action.subject();
        let role = self.roles.iter().position(|r| r == subject)?;
        let peer = if action.is_send {
            &action.to
        } else {
            &action.from
        };
        let event = *self.sites[role].get(&(action.is_send, peer.clone(), action.label.clone()))?;
        Some(WalRecord {
            session,
            role: u16::try_from(role).ok()?,
            event,
            value: action.value.clone(),
        })
    }
}

/// Encodes one quantum's records columnar-style: count, then the skeleton
/// column (fixed-width `session`/`role`/`event` ids, contiguous), then the
/// value column.
pub fn encode_quantum(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, records.len() as u32);
    for record in records {
        put_u64(&mut buf, record.session);
        put_u16(&mut buf, record.role);
        put_u32(&mut buf, record.event);
    }
    for record in records {
        put_value(&mut buf, &record.value);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbatch::{BatchLayout, SessionBatch};
    use crate::exec::ExecOptions;
    use zooid_cfsm::System;
    use zooid_dsl::synth::skeleton_procs;
    use zooid_mpst::global::GlobalType;
    use zooid_mpst::generators;
    use zooid_proc::{CompiledProc, Externals};

    /// Runs one skeleton session of `g` in a batch; returns its programs
    /// and every action it performed.
    fn skeleton_run(g: &GlobalType) -> (Vec<Arc<EndpointProgram>>, Vec<ValueAction>) {
        let system = Arc::new(System::from_global(g).unwrap().compile());
        let mut procs = skeleton_procs(g).expect("the skeleton synthesizes");
        procs.sort_by(|a, b| a.0.cmp(&b.0));
        let programs: Vec<_> = procs
            .iter()
            .map(|(role, proc)| {
                let compiled = CompiledProc::compile(proc, role, &Externals::new()).unwrap();
                Arc::new(EndpointProgram::with_system(Arc::new(compiled), &system))
            })
            .collect();
        let roles = procs.into_iter().map(|(role, _)| role).collect();
        let layout = BatchLayout::new(roles, programs.clone(), system).unwrap();
        let mut batch = SessionBatch::new(layout, ExecOptions::default(), 1);
        assert!(batch.admit(7));
        let outcome = batch
            .run_quantum(1024)
            .finished
            .pop()
            .expect("the session closes");
        assert!(outcome.compliant && outcome.complete);
        let actions = outcome
            .endpoints
            .into_iter()
            .flat_map(|e| e.actions)
            .collect();
        (programs, actions)
    }

    /// `record` columnarises every action a skeleton run performs and
    /// refuses a subject outside the programs, and `encode_quantum` writes
    /// a count, 14 bytes of skeleton per record, then the payloads.
    #[test]
    fn records_columnarise_a_skeleton_run_and_encode_to_their_skeleton_and_payloads() {
        for g in [generators::ring3(), generators::two_buyer()] {
            let (programs, actions) = skeleton_run(&g);
            assert!(!actions.is_empty());
            let indexer = WalIndexer::new(&programs);
            let records: Vec<WalRecord> = actions
                .iter()
                .map(|action| {
                    indexer
                        .record(3, action)
                        .expect("every skeleton action indexes")
                })
                .collect();
            for (record, action) in records.iter().zip(&actions) {
                let program = &programs[record.role as usize];
                assert_eq!(program.program().role(), action.subject());
                let template = &program.templates()[record.event as usize];
                let peer = if action.is_send {
                    &action.to
                } else {
                    &action.from
                };
                assert_eq!((&template.peer, &template.label), (peer, &action.label));
                assert_eq!((record.session, &record.value), (3, &action.value));
            }

            let mut stranger = actions[0].clone();
            if stranger.is_send {
                stranger.from = Role::new("stranger");
            } else {
                stranger.to = Role::new("stranger");
            }
            assert_eq!(indexer.record(3, &stranger), None);

            let mut payloads = Vec::new();
            for record in &records {
                put_value(&mut payloads, &record.value);
            }
            assert_eq!(
                encode_quantum(&records).len(),
                4 + 14 * records.len() + payloads.len()
            );
        }
    }
}
