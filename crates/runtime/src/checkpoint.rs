//! Durable session checkpoints: a live session serialized through the wire
//! codec and restored under re-validation.
//!
//! A compiled session is a tiny resumable value — per-role program counter
//! and slot array, the monitor's [`MonitorCursor`] position, and the frames
//! still in flight — and the batch plane already extracts exactly that
//! shape when it demotes a straggler ([`DemotedSession`]). This module
//! makes that shape *durable*: [`SessionCheckpoint::from_demoted`] captures
//! it, [`SessionCheckpoint::encode`]/[`SessionCheckpoint::decode`] move it
//! through the same self-describing binary codec the wire uses
//! ([`crate::codec`]), and [`SessionCheckpoint::into_demoted`] rebuilds a
//! `DemotedSession` that [`CompiledEndpointTask::resume`] and
//! [`CompiledMonitor::resume`] continue exactly where the checkpoint was
//! taken.
//!
//! Restoration is a trust boundary, not a deserializer: every index in the
//! checkpoint — program counters, slot counts, monitor states, queued
//! message ids, frame endpoints — is validated against the compiled
//! programs and transition tables it claims to resume
//! ([`zooid_cfsm::CompiledSystem::restore_cursor`] does the cursor half).
//! Bytes that decode but describe a state the protocol's tables do not
//! admit are refused with [`RuntimeError::Recovery`]; a corrupted or
//! hostile checkpoint never becomes a running session. Names are checked
//! even earlier: decoding looks every role and label up in the process-wide
//! name table ([`Role::lookup`]) and refuses one no code made with
//! [`RuntimeError::Codec`], so a checkpoint cannot grow that table.
//!
//! [`MonitorCursor`]: zooid_cfsm::MonitorCursor

use std::collections::VecDeque;
use std::sync::Arc;

use zooid_cfsm::CompiledSystem;
use zooid_mpst::common::intern::MsgId;
use zooid_mpst::{Action, Label, Role, Sort, Trace};
use zooid_proc::{Value, ValueAction};

use crate::cbatch::{DemotedEndpoint, DemotedSession};
use crate::cexec::{CompiledEndpointTask, EndpointProgram};
use crate::codec::{
    descend, get_label, get_role, get_str, get_u32, get_u64, get_u8, get_value, put_str, put_u32,
    put_u64, put_u8, put_value, MAX_NESTING,
};
use crate::error::{Result, RuntimeError};
use crate::exec::{EndpointStatus, ExecOptions};
use crate::monitor::{CompiledMonitor, MonitorViolation};

/// Format magic leading every encoded checkpoint (`"ZCKP"`).
const MAGIC: u32 = 0x5A43_4B50;
/// Format version; bumped on any incompatible layout change.
const VERSION: u8 = 1;

/// One endpoint's serialized execution state.
#[derive(Debug, Clone, PartialEq)]
struct EndpointState {
    role: Role,
    pc: u32,
    slots: Vec<Value>,
    actions: Vec<ValueAction>,
    steps: u64,
    status: Option<EndpointStatus>,
}

/// A serializable snapshot of one live session: everything
/// [`CompiledEndpointTask::resume`] and [`CompiledMonitor::resume`] need to
/// continue it, in a form the codec can move to disk or across the wire.
///
/// The compiled programs themselves are **not** part of a checkpoint — they
/// are code, shared and cached per protocol, and the restoring side supplies
/// them to [`SessionCheckpoint::into_demoted`] (which verifies the
/// checkpoint actually fits them).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    token: u64,
    max_steps: Option<u64>,
    record_actions: bool,
    endpoints: Vec<EndpointState>,
    /// Monitor cursor: machine states in machine order.
    states: Vec<u32>,
    /// Monitor cursor: queued interned message ids per dense channel.
    queues: Vec<Vec<u32>>,
    trace: Vec<Action>,
    violations: Vec<(Action, u64, u64)>,
    accepted: u64,
    observed: u64,
    record_trace: bool,
    /// In-flight frames as `(from, to, label, value)` role indices, in
    /// per-channel delivery order.
    frames: Vec<(u32, u32, Label, Value)>,
}

impl SessionCheckpoint {
    /// Captures a demoted session's full resumable state. This is the one
    /// construction path: both the slab executor (via
    /// [`checkpoint_task`]-built [`DemotedSession`]s) and the columnar batch
    /// plane (via
    /// [`SessionBatch::demote_now`](crate::cbatch::SessionBatch::demote_now))
    /// produce `DemotedSession`s, so one capture covers both execution
    /// paths.
    pub fn from_demoted(demoted: &DemotedSession) -> Self {
        let monitor = &demoted.monitor;
        let cursor = monitor.cursor();
        SessionCheckpoint {
            token: demoted.token,
            max_steps: demoted.options.max_steps.map(|n| n as u64),
            record_actions: demoted.options.record_actions,
            endpoints: demoted
                .endpoints
                .iter()
                .map(|ep| EndpointState {
                    role: ep.role.clone(),
                    pc: ep.pc,
                    slots: ep.slots.clone(),
                    actions: ep.actions.clone(),
                    steps: ep.steps as u64,
                    status: ep.status.clone(),
                })
                .collect(),
            states: cursor.states().to_vec(),
            queues: cursor
                .queues()
                .iter()
                .map(|q| q.iter().map(|m| m.index() as u32).collect())
                .collect(),
            trace: monitor.trace().iter().cloned().collect(),
            violations: monitor
                .violations()
                .iter()
                .map(|v| (v.action.clone(), v.position as u64, v.trace_len as u64))
                .collect(),
            accepted: monitor.accepted() as u64,
            observed: monitor.observed() as u64,
            record_trace: monitor.records_trace(),
            frames: demoted.frames.clone(),
        }
    }

    /// The caller-supplied session token the checkpoint carries.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The roles of the checkpointed endpoints, in checkpoint order.
    pub fn roles(&self) -> impl Iterator<Item = &Role> {
        self.endpoints.iter().map(|ep| &ep.role)
    }

    /// Serializes the checkpoint with the wire codec: one-byte tags,
    /// big-endian integers, length-prefixed strings.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, MAGIC);
        put_u8(&mut buf, VERSION);
        put_u64(&mut buf, self.token);
        put_opt_u64(&mut buf, self.max_steps);
        put_u8(&mut buf, u8::from(self.record_actions));
        put_u32(&mut buf, self.endpoints.len() as u32);
        for ep in &self.endpoints {
            put_str(&mut buf, ep.role.name());
            put_u32(&mut buf, ep.pc);
            put_u32(&mut buf, ep.slots.len() as u32);
            for slot in &ep.slots {
                put_value(&mut buf, slot);
            }
            put_u32(&mut buf, ep.actions.len() as u32);
            for action in &ep.actions {
                put_value_action(&mut buf, action);
            }
            put_u64(&mut buf, ep.steps);
            put_status(&mut buf, ep.status.as_ref());
        }
        put_u32(&mut buf, self.states.len() as u32);
        for &s in &self.states {
            put_u32(&mut buf, s);
        }
        put_u32(&mut buf, self.queues.len() as u32);
        for queue in &self.queues {
            put_u32(&mut buf, queue.len() as u32);
            for &m in queue {
                put_u32(&mut buf, m);
            }
        }
        put_u32(&mut buf, self.trace.len() as u32);
        for action in &self.trace {
            put_action(&mut buf, action);
        }
        put_u32(&mut buf, self.violations.len() as u32);
        for (action, position, trace_len) in &self.violations {
            put_action(&mut buf, action);
            put_u64(&mut buf, *position);
            put_u64(&mut buf, *trace_len);
        }
        put_u64(&mut buf, self.accepted);
        put_u64(&mut buf, self.observed);
        put_u8(&mut buf, u8::from(self.record_trace));
        put_u32(&mut buf, self.frames.len() as u32);
        for (from, to, label, value) in &self.frames {
            put_u32(&mut buf, *from);
            put_u32(&mut buf, *to);
            put_str(&mut buf, label.name());
            put_value(&mut buf, value);
        }
        buf
    }

    /// Decodes a checkpoint.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Codec`] on truncated or malformed input, including
    /// trailing bytes — the checkpoint codec inherits the wire codec's
    /// strictness — and on a role or label name no code in this process
    /// made: every name (endpoint roles, recorded actions, the monitor's
    /// trace and violations, in-flight frame labels) is looked up in the
    /// process-wide name table, never entered into it.
    pub fn decode(mut bytes: &[u8]) -> Result<Self> {
        let bytes = &mut bytes;
        if get_u32(bytes)? != MAGIC {
            return Err(RuntimeError::Codec {
                reason: "not a session checkpoint (bad magic)".to_owned(),
            });
        }
        let version = get_u8(bytes)?;
        if version != VERSION {
            return Err(RuntimeError::Codec {
                reason: format!("unsupported checkpoint version {version}"),
            });
        }
        let token = get_u64(bytes)?;
        let max_steps = get_opt_u64(bytes)?;
        let record_actions = get_bool(bytes)?;
        let n = get_u32(bytes)? as usize;
        let mut endpoints = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let role = get_role(bytes)?;
            let pc = get_u32(bytes)?;
            let slot_count = get_u32(bytes)? as usize;
            let mut slots = Vec::with_capacity(slot_count.min(1024));
            for _ in 0..slot_count {
                slots.push(get_value(bytes)?);
            }
            let action_count = get_u32(bytes)? as usize;
            let mut actions = Vec::with_capacity(action_count.min(1024));
            for _ in 0..action_count {
                actions.push(get_value_action(bytes)?);
            }
            let steps = get_u64(bytes)?;
            let status = get_status(bytes)?;
            endpoints.push(EndpointState {
                role,
                pc,
                slots,
                actions,
                steps,
                status,
            });
        }
        let state_count = get_u32(bytes)? as usize;
        let mut states = Vec::with_capacity(state_count.min(1024));
        for _ in 0..state_count {
            states.push(get_u32(bytes)?);
        }
        let queue_count = get_u32(bytes)? as usize;
        let mut queues = Vec::with_capacity(queue_count.min(1024));
        for _ in 0..queue_count {
            let len = get_u32(bytes)? as usize;
            let mut queue = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                queue.push(get_u32(bytes)?);
            }
            queues.push(queue);
        }
        let trace_len = get_u32(bytes)? as usize;
        let mut trace = Vec::with_capacity(trace_len.min(1024));
        for _ in 0..trace_len {
            trace.push(get_action(bytes)?);
        }
        let violation_count = get_u32(bytes)? as usize;
        let mut violations = Vec::with_capacity(violation_count.min(1024));
        for _ in 0..violation_count {
            let action = get_action(bytes)?;
            let position = get_u64(bytes)?;
            let trace_len = get_u64(bytes)?;
            violations.push((action, position, trace_len));
        }
        let accepted = get_u64(bytes)?;
        let observed = get_u64(bytes)?;
        let record_trace = get_bool(bytes)?;
        let frame_count = get_u32(bytes)? as usize;
        let mut frames = Vec::with_capacity(frame_count.min(1024));
        for _ in 0..frame_count {
            let from = get_u32(bytes)?;
            let to = get_u32(bytes)?;
            let label = get_label(bytes)?;
            let value = get_value(bytes)?;
            frames.push((from, to, label, value));
        }
        if !bytes.is_empty() {
            return Err(RuntimeError::Codec {
                reason: format!("{} trailing bytes after the checkpoint", bytes.len()),
            });
        }
        Ok(SessionCheckpoint {
            token,
            max_steps,
            record_actions,
            endpoints,
            states,
            queues,
            trace,
            violations,
            accepted,
            observed,
            record_trace,
            frames,
        })
    }

    /// Rebuilds the resumable session, re-validating every piece of the
    /// checkpoint against the compiled programs (one per endpoint, in
    /// checkpoint role order) and the protocol's compiled transition tables.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Recovery`] when the checkpoint does not fit the
    /// supplied programs and system: wrong role set, a program counter or
    /// slot array the program does not have, a monitor cursor the tables
    /// refuse ([`CompiledSystem::restore_cursor`]), inconsistent monitor
    /// counters, or frames between roles the session does not contain.
    pub fn into_demoted(
        self,
        programs: &[Arc<EndpointProgram>],
        system: &Arc<CompiledSystem>,
    ) -> Result<DemotedSession> {
        let refuse = |reason: String| Err(RuntimeError::Recovery { reason });
        if programs.len() != self.endpoints.len() {
            return refuse(format!(
                "checkpoint has {} endpoints but the protocol compiles {} programs",
                self.endpoints.len(),
                programs.len()
            ));
        }
        let n = self.endpoints.len() as u32;
        let mut endpoints = Vec::with_capacity(self.endpoints.len());
        for (ep, program) in self.endpoints.into_iter().zip(programs) {
            let compiled = program.program();
            if compiled.role() != &ep.role {
                return refuse(format!(
                    "checkpoint role `{}` does not match program role `{}`",
                    ep.role,
                    compiled.role()
                ));
            }
            if ep.pc as usize >= compiled.instrs().len() {
                return refuse(format!(
                    "program counter {} is outside `{}`'s instruction table",
                    ep.pc, ep.role
                ));
            }
            if ep.slots.len() != compiled.slot_count() {
                return refuse(format!(
                    "`{}` carries {} slots but its program declares {}",
                    ep.role,
                    ep.slots.len(),
                    compiled.slot_count()
                ));
            }
            endpoints.push(DemotedEndpoint {
                role: ep.role,
                program: Arc::clone(program),
                pc: ep.pc,
                slots: ep.slots,
                actions: ep.actions,
                steps: ep.steps as usize,
                status: ep.status,
            });
        }
        let queues: Vec<VecDeque<MsgId>> = self
            .queues
            .iter()
            .map(|q| {
                q.iter()
                    .map(|&m| MsgId::from_index(m as usize).expect("u32 index fits"))
                    .collect()
            })
            .collect();
        let Some(cursor) = system.restore_cursor(self.states, queues) else {
            return refuse(
                "monitor cursor does not fit the protocol's compiled tables".to_owned(),
            );
        };
        if self.accepted > self.observed {
            return refuse(format!(
                "monitor claims {} accepted actions out of {} observed",
                self.accepted, self.observed
            ));
        }
        if self.accepted + self.violations.len() as u64 != self.observed {
            return refuse(
                "monitor counters disagree with the recorded violations".to_owned(),
            );
        }
        for (from, to, _, _) in &self.frames {
            if *from >= n || *to >= n || from == to {
                return refuse(format!(
                    "in-flight frame between role indices {from} and {to} of {n} roles"
                ));
            }
        }
        let violations = self
            .violations
            .into_iter()
            .map(|(action, position, trace_len)| MonitorViolation {
                action,
                position: position as usize,
                trace_len: trace_len as usize,
            })
            .collect();
        let monitor = CompiledMonitor::resume(
            Arc::clone(system),
            cursor,
            Trace::new(self.trace),
            self.accepted as usize,
            violations,
            self.observed as usize,
            self.record_trace,
        );
        Ok(DemotedSession {
            token: self.token,
            options: ExecOptions {
                max_steps: self.max_steps.map(|n| n as usize),
                record_actions: self.record_actions,
            },
            endpoints,
            monitor,
            frames: self.frames,
        })
    }
}

/// Extracts one slab task's resumable state (the checkpoint counterpart of
/// what [`SessionBatch`](crate::cbatch::SessionBatch) extracts when it
/// demotes a session): the task keeps running, the extraction only clones.
pub fn checkpoint_task(task: &CompiledEndpointTask) -> DemotedEndpoint {
    DemotedEndpoint {
        role: task.role().clone(),
        program: Arc::clone(task.program()),
        pc: task.pc(),
        slots: task.slots().to_vec(),
        actions: task.actions().to_vec(),
        steps: task.steps(),
        status: task.status().cloned(),
    }
}

// ---------------------------------------------------------------------
// Sub-codecs shared with the write-ahead log
// ---------------------------------------------------------------------

const SORT_UNIT: u8 = 0;
const SORT_NAT: u8 = 1;
const SORT_INT: u8 = 2;
const SORT_BOOL: u8 = 3;
const SORT_STR: u8 = 4;
const SORT_SUM: u8 = 5;
const SORT_PROD: u8 = 6;
const SORT_SEQ: u8 = 7;

pub(crate) fn put_sort(buf: &mut Vec<u8>, sort: &Sort) {
    match sort {
        Sort::Unit => put_u8(buf, SORT_UNIT),
        Sort::Nat => put_u8(buf, SORT_NAT),
        Sort::Int => put_u8(buf, SORT_INT),
        Sort::Bool => put_u8(buf, SORT_BOOL),
        Sort::Str => put_u8(buf, SORT_STR),
        Sort::Sum(a, b) => {
            put_u8(buf, SORT_SUM);
            put_sort(buf, a);
            put_sort(buf, b);
        }
        Sort::Prod(a, b) => {
            put_u8(buf, SORT_PROD);
            put_sort(buf, a);
            put_sort(buf, b);
        }
        Sort::Seq(inner) => {
            put_u8(buf, SORT_SEQ);
            put_sort(buf, inner);
        }
    }
}

pub(crate) fn get_sort(bytes: &mut &[u8]) -> Result<Sort> {
    sort_within(bytes, MAX_NESTING)
}

/// Decodes a sort with at most `room` constructors around any base sort
/// (the value decoder's cap: see [`MAX_NESTING`]).
fn sort_within(bytes: &mut &[u8], room: usize) -> Result<Sort> {
    let tag = get_u8(bytes)?;
    Ok(match tag {
        SORT_UNIT => Sort::Unit,
        SORT_NAT => Sort::Nat,
        SORT_INT => Sort::Int,
        SORT_BOOL => Sort::Bool,
        SORT_STR => Sort::Str,
        SORT_SUM | SORT_PROD | SORT_SEQ => {
            let room = descend(room, "sort")?;
            let first = Box::new(sort_within(bytes, room)?);
            match tag {
                SORT_SEQ => Sort::Seq(first),
                SORT_SUM => Sort::Sum(first, Box::new(sort_within(bytes, room)?)),
                _ => Sort::Prod(first, Box::new(sort_within(bytes, room)?)),
            }
        }
        other => {
            return Err(RuntimeError::Codec {
                reason: format!("unknown sort tag {other}"),
            })
        }
    })
}

pub(crate) fn put_action(buf: &mut Vec<u8>, action: &Action) {
    put_u8(buf, u8::from(action.is_send()));
    put_str(buf, action.from().name());
    put_str(buf, action.to().name());
    put_str(buf, action.label().name());
    put_sort(buf, action.sort());
}

pub(crate) fn get_action(bytes: &mut &[u8]) -> Result<Action> {
    let is_send = get_bool(bytes)?;
    let from = get_role(bytes)?;
    let to = get_role(bytes)?;
    let label = get_label(bytes)?;
    let sort = get_sort(bytes)?;
    Ok(if is_send {
        Action::send(from, to, label, sort)
    } else {
        Action::recv(to, from, label, sort)
    })
}

pub(crate) fn put_value_action(buf: &mut Vec<u8>, action: &ValueAction) {
    put_u8(buf, u8::from(action.is_send));
    put_str(buf, action.from.name());
    put_str(buf, action.to.name());
    put_str(buf, action.label.name());
    put_sort(buf, &action.sort);
    put_value(buf, &action.value);
}

pub(crate) fn get_value_action(bytes: &mut &[u8]) -> Result<ValueAction> {
    let is_send = get_bool(bytes)?;
    let from = get_role(bytes)?;
    let to = get_role(bytes)?;
    let label = get_label(bytes)?;
    let sort = get_sort(bytes)?;
    let value = get_value(bytes)?;
    Ok(if is_send {
        ValueAction::send(from, to, label, sort, value)
    } else {
        ValueAction::recv(to, from, label, sort, value)
    })
}

const STATUS_RUNNING: u8 = 0;
const STATUS_FINISHED: u8 = 1;
const STATUS_STEP_LIMIT: u8 = 2;
const STATUS_STALLED: u8 = 3;
const STATUS_FAILED: u8 = 4;

fn put_status(buf: &mut Vec<u8>, status: Option<&EndpointStatus>) {
    match status {
        None => put_u8(buf, STATUS_RUNNING),
        Some(EndpointStatus::Finished) => put_u8(buf, STATUS_FINISHED),
        Some(EndpointStatus::StepLimitReached) => put_u8(buf, STATUS_STEP_LIMIT),
        Some(EndpointStatus::Stalled) => put_u8(buf, STATUS_STALLED),
        Some(EndpointStatus::Failed { error }) => {
            put_u8(buf, STATUS_FAILED);
            put_str(buf, error);
        }
    }
}

fn get_status(bytes: &mut &[u8]) -> Result<Option<EndpointStatus>> {
    Ok(match get_u8(bytes)? {
        STATUS_RUNNING => None,
        STATUS_FINISHED => Some(EndpointStatus::Finished),
        STATUS_STEP_LIMIT => Some(EndpointStatus::StepLimitReached),
        STATUS_STALLED => Some(EndpointStatus::Stalled),
        STATUS_FAILED => Some(EndpointStatus::Failed {
            error: get_str(bytes)?,
        }),
        other => {
            return Err(RuntimeError::Codec {
                reason: format!("unknown status tag {other}"),
            })
        }
    })
}

fn put_opt_u64(buf: &mut Vec<u8>, value: Option<u64>) {
    match value {
        None => put_u8(buf, 0),
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
    }
}

fn get_opt_u64(bytes: &mut &[u8]) -> Result<Option<u64>> {
    match get_u8(bytes)? {
        0 => Ok(None),
        1 => Ok(Some(get_u64(bytes)?)),
        other => Err(RuntimeError::Codec {
            reason: format!("unknown option tag {other}"),
        }),
    }
}

fn get_bool(bytes: &mut &[u8]) -> Result<bool> {
    match get_u8(bytes)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(RuntimeError::Codec {
            reason: format!("unknown boolean tag {other}"),
        }),
    }
}
