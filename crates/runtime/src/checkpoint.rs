//! Durable session checkpoints: a live session serialized through the wire
//! codec and restored under re-validation.
//!
//! A compiled session is a tiny resumable value — per-role program counter
//! and slot array, the monitor's [`MonitorCursor`] position, and the frames
//! still in flight — and the batch plane already extracts exactly that
//! shape when it takes a session out ([`DemotedSession`]). This module
//! makes that shape *durable*: [`SessionCheckpoint::from_demoted`] captures
//! it, [`SessionCheckpoint::encode`]/[`SessionCheckpoint::decode`] move it
//! through the same self-describing binary codec the wire uses
//! ([`crate::codec`]), and [`SessionCheckpoint::into_demoted`] rebuilds a
//! `DemotedSession` that the per-session executor
//! ([`CompiledEndpointTask::resume`](crate::cexec::CompiledEndpointTask::resume),
//! one task per endpoint) continues exactly where the checkpoint was taken.
//!
//! Restoration is a trust boundary, not a deserializer: every index in the
//! checkpoint — program counters, slot counts, monitor states, queued
//! message ids, frame endpoints and labels — is validated against the compiled
//! programs and transition tables it claims to resume
//! ([`zooid_cfsm::CompiledSystem::restore_cursor`] does the cursor half),
//! and the recorded compliant trace is replayed from the initial cursor and
//! must end on the checkpoint's. A checkpoint that carries a violation is
//! refused outright: a live session has none, because its batch closes it
//! at the pass that saw one. The in-flight frames must agree with the
//! cursor, because the batch arena is the monitor's queue: on every
//! channel the frames are the cursor's queued messages, as many, with the
//! same labels, in the same order. Bytes that decode but describe a state the
//! protocol's tables do not admit are refused with
//! [`RuntimeError::Recovery`]; a corrupted or hostile checkpoint never
//! becomes a running session. Names are checked even earlier: decoding
//! looks every role and label up in the process-wide name table
//! ([`Role::lookup`]) and refuses one no code made with
//! [`RuntimeError::Codec`], so a checkpoint cannot grow that table.
//!
//! This is an oracle module, beside [`crate::wal`]: no serving path takes a
//! checkpoint, and `zooid-server` does not link this crate. A closed
//! certified session is a deterministic function of its cast (Theorem 4.7
//! and per-pair FIFO delivery), so a session interrupted for good is re-run,
//! not resumed; the checkpoint is how the durability suites check that the
//! batch's extraction loses nothing.
//!
//! [`MonitorCursor`]: zooid_cfsm::MonitorCursor

use std::collections::VecDeque;
use std::sync::Arc;

use zooid_cfsm::CompiledSystem;
use zooid_mpst::common::intern::MsgId;
use zooid_mpst::{Action, Label, Role, Trace};
use zooid_proc::{Value, ValueAction};

use zooid_engine::cbatch::{DemotedEndpoint, DemotedSession};
use zooid_engine::codec::{
    get_action, get_bool, get_label, get_role, get_str, get_u32, get_u64, get_u8, get_value,
    get_value_action, put_action, put_str, put_u32, put_u64, put_u8, put_value, put_value_action,
};
use zooid_engine::error::{Result, RuntimeError};
use zooid_engine::monitor::CompiledMonitor;
use zooid_engine::program::EndpointProgram;
use zooid_engine::report::{EndpointStatus, ExecOptions};

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

/// A serializable snapshot of one live session: everything the per-session
/// executor needs to continue it, in a form the codec can move to disk or
/// across the wire.
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
    /// Captures a demoted session's full resumable state, as
    /// [`SessionBatch::demote_all`](crate::cbatch::SessionBatch::demote_all)
    /// extracts it.
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
    /// refuse ([`CompiledSystem::restore_cursor`]), a recorded violation (a
    /// live session has none), inconsistent monitor counters, a compliant
    /// trace that does not replay from the initial cursor to the
    /// checkpoint's (or any trace when recording was off), frames between
    /// roles the session does not contain or with a label no communication
    /// site of the programs has, or frames that disagree with the cursor:
    /// per channel, the frames and the cursor's queued messages must be
    /// equally many, with the same labels in the same order.
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
        // A live session carries no violation: its batch closes it at the
        // pass that saw one, so only a compliant session is ever taken out.
        if !self.violations.is_empty() {
            return refuse(format!(
                "checkpoint carries {} monitor violations, and a live session carries none",
                self.violations.len()
            ));
        }
        if self.accepted != self.observed {
            return refuse(format!(
                "monitor claims {} accepted actions out of {} observed",
                self.accepted, self.observed
            ));
        }
        // The compliant trace is re-certified, not trusted: replayed from the
        // initial cursor, every action must be accepted and the replay must
        // end on the checkpoint's cursor. Without trace recording there is
        // nothing to replay, and there must be no trace either.
        if self.record_trace {
            if self.trace.len() as u64 != self.accepted {
                return refuse(format!(
                    "compliant trace holds {} actions but the monitor accepted {}",
                    self.trace.len(),
                    self.accepted
                ));
            }
            let mut replay = system.monitor_cursor();
            if let Some(n) = self
                .trace
                .iter()
                .position(|a| !system.observe(&mut replay, a))
            {
                return refuse(format!(
                    "compliant trace action {n} ({}) is not allowed where it stands",
                    self.trace[n]
                ));
            }
            if replay != cursor {
                return refuse(
                    "compliant trace does not end on the checkpoint's monitor cursor".to_owned(),
                );
            }
        } else if !self.trace.is_empty() {
            return refuse(format!(
                "checkpoint records no trace but carries {} trace actions",
                self.trace.len()
            ));
        }
        for (from, to, label, _) in &self.frames {
            if *from >= n || *to >= n || from == to {
                return refuse(format!(
                    "in-flight frame between role indices {from} and {to} of {n} roles"
                ));
            }
            let sites = programs.iter().flat_map(|p| p.templates());
            if !sites.map(|site| &site.label).any(|l| l == label) {
                return refuse(format!(
                    "in-flight frame carries `{label}`, a label no program communicates"
                ));
            }
        }
        // The batch arena is the monitor's queue: the frames on a channel
        // are the messages the cursor queues there, in the same order.
        let role = |i: u32| programs[i as usize].program().role();
        let mut queued: Vec<VecDeque<MsgId>> = cursor.queues().to_vec();
        for (from, to, label, _) in &self.frames {
            let head = system
                .channel(role(*from), role(*to))
                .and_then(|ch| queued[ch].pop_front());
            if head.is_none_or(|msg| system.message_label(msg) != label) {
                return refuse(format!(
                    "in-flight frame `{label}` from `{}` to `{}` is not the message the \
                     monitor queues next on that channel",
                    role(*from),
                    role(*to)
                ));
            }
        }
        if let Some(ch) = queued.iter().position(|q| !q.is_empty()) {
            return refuse(format!(
                "the monitor queues {} messages on channel {ch} that no in-flight frame carries",
                queued[ch].len()
            ));
        }
        let monitor = CompiledMonitor::resume(
            Arc::clone(system),
            cursor,
            Trace::new(self.trace),
            self.accepted as usize,
            Vec::new(),
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
