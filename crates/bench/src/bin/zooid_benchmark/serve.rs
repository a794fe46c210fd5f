//! The in-memory serving workloads (`mem_short`, `mem_long`, `mem_mixed`):
//! one driver thread in front of a `SessionServer`, a closed-loop phase for
//! throughput and CPU, an open-loop phase for latency, and the gate that
//! checks every outcome against its class.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zooid_dsl::Protocol;
use zooid_mpst::Role;
use zooid_runtime::{EndpointStatus, ExecOptions, SessionHarness};
use zooid_server::obs::bucket_bounds;
use zooid_server::synth::byzantine_driver;
use zooid_server::{
    ByzantineMutation, ExpectedClass, HistogramSnapshot, ProtocolId, ProtocolRegistry,
    ServerConfig, ServerReport, SessionOutcome, SessionServer, SessionSpec,
};

use crate::fixtures::{Cast, Ending, Fixture, SharedCast, LONG_ACTIONS, LONG_STEPS};
use crate::procstat;
use crate::replay;
use crate::rng::SplitMix64;
use crate::stats::{
    highest_supported_percentile, lost_share, percentile, percentile_sorted, Summary,
};
use crate::trace::Tracer;
use crate::workloads::{
    arrivals, whole_decks, Card, Dealer, Gate, Kind, MemPlan, Report, RunArgs, HARNESS_SAMPLE_MAX,
    HARNESS_SAMPLE_PERCENT, SHARDS, TRACE_PAIRS,
};

/// How long the driver waits for an outcome before it calls the session
/// lost.
const OUTCOME_TIMEOUT: Duration = Duration::from_secs(30);
/// Receive timeout of the harness re-runs: the blocked tail of a
/// step-bounded session waits this long before the harness gives up on it.
const HARNESS_RECV_TIMEOUT: Duration = Duration::from_millis(50);

/// One protocol, registered and cast.
#[derive(Debug)]
pub struct Hosted {
    pub fixture: Fixture,
    pub protocol: Protocol,
    pub id: ProtocolId,
    pub shared: SharedCast,
    /// The byzantine casts that apply to the protocol, in
    /// `ByzantineMutation::all()` order; empty unless the deck holds
    /// byzantine cards for it.
    pub byzantine: Vec<(ByzantineMutation, SharedCast)>,
}

/// Registers and certifies a plan's protocols: the set-up a serving
/// deployment pays before its first session.
pub fn host(plan: &MemPlan) -> (ProtocolRegistry, Vec<Hosted>) {
    let mut registry = ProtocolRegistry::new();
    let hosted = plan
        .fixtures
        .iter()
        .enumerate()
        .map(|(index, fixture)| {
            let protocol = fixture.protocol();
            let id = registry
                .register(protocol.clone())
                .expect("benchmark protocols register");
            let cast: Cast = fixture.cast(&protocol);
            let wants_byzantine = plan
                .deck
                .iter()
                .any(|c| c.fixture == index && c.kind == Kind::Byzantine);
            let byzantine = if wants_byzantine {
                ByzantineMutation::all()
                    .into_iter()
                    .filter_map(|mutation| {
                        byzantine_driver(&protocol, mutation)
                            .expect("byzantine casts certify")
                            .map(|driver| (mutation, driver.endpoints.into()))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            Hosted {
                fixture: fixture.clone(),
                protocol,
                id,
                shared: cast.into(),
                byzantine,
            }
        })
        .collect();
    (registry, hosted)
}

/// What a submitted session must turn out to be.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    card: Card,
    /// Index into `Hosted::byzantine` for a byzantine card.
    mutation: u8,
}

impl Hosted {
    fn spec(&self, ticket: Ticket) -> SessionSpec {
        let card = ticket.card;
        let endpoints = match card.kind {
            Kind::Byzantine => Arc::clone(&self.byzantine[usize::from(ticket.mutation)].1),
            _ if card.fresh => self.shared.to_vec().into(),
            _ => Arc::clone(&self.shared),
        };
        SessionSpec {
            protocol: self.id,
            endpoints,
            options: self.options(card),
        }
    }

    /// The execution options a card's session runs under.
    pub fn options(&self, card: Card) -> ExecOptions {
        let max_steps = match card.kind {
            Kind::Long => Some(LONG_STEPS),
            _ => self.fixture.max_steps,
        };
        max_steps
            .map_or_else(ExecOptions::default, ExecOptions::with_max_steps)
            .record_actions(card.record)
    }

    fn expected_actions(&self, card: Card) -> usize {
        match card.kind {
            Kind::Long => LONG_ACTIONS,
            _ => self.fixture.actions,
        }
    }

    /// Checks an outcome against the class of the session that produced it.
    fn judge(&self, ticket: Ticket, outcome: &SessionOutcome) -> Result<(), String> {
        let fail = |what: &str| {
            Err(format!(
                "{} {:?} session {}: {what}",
                self.fixture.name, ticket.card.kind, outcome.id.0
            ))
        };
        if outcome.protocol != self.id {
            return fail("outcome names another protocol");
        }
        if ticket.card.kind == Kind::Byzantine {
            let (mutation, _) = self.byzantine[usize::from(ticket.mutation)];
            return match mutation.expected() {
                ExpectedClass::Violation
                    if outcome.compliant
                        || !outcome.quarantined
                        || outcome.violations.is_empty() =>
                {
                    fail("a violating cast was not flagged and quarantined")
                }
                ExpectedClass::Silence
                    if !outcome.compliant || outcome.complete || outcome.quarantined =>
                {
                    fail("a silent cast must end compliant, incomplete and unquarantined")
                }
                _ => Ok(()),
            };
        }
        if !outcome.compliant || !outcome.violations.is_empty() || outcome.quarantined {
            return fail("a certified cast was flagged");
        }
        match self.fixture.ending {
            Ending::Terminates => {
                if !outcome.all_finished_and_compliant() || outcome.stalled {
                    return fail("did not run to completion");
                }
            }
            Ending::StepBounded => {
                let mut at_limit = 0;
                for report in outcome.endpoints.values() {
                    match report.status {
                        EndpointStatus::StepLimitReached => at_limit += 1,
                        EndpointStatus::Stalled => {}
                        _ => {
                            return fail("an endpoint neither hit its limit nor blocked behind one")
                        }
                    }
                }
                if at_limit == 0 || outcome.complete {
                    return fail("no endpoint reached the step limit");
                }
            }
        }
        if ticket.card.record {
            let expected = self.expected_actions(ticket.card);
            let performed: usize = outcome.endpoints.values().map(|r| r.actions.len()).sum();
            if performed != expected || outcome.global_trace.len() != expected {
                return fail(&format!(
                    "{performed} actions ({} in the global trace), expected {expected}",
                    outcome.global_trace.len()
                ));
            }
        }
        Ok(())
    }
}

/// A session's spans: the root from `start` to `end`, the submit call and
/// the wait for the outcome under it.
fn session_spans(t: &mut Tracer, session: u64, start: u64, submit: (u64, u64), end: u64) {
    let root = t.push("session", session, None, start, end);
    t.push(
        "server.server.submit",
        session,
        Some(root),
        submit.0,
        submit.1,
    );
    t.push("driver.outcome_wait", session, Some(root), submit.1, end);
}

/// A started server with everything the driver tracks about it.
struct Driver<'a> {
    plan: &'a MemPlan,
    hosted: Vec<Hosted>,
    server: SessionServer,
    gate: Gate,
    submitted: u64,
    /// Actions the certified sessions submitted so far must perform.
    expected_actions: u64,
    /// Upper limit on what the byzantine ones may add.
    byzantine_actions: u64,
    expected_quarantined: u64,
    sample: Vec<(Card, SessionOutcome)>,
}

#[derive(Debug, Default)]
struct ClosedRep {
    sessions: usize,
    wall_ns: u64,
    cpu_ns: u64,
    switches: u64,
}

#[derive(Debug, Default)]
struct OpenRep {
    latency_ns: Vec<u64>,
    lateness_ns: Vec<u64>,
}

impl<'a> Driver<'a> {
    fn start(plan: &'a MemPlan) -> Self {
        let (registry, hosted) = host(plan);
        Driver {
            plan,
            hosted,
            server: SessionServer::start(registry, ServerConfig::with_shards(SHARDS)),
            gate: Gate::default(),
            submitted: 0,
            expected_actions: 0,
            byzantine_actions: 0,
            expected_quarantined: 0,
            sample: Vec::new(),
        }
    }

    fn ticket(&mut self, dealer: &mut Dealer) -> Ticket {
        let card = dealer.deal();
        let host = &self.hosted[card.fixture];
        if card.kind != Kind::Byzantine {
            self.expected_actions += host.expected_actions(card) as u64;
            return Ticket { card, mutation: 0 };
        }
        let mutation = dealer.rng.below(host.byzantine.len());
        // At most one extra send past the protocol's end, and its receive.
        self.byzantine_actions += host.fixture.actions as u64 + 2;
        if host.byzantine[mutation].0.expected() == ExpectedClass::Violation {
            self.expected_quarantined += 1;
        }
        Ticket {
            card,
            mutation: mutation as u8,
        }
    }

    /// Submits one session; `false` if the server refused it.
    fn submit(&mut self, ticket: Ticket) -> bool {
        let spec = self.hosted[ticket.card.fixture].spec(ticket);
        let id = self.server.submit(spec);
        let ok = matches!(&id, Ok(id) if id.0 == self.submitted);
        self.gate
            .check(ok, || format!("submit refused or out of order: {id:?}"));
        if ok {
            self.submitted += 1;
        }
        ok
    }

    fn judge(&mut self, ticket: Ticket, outcome: &SessionOutcome) {
        let verdict = self.hosted[ticket.card.fixture].judge(ticket, outcome);
        self.gate
            .check(verdict.is_ok(), || verdict.err().unwrap_or_default());
    }

    /// `count` sessions in a closed loop: whenever `refill` slots of the
    /// `in_flight` are free they are filled at once, then outcomes are taken
    /// one by one. With a tracer, every session leaves a `session` span with
    /// its `server.server.submit` and `driver.outcome_wait` children.
    fn closed(
        &mut self,
        count: usize,
        dealer: &mut Dealer,
        mut tracer: Option<&mut Tracer>,
        mut sampler: Option<&mut SplitMix64>,
    ) -> ClosedRep {
        let base = self.submitted;
        let (in_flight, refill) = (self.plan.in_flight, self.plan.refill);
        let mut tickets: Vec<Ticket> = Vec::with_capacity(count);
        let mut submit_spans: Vec<(u64, u64)> = Vec::new();
        let switches = procstat::involuntary_switches();
        let cpu = procstat::cpu_ns();
        let start = Instant::now();
        let mut done = 0;
        while done < count {
            let free = in_flight - (tickets.len() - done);
            let left = count - tickets.len();
            if left > 0 && free >= refill.min(left) {
                for _ in 0..free.min(left) {
                    let ticket = self.ticket(dealer);
                    let before = tracer.as_ref().map(|t| t.now());
                    if !self.submit(ticket) {
                        return ClosedRep::default();
                    }
                    if let (Some(t), Some(before)) = (tracer.as_ref(), before) {
                        submit_spans.push((before, t.now()));
                    }
                    tickets.push(ticket);
                }
            }
            let Some(outcome) = self.server.next_outcome(OUTCOME_TIMEOUT) else {
                self.gate.check(false, || "a session timed out".into());
                return ClosedRep::default();
            };
            done += 1;
            let index = (outcome.id.0 - base) as usize;
            let ticket = tickets[index];
            if let Some(t) = tracer.as_deref_mut() {
                let (submit, end) = (submit_spans[index], t.now());
                session_spans(t, outcome.id.0, submit.0, submit, end);
            }
            self.judge(ticket, &outcome);
            if let Some(rng) = sampler.as_deref_mut() {
                if ticket.card.kind == Kind::Normal
                    && ticket.card.record
                    && self.hosted[ticket.card.fixture].fixture.harness_oracle
                    && self.sample.len() < HARNESS_SAMPLE_MAX
                    && rng.below(100) < HARNESS_SAMPLE_PERCENT
                {
                    self.sample.push((ticket.card, outcome));
                }
            }
        }
        ClosedRep {
            sessions: count,
            wall_ns: start.elapsed().as_nanos() as u64,
            cpu_ns: procstat::cpu_ns() - cpu,
            switches: procstat::involuntary_switches().saturating_sub(switches),
        }
    }

    /// One session per entry of `due` (ns from the start of the phase),
    /// submitted when due whatever the server is doing; each is timed from
    /// when it was due to when the driver holds its outcome.
    fn open(
        &mut self,
        due: &[u64],
        dealer: &mut Dealer,
        mut tracer: Option<&mut Tracer>,
    ) -> OpenRep {
        let base = self.submitted;
        let mut rep = OpenRep::default();
        let mut tickets: Vec<Ticket> = Vec::with_capacity(due.len());
        let mut submit_spans: Vec<(u64, u64)> = Vec::new();
        let start = Instant::now();
        let epoch = tracer.as_ref().map_or(0, |t| t.at(start));
        let mut done = 0;
        while done < due.len() {
            let now = start.elapsed().as_nanos() as u64;
            if tickets.len() < due.len() && due[tickets.len()] <= now {
                let ticket = self.ticket(dealer);
                rep.lateness_ns.push(now - due[tickets.len()]);
                if !self.submit(ticket) {
                    return OpenRep::default();
                }
                if tracer.is_some() {
                    submit_spans.push((now, start.elapsed().as_nanos() as u64));
                }
                tickets.push(ticket);
                continue;
            }
            let until_due = match due.get(tickets.len()) {
                Some(&next) => Duration::from_nanos(next - now),
                None => OUTCOME_TIMEOUT,
            };
            if tickets.len() == done {
                // Nothing in flight: `next_outcome` would return at once.
                std::thread::sleep(until_due);
                continue;
            }
            let Some(outcome) = self.server.next_outcome(until_due) else {
                if tickets.len() == due.len() {
                    self.gate.check(false, || "a session timed out".into());
                    return OpenRep::default();
                }
                continue;
            };
            done += 1;
            let end = start.elapsed().as_nanos() as u64;
            let index = (outcome.id.0 - base) as usize;
            rep.latency_ns.push(end - due[index]);
            if let Some(t) = tracer.as_deref_mut() {
                let (submit_start, submit_end) = submit_spans[index];
                let submit = (epoch + submit_start, epoch + submit_end);
                session_spans(t, outcome.id.0, epoch + due[index], submit, epoch + end);
            }
            self.judge(tickets[index], &outcome);
        }
        rep
    }

    /// Stops the server, holds its final counts against what was submitted,
    /// and re-runs the sampled sessions on the thread-per-endpoint harness.
    fn finish(mut self) -> (Gate, ServerReport, Vec<Hosted>) {
        let report = self.server.shutdown();
        let g = &mut self.gate;
        let n = self.submitted;
        g.check(report.sessions_started() == n, || {
            format!(
                "{} sessions started, {n} submitted",
                report.sessions_started()
            )
        });
        // A session that ends with an endpoint blocked counts as stalled.
        let ended = report.sessions_completed() + report.sessions_stalled();
        g.check(ended == n, || {
            format!("{ended} sessions ended, {n} submitted")
        });
        g.check(
            report.sessions_batched() + report.sessions_slab() == n,
            || {
                format!(
                    "{} batched + {} slab sessions, {n} submitted",
                    report.sessions_batched(),
                    report.sessions_slab()
                )
            },
        );
        let q = self.expected_quarantined;
        g.check(report.sessions_quarantined() == q, || {
            format!(
                "{} sessions quarantined, {q} expected",
                report.sessions_quarantined()
            )
        });
        g.check(report.obs.incidents_recorded == q, || {
            format!(
                "{} incidents recorded, {q} expected",
                report.obs.incidents_recorded
            )
        });
        let (low, high) = (
            self.expected_actions,
            self.expected_actions + self.byzantine_actions,
        );
        g.check((low..=high).contains(&report.actions_executed()), || {
            format!(
                "{} actions executed, {low}..={high} expected",
                report.actions_executed()
            )
        });
        for (card, outcome) in &self.sample {
            let verdict = harness_agrees(&self.hosted[card.fixture], outcome);
            self.gate
                .check(verdict.is_ok(), || verdict.err().unwrap_or_default());
        }
        (self.gate, report, self.hosted)
    }
}

/// A harness endpoint that waited out its receive timeout, or whose peer's
/// thread ended first, is what the server calls stalled.
fn normal_status(status: &EndpointStatus) -> String {
    match status {
        EndpointStatus::Failed { error }
            if error.contains("timed out") || error.contains("disconnected") =>
        {
            "Stalled".into()
        }
        other => format!("{other:?}"),
    }
}

/// Runs the session's cast on `SessionHarness` and compares statuses, value
/// traces and the global trace. The harness interleaves independent actions
/// as its threads happen to run, so global traces are compared by length
/// and by each participant's own subsequence.
fn harness_agrees(host: &Hosted, outcome: &SessionOutcome) -> Result<(), String> {
    let name = host.fixture.name;
    let mut harness = SessionHarness::new(host.protocol.clone());
    for (cert, externals) in host.shared.iter() {
        harness
            .add_endpoint(cert.clone(), externals.clone())
            .map_err(|e| format!("{name}: harness refused an endpoint: {e}"))?;
    }
    if let Some(max_steps) = host.fixture.max_steps {
        harness.with_max_steps(max_steps);
    }
    harness.with_recv_timeout(HARNESS_RECV_TIMEOUT);
    let report = harness
        .run()
        .map_err(|e| format!("{name}: harness failed: {e}"))?;
    if (report.compliant, report.complete) != (outcome.compliant, outcome.complete) {
        return Err(format!(
            "{name}: harness and server disagree on the verdict"
        ));
    }
    if report.global_trace.len() != outcome.global_trace.len() {
        return Err(format!(
            "{name}: harness and server global traces differ in length"
        ));
    }
    let roles: Vec<&Role> = outcome.endpoints.keys().collect();
    for role in roles {
        let (ours, theirs) = (&outcome.endpoints[role], report.endpoints.get(role));
        let Some(theirs) = theirs else {
            return Err(format!("{name}: the harness has no `{role}`"));
        };
        if normal_status(&ours.status) != normal_status(&theirs.status) {
            return Err(format!(
                "{name}: `{role}` ended {:?} on the server, {:?} on the harness",
                ours.status, theirs.status
            ));
        }
        if ours.actions != theirs.actions {
            return Err(format!("{name}: value traces of `{role}` differ"));
        }
        if outcome.global_trace.restrict_to_subject(role)
            != report.global_trace.restrict_to_subject(role)
        {
            return Err(format!("{name}: global traces differ at `{role}`"));
        }
    }
    Ok(())
}

/// Quantile of the observations a histogram gained between two snapshots,
/// as the middle of the log2 bucket that holds it.
fn window_quantile(before: &HistogramSnapshot, after: &HistogramSnapshot, q: f64) -> f64 {
    let gained: Vec<u64> = after
        .buckets()
        .iter()
        .zip(before.buckets())
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let count: u64 = gained.iter().sum();
    if count == 0 {
        return 0.0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0;
    for (bucket, n) in gained.iter().enumerate() {
        seen += n;
        if seen >= rank {
            let (low, high) = bucket_bounds(bucket);
            return (low as f64 + high.min(after.max()) as f64) / 2.0;
        }
    }
    after.max() as f64
}

/// Latency of an open-loop phase in us: the median, the highest percentile
/// its sample supports, and which percentile that is.
pub fn latency_of(mut latency_ns: Vec<u64>) -> (f64, f64, u32) {
    let tail = highest_supported_percentile(latency_ns.len()).unwrap_or(50);
    latency_ns.sort_unstable();
    let at = |p| percentile_sorted(&latency_ns, p) as f64 / 1e3;
    (at(50), at(tail), tail)
}

pub fn run(args: &RunArgs, plan: &MemPlan) -> Report {
    let process_start = Instant::now();
    let mut report = Report::default();
    let deck = plan.deck.len();
    let closed_count = whole_decks(args.count(plan.closed_rate, plan.in_flight.min(64)), deck);
    let warm_count = whole_decks((closed_count / 20).max(8), deck);

    // Set-up, several times over: register, certify, start, warm up.
    let mut setup_s = Vec::new();
    let mut driver: Option<Driver> = None;
    for round in 0..args.setups() {
        if let Some(previous) = driver.take() {
            previous.server.shutdown();
            report.gate.absorb(previous.gate);
        }
        let begun = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut fresh = Driver::start(plan);
        let mut dealer = Dealer::new(&plan.deck, args.seed, "warm-up");
        fresh.closed(warm_count, &mut dealer, None, None);
        setup_s.push(begun.elapsed().as_secs_f64());
        driver = Some(fresh);
    }
    let mut driver = driver.expect("at least one set-up");
    report.set("setup_s", Summary::of(&setup_s));

    // Closed loop: throughput per repetition, CPU over the whole phase.
    let mut sampler = SplitMix64::stream(args.seed, "harness-sample");
    let reps = args.repetitions();
    let mut closed = Vec::new();
    for rep in 0..reps {
        let mut dealer = Dealer::new(&plan.deck, args.seed, &format!("closed/{rep}"));
        let sample = (rep + 1 == reps).then_some(&mut sampler);
        closed.push(driver.closed(closed_count, &mut dealer, None, sample));
    }
    closed.retain(|rep| rep.sessions > 0 && rep.wall_ns > 0);
    if closed.is_empty() {
        report
            .gate
            .check(false, || "no repetition completed".into());
        return report;
    }
    let per_s: Vec<f64> = closed
        .iter()
        .map(|r| r.sessions as f64 * 1e9 / r.wall_ns as f64)
        .collect();
    let sessions: usize = closed.iter().map(|r| r.sessions).sum();
    let cpu_us = closed.iter().map(|r| r.cpu_ns).sum::<u64>() as f64 / 1e3 / sessions as f64;
    report.set("ops_per_s", Summary::of(&per_s));
    report.value("cpu_us_per_op", cpu_us);
    report.notes.push(format!(
        "closed loop: {closed_count} sessions x {reps}, {} in flight, refilled {} at a time",
        plan.in_flight, plan.refill
    ));

    // The traced pass: the closed loop with and without the tracer in
    // turns, then an open loop for latency, then the server's own account
    // and the replay.
    let mut tracer = args.trace.then(Tracer::new);
    let mut traced = None;
    if let Some(tracer) = tracer.as_mut() {
        let count = whole_decks((closed_count / TRACE_PAIRS).max(1), deck);
        let (mut plain, mut under) = (Vec::new(), Vec::new());
        for pair in 0..TRACE_PAIRS {
            for with_tracer in [false, true] {
                let phase = format!("closed/pair{pair}/{with_tracer}");
                let mut dealer = Dealer::new(&plan.deck, args.seed, &phase);
                let spans = if with_tracer {
                    Some(&mut *tracer)
                } else {
                    None
                };
                let rep = driver.closed(count, &mut dealer, spans, None);
                let rates = if with_tracer { &mut under } else { &mut plain };
                rates.push(rep.sessions as f64 / rep.wall_ns.max(1) as f64);
            }
        }
        let open_count = whole_decks(args.count(plan.open_rate, 32), deck);
        let due = arrivals(args.seed, "open", plan.open_rate, open_count);
        let mut dealer = Dealer::new(&plan.deck, args.seed, "open");
        let obs_before = driver.server.report().obs;
        let open = driver.open(&due, &mut dealer, Some(tracer));
        let obs_after = driver.server.report().obs;
        traced = Some((plain, under, open, obs_before, obs_after));
    }

    let (gate, server_report, hosted) = driver.finish();
    report.gate.absorb(gate);

    if let (Some(tracer), Some((plain, under, open, obs_before, obs_after))) =
        (tracer.as_mut(), traced)
    {
        if under.contains(&0.0) || plain.contains(&0.0) || open.latency_ns.is_empty() {
            report
                .gate
                .check(false, || "the traced repetition did not complete".into());
            return report;
        }
        let untraced = &closed[0];
        report.value("driver.trace_overhead_share", lost_share(&plain, &under));
        report.value(
            "process.cpu_busy_share",
            untraced.cpu_ns as f64 / (untraced.wall_ns as f64 * procstat::nproc() as f64),
        );
        report.value("process.ctx_switches_invol", untraced.switches as f64);
        let samples = open.latency_ns.len();
        let (p50_us, tail_us, tail) = latency_of(open.latency_ns);
        report.value("driver.latency_p50_us", p50_us);
        report.value("driver.latency_tail_us", tail_us);
        let mut lateness = open.lateness_ns;
        report.value(
            "driver.lateness_p99_us",
            percentile(&mut lateness, 99) as f64 / 1e3,
        );
        report.notes.push(format!(
            "open loop: {samples} sessions at {}/s; driver.latency_tail_us is p{tail}",
            plan.open_rate
        ));
        let mut submits = tracer.durations("server.server.submit");
        report.value(
            "server.server.submit_ns",
            percentile(&mut submits, 50) as f64,
        );

        shard_counts(&mut report, &server_report);
        let wall_p50 =
            window_quantile(&obs_before.session_wall_ns, &obs_after.session_wall_ns, 0.5);
        report.value("server.obs.session_wall_p50_us", wall_p50 / 1e3);
        report.value(
            "server.obs.session_wall_p99_us",
            window_quantile(
                &obs_before.session_wall_ns,
                &obs_after.session_wall_ns,
                0.99,
            ) / 1e3,
        );
        report.value(
            "server.obs.action_cost_p50_ns",
            window_quantile(&obs_before.action_cost_ns, &obs_after.action_cost_ns, 0.5),
        );
        report.value(
            "server.shard.handoff_flush_p50_us",
            (p50_us - wall_p50 / 1e3).max(0.0),
        );

        replay::registration(&mut report, tracer, &hosted_globals(&hosted));
        replay::serving(&mut report, tracer, plan, &hosted, cpu_us, 0.0);
        if args.workload == crate::spec::MEM_LONG {
            replay::durability(&mut report, tracer, &hosted[0]);
        }
        finish_trace(args, tracer, &mut report);
    }
    report
}

pub fn hosted_globals(hosted: &[Hosted]) -> Vec<(String, zooid_mpst::global::GlobalType)> {
    hosted
        .iter()
        .map(|h| (h.fixture.name.to_owned(), h.fixture.global.clone()))
        .collect()
}

/// The counts a `ServerReport` holds, as per-layer metrics.
pub fn shard_counts(report: &mut Report, server: &ServerReport) {
    let sum = |field: fn(&zooid_server::ShardReport) -> u64| -> f64 {
        server.shards.iter().map(field).sum::<u64>() as f64
    };
    report.value(
        "server.shard.sessions_batched",
        server.sessions_batched() as f64,
    );
    report.value("server.shard.sessions_slab", server.sessions_slab() as f64);
    report.value(
        "server.shard.sessions_demoted",
        server.sessions_demoted() as f64,
    );
    report.value(
        "server.shard.sessions_quarantined",
        server.sessions_quarantined() as f64,
    );
    report.value(
        "server.shard.actions_executed",
        server.actions_executed() as f64,
    );
    report.value("server.shard.quanta", sum(|s| s.quanta));
    report.value("server.shard.batch_cohorts", sum(|s| s.batch_cohorts));
    report.value("server.shard.mean_cohort_width", server.mean_cohort_width());
    report.value(
        "server.shard.peak_queue_depth",
        server
            .shards
            .iter()
            .map(|s| s.peak_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    report.value(
        "server.obs.incidents_recorded",
        server.obs.incidents_recorded as f64,
    );
}

/// Writes the spans if asked to, and says where the traced time went.
pub fn finish_trace(args: &RunArgs, tracer: &Tracer, report: &mut Report) {
    for (name, self_ns, spans) in tracer.self_time_by_name().into_iter().take(12) {
        report.notes.push(format!(
            "self time {name}: {:.3} ms over {spans} spans",
            self_ns as f64 / 1e6
        ));
    }
    if let Some(path) = &args.trace_out {
        let written = tracer.write(path);
        report.gate.check(written.is_ok(), || {
            format!("writing spans to {}: {:?}", path.display(), written.err())
        });
        report.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
    }
}
