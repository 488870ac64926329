//! Online invariant monitors: a [`Monitor`] trait plus a [`Watchdog`]
//! registry that consumes engine-time observation events while the run
//! executes and raises [`Violation`]s the moment a cluster-wide protocol
//! invariant breaks — the oracle a scenario fuzzer needs, and the online
//! counterpart of the post-run report assertions.
//!
//! The module is simulation-agnostic: it speaks [`MonitorEvent`], a
//! neutral vocabulary of observations (view installs, rejoin phases,
//! requests and outputs, scheduling alarms). The sources emit that type
//! themselves — `hades_services::NodeAgent` the view, suspicion and
//! rejoin events, `hades_services::ReplicaGroup` members the handoff and
//! request events, `hades_dispatch::DispatchSim` its Section 3.2.1 alarms
//! and each instance's settled outcome — through one [`ProtocolTap`];
//! nothing translates in between. The
//! embedding control plane feeds each event through [`Watchdog::observe`]
//! at its engine instant and services [`Watchdog::take_wakeups`] by
//! arming engine timers (e.g. `notify_at`) that call [`Watchdog::wake`]
//! back at each deadline — the watchdog itself never touches a clock,
//! which is what keeps violation timestamps deterministic engine time.
//!
//! Five invariants ship built in (see [`Watchdog::standard`]):
//!
//! | monitor | invariant |
//! |---|---|
//! | `view-agreement` | all agents installing view *n* agree on its membership |
//! | `delta-bound` | every output leaves within `Δ + δmax` of submission |
//! | `duplicate-output` | deduplicating styles never emit one request twice |
//! | `stalled-transfer` | a rejoin's state transfer keeps making progress |
//! | `silent-group` | a submitted request is answered while members live |
//!
//! # Examples
//!
//! Feeding a watchdog by hand — two agents disagree on view 1:
//!
//! ```
//! use hades_telemetry::monitor::{MonitorEvent, MonitorParams, Watchdog};
//! use hades_time::Time;
//!
//! let mut dog = Watchdog::standard();
//! dog.configure(&MonitorParams::default());
//! let t = Time::ZERO;
//! dog.observe(
//!     t,
//!     &MonitorEvent::ViewInstalled { node: 0, number: 1, members: vec![0, 1] },
//! );
//! dog.observe(
//!     t,
//!     &MonitorEvent::ViewInstalled { node: 1, number: 1, members: vec![1, 2] },
//! );
//! let violations = dog.violations();
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].monitor, "view-agreement");
//! assert_eq!(violations[0].node, Some(1));
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use hades_time::{Duration, Time};

use crate::json::{self, Json};

/// One neutral observation, handed to the [`ProtocolTap`] by the
/// protocol actor or dispatcher it happened in and fed to
/// [`Watchdog::observe`] at that engine instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorEvent {
    /// An agent installed an agreed view.
    ViewInstalled {
        /// The installing node.
        node: u32,
        /// Monotone view number.
        number: u32,
        /// Agreed members, ascending.
        members: Vec<u32>,
    },
    /// An agent started suspecting a peer.
    Suspected {
        /// The suspecting node.
        observer: u32,
        /// The suspected node.
        suspect: u32,
    },
    /// An agent dropped a suspicion (the suspect announced a rejoin).
    SuspicionCleared {
        /// The formerly suspecting node.
        observer: u32,
        /// The node no longer suspected.
        suspect: u32,
    },
    /// A restarted node announced its rejoin (broadcast JOIN).
    RejoinAnnounced {
        /// The rejoining node.
        node: u32,
    },
    /// The first checkpoint chunk of a state transfer arrived.
    TransferStarted {
        /// The rejoining node receiving state.
        node: u32,
    },
    /// A further checkpoint chunk arrived.
    TransferProgress {
        /// The rejoining node receiving state.
        node: u32,
        /// Chunks received so far in the current transfer stream.
        chunks: u64,
    },
    /// The state transfer completed; replay begins.
    TransferCompleted {
        /// The rejoining node.
        node: u32,
    },
    /// Checkpoint replay completed; re-admission is pending.
    ReplayCompleted {
        /// The rejoining node.
        node: u32,
    },
    /// A rejoin completed: the node is re-admitted to the view.
    RejoinCompleted {
        /// The re-admitted node.
        node: u32,
        /// The re-admitting view number.
        view: u32,
        /// When the node restarted (the rejoin's starting instant).
        restarted_at: Time,
    },
    /// A replica group's leadership moved.
    LeadershipHandoff {
        /// The group.
        group: u32,
        /// The failed leader.
        from: u32,
        /// The new leader.
        to: u32,
    },
    /// A client request entered a replica group.
    RequestSubmitted {
        /// The group.
        group: u32,
        /// The request id.
        id: u64,
    },
    /// A member delivered an ordered request to its service.
    RequestDelivered {
        /// The group.
        group: u32,
        /// The delivering member.
        member: u32,
        /// The request id.
        id: u64,
        /// The request's Δ-order stamp, as the copy this member
        /// accepted carried it (delivery is at `ts + Δ`).
        ts: Time,
    },
    /// A member emitted the group's output for a request.
    OutputEmitted {
        /// The group.
        group: u32,
        /// The emitting member.
        member: u32,
        /// The request id.
        id: u64,
        /// Whether the group's replication style deduplicates outputs
        /// (a second emission of the same id is then a violation).
        expect_unique: bool,
    },
    /// Dispatcher alarm: a task instance missed its deadline.
    DeadlineMiss {
        /// The task's home node (the processor of its first unit).
        node: u32,
        /// The task id.
        task: u32,
        /// The instance sequence number.
        instance: u64,
        /// When the instance was activated.
        activated: Time,
        /// The absolute deadline that passed (the instant of the alarm).
        deadline: Time,
    },
    /// Dispatcher alarm: an activation came earlier than its arrival law.
    ArrivalLawViolation {
        /// The task id.
        task: u32,
        /// When the illegal activation arrived.
        at: Time,
    },
    /// Dispatcher alarm: an action completed under its declared WCET.
    EarlyTermination {
        /// The thread id.
        thread: u64,
        /// Declared worst case.
        wcet: Duration,
        /// Observed execution time.
        actual: Duration,
    },
    /// Dispatcher alarm: a thread was killed without completing.
    Orphan {
        /// The thread id.
        thread: u64,
        /// When it was reaped.
        at: Time,
    },
    /// Dispatcher alarm: a thread had not started by its latest start.
    LatestStartExceeded {
        /// The thread id.
        thread: u64,
        /// The latest start bound that passed.
        latest: Time,
    },
    /// Dispatcher alarm: threads still blocked past their deadline at the end.
    Stall {
        /// The blocked thread ids, ascending.
        threads: Vec<u64>,
        /// The end of the run.
        at: Time,
    },
    /// Dispatcher alarm: a remote precedence message missed `δmax`.
    NetworkOmission {
        /// The thread whose predecessor message was lost.
        waiting: u64,
        /// When the loss was established.
        detected_at: Time,
    },
    /// Dispatcher outcome, not an alarm: a task instance's fate became
    /// final (heard once per activation, when the dispatcher drops the
    /// instance — or at the end of the run for one still held then).
    InstanceSettled {
        /// The task's home node (the processor of its first unit).
        node: u32,
        /// The task id.
        task: u32,
        /// The instance sequence number.
        instance: u64,
        /// When the instance was activated.
        activated: Time,
        /// Its absolute deadline.
        deadline: Time,
        /// When its last thread finished, if it did.
        completed: Option<Time>,
        /// Whether it missed its deadline (completed late, or never).
        missed: bool,
    },
}

/// The online observation callback of the protocol actors and the
/// dispatcher: `(now, event)`, invoked synchronously inside the emitter's
/// handler at the emission instant. A tap must not re-enter the engine;
/// it records, and at most leaves a wake request for a control actor.
#[derive(Clone)]
#[allow(clippy::type_complexity)]
pub struct ProtocolTap(pub Rc<dyn Fn(Time, &MonitorEvent)>);

impl std::fmt::Debug for ProtocolTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProtocolTap")
    }
}

/// One invariant violation, raised by a [`Monitor`] at deterministic
/// engine time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the monitor that raised it (e.g. `delta-bound`).
    pub monitor: String,
    /// Engine instant the violation was detected.
    pub at: Time,
    /// The node the violation centres on, when there is one.
    pub node: Option<u32>,
    /// The replica group concerned, when there is one.
    pub group: Option<u32>,
    /// Human-readable description of the broken invariant.
    pub message: String,
}

impl Violation {
    /// This violation as one JSON object (the JSONL line format).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"monitor\":{},\"at_ns\":{},\"node\":",
            json::escape(&self.monitor),
            self.at.as_nanos()
        );
        match self.node {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"group\":");
        match self.group {
            Some(g) => {
                let _ = write!(out, "{g}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"message\":{}}}", json::escape(&self.message));
        out
    }
}

/// Serialises violations as JSONL: one JSON object per line, in
/// detection order — byte-identical across same-seed runs.
///
/// Schema: `{"monitor":…,"at_ns":…,"node":<u32|null>,"group":<u32|null>,
/// "message":…}`.
pub fn violations_to_jsonl(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&v.to_json());
        out.push('\n');
    }
    out
}

/// Schema-validates a violations JSONL export with the crate's own JSON
/// parser; returns the number of validated lines.
pub fn validate_violations(jsonl: &str) -> Result<usize, String> {
    let mut count = 0;
    for (i, line) in jsonl.lines().enumerate() {
        let line_no = i + 1;
        let v = Json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        v.get("monitor")
            .and_then(Json::as_str)
            .ok_or(format!("line {line_no}: missing string `monitor`"))?;
        v.get("at_ns")
            .and_then(Json::as_u64)
            .ok_or(format!("line {line_no}: missing integer `at_ns`"))?;
        for key in ["node", "group"] {
            match v.get(key) {
                Some(Json::Null) => {}
                Some(n) if n.as_u64().is_some() => {}
                _ => return Err(format!("line {line_no}: `{key}` must be u32 or null")),
            }
        }
        v.get("message")
            .and_then(Json::as_str)
            .ok_or(format!("line {line_no}: missing string `message`"))?;
        count += 1;
    }
    Ok(count)
}

/// Timing parameters the built-in monitors check against, derived by the
/// embedding runtime from its link and protocol configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorParams {
    /// Δ-multicast output bound `Δ + δmax`: the worst-case
    /// submission→emission latency of a healthy group.
    pub output_bound: Duration,
    /// Maximum tolerated gap between state-transfer progress marks of a
    /// rejoin before it counts as stalled.
    pub transfer_stall: Duration,
    /// Maximum tolerated submission→first-output silence of a group
    /// before the request counts as unanswered.
    pub silent_group: Duration,
}

impl Default for MonitorParams {
    /// Conservative millisecond-scale defaults for standalone use;
    /// embeddings derive exact bounds from their own configuration.
    fn default() -> Self {
        MonitorParams {
            output_bound: Duration::from_millis(1),
            transfer_stall: Duration::from_millis(10),
            silent_group: Duration::from_millis(2),
        }
    }
}

/// The context a [`Monitor`] raises violations and arms watchdog timers
/// through. Handed to [`Monitor::on_event`] / [`Monitor::on_wake`] by
/// the [`Watchdog`]; the current monitor's name is attached
/// automatically.
pub struct MonitorCtx<'a> {
    monitor: &'static str,
    violations: &'a mut Vec<Violation>,
    wakeups: &'a mut Vec<Time>,
}

impl MonitorCtx<'_> {
    /// Raises a violation at engine instant `at`.
    pub fn violation(
        &mut self,
        at: Time,
        node: Option<u32>,
        group: Option<u32>,
        message: impl Into<String>,
    ) {
        self.violations.push(Violation {
            monitor: self.monitor.to_string(),
            at,
            node,
            group,
            message: message.into(),
        });
    }

    /// Requests a [`Monitor::on_wake`] callback at engine instant `at`.
    /// The embedding runtime drains [`Watchdog::take_wakeups`] and arms
    /// an engine timer (`notify_at`) per requested instant.
    pub fn arm(&mut self, at: Time) {
        self.wakeups.push(at);
    }
}

/// One online invariant check. Implementations keep whatever state they
/// need across events; all timing flows through the `now` arguments and
/// [`MonitorCtx::arm`], never a clock — which is what keeps monitors
/// deterministic.
pub trait Monitor {
    /// Stable machine-readable name, used to tag this monitor's
    /// violations (e.g. `view-agreement`).
    fn name(&self) -> &'static str;

    /// Installs the timing parameters. Called once before the run.
    fn configure(&mut self, params: &MonitorParams) {
        let _ = params;
    }

    /// Observes one protocol event at engine instant `now`.
    fn on_event(&mut self, now: Time, event: &MonitorEvent, ctx: &mut MonitorCtx<'_>);

    /// Called at (or after) an instant previously armed via
    /// [`MonitorCtx::arm`]. Deadlines that the protocol already
    /// satisfied should be ignored here.
    fn on_wake(&mut self, now: Time, ctx: &mut MonitorCtx<'_>) {
        let _ = (now, ctx);
    }
}

impl std::fmt::Debug for dyn Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Monitor({})", self.name())
    }
}

/// A registry of [`Monitor`]s sharing one event feed: fans every
/// observed event out to each monitor in registration order, collects
/// the violations they raise, and batches their watchdog-timer requests
/// for the embedding runtime to arm.
#[derive(Debug, Default)]
pub struct Watchdog {
    monitors: Vec<Box<dyn Monitor>>,
    all: Vec<Violation>,
    fresh: Vec<Violation>,
    wakeups: Vec<Time>,
}

impl Watchdog {
    /// An empty watchdog with no monitors.
    pub fn new() -> Self {
        Watchdog::default()
    }

    /// A watchdog armed with the five built-in invariant monitors (see
    /// the module docs for the table).
    pub fn standard() -> Self {
        Watchdog::new()
            .with(Box::new(ViewAgreementMonitor::default()))
            .with(Box::new(DeltaBoundMonitor::default()))
            .with(Box::new(DuplicateOutputMonitor::default()))
            .with(Box::new(StalledTransferMonitor::default()))
            .with(Box::new(SilentGroupMonitor::default()))
    }

    /// Adds a monitor. Monitors observe events in registration order,
    /// which is what makes the violation stream deterministic.
    pub fn with(mut self, monitor: Box<dyn Monitor>) -> Self {
        self.monitors.push(monitor);
        self
    }

    /// Whether no monitors are registered.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// Number of registered monitors.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Names of the registered monitors, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.monitors.iter().map(|m| m.name()).collect()
    }

    /// Installs the timing parameters on every monitor.
    pub fn configure(&mut self, params: &MonitorParams) {
        for m in &mut self.monitors {
            m.configure(params);
        }
    }

    /// Feeds one protocol event to every monitor at engine instant
    /// `now`. Returns `true` when fresh violations or timer requests are
    /// pending afterwards (i.e. the control plane should service this
    /// watchdog).
    pub fn observe(&mut self, now: Time, event: &MonitorEvent) -> bool {
        for m in &mut self.monitors {
            let mut ctx = MonitorCtx {
                monitor: m.name(),
                violations: &mut self.fresh,
                wakeups: &mut self.wakeups,
            };
            m.on_event(now, event, &mut ctx);
        }
        !self.fresh.is_empty() || !self.wakeups.is_empty()
    }

    /// Wakes every monitor at engine instant `now` (a previously armed
    /// watchdog timer fired). Returns `true` when fresh violations or
    /// further timer requests are pending afterwards.
    pub fn wake(&mut self, now: Time) -> bool {
        for m in &mut self.monitors {
            let mut ctx = MonitorCtx {
                monitor: m.name(),
                violations: &mut self.fresh,
                wakeups: &mut self.wakeups,
            };
            m.on_wake(now, &mut ctx);
        }
        !self.fresh.is_empty() || !self.wakeups.is_empty()
    }

    /// Drains the violations raised since the last call, in detection
    /// order; the buffer keeps its capacity. Drained violations stay in
    /// [`Watchdog::violations`].
    pub fn take_fresh(&mut self) -> std::vec::Drain<'_, Violation> {
        self.all.extend(self.fresh.iter().cloned());
        self.fresh.drain(..)
    }

    /// Drains the pending watchdog-timer requests, in request order; the
    /// buffer keeps its capacity.
    pub fn take_wakeups(&mut self) -> std::vec::Drain<'_, Time> {
        self.wakeups.drain(..)
    }

    /// Every violation raised so far (drained or not), in detection
    /// order.
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = self.all.clone();
        out.extend(self.fresh.iter().cloned());
        out
    }
}

/// Checks cross-agent view agreement: every agent installing view *n*
/// must install the same membership. The first installer of a number
/// fixes the expectation; later disagreeing installers violate.
#[derive(Debug, Default)]
pub struct ViewAgreementMonitor {
    agreed: BTreeMap<u32, Vec<u32>>,
}

impl Monitor for ViewAgreementMonitor {
    fn name(&self) -> &'static str {
        "view-agreement"
    }

    fn on_event(&mut self, now: Time, event: &MonitorEvent, ctx: &mut MonitorCtx<'_>) {
        let MonitorEvent::ViewInstalled {
            node,
            number,
            members,
        } = event
        else {
            return;
        };
        match self.agreed.get(number) {
            None => {
                self.agreed.insert(*number, members.clone());
            }
            Some(expected) if expected != members => {
                ctx.violation(
                    now,
                    Some(*node),
                    None,
                    format!(
                        "view {number} disagreement: node {node} installed {members:?}, \
                         first installer had {expected:?}"
                    ),
                );
            }
            Some(_) => {}
        }
    }
}

/// Checks the Δ-multicast output bound `Δ + δmax`: the first output a
/// group emits for a request must leave within the bound of the
/// request's submission.
#[derive(Debug, Default)]
pub struct DeltaBoundMonitor {
    bound: Duration,
    submitted: BTreeMap<(u32, u64), Time>,
    reported: BTreeSet<(u32, u64)>,
}

impl Monitor for DeltaBoundMonitor {
    fn name(&self) -> &'static str {
        "delta-bound"
    }

    fn configure(&mut self, params: &MonitorParams) {
        self.bound = params.output_bound;
    }

    fn on_event(&mut self, now: Time, event: &MonitorEvent, ctx: &mut MonitorCtx<'_>) {
        match event {
            MonitorEvent::RequestSubmitted { group, id } => {
                self.submitted.entry((*group, *id)).or_insert(now);
            }
            MonitorEvent::OutputEmitted {
                group, member, id, ..
            } => {
                let key = (*group, *id);
                let Some(sub) = self.submitted.get(&key) else {
                    return;
                };
                let latency = now.elapsed_since(*sub);
                if latency > self.bound && self.reported.insert(key) {
                    ctx.violation(
                        now,
                        Some(*member),
                        Some(*group),
                        format!(
                            "request {id} exceeded the Δ-bound: output after {latency}, \
                             bound {}",
                            self.bound
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Checks duplicate-output suppression: a group whose replication style
/// deduplicates (every style except `Active`) must emit each request's
/// output exactly once across all members.
#[derive(Debug, Default)]
pub struct DuplicateOutputMonitor {
    emitted: BTreeMap<(u32, u64), u32>,
}

impl Monitor for DuplicateOutputMonitor {
    fn name(&self) -> &'static str {
        "duplicate-output"
    }

    fn on_event(&mut self, now: Time, event: &MonitorEvent, ctx: &mut MonitorCtx<'_>) {
        let MonitorEvent::OutputEmitted {
            group,
            member,
            id,
            expect_unique: true,
        } = event
        else {
            return;
        };
        let count = self.emitted.entry((*group, *id)).or_insert(0);
        *count += 1;
        if *count > 1 {
            ctx.violation(
                now,
                Some(*member),
                Some(*group),
                format!("duplicate output for request {id}: emission #{count} by member {member}"),
            );
        }
    }
}

/// Watches rejoin state transfers for stalls: once a node announces a
/// rejoin, progress marks (chunks, completion, re-announcements) must
/// keep arriving within `transfer_stall` of each other until the node
/// is re-admitted. A heartbeat-cadence re-announcement counts as
/// progress because a joiner that keeps asking is making the only
/// progress possible while no server exists; the wedge this monitor
/// hunts is a joiner that went *silent* without completing its rejoin.
#[derive(Debug, Default)]
pub struct StalledTransferMonitor {
    stall: Duration,
    // node -> deadline of the next required progress mark
    inflight: BTreeMap<u32, Time>,
}

impl StalledTransferMonitor {
    fn rearm(&mut self, node: u32, now: Time, ctx: &mut MonitorCtx<'_>) {
        let deadline = now + self.stall;
        self.inflight.insert(node, deadline);
        ctx.arm(deadline);
    }
}

impl Monitor for StalledTransferMonitor {
    fn name(&self) -> &'static str {
        "stalled-transfer"
    }

    fn configure(&mut self, params: &MonitorParams) {
        self.stall = params.transfer_stall;
    }

    fn on_event(&mut self, now: Time, event: &MonitorEvent, ctx: &mut MonitorCtx<'_>) {
        match event {
            MonitorEvent::RejoinAnnounced { node }
            | MonitorEvent::TransferStarted { node }
            | MonitorEvent::TransferProgress { node, .. }
            | MonitorEvent::TransferCompleted { node }
            | MonitorEvent::ReplayCompleted { node } => {
                self.rearm(*node, now, ctx);
            }
            MonitorEvent::RejoinCompleted { node, .. } => {
                self.inflight.remove(node);
            }
            _ => {}
        }
    }

    fn on_wake(&mut self, now: Time, ctx: &mut MonitorCtx<'_>) {
        let due: Vec<(u32, Time)> = self
            .inflight
            .iter()
            .filter(|(_, deadline)| **deadline <= now)
            .map(|(node, deadline)| (*node, *deadline))
            .collect();
        for (node, _) in due {
            self.inflight.remove(&node);
            ctx.violation(
                now,
                Some(node),
                None,
                format!(
                    "rejoin of node {node} stalled: no transfer progress within {}",
                    self.stall
                ),
            );
        }
    }
}

/// Watches groups for silence: every submitted request must produce a
/// first output within `silent_group` of submission.
#[derive(Debug, Default)]
pub struct SilentGroupMonitor {
    silent: Duration,
    // (group, id) -> deadline for the first output
    pending: BTreeMap<(u32, u64), Time>,
}

impl Monitor for SilentGroupMonitor {
    fn name(&self) -> &'static str {
        "silent-group"
    }

    fn configure(&mut self, params: &MonitorParams) {
        self.silent = params.silent_group;
    }

    fn on_event(&mut self, now: Time, event: &MonitorEvent, ctx: &mut MonitorCtx<'_>) {
        match event {
            MonitorEvent::RequestSubmitted { group, id } => {
                let deadline = now + self.silent;
                if self.pending.insert((*group, *id), deadline).is_none() {
                    ctx.arm(deadline);
                }
            }
            MonitorEvent::OutputEmitted { group, id, .. } => {
                self.pending.remove(&(*group, *id));
            }
            _ => {}
        }
    }

    fn on_wake(&mut self, now: Time, ctx: &mut MonitorCtx<'_>) {
        let due: Vec<((u32, u64), Time)> = self
            .pending
            .iter()
            .filter(|(_, deadline)| **deadline <= now)
            .map(|(key, deadline)| (*key, *deadline))
            .collect();
        for ((group, id), _) in due {
            self.pending.remove(&(group, id));
            ctx.violation(
                now,
                None,
                Some(group),
                format!(
                    "group {group} silent: request {id} produced no output within {}",
                    self.silent
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Time {
        Time::ZERO + Duration::from_micros(us)
    }

    fn params() -> MonitorParams {
        MonitorParams {
            output_bound: Duration::from_micros(100),
            transfer_stall: Duration::from_micros(500),
            silent_group: Duration::from_micros(200),
        }
    }

    fn configured() -> Watchdog {
        let mut dog = Watchdog::standard();
        dog.configure(&params());
        dog
    }

    #[test]
    fn view_agreement_flags_disagreeing_installer() {
        let mut dog = configured();
        dog.observe(
            t(0),
            &MonitorEvent::ViewInstalled {
                node: 0,
                number: 3,
                members: vec![0, 1, 2],
            },
        );
        dog.observe(
            t(1),
            &MonitorEvent::ViewInstalled {
                node: 1,
                number: 3,
                members: vec![0, 1, 2],
            },
        );
        assert!(dog.violations().is_empty());
        dog.observe(
            t(2),
            &MonitorEvent::ViewInstalled {
                node: 2,
                number: 3,
                members: vec![0, 2],
            },
        );
        let vs = dog.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].monitor, "view-agreement");
        assert_eq!(vs[0].at, t(2));
        assert_eq!(vs[0].node, Some(2));
    }

    #[test]
    fn delta_bound_flags_late_first_output_once() {
        let mut dog = configured();
        dog.observe(t(0), &MonitorEvent::RequestSubmitted { group: 0, id: 7 });
        dog.observe(
            t(150),
            &MonitorEvent::OutputEmitted {
                group: 0,
                member: 1,
                id: 7,
                expect_unique: false,
            },
        );
        dog.observe(
            t(160),
            &MonitorEvent::OutputEmitted {
                group: 0,
                member: 2,
                id: 7,
                expect_unique: false,
            },
        );
        let late: Vec<_> = dog
            .violations()
            .into_iter()
            .filter(|v| v.monitor == "delta-bound")
            .collect();
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].at, t(150));
        assert_eq!(late[0].group, Some(0));
    }

    #[test]
    fn on_time_output_is_not_flagged() {
        let mut dog = configured();
        dog.observe(t(0), &MonitorEvent::RequestSubmitted { group: 0, id: 7 });
        dog.observe(
            t(90),
            &MonitorEvent::OutputEmitted {
                group: 0,
                member: 1,
                id: 7,
                expect_unique: true,
            },
        );
        dog.wake(t(10_000));
        assert!(dog.violations().is_empty());
    }

    #[test]
    fn duplicate_output_flags_second_emission_only_when_unique_expected() {
        let mut dog = configured();
        for member in [0, 1] {
            dog.observe(
                t(10),
                &MonitorEvent::OutputEmitted {
                    group: 2,
                    member,
                    id: 9,
                    expect_unique: false,
                },
            );
        }
        assert!(dog.violations().is_empty());
        for member in [0, 1] {
            dog.observe(
                t(20),
                &MonitorEvent::OutputEmitted {
                    group: 3,
                    member,
                    id: 9,
                    expect_unique: true,
                },
            );
        }
        let vs = dog.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].monitor, "duplicate-output");
        assert_eq!(vs[0].group, Some(3));
    }

    #[test]
    fn stalled_transfer_fires_at_armed_deadline() {
        let mut dog = configured();
        assert!(dog.observe(t(0), &MonitorEvent::RejoinAnnounced { node: 4 }));
        let wakeups: Vec<Time> = dog.take_wakeups().collect();
        assert_eq!(wakeups, vec![t(500)]);
        // Progress re-arms the deadline.
        dog.observe(
            t(300),
            &MonitorEvent::TransferProgress { node: 4, chunks: 1 },
        );
        assert!(dog.take_wakeups().eq([t(800)]));
        dog.wake(t(500));
        assert!(dog.violations().is_empty(), "progress deferred the stall");
        dog.wake(t(800));
        let vs = dog.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].monitor, "stalled-transfer");
        assert_eq!(vs[0].at, t(800));
        assert_eq!(vs[0].node, Some(4));
    }

    #[test]
    fn completed_rejoin_disarms_the_stall_watchdog() {
        let mut dog = configured();
        dog.observe(t(0), &MonitorEvent::RejoinAnnounced { node: 4 });
        dog.observe(
            t(100),
            &MonitorEvent::RejoinCompleted {
                node: 4,
                view: 2,
                restarted_at: t(0),
            },
        );
        dog.wake(t(10_000));
        assert!(dog.violations().is_empty());
    }

    #[test]
    fn silent_group_fires_for_unanswered_request() {
        let mut dog = configured();
        dog.observe(t(0), &MonitorEvent::RequestSubmitted { group: 1, id: 3 });
        dog.observe(t(50), &MonitorEvent::RequestSubmitted { group: 1, id: 4 });
        dog.observe(
            t(60),
            &MonitorEvent::OutputEmitted {
                group: 1,
                member: 0,
                id: 4,
                expect_unique: true,
            },
        );
        dog.wake(t(200));
        let vs = dog.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].monitor, "silent-group");
        assert_eq!(vs[0].group, Some(1));
        assert!(vs[0].message.contains("request 3"));
    }

    #[test]
    fn violations_jsonl_round_trips_through_validation() {
        let mut dog = configured();
        dog.observe(t(0), &MonitorEvent::RequestSubmitted { group: 0, id: 1 });
        dog.wake(t(1_000));
        dog.observe(
            t(1_001),
            &MonitorEvent::ViewInstalled {
                node: 0,
                number: 1,
                members: vec![0],
            },
        );
        dog.observe(
            t(1_002),
            &MonitorEvent::ViewInstalled {
                node: 1,
                number: 1,
                members: vec![1],
            },
        );
        let jsonl = violations_to_jsonl(&dog.violations());
        assert_eq!(validate_violations(&jsonl).unwrap(), 2);
        assert!(validate_violations("{\"monitor\":\"x\"}").is_err());
        assert!(validate_violations("not json").is_err());
    }

    #[test]
    fn take_fresh_drains_but_keeps_cumulative_history() {
        let mut dog = configured();
        dog.observe(
            t(0),
            &MonitorEvent::ViewInstalled {
                node: 0,
                number: 1,
                members: vec![0],
            },
        );
        dog.observe(
            t(1),
            &MonitorEvent::ViewInstalled {
                node: 1,
                number: 1,
                members: vec![1],
            },
        );
        assert_eq!(dog.take_fresh().len(), 1);
        assert_eq!(dog.take_fresh().len(), 0);
        assert_eq!(dog.violations().len(), 1);
    }
}
