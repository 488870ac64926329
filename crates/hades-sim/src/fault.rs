//! Scripted fault plans: node crash windows and link-omission windows.
//!
//! The paper's fault model (Section 2.1) admits crash, omission and
//! coherent-value failures for processors, and omission plus performance
//! failures for the network. [`FaultPlan`] scripts the deterministic part of
//! that model — *when* a node crashes (and, for transient crashes, when it
//! restarts), *which* link loses messages during *which* interval — while
//! probabilistic omissions live in [`crate::net::LinkConfig`].
//!
//! A crash is a *window* `[crash_at, restart_at)`: the node is fail-silent
//! from the crash instant (inclusive) until its restart instant
//! (exclusive). A window with no restart is a permanent crash. A node may
//! have several disjoint windows, modelling repeated transient failures;
//! [`FaultPlan::next_transition`] lets an embedding engine schedule the
//! corresponding up/down flips.

use crate::net::NodeId;
use hades_time::{Duration, Time};

/// A time window during which messages on matching links are dropped.
///
/// `from`/`to` of `None` act as wildcards, so a single window can sever all
/// traffic into or out of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmissionWindow {
    /// Sending node filter (`None` = any sender).
    pub from: Option<NodeId>,
    /// Receiving node filter (`None` = any receiver).
    pub to: Option<NodeId>,
    /// First instant of the window (inclusive).
    pub start: Time,
    /// Last instant of the window (inclusive).
    pub end: Time,
}

impl OmissionWindow {
    /// Whether a message `from → to` sent at `now` falls in this window.
    pub fn matches(&self, from: NodeId, to: NodeId, now: Time) -> bool {
        self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
            && now >= self.start
            && now <= self.end
    }
}

/// A gray-failure window degrading (not severing) matching links: every
/// message on a matching link suffers `extra_delay` on top of its drawn
/// transit time and an additional independent loss probability.
///
/// `from`/`to` of `None` act as wildcards, mirroring [`OmissionWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedWindow {
    /// Sending node filter (`None` = any sender).
    pub from: Option<NodeId>,
    /// Receiving node filter (`None` = any receiver).
    pub to: Option<NodeId>,
    /// First instant of the window (inclusive).
    pub start: Time,
    /// Last instant of the window (inclusive).
    pub end: Time,
    /// Extra transit delay added to every delivered message.
    pub extra_delay: Duration,
    /// Additional loss probability (‰) on top of the link's own rate.
    pub extra_loss_permille: u32,
}

impl DegradedWindow {
    /// Whether a message `from → to` sent at `now` falls in this window.
    pub fn matches(&self, from: NodeId, to: NodeId, now: Time) -> bool {
        self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
            && now >= self.start
            && now <= self.end
    }
}

/// A gray-failure window slowing one node's CPU: work in `[start, end)`
/// progresses at `speed_permille / 1000` of real rate, so a lagging node
/// misses deadlines (and heartbeat emissions drift late) without being
/// down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowWindow {
    /// First slowed instant (inclusive).
    pub start: Time,
    /// End of the slowdown (exclusive) — full speed again from here.
    pub end: Time,
    /// CPU speed during the window, in permille of nominal (`1000` =
    /// full speed; clamped to at least 1 so work always progresses).
    pub speed_permille: u32,
}

impl SlowWindow {
    /// Whether the node runs slowed at `now` under this window.
    pub fn covers(&self, now: Time) -> bool {
        now >= self.start && now < self.end
    }
}

/// A per-node clock-skew entry: from `start` on, the node's local clock
/// advances at `1 + drift_ppb / 1e9` of real rate, stretching (negative
/// drift) or compressing (positive drift) every locally-measured
/// interval. The latest entry at or before an instant is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSkew {
    /// First skewed instant (inclusive).
    pub start: Time,
    /// Clock drift in parts per billion (positive = fast clock).
    pub drift_ppb: i64,
}

/// One crash window of a node: fail-silent during `[crash_at, restart_at)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// First instant of the outage (inclusive).
    pub crash_at: Time,
    /// Restart instant (exclusive end of the outage); `None` = the crash
    /// is permanent.
    pub restart_at: Option<Time>,
}

impl CrashWindow {
    /// Whether the node is down at `now` under this window.
    pub fn covers(&self, now: Time) -> bool {
        now >= self.crash_at && self.restart_at.is_none_or(|r| now < r)
    }
}

/// A deterministic script of faults to inject into a simulation run.
///
/// # Examples
///
/// ```
/// use hades_sim::{FaultPlan, NodeId};
/// use hades_time::Time;
///
/// let plan = FaultPlan::new()
///     .crash_at(NodeId(2), Time::from_nanos(1_000))
///     .crash_window(NodeId(1), Time::from_nanos(100), Time::from_nanos(500))
///     .cut_link(NodeId(0), NodeId(1), Time::from_nanos(10), Time::from_nanos(20));
/// assert!(plan.is_crashed(NodeId(2), Time::from_nanos(1_000)));
/// assert!(!plan.is_crashed(NodeId(2), Time::from_nanos(999)));
/// assert!(plan.is_crashed(NodeId(1), Time::from_nanos(499)));
/// assert!(!plan.is_crashed(NodeId(1), Time::from_nanos(500)), "restarted");
/// assert!(plan.link_cut(NodeId(0), NodeId(1), Time::from_nanos(15)));
/// ```
///
/// The per-node scripts (crash, slow and skew windows) are dense tables
/// indexed by node id, so the per-message and per-instance probes
/// ([`FaultPlan::is_crashed`], [`FaultPlan::down_during`]) are one bounds
/// check and a scan of that node's few windows. A table grows to the
/// largest node id a fault names; a node no fault names costs nothing to
/// probe.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    crashes: Vec<Vec<CrashWindow>>,
    windows: Vec<OmissionWindow>,
    degraded: Vec<DegradedWindow>,
    slows: Vec<Vec<SlowWindow>>,
    skews: Vec<Vec<ClockSkew>>,
}

/// The row of `node` in a per-node table: empty if the table never grew
/// that far.
fn row<T>(table: &[Vec<T>], node: NodeId) -> &[T] {
    table.get(node.0 as usize).map_or(&[], Vec::as_slice)
}

/// The row of `node`, growing the table to reach it.
fn row_mut<T>(table: &mut Vec<Vec<T>>, node: NodeId) -> &mut Vec<T> {
    let i = node.0 as usize;
    if table.len() <= i {
        table.resize_with(i + 1, Vec::new);
    }
    &mut table[i]
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a permanent crash (fail-silent, no restart) of `node` at
    /// time `at`.
    pub fn crash_at(mut self, node: NodeId, at: Time) -> Self {
        self.add_crash(node, at, None);
        self
    }

    /// Schedules a transient crash of `node`: fail-silent during
    /// `[crash_at, restart_at)`, back up (cold) from `restart_at` on.
    ///
    /// # Panics
    ///
    /// Panics if `restart_at <= crash_at`.
    pub fn crash_window(mut self, node: NodeId, crash_at: Time, restart_at: Time) -> Self {
        self.add_crash(node, crash_at, Some(restart_at));
        self
    }

    /// Sorts and merges a node's crash windows so queries are simple scans
    /// over disjoint, ordered intervals.
    fn normalize(ws: &mut Vec<CrashWindow>) {
        ws.sort_by_key(|w| (w.crash_at, w.restart_at.unwrap_or(Time::MAX)));
        let mut merged: Vec<CrashWindow> = Vec::with_capacity(ws.len());
        for w in ws.drain(..) {
            match merged.last_mut() {
                Some(last) if last.restart_at.is_none_or(|r| w.crash_at <= r) => {
                    // Overlapping or adjacent: extend the earlier window.
                    last.restart_at = match (last.restart_at, w.restart_at) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        _ => None,
                    };
                }
                _ => merged.push(w),
            }
        }
        *ws = merged;
    }

    /// In-place form of [`FaultPlan::crash_at`] / [`FaultPlan::crash_window`]
    /// for **runtime** fault injection into a plan already owned by a
    /// running network: adds the window and re-normalizes.
    ///
    /// # Panics
    ///
    /// Panics if `restart_at <= at`.
    pub fn add_crash(&mut self, node: NodeId, at: Time, restart_at: Option<Time>) {
        if let Some(r) = restart_at {
            assert!(r > at, "restart must follow the crash");
        }
        let ws = row_mut(&mut self.crashes, node);
        ws.push(CrashWindow {
            crash_at: at,
            restart_at,
        });
        Self::normalize(ws);
    }

    /// Closes the **open** (permanent) crash window of `node` covering
    /// `at` by scheduling its restart at `at` (runtime injection of a
    /// restart for an already-injected crash). Returns whether a window
    /// was closed; a call with no covering open window is a no-op — in
    /// particular, a window whose restart is already scheduled is never
    /// shortened (the restart events posted for it would fire spuriously
    /// on the then-live node).
    pub fn add_restart(&mut self, node: NodeId, at: Time) -> bool {
        let Some(ws) = self.crashes.get_mut(node.0 as usize) else {
            return false;
        };
        let Some(w) = ws
            .iter_mut()
            .find(|w| w.crash_at < at && w.restart_at.is_none())
        else {
            return false;
        };
        w.restart_at = Some(at);
        Self::normalize(ws);
        true
    }

    /// In-place form of [`FaultPlan::cut_link`] for runtime injection.
    pub fn add_cut(&mut self, from: NodeId, to: NodeId, start: Time, end: Time) {
        self.windows.push(OmissionWindow {
            from: Some(from),
            to: Some(to),
            start,
            end,
        });
    }

    /// Drops every message `from → to` sent within `[start, end]`.
    pub fn cut_link(mut self, from: NodeId, to: NodeId, start: Time, end: Time) -> Self {
        self.windows.push(OmissionWindow {
            from: Some(from),
            to: Some(to),
            start,
            end,
        });
        self
    }

    /// Degrades the directed link `from → to` within `[start, end]`:
    /// every message suffers `extra_delay` plus an additional
    /// `extra_loss_permille` chance of loss (gray failure, builder form).
    pub fn degrade_link(
        mut self,
        from: NodeId,
        to: NodeId,
        start: Time,
        end: Time,
        extra_delay: Duration,
        extra_loss_permille: u32,
    ) -> Self {
        self.add_degrade(
            Some(from),
            Some(to),
            start,
            end,
            extra_delay,
            extra_loss_permille,
        );
        self
    }

    /// In-place form of [`FaultPlan::degrade_link`] for runtime injection,
    /// with `None` endpoint filters acting as wildcards.
    pub fn add_degrade(
        &mut self,
        from: Option<NodeId>,
        to: Option<NodeId>,
        start: Time,
        end: Time,
        extra_delay: Duration,
        extra_loss_permille: u32,
    ) {
        self.degraded.push(DegradedWindow {
            from,
            to,
            start,
            end,
            extra_delay,
            extra_loss_permille: extra_loss_permille.min(1000),
        });
    }

    /// The combined degradation on the directed link `from → to` at `now`:
    /// total extra delay and saturated extra loss (‰) over every matching
    /// window, or `None` when no window matches (the common healthy case —
    /// callers must draw no randomness then).
    pub fn degrade(&self, from: NodeId, to: NodeId, now: Time) -> Option<(Duration, u32)> {
        let mut hit = false;
        let mut delay = Duration::ZERO;
        let mut loss: u32 = 0;
        for w in self.degraded.iter().filter(|w| w.matches(from, to, now)) {
            hit = true;
            delay += w.extra_delay;
            loss = (loss + w.extra_loss_permille).min(1000);
        }
        hit.then_some((delay, loss))
    }

    /// Slows `node`'s CPU to `speed_permille / 1000` of nominal during
    /// `[start, end)` (builder form).
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn slow_node(mut self, node: NodeId, start: Time, end: Time, speed_permille: u32) -> Self {
        self.add_slow(node, start, end, speed_permille);
        self
    }

    /// In-place form of [`FaultPlan::slow_node`] for runtime injection.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn add_slow(&mut self, node: NodeId, start: Time, end: Time, speed_permille: u32) {
        assert!(end > start, "slow window must have positive length");
        row_mut(&mut self.slows, node).push(SlowWindow {
            start,
            end,
            speed_permille: speed_permille.clamp(1, 1000),
        });
    }

    /// The CPU speed (‰ of nominal) of `node` at `now`: the minimum over
    /// all covering slow windows, `1000` when none covers.
    pub fn speed_permille(&self, node: NodeId, now: Time) -> u32 {
        row(&self.slows, node)
            .iter()
            .filter(|w| w.covers(now))
            .map(|w| w.speed_permille)
            .min()
            .unwrap_or(1000)
    }

    /// Whether `node` has any slow windows scheduled (cheap guard letting
    /// embeddings skip speed resynchronisation entirely on healthy runs).
    pub fn has_slow_windows(&self, node: NodeId) -> bool {
        !row(&self.slows, node).is_empty()
    }

    /// Skews `node`'s local clock from `start` on: it advances at
    /// `1 + drift_ppb / 1e9` of real rate (builder form). A later entry
    /// for the same node supersedes earlier ones from its start instant.
    pub fn skew_clock(mut self, node: NodeId, start: Time, drift_ppb: i64) -> Self {
        self.add_skew(node, start, drift_ppb);
        self
    }

    /// In-place form of [`FaultPlan::skew_clock`] for runtime injection.
    pub fn add_skew(&mut self, node: NodeId, start: Time, drift_ppb: i64) {
        let entries = row_mut(&mut self.skews, node);
        entries.push(ClockSkew { start, drift_ppb });
        entries.sort_by_key(|s| s.start);
    }

    /// The clock drift (ppb) of `node` in force at `now`: the latest
    /// entry whose start is at or before `now`, `0` when none.
    pub fn clock_drift_ppb(&self, node: NodeId, now: Time) -> i64 {
        row(&self.skews, node)
            .iter()
            .rfind(|s| s.start <= now)
            .map_or(0, |s| s.drift_ppb)
    }

    /// Whether `node` is down at `now`: inside some crash window
    /// (crash instant inclusive, restart instant exclusive).
    pub fn is_crashed(&self, node: NodeId, now: Time) -> bool {
        self.windows_of(node).iter().any(|w| w.covers(now))
    }

    /// The first scheduled crash time of `node`, if any.
    pub fn crash_time(&self, node: NodeId) -> Option<Time> {
        self.windows_of(node).first().map(|w| w.crash_at)
    }

    /// The crash windows of `node`: disjoint, in crash order.
    pub fn windows_of(&self, node: NodeId) -> &[CrashWindow] {
        row(&self.crashes, node)
    }

    /// The crash instant of the window of `node` covering `at`, if any:
    /// how long the node has been down at `at`.
    pub fn down_since(&self, node: NodeId, at: Time) -> Option<Time> {
        self.windows_of(node)
            .iter()
            .find(|w| w.covers(at))
            .map(|w| w.crash_at)
    }

    /// Whether `node` is down at any instant of `[from, to]`.
    pub fn down_during(&self, node: NodeId, from: Time, to: Time) -> bool {
        self.windows_of(node)
            .iter()
            .any(|w| w.crash_at <= to && w.restart_at.is_none_or(|r| from < r))
    }

    /// The next state transition of `node` strictly after `now`: the
    /// start or (exclusive) end of the next crash window or CPU slow
    /// window. Embedding engines schedule their up/down flips and speed
    /// resynchronisation points off this.
    pub fn next_transition(&self, node: NodeId, now: Time) -> Option<Time> {
        let crash_edges = self
            .windows_of(node)
            .iter()
            .flat_map(|w| [Some(w.crash_at), w.restart_at])
            .flatten();
        let slow_edges = row(&self.slows, node).iter().flat_map(|w| [w.start, w.end]);
        crash_edges.chain(slow_edges).filter(|t| *t > now).min()
    }

    /// Whether the directed link `from → to` is cut at `now` by any window.
    pub fn link_cut(&self, from: NodeId, to: NodeId, now: Time) -> bool {
        self.windows.iter().any(|w| w.matches(from, to, now))
    }

    /// All scheduled crash windows as `(node, window)` pairs, ordered by
    /// node then crash time.
    pub fn crash_windows(&self) -> Vec<(NodeId, CrashWindow)> {
        self.by_node()
            .flat_map(|(n, ws)| ws.iter().map(move |w| (n, *w)))
            .collect()
    }

    /// All scheduled restarts as `(node, time)` pairs in node order.
    pub fn restarts(&self) -> Vec<(NodeId, Time)> {
        self.crash_windows()
            .into_iter()
            .filter_map(|(n, w)| w.restart_at.map(|r| (n, r)))
            .collect()
    }

    /// First scheduled crashes as `(node, time)` pairs in node order
    /// (one entry per crashing node).
    pub fn crashes(&self) -> Vec<(NodeId, Time)> {
        self.by_node()
            .filter_map(|(n, ws)| Some((n, ws.first()?.crash_at)))
            .collect()
    }

    /// Every node's crash windows (each row disjoint and in crash order),
    /// in node order.
    fn by_node(&self) -> impl Iterator<Item = (NodeId, &[CrashWindow])> {
        let nodes = (0..).map(NodeId);
        nodes.zip(self.crashes.iter().map(Vec::as_slice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);

    fn ns(n: u64) -> Time {
        Time::from_nanos(n)
    }

    #[test]
    fn crash_is_permanent_from_instant() {
        let p = FaultPlan::new().crash_at(N1, ns(100));
        assert!(!p.is_crashed(N1, ns(99)));
        assert!(p.is_crashed(N1, ns(100)));
        assert!(p.is_crashed(N1, ns(1_000_000)));
        assert!(!p.is_crashed(N0, Time::MAX));
        assert_eq!(p.crash_time(N1), Some(ns(100)));
        assert_eq!(p.crash_time(N0), None);
    }

    #[test]
    fn window_queries_read_the_merged_windows() {
        let p = FaultPlan::new()
            .crash_window(N1, ns(100), ns(200))
            .crash_at(N1, ns(400));
        assert_eq!(p.windows_of(N1).len(), 2);
        assert!(p.windows_of(N0).is_empty());
        assert_eq!(p.down_since(N1, ns(99)), None);
        assert_eq!(p.down_since(N1, ns(199)), Some(ns(100)));
        assert_eq!(p.down_since(N1, ns(200)), None, "restart is exclusive");
        assert_eq!(p.down_since(N1, ns(9_999)), Some(ns(400)));
        assert!(p.down_during(N1, ns(50), ns(100)), "crash is inclusive");
        assert!(!p.down_during(N1, ns(200), ns(399)));
        assert!(p.down_during(N1, ns(300), ns(400)));
        assert!(!p.down_during(N0, Time::ZERO, Time::MAX));
    }

    #[test]
    fn a_node_past_every_table_has_no_faults() {
        // The tables are dense by node id and grow only to the largest
        // node a fault names; a probe beyond them (the control plane's
        // virtual node) finds nothing and allocates nothing.
        let far = NodeId(u32::MAX);
        let p = FaultPlan::new().crash_at(N2, ns(5));
        assert!(!p.is_crashed(far, ns(10)));
        assert!(p.windows_of(far).is_empty());
        assert!(!p.down_during(far, Time::ZERO, Time::MAX));
        assert_eq!(p.next_transition(far, Time::ZERO), None);
        assert_eq!(
            (
                p.speed_permille(far, ns(10)),
                p.clock_drift_ppb(far, ns(10))
            ),
            (1000, 0)
        );
        assert!(!p.has_slow_windows(far));
    }

    #[test]
    fn crash_window_ends_at_restart_exclusive() {
        let p = FaultPlan::new().crash_window(N1, ns(100), ns(500));
        assert!(!p.is_crashed(N1, ns(99)));
        assert!(p.is_crashed(N1, ns(100)));
        assert!(p.is_crashed(N1, ns(499)));
        assert!(!p.is_crashed(N1, ns(500)), "alive again at restart");
        assert!(!p.is_crashed(N1, ns(9_999)));
    }

    #[test]
    fn repeated_windows_model_repeated_failures() {
        let p = FaultPlan::new()
            .crash_window(N1, ns(100), ns(200))
            .crash_window(N1, ns(400), ns(600));
        assert!(p.is_crashed(N1, ns(150)));
        assert!(!p.is_crashed(N1, ns(300)));
        assert!(p.is_crashed(N1, ns(500)));
        assert!(!p.is_crashed(N1, ns(600)));
        assert_eq!(p.crash_time(N1), Some(ns(100)));
    }

    #[test]
    fn next_transition_walks_the_window_edges() {
        let p = FaultPlan::new()
            .crash_window(N1, ns(100), ns(200))
            .crash_at(N1, ns(400));
        assert_eq!(p.next_transition(N1, Time::ZERO), Some(ns(100)));
        assert_eq!(p.next_transition(N1, ns(100)), Some(ns(200)));
        assert_eq!(p.next_transition(N1, ns(250)), Some(ns(400)));
        assert_eq!(p.next_transition(N1, ns(400)), None, "permanent: no more");
        assert_eq!(p.next_transition(N0, Time::ZERO), None);
    }

    #[test]
    fn overlapping_windows_merge() {
        let p = FaultPlan::new()
            .crash_window(N1, ns(100), ns(300))
            .crash_window(N1, ns(200), ns(400));
        assert_eq!(
            p.crash_windows(),
            vec![(
                N1,
                CrashWindow {
                    crash_at: ns(100),
                    restart_at: Some(ns(400)),
                }
            )]
        );
        // A permanent crash swallows any later restart.
        let p = FaultPlan::new()
            .crash_at(N2, ns(50))
            .crash_window(N2, ns(80), ns(120));
        assert!(p.is_crashed(N2, ns(10_000)));
        assert!(p.restarts().is_empty());
    }

    #[test]
    fn restarts_listing() {
        let p = FaultPlan::new()
            .crash_window(N2, ns(5), ns(50))
            .crash_at(N0, ns(9));
        assert_eq!(p.restarts(), vec![(N2, ns(50))]);
        assert_eq!(p.crashes(), vec![(N0, ns(9)), (N2, ns(5))]);
    }

    #[test]
    fn link_window_is_inclusive_and_directional() {
        let p = FaultPlan::new().cut_link(N0, N1, ns(10), ns(20));
        assert!(!p.link_cut(N0, N1, ns(9)));
        assert!(p.link_cut(N0, N1, ns(10)));
        assert!(p.link_cut(N0, N1, ns(20)));
        assert!(!p.link_cut(N0, N1, ns(21)));
        assert!(!p.link_cut(N1, N0, ns(15)), "reverse direction unaffected");
    }

    #[test]
    fn crashes_listing_is_sorted() {
        let p = FaultPlan::new().crash_at(N2, ns(5)).crash_at(N0, ns(9));
        assert_eq!(p.crashes(), vec![(N0, ns(9)), (N2, ns(5))]);
    }

    #[test]
    fn degraded_windows_stack_delay_and_saturate_loss() {
        let d = Duration::from_nanos;
        let p = FaultPlan::new()
            .degrade_link(N0, N1, ns(10), ns(20), d(5), 600)
            .degrade_link(N0, N1, ns(15), ns(30), d(7), 700);
        assert_eq!(p.degrade(N0, N1, ns(9)), None);
        assert_eq!(p.degrade(N0, N1, ns(12)), Some((d(5), 600)));
        assert_eq!(p.degrade(N0, N1, ns(18)), Some((d(12), 1000)), "saturated");
        assert_eq!(p.degrade(N0, N1, ns(25)), Some((d(7), 700)));
        assert_eq!(p.degrade(N1, N0, ns(12)), None, "directional");
        assert_eq!(p.degrade(N0, N1, ns(31)), None);
    }

    #[test]
    fn slow_windows_take_the_minimum_speed_and_feed_transitions() {
        let p = FaultPlan::new()
            .slow_node(N1, ns(100), ns(200), 250)
            .slow_node(N1, ns(150), ns(300), 500);
        assert_eq!(p.speed_permille(N1, ns(99)), 1000);
        assert_eq!(p.speed_permille(N1, ns(100)), 250);
        assert_eq!(p.speed_permille(N1, ns(199)), 250, "min of overlaps");
        assert_eq!(p.speed_permille(N1, ns(200)), 500, "end is exclusive");
        assert_eq!(p.speed_permille(N1, ns(300)), 1000);
        assert_eq!(p.speed_permille(N0, ns(150)), 1000);
        assert!(p.has_slow_windows(N1));
        assert!(!p.has_slow_windows(N0));
        // next_transition now walks slow edges too.
        assert_eq!(p.next_transition(N1, Time::ZERO), Some(ns(100)));
        assert_eq!(p.next_transition(N1, ns(100)), Some(ns(150)));
        assert_eq!(p.next_transition(N1, ns(150)), Some(ns(200)));
        assert_eq!(p.next_transition(N1, ns(200)), Some(ns(300)));
        assert_eq!(p.next_transition(N1, ns(300)), None);
    }

    #[test]
    fn speed_is_clamped_to_progress() {
        let p = FaultPlan::new().slow_node(N0, ns(0), ns(10), 0);
        assert_eq!(p.speed_permille(N0, ns(5)), 1, "never fully stalled");
    }

    #[test]
    fn clock_skew_latest_entry_wins() {
        let p = FaultPlan::new()
            .skew_clock(N2, ns(100), 50_000)
            .skew_clock(N2, ns(200), -80_000);
        assert_eq!(p.clock_drift_ppb(N2, ns(99)), 0);
        assert_eq!(p.clock_drift_ppb(N2, ns(100)), 50_000);
        assert_eq!(p.clock_drift_ppb(N2, ns(250)), -80_000);
        assert_eq!(p.clock_drift_ppb(N0, ns(250)), 0);
    }
}
