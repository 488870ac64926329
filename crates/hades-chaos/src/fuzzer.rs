//! Random program generation, the violation oracle and the shrinker.
//!
//! [`ChaosFuzzer`] drives the loop: generate a random [`ChaosProgram`]
//! from a seeded [`SimRng`], run it against a fresh spec with
//! [`Watchdog::standard`] armed, and treat every raised
//! [`Violation`] as a counterexample. Because the whole engine is
//! deterministic, `(fuzzer seed, spec seed)` pins the entire campaign:
//! the same programs, the same violations, byte-identical JSONL.
//!
//! Found counterexamples are delta-debugged by [`ChaosFuzzer::shrink`]:
//! first drop whole ops to a fixpoint (local minimality — removing any
//! single remaining op loses the violation), then narrow what is left
//! (halve long fault windows, shed burst victims), then *canonicalize*
//! it — shift surviving ops earlier in time and relabel their nodes
//! downward — while the violation keeps firing, repeating all four until
//! a pass changes nothing. Canonical minimized
//! programs let [`ChaosFuzzer::campaign`] discard isomorphic
//! counterexamples (same fault shape up to node relabeling and time
//! translation) instead of reporting the same bug once per seed quirk.

use hades_cluster::ClusterSpec;
use hades_sim::SimRng;
use hades_telemetry::monitor::{violations_to_jsonl, Violation, Watchdog};
use hades_time::{Duration, Time};

use crate::program::{ChaosOp, ChaosProgram, ProgramDriver};

/// The identity of a violation, stable across runs: which monitor
/// fired, against which node and/or group. The instant and message are
/// deliberately excluded so a shrunk program that moves the firing
/// time still counts as reproducing the same bug.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViolationKey {
    /// Monitor name (e.g. `"stalled-transfer"`).
    pub monitor: String,
    /// The node charged with the violation, if the monitor names one.
    pub node: Option<u32>,
    /// The group charged with the violation, if the monitor names one.
    pub group: Option<u32>,
}

impl ViolationKey {
    /// The key of a concrete violation.
    pub fn of(v: &Violation) -> ViolationKey {
        ViolationKey {
            monitor: v.monitor.clone(),
            node: v.node,
            group: v.group,
        }
    }

    /// Whether `v` is an instance of this key.
    pub fn matches(&self, v: &Violation) -> bool {
        v.monitor == self.monitor
            && v.node == self.node
            && (self.group.is_none() || v.group == self.group)
    }
}

/// Shape of the fuzzing target and of the generated programs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Cluster size of each generated scenario.
    pub nodes: u32,
    /// Horizon of each run.
    pub horizon: Duration,
    /// Seed of the *spec* (network jitter, workload think times) — the
    /// fuzzer's own seed, passed separately, drives program generation.
    pub spec_seed: u64,
    /// Upper bound on ops per generated program (at least 2 are drawn).
    pub max_ops: usize,
    /// Service names the load-level ops (throttle/retire/admit) target.
    pub services: Vec<String>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            nodes: 4,
            horizon: Duration::from_millis(100),
            spec_seed: 7,
            max_ops: 6,
            services: vec!["store".to_string()],
        }
    }
}

/// One found-and-minimized counterexample from a campaign.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Which generated program (0-based) tripped the watchdog.
    pub index: usize,
    /// The program as generated.
    pub program: ChaosProgram,
    /// The delta-debugged program: still reproduces `key`, and
    /// removing any single op no longer does.
    pub minimized: ChaosProgram,
    /// The violation identity used to steer the shrink.
    pub key: ViolationKey,
    /// Every violation the original program raised.
    pub violations: Vec<Violation>,
}

/// The outcome of a fuzzing campaign.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    /// How many programs were generated and run.
    pub programs_run: usize,
    /// The counterexamples found, in generation order.
    pub counterexamples: Vec<Counterexample>,
    /// Violating programs discarded because their minimized form was
    /// isomorphic (equal up to node relabeling and time translation)
    /// to an earlier counterexample's.
    pub duplicates_skipped: usize,
}

impl Campaign {
    /// Every violation of every counterexample as schema-checked JSONL
    /// (the same line format `hades_telemetry::monitor` exports).
    pub fn violations_jsonl(&self) -> String {
        let mut out = String::new();
        for cx in &self.counterexamples {
            out.push_str(&violations_to_jsonl(&cx.violations));
        }
        out
    }
}

/// Invariant-guided scenario fuzzer over a spec factory.
pub struct ChaosFuzzer {
    cfg: FuzzConfig,
    factory: Box<dyn Fn() -> ClusterSpec>,
    rng: SimRng,
}

impl std::fmt::Debug for ChaosFuzzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosFuzzer")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl ChaosFuzzer {
    /// Builds a fuzzer over an arbitrary plan-free spec factory. The
    /// factory must *not* attach a driver or scenario plan of its own —
    /// the fuzzer installs the generated program as the driver.
    pub fn new(cfg: FuzzConfig, seed: u64, factory: Box<dyn Fn() -> ClusterSpec>) -> Self {
        ChaosFuzzer {
            cfg,
            factory,
            rng: SimRng::seed_from(seed).split(0x0011_ADE5),
        }
    }

    /// Builds a fuzzer over [`crate::specs::standard_spec`] with the
    /// shape in `cfg`.
    pub fn standard(cfg: FuzzConfig, seed: u64) -> Self {
        let (nodes, horizon, spec_seed) = (cfg.nodes, cfg.horizon, cfg.spec_seed);
        ChaosFuzzer::new(
            cfg,
            seed,
            Box::new(move || crate::specs::standard_spec(nodes, horizon, spec_seed)),
        )
    }

    /// The configured shape.
    pub fn config(&self) -> &FuzzConfig {
        &self.cfg
    }

    /// A random instant in the first 5–70 % of the horizon, quantized
    /// to 10 µs so programs read cleanly and shrink stably.
    fn instant(&mut self) -> Time {
        let h = self.cfg.horizon.as_nanos();
        let raw = self.rng.range_inclusive(h / 20, h * 7 / 10);
        Time::ZERO + Duration::from_nanos(raw / 10_000 * 10_000)
    }

    /// A random fault window starting at [`Self::instant`], lasting
    /// 500 µs up to 30 % of the horizon.
    fn window(&mut self) -> (Time, Time) {
        let at = self.instant();
        let h = self.cfg.horizon.as_nanos();
        let len = self.rng.range_inclusive(500_000, (h * 3 / 10).max(500_001));
        (at, at + Duration::from_nanos(len / 10_000 * 10_000))
    }

    fn any_node(&mut self) -> u32 {
        self.rng.below(self.cfg.nodes as u64) as u32
    }

    fn any_service(&mut self) -> String {
        let i = self.rng.below(self.cfg.services.len().max(1) as u64) as usize;
        self.cfg
            .services
            .get(i)
            .cloned()
            .unwrap_or_else(|| "store".to_string())
    }

    /// Draws one random program: 2 to `max_ops` ops over the whole
    /// fault/load vocabulary, biased toward the ops that historically
    /// find protocol bugs (crashes and gray link failures).
    pub fn generate(&mut self) -> ChaosProgram {
        let count = self.rng.range_inclusive(2, self.cfg.max_ops.max(2) as u64);
        let mut ops = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let roll = self.rng.below(100);
            let op = if roll < 35 {
                let (at, until) = self.window();
                ChaosOp::Crash {
                    node: self.any_node(),
                    at,
                    until: if self.rng.chance_permille(250) {
                        None
                    } else {
                        Some(until)
                    },
                }
            } else if roll < 50 {
                let from = self.any_node();
                let to = (from + 1 + self.rng.below(self.cfg.nodes.max(2) as u64 - 1) as u32)
                    % self.cfg.nodes;
                let (at, until) = self.window();
                ChaosOp::CutOneWay {
                    from,
                    to,
                    at,
                    until,
                }
            } else if roll < 62 {
                let from = self.any_node();
                let to = (from + 1 + self.rng.below(self.cfg.nodes.max(2) as u64 - 1) as u32)
                    % self.cfg.nodes;
                let (at, until) = self.window();
                ChaosOp::Degrade {
                    from,
                    to,
                    at,
                    until,
                    extra_delay: Duration::from_micros(self.rng.range_inclusive(50, 2_000)),
                    loss_permille: self.rng.range_inclusive(100, 900) as u32,
                }
            } else if roll < 72 {
                let (at, until) = self.window();
                ChaosOp::Slow {
                    node: self.any_node(),
                    at,
                    until,
                    speed_permille: self.rng.range_inclusive(50, 800) as u32,
                }
            } else if roll < 79 {
                let magnitude = self.rng.range_inclusive(100_000, 10_000_000) as i64;
                ChaosOp::Skew {
                    node: self.any_node(),
                    at: self.instant(),
                    drift_ppb: if self.rng.chance_permille(500) {
                        magnitude
                    } else {
                        -magnitude
                    },
                }
            } else if roll < 88 {
                let root = self.any_node();
                let spares = self.cfg.nodes.saturating_sub(1).max(1) as u64;
                let k = self.rng.range_inclusive(1, spares.min(3));
                let mut victims: Vec<u32> = (0..self.cfg.nodes).filter(|n| *n != root).collect();
                self.rng.shuffle(&mut victims);
                victims.truncate(k as usize);
                ChaosOp::CcfBurst {
                    root,
                    victims,
                    spacing: Duration::from_micros(self.rng.range_inclusive(100, 1_000)),
                    down: Duration::from_millis(self.rng.range_inclusive(2, 20)),
                }
            } else if roll < 94 {
                ChaosOp::Throttle {
                    service: self.any_service(),
                    at: self.instant(),
                    permille: self.rng.range_inclusive(0, 900) as u32,
                }
            } else if roll < 97 {
                ChaosOp::Retire {
                    service: self.any_service(),
                    at: self.instant(),
                }
            } else {
                ChaosOp::Admit {
                    service: self.any_service(),
                    at: self.instant(),
                }
            };
            ops.push(op);
        }
        ChaosProgram { ops }
    }

    /// Runs `program` against a fresh spec with the standard watchdog
    /// armed and returns every violation it raised.
    pub fn violations_of(&self, program: &ChaosProgram) -> Vec<Violation> {
        (self.factory)()
            .monitors(Watchdog::standard())
            .driver(Box::new(ProgramDriver::new(program.clone())))
            .run()
            .expect("chaos base spec must be valid")
            .violations()
            .to_vec()
    }

    /// Whether `program` still raises a violation matching `key`.
    pub fn reproduces(&self, program: &ChaosProgram, key: &ViolationKey) -> bool {
        self.violations_of(program).iter().any(|v| key.matches(v))
    }

    /// Delta-debugs `program` against `key`.
    ///
    /// Phase 1 removes whole ops to a fixpoint, so the result is
    /// *locally minimal*: dropping any single remaining op loses the
    /// violation. Phase 2 narrows in place — halves fault windows of
    /// 2 ms or more and sheds burst victims — as long as the violation
    /// keeps reproducing. Phases 3 and 4 canonicalize: shift surviving
    /// ops earlier (halving their start offset, windows keep their
    /// length) and relabel node identifiers downward, again only while
    /// the same key keeps firing. The four phases repeat until a whole
    /// pass leaves the program unchanged, since a later phase can make an
    /// op removable again. Every accepted step strictly shrinks a
    /// well-founded measure (op count, window length, start offset,
    /// node-label sum), so the loop terminates; determinism of the runs
    /// makes the whole shrink a pure function of `(program, key)`.
    pub fn shrink(&self, program: &ChaosProgram, key: &ViolationKey) -> ChaosProgram {
        let mut best = program.clone();
        if !self.reproduces(&best, key) {
            return best;
        }
        loop {
            let before = best.clone();
            // Phase 1: drop whole ops until no single removal reproduces.
            loop {
                let mut removed = false;
                let mut i = 0;
                while i < best.ops.len() {
                    if best.ops.len() == 1 {
                        break;
                    }
                    let mut candidate = best.clone();
                    candidate.ops.remove(i);
                    if self.reproduces(&candidate, key) {
                        best = candidate;
                        removed = true;
                    } else {
                        i += 1;
                    }
                }
                if !removed {
                    break;
                }
            }
            // Phase 2: narrow surviving ops while the violation holds.
            loop {
                let mut narrowed = false;
                for i in 0..best.ops.len() {
                    while let Some(candidate) = narrow_op(&best, i) {
                        if self.reproduces(&candidate, key) {
                            best = candidate;
                            narrowed = true;
                        } else {
                            break;
                        }
                    }
                }
                if !narrowed {
                    break;
                }
            }
            // Phase 3: shift surviving ops earlier in time.
            loop {
                let mut shifted = false;
                for i in 0..best.ops.len() {
                    while let Some(candidate) = shift_op(&best, i) {
                        if self.reproduces(&candidate, key) {
                            best = candidate;
                            shifted = true;
                        } else {
                            break;
                        }
                    }
                }
                if !shifted {
                    break;
                }
            }
            // Phase 4: relabel node identifiers toward the smallest ids.
            loop {
                let mut lowered = false;
                'ops: for i in 0..best.ops.len() {
                    for candidate in lower_nodes(&best, i) {
                        if self.reproduces(&candidate, key) {
                            best = candidate;
                            lowered = true;
                            continue 'ops;
                        }
                    }
                }
                if !lowered {
                    break;
                }
            }
            if best == before {
                break;
            }
        }
        best
    }

    /// Generates and runs `programs` programs; every program whose run
    /// raises at least one violation becomes a [`Counterexample`] keyed
    /// by its first violation and shrunk to a locally minimal program.
    /// Counterexamples whose minimized program is isomorphic to an
    /// earlier one's — the same monitor and fault shape up to node
    /// relabeling and time translation — are counted in
    /// [`Campaign::duplicates_skipped`] instead of reported again.
    pub fn campaign(&mut self, programs: usize) -> Campaign {
        let mut counterexamples: Vec<Counterexample> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut duplicates_skipped = 0;
        for index in 0..programs {
            let program = self.generate();
            let violations = self.violations_of(&program);
            let Some(first) = violations.first() else {
                continue;
            };
            let key = ViolationKey::of(first);
            let minimized = self.shrink(&program, &key);
            if !seen.insert(signature(&minimized, &key)) {
                duplicates_skipped += 1;
                continue;
            }
            counterexamples.push(Counterexample {
                index,
                program,
                minimized,
                key,
                violations,
            });
        }
        Campaign {
            programs_run: programs,
            counterexamples,
            duplicates_skipped,
        }
    }
}

/// One strictly-smaller variant of op `i`, if any narrowing applies:
/// halve a fault window of at least 2 ms, or drop the last burst
/// victim. `None` when the op is already as tight as this pass goes.
fn narrow_op(program: &ChaosProgram, i: usize) -> Option<ChaosProgram> {
    const FLOOR: Duration = Duration::from_millis(2);
    let halve = |at: Time, until: Time| -> Option<Time> {
        let len = until - at;
        (len >= FLOOR).then(|| at + len / 2)
    };
    let mut candidate = program.clone();
    match &mut candidate.ops[i] {
        ChaosOp::Crash {
            at,
            until: Some(until),
            ..
        } => *until = halve(*at, *until)?,
        ChaosOp::CutOneWay { at, until, .. }
        | ChaosOp::Degrade { at, until, .. }
        | ChaosOp::Slow { at, until, .. } => *until = halve(*at, *until)?,
        ChaosOp::CcfBurst { victims, .. } => {
            if victims.len() <= 1 {
                return None;
            }
            victims.pop();
        }
        _ => return None,
    }
    Some(candidate)
}

/// Op `i` translated earlier in time: its start offset from
/// [`Time::ZERO`] is halved (10 µs quantized) and any fault window
/// keeps its length. `None` when the op carries no instant
/// (detection-triggered bursts) or already starts at the origin.
fn shift_op(program: &ChaosProgram, i: usize) -> Option<ChaosProgram> {
    let earlier = |at: Time| -> Option<Time> {
        let offset = at - Time::ZERO;
        let half = Duration::from_nanos(offset.as_nanos() / 2 / 10_000 * 10_000);
        (half < offset).then(|| Time::ZERO + half)
    };
    let mut candidate = program.clone();
    match &mut candidate.ops[i] {
        ChaosOp::Crash { at, until, .. } => {
            let new_at = earlier(*at)?;
            if let Some(until) = until {
                *until = new_at + (*until - *at);
            }
            *at = new_at;
        }
        ChaosOp::CutOneWay { at, until, .. }
        | ChaosOp::Degrade { at, until, .. }
        | ChaosOp::Slow { at, until, .. } => {
            let new_at = earlier(*at)?;
            *until = new_at + (*until - *at);
            *at = new_at;
        }
        ChaosOp::Skew { at, .. }
        | ChaosOp::Throttle { at, .. }
        | ChaosOp::Retire { at, .. }
        | ChaosOp::Admit { at, .. } => *at = earlier(*at)?,
        ChaosOp::CcfBurst { .. } => return None,
    }
    Some(candidate)
}

/// Every variant of op `i` with exactly one node identifier replaced
/// by a strictly smaller one, smallest replacement first. Link ops
/// never become self-links and burst victims stay distinct from each
/// other and the root, so every candidate is still well-formed.
fn lower_nodes(program: &ChaosProgram, i: usize) -> Vec<ChaosProgram> {
    let mut out = Vec::new();
    let mut push = |op: ChaosOp| {
        let mut candidate = program.clone();
        candidate.ops[i] = op;
        out.push(candidate);
    };
    match &program.ops[i] {
        ChaosOp::Crash { node, .. } | ChaosOp::Slow { node, .. } | ChaosOp::Skew { node, .. } => {
            for n in 0..*node {
                let mut op = program.ops[i].clone();
                match &mut op {
                    ChaosOp::Crash { node, .. }
                    | ChaosOp::Slow { node, .. }
                    | ChaosOp::Skew { node, .. } => *node = n,
                    _ => unreachable!(),
                }
                push(op);
            }
        }
        ChaosOp::CutOneWay { from, to, .. } | ChaosOp::Degrade { from, to, .. } => {
            for f in (0..*from).filter(|f| f != to) {
                let mut op = program.ops[i].clone();
                match &mut op {
                    ChaosOp::CutOneWay { from, .. } | ChaosOp::Degrade { from, .. } => *from = f,
                    _ => unreachable!(),
                }
                push(op);
            }
            for t in (0..*to).filter(|t| t != from) {
                let mut op = program.ops[i].clone();
                match &mut op {
                    ChaosOp::CutOneWay { to, .. } | ChaosOp::Degrade { to, .. } => *to = t,
                    _ => unreachable!(),
                }
                push(op);
            }
        }
        ChaosOp::CcfBurst { root, victims, .. } => {
            for r in (0..*root).filter(|r| !victims.contains(r)) {
                let mut op = program.ops[i].clone();
                if let ChaosOp::CcfBurst { root, .. } = &mut op {
                    *root = r;
                }
                push(op);
            }
            for (vi, v) in victims.iter().enumerate() {
                for n in (0..*v).filter(|n| n != root && !victims.contains(n)) {
                    let mut op = program.ops[i].clone();
                    if let ChaosOp::CcfBurst { victims, .. } = &mut op {
                        victims[vi] = n;
                    }
                    push(op);
                }
            }
        }
        ChaosOp::Throttle { .. } | ChaosOp::Retire { .. } | ChaosOp::Admit { .. } => {}
    }
    out
}

/// A fingerprint of `(program, key)` invariant under node relabeling
/// and rigid time translation: every instant is rebased to the
/// program's earliest one and nodes are renumbered in order of first
/// appearance, the key's charged node first — so the same fault shape
/// charging a different node still collapses. Op order is preserved
/// (the shrinker canonicalizes content, not sequence).
fn signature(program: &ChaosProgram, key: &ViolationKey) -> String {
    let instants = |op: &ChaosOp| -> Vec<Time> {
        match op {
            ChaosOp::Crash { at, until, .. } => {
                let mut v = vec![*at];
                v.extend(*until);
                v
            }
            ChaosOp::CutOneWay { at, until, .. }
            | ChaosOp::Degrade { at, until, .. }
            | ChaosOp::Slow { at, until, .. } => vec![*at, *until],
            ChaosOp::Skew { at, .. }
            | ChaosOp::Throttle { at, .. }
            | ChaosOp::Retire { at, .. }
            | ChaosOp::Admit { at, .. } => vec![*at],
            ChaosOp::CcfBurst { .. } => vec![],
        }
    };
    let origin = program
        .ops
        .iter()
        .flat_map(&instants)
        .min()
        .unwrap_or(Time::ZERO);
    let mut relabel = std::collections::BTreeMap::new();
    if let Some(node) = key.node {
        relabel.insert(node, 0u32);
    }
    let canon = |node: u32, map: &mut std::collections::BTreeMap<u32, u32>| -> u32 {
        let next = map.len() as u32;
        *map.entry(node).or_insert(next)
    };
    let mut rebased = program.clone();
    for op in &mut rebased.ops {
        match op {
            ChaosOp::Crash { node, at, until } => {
                *node = canon(*node, &mut relabel);
                *at = Time::ZERO + (*at - origin);
                if let Some(until) = until {
                    *until = Time::ZERO + (*until - origin);
                }
            }
            ChaosOp::CutOneWay {
                from,
                to,
                at,
                until,
            }
            | ChaosOp::Degrade {
                from,
                to,
                at,
                until,
                ..
            } => {
                *from = canon(*from, &mut relabel);
                *to = canon(*to, &mut relabel);
                *at = Time::ZERO + (*at - origin);
                *until = Time::ZERO + (*until - origin);
            }
            ChaosOp::Slow {
                node, at, until, ..
            } => {
                *node = canon(*node, &mut relabel);
                *at = Time::ZERO + (*at - origin);
                *until = Time::ZERO + (*until - origin);
            }
            ChaosOp::Skew { node, at, .. } => {
                *node = canon(*node, &mut relabel);
                *at = Time::ZERO + (*at - origin);
            }
            ChaosOp::CcfBurst { root, victims, .. } => {
                *root = canon(*root, &mut relabel);
                for victim in victims {
                    *victim = canon(*victim, &mut relabel);
                }
            }
            ChaosOp::Throttle { at, .. }
            | ChaosOp::Retire { at, .. }
            | ChaosOp::Admit { at, .. } => {
                *at = Time::ZERO + (*at - origin);
            }
        }
    }
    format!("{}/g{:?} {}", key.monitor, key.group, rebased.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn t(n: u64) -> Time {
        Time::ZERO + ms(n)
    }

    /// A serverless-rejoin blackout: node 0 restarts into a dead
    /// cluster. Used to seed the corpus until rejoin re-announcement +
    /// singleton-view bootstrap fixed the stall; kept as a heavy
    /// crash-storm program for engine-robustness tests.
    fn blackout_program() -> ChaosProgram {
        let mut ops = vec![ChaosOp::Crash {
            node: 0,
            at: t(15),
            until: Some(t(35)),
        }];
        for node in 1..4 {
            ops.push(ChaosOp::Crash {
                node,
                at: t(34),
                until: Some(t(70)),
            });
        }
        ChaosProgram { ops }
    }

    /// The committed `skewed-leader-silence` counterexample: a fast
    /// clock on the store leader answers every request ~4 ms late,
    /// starving the silent-group window.
    fn silence_program() -> ChaosProgram {
        ChaosProgram {
            ops: vec![ChaosOp::Skew {
                node: 0,
                at: Time::ZERO,
                drift_ppb: 8_799_611,
            }],
        }
    }

    fn silence_key() -> ViolationKey {
        ViolationKey {
            monitor: "silent-group".into(),
            node: None,
            group: Some(0),
        }
    }

    #[test]
    fn the_known_silence_reproduces_through_the_program_driver() {
        let fuzzer = ChaosFuzzer::standard(FuzzConfig::default(), 1);
        assert!(fuzzer.reproduces(&silence_program(), &silence_key()));
    }

    #[test]
    fn the_graduated_stall_no_longer_reproduces() {
        // The serverless-rejoin stall graduated out of the corpus:
        // re-announcement failover plus singleton-view bootstrap keep
        // the joiner making progress, so its old key must stay silent.
        let fuzzer = ChaosFuzzer::standard(FuzzConfig::default(), 1);
        let key = ViolationKey {
            monitor: "stalled-transfer".into(),
            node: Some(0),
            group: None,
        };
        assert!(!fuzzer.reproduces(&blackout_program(), &key));
    }

    #[test]
    fn generation_is_deterministic_under_a_fixed_seed() {
        let mut a = ChaosFuzzer::standard(FuzzConfig::default(), 99);
        let mut b = ChaosFuzzer::standard(FuzzConfig::default(), 99);
        for _ in 0..16 {
            assert_eq!(a.generate(), b.generate());
        }
        let mut c = ChaosFuzzer::standard(FuzzConfig::default(), 100);
        let differs = (0..16).any(|_| a.generate() != c.generate());
        assert!(differs, "different seeds draw different programs");
    }

    #[test]
    fn generated_programs_stay_in_shape() {
        let cfg = FuzzConfig::default();
        let mut fuzzer = ChaosFuzzer::standard(cfg.clone(), 5);
        for _ in 0..64 {
            let p = fuzzer.generate();
            assert!((2..=cfg.max_ops).contains(&p.ops.len()));
            for op in &p.ops {
                match op {
                    ChaosOp::Crash { node, .. }
                    | ChaosOp::Slow { node, .. }
                    | ChaosOp::Skew { node, .. } => assert!(*node < cfg.nodes),
                    ChaosOp::CutOneWay { from, to, .. } | ChaosOp::Degrade { from, to, .. } => {
                        assert!(*from < cfg.nodes && *to < cfg.nodes);
                        assert_ne!(from, to, "self-links are never cut");
                    }
                    ChaosOp::CcfBurst { root, victims, .. } => {
                        assert!(!victims.is_empty());
                        assert!(victims.iter().all(|v| *v < cfg.nodes && v != root));
                    }
                    ChaosOp::Throttle { service, .. }
                    | ChaosOp::Retire { service, .. }
                    | ChaosOp::Admit { service, .. } => {
                        assert!(cfg.services.contains(service));
                    }
                }
            }
        }
    }

    /// Regression: a fast skewed clock used to collapse tiny re-armed
    /// deadline intervals to zero real time, spinning the engine at one
    /// instant forever. The run must terminate.
    #[test]
    fn fast_clock_skew_does_not_wedge_the_engine() {
        let fuzzer = ChaosFuzzer::standard(FuzzConfig::default(), 1);
        let mut p = blackout_program();
        p.ops.push(ChaosOp::Skew {
            node: 2,
            at: t(1),
            drift_ppb: 1_000_000,
        });
        let _ = fuzzer.violations_of(&p);
    }

    #[test]
    fn shrinking_the_silence_keeps_it_reproducing_and_locally_minimal() {
        let fuzzer = ChaosFuzzer::standard(FuzzConfig::default(), 1);
        let key = silence_key();
        // Pad the real counterexample with irrelevant noise ops.
        let mut padded = silence_program();
        padded.ops.push(ChaosOp::CutOneWay {
            from: 1,
            to: 2,
            at: t(8),
            until: t(11),
        });
        padded.ops.push(ChaosOp::Throttle {
            service: "store".into(),
            at: t(5),
            permille: 800,
        });
        let minimized = fuzzer.shrink(&padded, &key);
        assert!(fuzzer.reproduces(&minimized, &key));
        assert!(minimized.ops.len() < padded.ops.len(), "noise dropped");
        for i in 0..minimized.ops.len() {
            let mut without = minimized.clone();
            without.ops.remove(i);
            assert!(
                !fuzzer.reproduces(&without, &key),
                "op {i} is load-bearing in the minimized program"
            );
        }
    }

    #[test]
    fn shrinking_repeats_its_phases_until_no_single_op_can_go() {
        // Campaign seed 11, program #070: one pass of the four phases
        // left 3 ops, one of them removable once the others had been
        // narrowed and shifted.
        let fuzzer = ChaosFuzzer::standard(FuzzConfig::default(), 11);
        let ns = Time::from_nanos;
        let program = ChaosProgram {
            ops: vec![
                ChaosOp::Crash {
                    node: 3,
                    at: ns(16_570_000),
                    until: None,
                },
                ChaosOp::CcfBurst {
                    root: 3,
                    victims: vec![2, 0, 1],
                    spacing: Duration::from_micros(179),
                    down: ms(10),
                },
                ChaosOp::Throttle {
                    service: "store".into(),
                    at: ns(59_540_000),
                    permille: 149,
                },
                ChaosOp::Crash {
                    node: 0,
                    at: ns(57_030_000),
                    until: Some(ns(59_620_000)),
                },
                ChaosOp::Crash {
                    node: 3,
                    at: ns(34_520_000),
                    until: Some(ns(55_430_000)),
                },
                ChaosOp::Crash {
                    node: 3,
                    at: ns(53_720_000),
                    until: None,
                },
            ],
        };
        let key = silence_key();
        let minimized = fuzzer.shrink(&program, &key);
        assert!(fuzzer.reproduces(&minimized, &key));
        for i in 0..minimized.ops.len() {
            let mut without = minimized.clone();
            without.ops.remove(i);
            assert!(
                !fuzzer.reproduces(&without, &key),
                "op {i} of {minimized:?} is removable"
            );
        }
    }

    #[test]
    fn shrinking_shifts_the_surviving_ops_to_the_earliest_reproducing_instant() {
        // The silence skew was mined at ~47 ms into the run; because
        // the drift hurts from the very first request, phase 3 must
        // slide it all the way back to the origin.
        let fuzzer = ChaosFuzzer::standard(FuzzConfig::default(), 1);
        let late = ChaosProgram {
            ops: vec![ChaosOp::Skew {
                node: 0,
                at: Time::ZERO + Duration::from_nanos(47_210_000),
                drift_ppb: 8_799_611,
            }],
        };
        let minimized = fuzzer.shrink(&late, &silence_key());
        assert_eq!(minimized, silence_program(), "skew canonicalizes to t=0");
    }

    #[test]
    fn shifting_halves_start_offsets_and_keeps_window_lengths() {
        let program = ChaosProgram {
            ops: vec![ChaosOp::CutOneWay {
                from: 1,
                to: 2,
                at: t(40),
                until: t(44),
            }],
        };
        let shifted = shift_op(&program, 0).expect("shiftable");
        assert_eq!(
            shifted.ops[0],
            ChaosOp::CutOneWay {
                from: 1,
                to: 2,
                at: t(20),
                until: t(24),
            }
        );
        // At the origin there is nowhere earlier to go.
        let origin = ChaosProgram {
            ops: vec![ChaosOp::Skew {
                node: 0,
                at: Time::ZERO,
                drift_ppb: 1,
            }],
        };
        assert_eq!(shift_op(&origin, 0), None);
        // Detection-triggered bursts carry no instant to shift.
        let burst = ChaosProgram {
            ops: vec![ChaosOp::CcfBurst {
                root: 0,
                victims: vec![1],
                spacing: ms(1),
                down: ms(5),
            }],
        };
        assert_eq!(shift_op(&burst, 0), None);
    }

    #[test]
    fn node_lowering_keeps_links_and_bursts_well_formed() {
        let cut = ChaosProgram {
            ops: vec![ChaosOp::CutOneWay {
                from: 2,
                to: 1,
                at: t(10),
                until: t(12),
            }],
        };
        for candidate in lower_nodes(&cut, 0) {
            let ChaosOp::CutOneWay { from, to, .. } = &candidate.ops[0] else {
                panic!("lowering changed the op kind");
            };
            assert_ne!(from, to, "lowering produced a self-link");
            assert!(from + to < 3, "one label strictly decreased");
        }
        let burst = ChaosProgram {
            ops: vec![ChaosOp::CcfBurst {
                root: 3,
                victims: vec![2, 1],
                spacing: ms(1),
                down: ms(5),
            }],
        };
        for candidate in lower_nodes(&burst, 0) {
            let ChaosOp::CcfBurst { root, victims, .. } = &candidate.ops[0] else {
                panic!("lowering changed the op kind");
            };
            assert!(!victims.contains(root), "root became its own victim");
            let mut dedup = victims.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), victims.len(), "victims collided");
        }
        // Load ops carry no node labels to lower.
        let throttle = ChaosProgram {
            ops: vec![ChaosOp::Throttle {
                service: "store".into(),
                at: t(5),
                permille: 500,
            }],
        };
        assert!(lower_nodes(&throttle, 0).is_empty());
    }

    #[test]
    fn isomorphic_counterexamples_share_a_signature() {
        // Same fault shape, different node labels and a rigid time
        // translation: one crash window plus one cut into the crashed
        // node's successor.
        let a = ChaosProgram {
            ops: vec![
                ChaosOp::Crash {
                    node: 1,
                    at: t(30),
                    until: Some(t(40)),
                },
                ChaosOp::CutOneWay {
                    from: 1,
                    to: 2,
                    at: t(32),
                    until: t(36),
                },
            ],
        };
        let b = ChaosProgram {
            ops: vec![
                ChaosOp::Crash {
                    node: 3,
                    at: t(50),
                    until: Some(t(60)),
                },
                ChaosOp::CutOneWay {
                    from: 3,
                    to: 0,
                    at: t(52),
                    until: t(56),
                },
            ],
        };
        let key = |node| ViolationKey {
            monitor: "view-agreement".into(),
            node: Some(node),
            group: None,
        };
        assert_eq!(signature(&a, &key(1)), signature(&b, &key(3)));
        // A different window length is a different bug shape.
        let mut c = b.clone();
        if let ChaosOp::Crash { until, .. } = &mut c.ops[0] {
            *until = Some(t(61));
        }
        assert_ne!(signature(&b, &key(3)), signature(&c, &key(3)));
        // And so is the same shape charged by a different monitor.
        let silent = ViolationKey {
            monitor: "silent-group".into(),
            node: None,
            group: Some(0),
        };
        assert_ne!(signature(&b, &key(3)), signature(&b, &silent));
    }

    #[test]
    fn campaigns_deduplicate_isomorphic_minimized_programs() {
        // Every counterexample a campaign reports is pairwise
        // non-isomorphic, and anything skipped was counted.
        let mut fuzzer = ChaosFuzzer::standard(FuzzConfig::default(), 3);
        let campaign = fuzzer.campaign(16);
        let mut sigs = std::collections::BTreeSet::new();
        for cx in &campaign.counterexamples {
            assert!(
                sigs.insert(signature(&cx.minimized, &cx.key)),
                "campaign reported two isomorphic counterexamples"
            );
        }
        assert!(
            campaign.counterexamples.len() + campaign.duplicates_skipped <= campaign.programs_run,
            "bookkeeping adds up"
        );
    }
}
