//! Typed chaos programs and the driver that runs them.
//!
//! A [`ChaosProgram`] is a list of [`ChaosOp`]s — the full fault/load
//! vocabulary of the reactive control plane, in a form the fuzzer can
//! generate, mutate, shrink and serialize. [`ProgramDriver`] lowers a
//! program onto a running cluster through the same
//! [`hades_cluster::ControlHandle`] a hand-written reactive driver
//! would use: timed ops are staged at start, service-level ops apply at
//! their instant from the periodic tick, and common-cause bursts fire
//! *reactively* on the first detection of their root fault.

use hades_cluster::{ClusterEvent, ControlHandle, ScenarioDriver};
use hades_telemetry::json::{escape, Json};
use hades_time::{Duration, Time};

/// One chaos operation. Times are absolute virtual instants; the
/// control plane clamps anything aimed at the past to "now".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOp {
    /// Crash `node` at `at`; restart it at `until` (`None` = for good).
    Crash {
        /// The victim.
        node: u32,
        /// Crash instant.
        at: Time,
        /// Cold-restart instant, if the node comes back.
        until: Option<Time>,
    },
    /// Sever only the directed link `from → to` during `[at, until]`.
    CutOneWay {
        /// Sender side of the dead direction.
        from: u32,
        /// Receiver side of the dead direction.
        to: u32,
        /// Window start.
        at: Time,
        /// Window end.
        until: Time,
    },
    /// Degrade (without severing) the directed link `from → to`.
    Degrade {
        /// Sender side.
        from: u32,
        /// Receiver side.
        to: u32,
        /// Window start.
        at: Time,
        /// Window end.
        until: Time,
        /// Extra latency every message suffers inside the window.
        extra_delay: Duration,
        /// Extra loss chance (‰) inside the window.
        loss_permille: u32,
    },
    /// Slow `node`'s CPU to `speed_permille / 1000` of nominal.
    Slow {
        /// The straggler.
        node: u32,
        /// Window start.
        at: Time,
        /// Window end.
        until: Time,
        /// CPU speed in permille of nominal (clamped to `1..=1000`).
        speed_permille: u32,
    },
    /// Skew `node`'s local clock from `at` on.
    Skew {
        /// The node whose timers drift.
        node: u32,
        /// Skew onset.
        at: Time,
        /// Drift in parts-per-billion (negative = slow clock).
        drift_ppb: i64,
    },
    /// Common-cause burst: when the crash of `root` is first *detected*
    /// by any survivor, each victim crashes in turn, staggered by
    /// `spacing`, each down for `down` — a correlated cascade seeded by
    /// one cause, injected reactively at the detection instant.
    CcfBurst {
        /// The seeded root fault (must crash through some other op).
        root: u32,
        /// Nodes dragged down by the common cause, in firing order.
        victims: Vec<u32>,
        /// Stagger between consecutive victim crashes.
        spacing: Duration,
        /// Down time of each victim.
        down: Duration,
    },
    /// Retune the named replicated workload to `permille` of nominal.
    Throttle {
        /// Service name (shared names address every match).
        service: String,
        /// When to retune.
        at: Time,
        /// New pacing in permille (0 = stopped, 1000 = nominal).
        permille: u32,
    },
    /// Retire the named service(s) from the running deployment.
    Retire {
        /// Service name.
        service: String,
        /// When to retire.
        at: Time,
    },
    /// Admit the named standby/retired service(s).
    Admit {
        /// Service name.
        service: String,
        /// When to admit.
        at: Time,
    },
}

fn ns(t: Time) -> u64 {
    (t - Time::ZERO).as_nanos()
}

/// Corpus integers are input from outside the program: one past `u32` is
/// an error naming its field, never a wrapped node id.
pub(crate) fn narrow(key: &str, n: u64) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| format!("{key:?} = {n} exceeds u32"))
}

impl ChaosOp {
    /// One-line JSON encoding (the corpus element format).
    pub fn to_json(&self) -> String {
        match self {
            ChaosOp::Crash { node, at, until } => {
                let until = match until {
                    Some(u) => format!("{}", ns(*u)),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"op\":\"crash\",\"node\":{node},\"at_ns\":{},\"until_ns\":{until}}}",
                    ns(*at)
                )
            }
            ChaosOp::CutOneWay {
                from,
                to,
                at,
                until,
            } => format!(
                "{{\"op\":\"cut\",\"from\":{from},\"to\":{to},\"at_ns\":{},\"until_ns\":{}}}",
                ns(*at),
                ns(*until)
            ),
            ChaosOp::Degrade {
                from,
                to,
                at,
                until,
                extra_delay,
                loss_permille,
            } => format!(
                "{{\"op\":\"degrade\",\"from\":{from},\"to\":{to},\"at_ns\":{},\"until_ns\":{},\
                 \"extra_delay_ns\":{},\"loss_permille\":{loss_permille}}}",
                ns(*at),
                ns(*until),
                extra_delay.as_nanos()
            ),
            ChaosOp::Slow {
                node,
                at,
                until,
                speed_permille,
            } => format!(
                "{{\"op\":\"slow\",\"node\":{node},\"at_ns\":{},\"until_ns\":{},\
                 \"speed_permille\":{speed_permille}}}",
                ns(*at),
                ns(*until)
            ),
            ChaosOp::Skew {
                node,
                at,
                drift_ppb,
            } => format!(
                "{{\"op\":\"skew\",\"node\":{node},\"at_ns\":{},\"drift_ppb\":{drift_ppb}}}",
                ns(*at)
            ),
            ChaosOp::CcfBurst {
                root,
                victims,
                spacing,
                down,
            } => {
                let victims: Vec<String> = victims.iter().map(|v| v.to_string()).collect();
                format!(
                    "{{\"op\":\"ccf\",\"root\":{root},\"victims\":[{}],\"spacing_ns\":{},\
                     \"down_ns\":{}}}",
                    victims.join(","),
                    spacing.as_nanos(),
                    down.as_nanos()
                )
            }
            ChaosOp::Throttle {
                service,
                at,
                permille,
            } => format!(
                "{{\"op\":\"throttle\",\"service\":{},\"at_ns\":{},\"permille\":{permille}}}",
                escape(service),
                ns(*at)
            ),
            ChaosOp::Retire { service, at } => format!(
                "{{\"op\":\"retire\",\"service\":{},\"at_ns\":{}}}",
                escape(service),
                ns(*at)
            ),
            ChaosOp::Admit { service, at } => format!(
                "{{\"op\":\"admit\",\"service\":{},\"at_ns\":{}}}",
                escape(service),
                ns(*at)
            ),
        }
    }

    /// Decodes one op from its parsed JSON object.
    pub fn from_json(v: &Json) -> Result<ChaosOp, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("op object missing \"op\" kind")?;
        let node = |key: &str| -> Result<u32, String> {
            let n = v.get(key).and_then(Json::as_u64);
            narrow(key, n.ok_or(format!("op {op:?} missing integer {key:?}"))?)
        };
        let time = |key: &str| -> Result<Time, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .map(Time::from_nanos)
                .ok_or(format!("op {op:?} missing timestamp {key:?}"))
        };
        let dur = |key: &str| -> Result<Duration, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .map(Duration::from_nanos)
                .ok_or(format!("op {op:?} missing duration {key:?}"))
        };
        let service = || -> Result<String, String> {
            v.get("service")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("op {op:?} missing \"service\""))
        };
        Ok(match op {
            "crash" => ChaosOp::Crash {
                node: node("node")?,
                at: time("at_ns")?,
                until: match v.get("until_ns") {
                    Some(Json::Null) | None => None,
                    Some(u) => Some(Time::from_nanos(
                        u.as_u64().ok_or("crash until_ns must be integer or null")?,
                    )),
                },
            },
            "cut" => ChaosOp::CutOneWay {
                from: node("from")?,
                to: node("to")?,
                at: time("at_ns")?,
                until: time("until_ns")?,
            },
            "degrade" => ChaosOp::Degrade {
                from: node("from")?,
                to: node("to")?,
                at: time("at_ns")?,
                until: time("until_ns")?,
                extra_delay: dur("extra_delay_ns")?,
                loss_permille: node("loss_permille")?,
            },
            "slow" => ChaosOp::Slow {
                node: node("node")?,
                at: time("at_ns")?,
                until: time("until_ns")?,
                speed_permille: node("speed_permille")?,
            },
            "skew" => ChaosOp::Skew {
                node: node("node")?,
                at: time("at_ns")?,
                drift_ppb: v
                    .get("drift_ppb")
                    .and_then(Json::as_f64)
                    .ok_or("skew missing drift_ppb")? as i64,
            },
            "ccf" => ChaosOp::CcfBurst {
                root: node("root")?,
                victims: v
                    .get("victims")
                    .and_then(Json::as_array)
                    .ok_or("ccf missing victims array")?
                    .iter()
                    .map(|j| narrow("victims", j.as_u64().ok_or("victim must be integer")?))
                    .collect::<Result<Vec<u32>, String>>()?,
                spacing: dur("spacing_ns")?,
                down: dur("down_ns")?,
            },
            "throttle" => ChaosOp::Throttle {
                service: service()?,
                at: time("at_ns")?,
                permille: node("permille")?,
            },
            "retire" => ChaosOp::Retire {
                service: service()?,
                at: time("at_ns")?,
            },
            "admit" => ChaosOp::Admit {
                service: service()?,
                at: time("at_ns")?,
            },
            other => return Err(format!("unknown chaos op kind {other:?}")),
        })
    }
}

/// A typed fault/load script: the unit the fuzzer generates, runs,
/// shrinks and commits to the corpus.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosProgram {
    /// The operations, in generation order (execution order is by each
    /// op's own instant; the order here only matters for shrinking).
    pub ops: Vec<ChaosOp>,
}

impl ChaosProgram {
    /// JSON array of op objects (one corpus field).
    pub fn to_json(&self) -> String {
        let ops: Vec<String> = self.ops.iter().map(ChaosOp::to_json).collect();
        format!("[{}]", ops.join(","))
    }

    /// Decodes a program from a parsed JSON array.
    pub fn from_json(v: &Json) -> Result<ChaosProgram, String> {
        let ops = v
            .as_array()
            .ok_or("program must be a JSON array of ops")?
            .iter()
            .map(ChaosOp::from_json)
            .collect::<Result<Vec<ChaosOp>, String>>()?;
        Ok(ChaosProgram { ops })
    }
}

/// Runs a [`ChaosProgram`] against a live cluster as a
/// [`ScenarioDriver`].
///
/// Fault-fabric ops (crashes, cuts, degrades, slows, skews) are staged
/// once at start with their absolute instants — the control plane
/// applies them on time. Service-level ops (throttle/retire/admit) have
/// no timed control variant, so they apply from the periodic tick at
/// the first tick at or after their instant. [`ChaosOp::CcfBurst`] is
/// the reactive piece: it arms on the program and fires when the
/// burst's root is first detected as crashed.
#[derive(Debug)]
pub struct ProgramDriver {
    program: ChaosProgram,
    /// Indices of service-level ops not yet applied, sorted by instant.
    queued: Vec<usize>,
    /// Armed CCF bursts: `(op index, fired)`.
    bursts: Vec<(usize, bool)>,
}

impl ProgramDriver {
    /// Wraps a program for execution.
    pub fn new(program: ChaosProgram) -> Self {
        ProgramDriver {
            program,
            queued: Vec::new(),
            bursts: Vec::new(),
        }
    }

    fn op_instant(&self, idx: usize) -> Time {
        match &self.program.ops[idx] {
            ChaosOp::Throttle { at, .. }
            | ChaosOp::Retire { at, .. }
            | ChaosOp::Admit { at, .. } => *at,
            _ => Time::ZERO,
        }
    }

    fn apply_service_op(&self, idx: usize, ctl: &mut ControlHandle<'_>) {
        match &self.program.ops[idx] {
            ChaosOp::Throttle {
                service, permille, ..
            } => {
                ctl.throttle_workload(service, *permille);
            }
            ChaosOp::Retire { service, .. } => {
                ctl.retire_service(service);
            }
            ChaosOp::Admit { service, .. } => {
                ctl.admit_service(service);
            }
            _ => {}
        }
    }
}

impl ScenarioDriver for ProgramDriver {
    fn on_start(&mut self, _now: Time, ctl: &mut ControlHandle<'_>) {
        for (idx, op) in self.program.ops.iter().enumerate() {
            match op {
                ChaosOp::Crash { node, at, until } => match until {
                    Some(until) => ctl.crash_window(*node, *at, *until),
                    None => ctl.crash_at(*node, *at),
                },
                ChaosOp::CutOneWay {
                    from,
                    to,
                    at,
                    until,
                } => ctl.cut_link(*from, *to, *at, *until),
                ChaosOp::Degrade {
                    from,
                    to,
                    at,
                    until,
                    extra_delay,
                    loss_permille,
                } => ctl.degrade_link(*from, *to, *at, *until, *extra_delay, *loss_permille),
                ChaosOp::Slow {
                    node,
                    at,
                    until,
                    speed_permille,
                } => ctl.slow_node(*node, *at, *until, *speed_permille),
                ChaosOp::Skew {
                    node,
                    at,
                    drift_ppb,
                } => ctl.skew_clock(*node, *at, *drift_ppb),
                ChaosOp::CcfBurst { .. } => self.bursts.push((idx, false)),
                ChaosOp::Throttle { .. } | ChaosOp::Retire { .. } | ChaosOp::Admit { .. } => {
                    self.queued.push(idx)
                }
            }
        }
        let instants: Vec<Time> = self.queued.iter().map(|i| self.op_instant(*i)).collect();
        let mut order: Vec<usize> = (0..self.queued.len()).collect();
        order.sort_by_key(|i| (instants[*i], self.queued[*i]));
        self.queued = order.into_iter().map(|i| self.queued[i]).collect();
    }

    fn on_event(&mut self, now: Time, event: &ClusterEvent, ctl: &mut ControlHandle<'_>) {
        let ClusterEvent::Detected { suspect, .. } = event else {
            return;
        };
        for slot in 0..self.bursts.len() {
            let (idx, fired) = self.bursts[slot];
            if fired {
                continue;
            }
            let ChaosOp::CcfBurst {
                root,
                victims,
                spacing,
                down,
            } = &self.program.ops[idx]
            else {
                continue;
            };
            if root != suspect {
                continue;
            }
            for (i, victim) in victims.iter().enumerate() {
                let at = now + spacing.saturating_mul(i as u64 + 1);
                ctl.crash_window(*victim, at, at + *down);
            }
            self.bursts[slot].1 = true;
        }
    }

    fn on_tick(&mut self, now: Time, ctl: &mut ControlHandle<'_>) {
        while let Some(idx) = self.queued.first().copied() {
            if self.op_instant(idx) > now {
                break;
            }
            self.apply_service_op(idx, ctl);
            self.queued.remove(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    fn sample_program() -> ChaosProgram {
        ChaosProgram {
            ops: vec![
                ChaosOp::Crash {
                    node: 0,
                    at: t(10),
                    until: Some(t(20)),
                },
                ChaosOp::Crash {
                    node: 1,
                    at: t(12),
                    until: None,
                },
                ChaosOp::CutOneWay {
                    from: 2,
                    to: 3,
                    at: t(5),
                    until: t(9),
                },
                ChaosOp::Degrade {
                    from: 1,
                    to: 0,
                    at: t(3),
                    until: t(40),
                    extra_delay: Duration::from_micros(250),
                    loss_permille: 400,
                },
                ChaosOp::Slow {
                    node: 2,
                    at: t(6),
                    until: t(11),
                    speed_permille: 125,
                },
                ChaosOp::Skew {
                    node: 3,
                    at: t(1),
                    drift_ppb: -2_000_000,
                },
                ChaosOp::CcfBurst {
                    root: 0,
                    victims: vec![2, 3],
                    spacing: Duration::from_micros(700),
                    down: Duration::from_millis(8),
                },
                ChaosOp::Throttle {
                    service: "store".into(),
                    at: t(15),
                    permille: 250,
                },
                ChaosOp::Retire {
                    service: "aux".into(),
                    at: t(18),
                },
                ChaosOp::Admit {
                    service: "aux".into(),
                    at: t(25),
                },
            ],
        }
    }

    #[test]
    fn every_op_round_trips_through_json() {
        let program = sample_program();
        let line = program.to_json();
        let parsed =
            ChaosProgram::from_json(&Json::parse(&line).expect("valid json")).expect("decodes");
        assert_eq!(parsed, program);
    }

    #[test]
    fn out_of_range_integers_are_rejected_not_wrapped() {
        // 2^32 + 1 used to decode as a crash of node 1.
        let line = r#"{"op":"crash","node":4294967297,"at_ns":1,"until_ns":null}"#;
        let err = ChaosOp::from_json(&Json::parse(line).unwrap()).expect_err("out of range");
        assert!(
            err.contains("\"node\"") && err.contains("4294967297"),
            "{err}"
        );
        let ccf = r#"{"op":"ccf","root":0,"victims":[1,4294967298],"spacing_ns":1,"down_ns":1}"#;
        let err = ChaosOp::from_json(&Json::parse(ccf).unwrap()).expect_err("out of range");
        assert!(err.contains("\"victims\""), "{err}");
        let slow = r#"{"op":"slow","node":1,"at_ns":1,"until_ns":2,"speed_permille":4294967296}"#;
        let err = ChaosOp::from_json(&Json::parse(slow).unwrap()).expect_err("out of range");
        assert!(err.contains("\"speed_permille\""), "{err}");
    }

    #[test]
    fn every_op_kind_round_trips_at_u32_max() {
        const M: u32 = u32::MAX;
        let mut program = sample_program();
        for op in &mut program.ops {
            match op {
                ChaosOp::Crash { node, .. } | ChaosOp::Skew { node, .. } => *node = M,
                ChaosOp::CutOneWay { from, to, .. } => (*from, *to) = (M, M),
                ChaosOp::Degrade {
                    from,
                    to,
                    loss_permille,
                    ..
                } => (*from, *to, *loss_permille) = (M, M, M),
                ChaosOp::Slow {
                    node,
                    speed_permille,
                    ..
                } => (*node, *speed_permille) = (M, M),
                ChaosOp::CcfBurst { root, victims, .. } => (*root, *victims) = (M, vec![M, M - 1]),
                ChaosOp::Throttle { permille, .. } => *permille = M,
                ChaosOp::Retire { .. } | ChaosOp::Admit { .. } => {}
            }
        }
        let line = program.to_json();
        assert!(line.contains("4294967295"));
        let parsed =
            ChaosProgram::from_json(&Json::parse(&line).expect("valid json")).expect("decodes");
        assert_eq!(parsed, program);
    }

    #[test]
    fn json_decode_rejects_junk() {
        assert!(ChaosOp::from_json(&Json::parse("{\"op\":\"warp\"}").unwrap()).is_err());
        assert!(ChaosOp::from_json(&Json::parse("{\"op\":\"crash\"}").unwrap()).is_err());
        assert!(ChaosProgram::from_json(&Json::parse("{}").unwrap()).is_err());
    }
}
