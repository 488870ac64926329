//! Typed chaos programs and the driver that runs them.
//!
//! A [`ChaosProgram`] is a list of [`ChaosOp`]s — the full fault/load
//! vocabulary of the reactive control plane, in a form the fuzzer can
//! generate, mutate, shrink and serialize. [`ProgramDriver`] lowers a
//! program onto a running cluster through the same
//! [`hades_cluster::ControlHandle`] a hand-written reactive driver
//! would use: fault ops are staged at start, service-level ops apply at
//! their instant from the periodic tick, and common-cause bursts fire
//! *reactively* on the first detection of their root fault.

use hades_cluster::{ClusterEvent, ControlHandle, FaultOp, ScenarioDriver};
use hades_telemetry::json::{escape, Json};
use hades_time::{Duration, Time};

/// One chaos operation. Times are absolute virtual instants; the
/// control plane clamps anything aimed at the past to "now".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOp {
    /// A fault op, staged at start through [`ControlHandle::inject`].
    Fault(FaultOp),
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
/// 2^63: a `drift_ppb` decodes only from an integer in `-2^63..2^63`.
const I64_BOUND: f64 = 9_223_372_036_854_775_808.0;

pub(crate) fn narrow(key: &str, n: u64) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| format!("{key:?} = {n} exceeds u32"))
}

impl ChaosOp {
    /// One-line JSON encoding (the corpus element format).
    pub fn to_json(&self) -> String {
        match self {
            ChaosOp::Fault(FaultOp::Crash { node, at, until }) => {
                let until = match until {
                    Some(u) => format!("{}", ns(*u)),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"op\":\"crash\",\"node\":{node},\"at_ns\":{},\"until_ns\":{until}}}",
                    ns(*at)
                )
            }
            ChaosOp::Fault(FaultOp::Restart { node, at }) => {
                format!(
                    "{{\"op\":\"restart\",\"node\":{node},\"at_ns\":{}}}",
                    ns(*at)
                )
            }
            ChaosOp::Fault(FaultOp::Cut {
                from,
                to,
                at,
                until,
            }) => format!(
                "{{\"op\":\"cut\",\"from\":{from},\"to\":{to},\"at_ns\":{},\"until_ns\":{}}}",
                ns(*at),
                ns(*until)
            ),
            ChaosOp::Fault(FaultOp::Degrade {
                from,
                to,
                at,
                until,
                extra_delay,
                loss_permille,
            }) => format!(
                "{{\"op\":\"degrade\",\"from\":{from},\"to\":{to},\"at_ns\":{},\"until_ns\":{},\
                 \"extra_delay_ns\":{},\"loss_permille\":{loss_permille}}}",
                ns(*at),
                ns(*until),
                extra_delay.as_nanos()
            ),
            ChaosOp::Fault(FaultOp::Slow {
                node,
                at,
                until,
                speed_permille,
            }) => format!(
                "{{\"op\":\"slow\",\"node\":{node},\"at_ns\":{},\"until_ns\":{},\
                 \"speed_permille\":{speed_permille}}}",
                ns(*at),
                ns(*until)
            ),
            ChaosOp::Fault(FaultOp::Skew {
                node,
                at,
                drift_ppb,
            }) => format!(
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
        let int = |key: &str| -> Result<u64, String> {
            let n = v.get(key).ok_or(format!("op {op:?} missing {key:?}"))?;
            n.as_u64()
                .ok_or(format!("op {op:?} {key:?} is not an integer in 0..2^53"))
        };
        let node = |key: &str| narrow(key, int(key)?);
        let time = |key: &str| int(key).map(Time::from_nanos);
        let dur = |key: &str| int(key).map(Duration::from_nanos);
        let service = || -> Result<String, String> {
            v.get("service")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("op {op:?} missing \"service\""))
        };
        let decoded = match op {
            "crash" => ChaosOp::Fault(FaultOp::Crash {
                node: node("node")?,
                at: time("at_ns")?,
                until: match v.get("until_ns") {
                    Some(Json::Null) | None => None,
                    Some(u) => Some(Time::from_nanos(
                        u.as_u64()
                            .ok_or("crash \"until_ns\" must be null or an integer in 0..2^53")?,
                    )),
                },
            }),
            "restart" => ChaosOp::Fault(FaultOp::Restart {
                node: node("node")?,
                at: time("at_ns")?,
            }),
            "cut" => ChaosOp::Fault(FaultOp::Cut {
                from: node("from")?,
                to: node("to")?,
                at: time("at_ns")?,
                until: time("until_ns")?,
            }),
            "degrade" => ChaosOp::Fault(FaultOp::Degrade {
                from: node("from")?,
                to: node("to")?,
                at: time("at_ns")?,
                until: time("until_ns")?,
                extra_delay: dur("extra_delay_ns")?,
                loss_permille: node("loss_permille")?,
            }),
            "slow" => ChaosOp::Fault(FaultOp::Slow {
                node: node("node")?,
                at: time("at_ns")?,
                until: time("until_ns")?,
                speed_permille: node("speed_permille")?,
            }),
            "skew" => ChaosOp::Fault(FaultOp::Skew {
                node: node("node")?,
                at: time("at_ns")?,
                drift_ppb: v
                    .get("drift_ppb")
                    .and_then(Json::as_f64)
                    .filter(|d| d.fract() == 0.0 && (-I64_BOUND..I64_BOUND).contains(d))
                    .ok_or("skew missing integer drift_ppb")? as i64,
            }),
            "ccf" => ChaosOp::CcfBurst {
                root: node("root")?,
                victims: v
                    .get("victims")
                    .and_then(Json::as_array)
                    .ok_or("ccf missing victims array")?
                    .iter()
                    .map(|j| {
                        let n = j
                            .as_u64()
                            .ok_or("\"victims\" must be integers in 0..2^53")?;
                        narrow("victims", n)
                    })
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
        };
        if let ChaosOp::Fault(
            FaultOp::Crash {
                at,
                until: Some(until),
                ..
            }
            | FaultOp::Cut { at, until, .. }
            | FaultOp::Degrade { at, until, .. }
            | FaultOp::Slow { at, until, .. },
        ) = decoded
        {
            if until < at {
                return Err(format!(
                    "op {op:?} \"until_ns\" = {} precedes \"at_ns\" = {}",
                    ns(until),
                    ns(at)
                ));
            }
        }
        Ok(decoded)
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
/// [`ChaosOp::Fault`] ops are staged once at start with their absolute
/// instants — the control plane applies them on time. Service-level ops (throttle/retire/admit) have
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
                ChaosOp::Fault(op) => ctl.inject(*op),
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
                ctl.inject(FaultOp::Crash {
                    node: *victim,
                    at,
                    until: Some(at + *down),
                });
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
                ChaosOp::Fault(FaultOp::Crash {
                    node: 0,
                    at: t(10),
                    until: Some(t(20)),
                }),
                ChaosOp::Fault(FaultOp::Crash {
                    node: 1,
                    at: t(12),
                    until: None,
                }),
                ChaosOp::Fault(FaultOp::Cut {
                    from: 2,
                    to: 3,
                    at: t(5),
                    until: t(9),
                }),
                ChaosOp::Fault(FaultOp::Degrade {
                    from: 1,
                    to: 0,
                    at: t(3),
                    until: t(40),
                    extra_delay: Duration::from_micros(250),
                    loss_permille: 400,
                }),
                ChaosOp::Fault(FaultOp::Slow {
                    node: 2,
                    at: t(6),
                    until: t(11),
                    speed_permille: 125,
                }),
                ChaosOp::Fault(FaultOp::Skew {
                    node: 3,
                    at: t(1),
                    drift_ppb: -2_000_000,
                }),
                ChaosOp::Fault(FaultOp::Restart { node: 1, at: t(30) }),
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
                ChaosOp::Fault(FaultOp::Crash { node, .. })
                | ChaosOp::Fault(FaultOp::Restart { node, .. })
                | ChaosOp::Fault(FaultOp::Skew { node, .. }) => *node = M,
                ChaosOp::Fault(FaultOp::Cut { from, to, .. }) => (*from, *to) = (M, M),
                ChaosOp::Fault(FaultOp::Degrade {
                    from,
                    to,
                    loss_permille,
                    ..
                }) => (*from, *to, *loss_permille) = (M, M, M),
                ChaosOp::Fault(FaultOp::Slow {
                    node,
                    speed_permille,
                    ..
                }) => (*node, *speed_permille) = (M, M),
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
    fn windows_ending_before_they_start_are_rejected() {
        let crash = r#"{"op":"crash","node":2,"at_ns":20000000,"until_ns":10000000}"#;
        let err = ChaosOp::from_json(&Json::parse(crash).unwrap()).expect_err("inverted");
        assert!(err.contains("\"until_ns\" = 10000000"), "{err}");
        for kind in [
            r#""op":"cut","from":0,"to":1"#,
            r#""op":"degrade","from":0,"to":1,"extra_delay_ns":5,"loss_permille":1"#,
            r#""op":"slow","node":1,"speed_permille":500"#,
        ] {
            let inverted = format!("{{{kind},\"at_ns\":3,\"until_ns\":2}}");
            let err = ChaosOp::from_json(&Json::parse(&inverted).unwrap()).expect_err(kind);
            assert!(err.contains("\"until_ns\""), "{err}");
            // An empty window (`until_ns == at_ns`) still decodes.
            let empty = inverted.replace("\"until_ns\":2", "\"until_ns\":3");
            assert!(ChaosOp::from_json(&Json::parse(&empty).unwrap()).is_ok());
        }
    }

    #[test]
    fn a_drift_that_is_no_i64_is_rejected_not_truncated() {
        for drift in ["1.5", "1e30", "-1e30", "9223372036854775808"] {
            let line = format!(r#"{{"op":"skew","node":1,"at_ns":1,"drift_ppb":{drift}}}"#);
            let err = ChaosOp::from_json(&Json::parse(&line).unwrap()).expect_err(drift);
            assert!(err.contains("drift_ppb"), "{err}");
        }
        let line = r#"{"op":"skew","node":1,"at_ns":1,"drift_ppb":-20000000}"#;
        let op = ChaosOp::from_json(&Json::parse(line).unwrap()).expect("integer drift");
        assert!(matches!(
            op,
            ChaosOp::Fault(FaultOp::Skew {
                drift_ppb: -20_000_000,
                ..
            })
        ));
    }

    #[test]
    fn integers_above_2_pow_53_are_rejected_not_rounded() {
        for n in ["1e30", "9007199254740993"] {
            for (line, field) in [
                (
                    format!(r#"{{"op":"throttle","service":"s","at_ns":{n},"permille":1}}"#),
                    "at_ns",
                ),
                (
                    format!(r#"{{"op":"crash","node":1,"at_ns":1,"until_ns":{n}}}"#),
                    "until_ns",
                ),
                (
                    format!(r#"{{"op":"crash","node":1,"at_ns":{n},"until_ns":null}}"#),
                    "at_ns",
                ),
                (
                    format!(
                        r#"{{"op":"ccf","root":0,"victims":[{n}],"spacing_ns":1,"down_ns":1}}"#
                    ),
                    "victims",
                ),
            ] {
                let err = ChaosOp::from_json(&Json::parse(&line).unwrap()).expect_err(&line);
                assert!(err.contains(field), "{line}: {err}");
            }
        }
        let line = r#"{"op":"throttle","service":"s","at_ns":9007199254740991,"permille":1}"#;
        let op = ChaosOp::from_json(&Json::parse(line).unwrap()).expect("2^53 - 1 is exact");
        assert!(
            matches!(op, ChaosOp::Throttle { at, .. } if at == Time::from_nanos((1 << 53) - 1))
        );
    }

    #[test]
    fn json_decode_rejects_junk() {
        assert!(ChaosOp::from_json(&Json::parse("{\"op\":\"warp\"}").unwrap()).is_err());
        assert!(ChaosOp::from_json(&Json::parse("{\"op\":\"crash\"}").unwrap()).is_err());
        assert!(ChaosProgram::from_json(&Json::parse("{}").unwrap()).is_err());
    }
}
