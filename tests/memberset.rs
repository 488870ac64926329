//! Properties of the variable-length membership sets: wire-encoding
//! roundtrips over the whole addressable range, word-wise merge
//! soundness, and view agreement among 96 engine-driven agents — the
//! scale the old packed-`u64` masks could not address.

use proptest::prelude::*;

use hades_services::actors::{AgentConfig, NodeAgent};
use hades_services::memberset::{MemberSet, MAX_NODES};
use hades_services::recovery::RecoveryConfig;
use hades_sim::{FaultPlan, LinkConfig, Network, NodeId, SimRng};
use hades_time::{Duration, Time};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte encoding roundtrips for arbitrary member sets across the
    /// whole addressable node range.
    #[test]
    fn byte_encoding_roundtrips(raw in proptest::collection::vec(0u32..MAX_NODES, 0..40)) {
        let members: std::collections::BTreeSet<u32> = raw.into_iter().collect();
        let set: MemberSet = members.iter().copied().collect();
        prop_assert_eq!(set.len() as usize, members.len());
        let decoded = MemberSet::decode(&set.encode()).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &set);
        prop_assert_eq!(decoded.to_vec(), members.into_iter().collect::<Vec<_>>());
    }

    /// Wire-word roundtrips: shipping a set as independent 32-bit words
    /// reconstructs it exactly, for any cluster size up to 256 nodes.
    #[test]
    fn wire_words_roundtrip(
        nodes in 1u32..256,
        seed_members in proptest::collection::vec(0u32..256, 0..32),
    ) {
        let set: MemberSet = seed_members.iter().copied().filter(|m| *m < nodes).collect();
        let mut rebuilt = MemberSet::new();
        for w in 0..MemberSet::wire_words(nodes) {
            rebuilt.set_wire_word(w, set.wire_word(w));
        }
        prop_assert_eq!(rebuilt, set);
    }

    /// Word-wise proposal merging equals whole-set merging: exclusion
    /// (intersection) for current view members, inclusion (union) for
    /// returners — the property that lets each wire word travel as an
    /// independent message.
    #[test]
    fn wordwise_merge_equals_setwise_merge(
        view in proptest::collection::vec(0u32..96, 1..40),
        a in proptest::collection::vec(0u32..96, 0..40),
        b in proptest::collection::vec(0u32..96, 0..40),
    ) {
        let view: MemberSet = view.into_iter().collect();
        let a: MemberSet = a.into_iter().collect();
        let b: MemberSet = b.into_iter().collect();
        // Whole-set merge: (a ∩ b ∩ view) ∪ ((a ∪ b) ∖ view).
        let mut expected = a.intersection(&b);
        expected.intersect_with(&view);
        let mut outside = a.union(&b);
        outside.subtract(&view);
        expected.union_with(&outside);
        // Word-wise merge.
        let mut merged = a.clone();
        for w in 0..MemberSet::wire_words(96) {
            merged.merge_wire_word(w, b.wire_word(w), &view);
        }
        prop_assert_eq!(merged, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// View agreement at 96 nodes: whatever single node crashes, at any
    /// instant, under any seed, all 95 survivors install the identical
    /// two-view sequence over the word-chunked wire encoding.
    #[test]
    fn ninety_six_agents_agree_on_views(
        victim in 0u32..96,
        crash_us in 2_000u64..6_000,
        seed in 0u64..1_000,
    ) {
        let crash = Time::ZERO + us(crash_us);
        let plan = FaultPlan::new().crash_at(NodeId(victim), crash);
        let net = Network::homogeneous(
            96,
            LinkConfig::reliable(us(10), us(40)),
            SimRng::seed_from(seed),
        )
        .with_fault_plan(plan);
        let (mut rt, logs) = NodeAgent::cluster(net, AgentConfig {
            node: NodeId(0),
            nodes: 96,
            heartbeat_period: ms(1),
            clock_precision: us(10),
            f: 1,
            recovery: RecoveryConfig::default(),
            vc_delta_multicast: true,
            vc_attempts: 1,
        });
        rt.run(Time::ZERO + ms(10));
        let reference = logs[if victim == 0 { 1 } else { 0 } as usize]
            .borrow()
            .view_members();
        prop_assert_eq!(reference.len(), 2);
        let expected: Vec<u32> = (0..96).filter(|n| *n != victim).collect();
        prop_assert_eq!(&reference[1].1, &expected);
        for n in (0..96usize).filter(|n| *n != victim as usize) {
            prop_assert_eq!(logs[n].borrow().view_members(), reference.clone());
        }
    }
}
