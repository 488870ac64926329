use super::*;

/// Round trip of every field of `layout` at its edges: 0, its maximum,
/// and one past it, which wraps to 0 in its own field and leaves every
/// other field as it was. The other fields are tried all clear and all
/// set, so a value spilling into a neighbour shows either way.
fn round_trips_at_the_edges<const N: usize>(name: &str, layout: Layout<N>) {
    let widths = layout.0.map(|(_, width)| width);
    for (i, width) in widths.into_iter().enumerate() {
        let max = (1u64 << width) - 1;
        for others in [[0; N], widths.map(|w| (1u64 << w) - 1)] {
            for (value, read) in [(0, 0), (max, max), (max + 1, 0)] {
                let mut values = others;
                values[i] = value;
                let mut expect = others;
                expect[i] = read;
                assert_eq!(
                    layout.unpack(layout.pack(values)),
                    expect,
                    "{name}: field {i} = {value:#x}"
                );
            }
        }
    }
}

#[test]
fn every_layout_round_trips_at_its_field_edges() {
    round_trips_at_the_edges("VC", VC);
    round_trips_at_the_edges("JOIN", JOIN);
    round_trips_at_the_edges("NACK", NACK);
    round_trips_at_the_edges("SYNC", SYNC);
    round_trips_at_the_edges("CKPT", CKPT);
    round_trips_at_the_edges("MASK", MASK);
    round_trips_at_the_edges("REQ", REQ);
    round_trips_at_the_edges("ORDER", ORDER);
    round_trips_at_the_edges("VOTE", VOTE);
    round_trips_at_the_edges("SNAP", SNAP);
    round_trips_at_the_edges("SNAP_MARK", SNAP_MARK);
    round_trips_at_the_edges("TIMER", TIMER);
    round_trips_at_the_edges("EPOCH", EPOCH);
    round_trips_at_the_edges("ROUND", ROUND);
    round_trips_at_the_edges("DECIDE", DECIDE);
    round_trips_at_the_edges("XFER", XFER);
    round_trips_at_the_edges("TIMEOUT", TIMEOUT);
}

/// Each layout packs the bits of the shift-and-mask expression it
/// replaced, written out here once more. All bits set shows a field that
/// shrank, grew or moved; the mixed pattern, whose values overflow their
/// fields (the expressions masked every field so), shows two fields
/// swapped.
#[test]
fn every_payload_keeps_its_historical_bits() {
    for (a, b, c) in [
        (u64::MAX, u64::MAX, u64::MAX),
        (0x1_2345_6789_ABCD, 0xF_EDCB_A987_6543, 0xFFFF_FFFF_FFFF),
    ] {
        assert_eq!(
            VC.pack([a, b, c]),
            ((a & 0xFFFF) << 48) | ((b & 0xFF) << 32) | (c & 0xFFFF_FFFF)
        );
        assert_eq!(
            JOIN.pack([a, b, c]),
            ((a & 0xFFFF) << 48) | ((b & 0xFFFF) << 32) | (c & 0xFFFF_FFFF)
        );
        assert_eq!(NACK.pack([a, b]), ((a & 0xFFFF) << 48) | (b & 0xFF_FFFF));
        assert_eq!(
            SYNC.pack([a, b, c]),
            ((a & 0xFFFF) << 48) | ((b & 0xFFFF) << 32) | (c & 0xFFFF_FFFF)
        );
        assert_eq!(
            CKPT.pack([a, b, c]),
            ((a & 0xFFFF) << 48) | ((b & 0xFF_FFFF) << 24) | (c & 0xFF_FFFF)
        );
        assert_eq!(
            MASK.pack([a, b, c]),
            ((a & 0xFFFF) << 48) | ((b & 0xFF) << 32) | (c & 0xFFFF_FFFF)
        );
        assert_eq!(
            ORDER.pack([a, b, c]),
            ((a & 0x3F) << 58) | ((b & 0x3F_FFFF_FFFF) << 20) | (c & 0xF_FFFF)
        );
        assert_eq!(
            VOTE.pack([a, b, c]),
            ((a & 0xF_FFFF) << 44) | ((b & 0xFFF) << 32) | (c & 0xFFFF_FFFF)
        );
        assert_eq!(SNAP.pack([a, b]), ((a & 0xFFFF) << 48) | (b & 0xFFFF_FFFF));
        assert_eq!(
            SNAP_MARK.pack([a, b, c]),
            ((a & 0xFFFF) << 48) | ((b & 0xF_FFFF) << 12) | (c & 0xFFF)
        );
    }
    // A request is asserted to fit before it is packed.
    for (id, ns) in [(0xF_FFFF, (1 << 44) - 1), (0xA_BCDE, 0xFFF_1234_5678)] {
        assert_eq!(REQ.pack([id, ns]), (id << 44) | ns);
    }
}

/// The timer tags keep the kind in bits 63–60 and the bodies of the tags
/// they replaced, for every value the actors arm them with.
#[test]
fn timer_tags_keep_their_historical_bits() {
    let epoch_tag = epoch_timer(7, 0x1_2345);
    assert_eq!(epoch_tag, (7 << 60) | 0x2345);
    assert_eq!(TIMER.unpack(epoch_tag), [7, 0x2345]);
    // View-change round: target view above the round, each in 16 bits.
    let (target, round) = (0xBEEF_u64, 3_u64);
    let round_tag = TIMER.pack([3, ROUND.pack([target, round])]);
    assert_eq!(round_tag, (3 << 60) | (target << 16) | round);
    assert_eq!(ROUND.unpack(TIMER.unpack(round_tag)[1]), [target, round]);
    // Paced chunk: joiner node above the 32-bit sequence number.
    let (to, seq) = (0xFFF_u64, 0x1_0000_0002_u64);
    let xfer_tag = TIMER.pack([5, XFER.pack([to, seq])]);
    assert_eq!(xfer_tag, (5 << 60) | (to << 32) | (seq & 0xFFFF_FFFF));
    assert_eq!(XFER.unpack(TIMER.unpack(xfer_tag)[1]), [to, 2]);
    // Silence time-out and decision: the body is the value itself.
    let place = (1 << 59) + 17;
    assert_eq!(TIMER.pack([2, TIMEOUT.pack([place])]), (2 << 60) | place);
    assert_eq!(TIMER.pack([4, DECIDE.pack([0xFFFF])]), (4 << 60) | 0xFFFF);
    assert_eq!(TIMER.unpack(u64::MAX), [0xF, (1 << 60) - 1]);
    // Every body field with all its bits set, at the width the old
    // decoders masked it to.
    assert_eq!(EPOCH.pack([u64::MAX]), 0xFFFF);
    assert_eq!(ROUND.pack([u64::MAX; 2]), 0xFFFF_FFFF);
    assert_eq!(DECIDE.pack([u64::MAX]), 0xFFFF);
    assert_eq!(XFER.pack([u64::MAX; 2]), (0xFFF_FFFF << 32) | 0xFFFF_FFFF);
    assert_eq!(TIMEOUT.pack([u64::MAX]), (1 << 60) - 1);
}

#[test]
fn epochs_compare_in_their_sixteen_wire_bits() {
    assert_eq!(epoch(0x1_0003), 3);
    assert!(same_epoch(3, 0x1_0003));
    assert!(same_epoch(0x2_0003, 0x1_0003), "wire bits only");
    assert!(!same_epoch(2, 3));
    // A tag whose body is an epoch compares by that body.
    assert!(same_epoch(epoch_timer(6, 0x1_0003), 3));
    assert!(!same_epoch(epoch_timer(6, 4), 3));
}

#[test]
fn overlapping_or_oversized_fields_are_caught() {
    assert!(Layout([(0, 8), (8, 8)]).fits_below(16));
    assert!(!Layout([(0, 8), (7, 8)]).fits_below(64), "overlap");
    assert!(
        !Layout([(8, 8), (0, 9)]).fits_below(64),
        "overlap, reversed"
    );
    assert!(!Layout([(56, 9)]).fits_below(64), "passes bit 63");
    assert!(!Layout([(48, 16)]).fits_below(60), "reaches the kind bits");
    assert!(!Layout([(4, 0)]).fits_below(64), "empty field");
}
