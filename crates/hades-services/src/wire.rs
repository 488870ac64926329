//! The wire format of the protocol actors: one bit layout per payload
//! kind, the timer-tag layout, and the 16-bit epoch rule.
//!
//! [`crate::NodeAgent`] and [`crate::ReplicaGroup`] exchange 64-bit
//! payloads and arm 64-bit timer tags, each a fixed set of fields. A
//! [`Layout`] is the table of those fields, `(shift, width)` each, and
//! both directions read the same table, so an encoder and its decoder
//! cannot drift apart. Packing masks each value to its width: a value
//! past its field wraps rather than spilling into the next one. The
//! senders clamp or assert where a wrap would be wrong (`start_transfer`
//! clamps the log tail and the chunk count; a request id and timestamp
//! are asserted to fit).
//!
//! A timer tag is a kind in bits 63–60 and a body below ([`TIMER`]); the
//! bodies are layouts of their own, all below bit 60. An incarnation
//! epoch travels as its low 16 bits ([`epoch`]); a message or timer of
//! an earlier life is told apart by [`same_epoch`], which compares those
//! bits only.

/// The fields of one wire word, as `(shift, width)` in bits, in the order
/// [`Layout::pack`] takes the values and [`Layout::unpack`] returns them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout<const N: usize>(pub(crate) [(u32, u32); N]);

/// The low `width` bits set.
const fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

impl<const N: usize> Layout<N> {
    /// A payload layout. Its fields must be disjoint, non-empty and below
    /// bit 64: a constant that breaks this fails to compile.
    const fn payload(fields: [(u32, u32); N]) -> Self {
        let layout = Layout(fields);
        assert!(
            layout.fits_below(64),
            "a payload field overlaps or passes bit 63"
        );
        layout
    }

    /// A timer-body layout: the same, below the kind bits (bit 60).
    const fn body(fields: [(u32, u32); N]) -> Self {
        let layout = Layout(fields);
        assert!(
            layout.fits_below(60),
            "a timer-body field overlaps or reaches bit 60"
        );
        layout
    }

    /// The word carrying `values`, each masked to its field's width.
    #[inline]
    pub(crate) fn pack(&self, values: [u64; N]) -> u64 {
        let mut word = 0;
        for ((shift, width), value) in self.0.into_iter().zip(values) {
            word |= (value & mask(width)) << shift;
        }
        word
    }

    /// The field values of `word`, in table order.
    #[inline]
    pub(crate) fn unpack(&self, word: u64) -> [u64; N] {
        self.0.map(|(shift, width)| (word >> shift) & mask(width))
    }

    /// Whether the fields are non-empty, pairwise disjoint and all below
    /// bit `limit` (64 for a payload, 60 for a timer body).
    pub(crate) const fn fits_below(&self, limit: u32) -> bool {
        let mut i = 0;
        while i < N {
            let (shift, width) = self.0[i];
            if width == 0 || shift + width > limit {
                return false;
            }
            let mut j = 0;
            while j < i {
                let (other, other_width) = self.0[j];
                if shift < other + other_width && other < shift + width {
                    return false;
                }
                j += 1;
            }
            i += 1;
        }
        true
    }
}

// ---- NodeAgent payloads ----

/// One wire word of a view-change proposal: target view (16 bits) | word
/// index (8 bits) | word bits (32 bits).
pub(crate) const VC: Layout<3> = Layout::payload([(48, 16), (32, 8), (0, 32)]);

/// Join announcement: epoch (16 bits) | announcer's last installed view
/// (16 bits) | durable checkpoint generation (32 bits). The checkpoint
/// cursor lets the server offer a delta transfer; the view lets a
/// total-failure bootstrap pick a view number past every view any
/// announcer has installed (view numbers never regress cluster-wide).
pub(crate) const JOIN: Layout<3> = Layout::payload([(48, 16), (32, 16), (0, 32)]);

/// Selective-retransmission request: epoch (16 bits) | missing chunk
/// sequence number (24 bits).
pub(crate) const NACK: Layout<2> = Layout::payload([(48, 16), (0, 24)]);

/// Transfer preamble, part 1: epoch (16 bits) | log tail (16 bits) |
/// view number (32 bits).
pub(crate) const SYNC: Layout<3> = Layout::payload([(48, 16), (32, 16), (0, 32)]);

/// One state-transfer chunk: epoch (16 bits) | sequence number (24 bits)
/// | chunk total (24 bits).
pub(crate) const CKPT: Layout<3> = Layout::payload([(48, 16), (24, 24), (0, 24)]);

/// Membership word of a transfer preamble: epoch (16 bits) | word index
/// (8 bits) | word bits (32 bits).
pub(crate) const MASK: Layout<3> = Layout::payload([(48, 16), (32, 8), (0, 32)]);

// ---- ReplicaGroup payloads ----

/// Request: id (20 bits) | sender timestamp in ns (44 bits). The packing
/// bounds the protocol to ~4.9 h of virtual time (2^44 ns) and 2^20
/// requests; the sender asserts both rather than wrap into order
/// divergence.
pub(crate) const REQ: Layout<2> = Layout::payload([(44, 20), (0, 44)]);

/// Order: leader node (6 bits) | stream sequence number (38 bits) |
/// request id (20 bits). Order streams are per-leader — a new leader
/// always starts at sequence 0 and followers re-anchor on the stream
/// switch — so a leader taking over with stale knowledge can never
/// collide with (or be dropped against) its predecessor's numbering.
pub(crate) const ORDER: Layout<3> = Layout::payload([(58, 6), (20, 38), (0, 20)]);

/// Vote: request id (20 bits) | executed count mod 4096 (12 bits) |
/// state digest (32 bits). The count lets receivers skip the digest
/// cross-check against members whose history legitimately differs (a
/// restarted replica missed its blackout window).
pub(crate) const VOTE: Layout<3> = Layout::payload([(44, 20), (32, 12), (0, 32)]);

/// Catch-up snapshot part: joiner epoch (16 bits) | 32 payload bits.
pub(crate) const SNAP: Layout<2> = Layout::payload([(48, 16), (0, 32)]);

/// Snapshot watermark: joiner epoch (16) | covered-id floor (20) |
/// executed count mod 4096 (12). Ids below `floor` are folded into the
/// shipped state and must not be re-executed by the joiner.
pub(crate) const SNAP_MARK: Layout<3> = Layout::payload([(48, 16), (12, 20), (0, 12)]);

// ---- Timer tags ----

/// A timer tag: kind (bits 63–60) | body (60 bits).
pub(crate) const TIMER: Layout<2> = Layout::payload([(60, 4), (0, 60)]);

/// Body of every timer that only names its life: the epoch (16 bits).
pub(crate) const EPOCH: Layout<1> = Layout::body([(0, 16)]);

/// Body of a view-change flood round: target view (16 bits) | round
/// (16 bits).
pub(crate) const ROUND: Layout<2> = Layout::body([(16, 16), (0, 16)]);

/// Body of a view-change decision: the target view (16 bits).
pub(crate) const DECIDE: Layout<1> = Layout::body([(0, 16)]);

/// Body of a paced transfer chunk: joiner node (28 bits) | next sequence
/// number (32 bits).
pub(crate) const XFER: Layout<2> = Layout::body([(32, 28), (0, 32)]);

/// Body of a silence time-out: the sequence number of the place it was
/// queued in (60 bits).
pub(crate) const TIMEOUT: Layout<1> = Layout::body([(0, 60)]);

/// The timer tag of `kind` whose body is the epoch `epoch`.
#[inline]
pub(crate) fn epoch_timer(kind: u64, epoch: u64) -> u64 {
    TIMER.pack([kind, EPOCH.pack([epoch])])
}

/// What of the incarnation epoch `e` goes on the wire: its low 16 bits.
#[inline]
pub(crate) fn epoch(e: u64) -> u64 {
    EPOCH.pack([e])
}

/// Whether `wire` (a wire epoch, or a tag whose low bits are one) names
/// the same life as the local epoch `local`: their 16 wire bits agree.
#[inline]
pub(crate) fn same_epoch(wire: u64, local: u64) -> bool {
    epoch(wire) == epoch(local)
}

#[cfg(test)]
#[path = "tests/wire.rs"]
mod tests;
