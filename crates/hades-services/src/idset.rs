//! Dense sets of request ids: one bit per id.
//!
//! A replica-group member remembers every request id it has accepted,
//! executed and emitted for the whole run. The ids are the 20-bit ids
//! the group's wire payloads carry, handed out densely from 0, so a
//! bitset up to the largest id costs one bit per request where a hash
//! set costs a slot of 8 bytes and more.

/// One past the largest id a set holds: the 20-bit request-id space.
pub(crate) const ID_LIMIT: u64 = 1 << 20;

/// Words added per growth step: 512 ids, 64 bytes. The set grows by
/// exact whole chunks instead of doubling, so its size stays within one
/// chunk of the largest id; growing a word at a time instead frees and
/// reallocates a block every 64 ids, which fragments the heap.
const CHUNK_WORDS: usize = 8;

/// A set of request ids below [`ID_LIMIT`], stored as a bitset that
/// grows with the largest id inserted.
#[derive(Debug, Default, Clone)]
pub(crate) struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// Adds `id`; returns whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below [`ID_LIMIT`].
    pub(crate) fn insert(&mut self, id: u64) -> bool {
        assert!(id < ID_LIMIT, "request id {id} exceeds the 20-bit id space");
        let (word, bit) = ((id / 64) as usize, 1u64 << (id % 64));
        if word >= self.words.len() {
            let len = (word / CHUNK_WORDS + 1) * CHUNK_WORDS;
            self.words.reserve_exact(len - self.words.len());
            self.words.resize(len, 0);
        }
        let absent = self.words[word] & bit == 0;
        self.words[word] |= bit;
        absent
    }

    /// Whether `id` is in the set.
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.words
            .get((id / 64) as usize)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Ids that cross chunk and word edges, the top of the id space
    /// included, mixed with uniform draws.
    fn id(pick: u64, draw: u64) -> u64 {
        let chunk = (CHUNK_WORDS * 64) as u64;
        match pick % 4 {
            0 => (draw % 8 * chunk + chunk - 1 + draw % 3).min(ID_LIMIT - 1),
            1 => ID_LIMIT - 1 - draw % 2,
            _ => draw % ID_LIMIT,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn idset_agrees_with_a_btreeset(
            ops in prop::collection::vec((0u64..4, 0u64..ID_LIMIT, 0u64..2), 0..200),
        ) {
            let (mut set, mut model) = (IdSet::default(), BTreeSet::new());
            for (pick, draw, insert) in ops {
                let id = id(pick, draw);
                if insert == 1 {
                    prop_assert_eq!(set.insert(id), model.insert(id));
                } else {
                    prop_assert_eq!(set.contains(id), model.contains(&id));
                }
            }
            for probe in model.iter().flat_map(|id| [*id, id + 1, id.saturating_sub(1)]) {
                prop_assert_eq!(set.contains(probe), model.contains(&probe));
            }
        }
    }

    #[test]
    fn idset_holds_one_bit_per_id_plus_at_most_one_chunk() {
        let mut set = IdSet::default();
        assert_eq!(set.words.capacity(), 0, "an empty set allocates nothing");
        for top in [0, 1, 511, 512, 4_095, 100_000, ID_LIMIT - 1] {
            set.insert(top);
            let bits = set.words.capacity() as u64 * 64;
            assert!(bits > top, "id {top} fits");
            assert!(
                bits <= top + 1 + (CHUNK_WORDS * 64) as u64,
                "{bits} bits for ids up to {top}"
            );
        }
        assert!(!set.contains(ID_LIMIT), "past the id space");
    }

    #[test]
    #[should_panic(expected = "20-bit")]
    fn idset_rejects_ids_past_the_20_bit_space() {
        IdSet::default().insert(ID_LIMIT);
    }
}
