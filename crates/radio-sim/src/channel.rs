//! Per-slot channel resolution.
//!
//! Implements the reception rules of Section 3 of the paper, per channel per
//! slot:
//!
//! * no broadcaster and no jamming → **silence**;
//! * exactly one broadcaster and no jamming → the broadcaster's **message**;
//! * at least two broadcasters, or jamming (or both) → **noise**.
//!
//! Broadcasting nodes receive no feedback about channel status, and listeners
//! cannot distinguish collision noise from jamming noise.
//!
//! The board is *sparse*: it tallies only the channels that were actually
//! broadcast on in this slot (expected `O(n·p)`, typically a handful), so
//! the simulator never allocates per-channel state even when a protocol
//! phase uses millions of channels (as `MultiCastAdv` can in late epochs).
//! Its memory is `O(b)` for the largest number `b` of broadcasts in one slot
//! of the run, whatever the channel count.

/// Content of a broadcast.
///
/// The paper's protocols transmit either the broadcast payload `m` itself or
/// (in step two of `MultiCastAdv`) a special beacon `±` sent by nodes that do
/// not yet know `m`. Message *content* beyond this distinction is irrelevant
/// to the algorithms, so we do not model payload bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Payload {
    /// The actual broadcast message `m`.
    Data,
    /// The `±` beacon of `MultiCastAdv` step two.
    Beacon,
    /// Message `j` of a multi-message (`k > 1`) protocol: concurrent
    /// payloads are multiplexed by identity, so a listener learns exactly
    /// the message it decoded (`crate::Protocol::num_messages`).
    Msg(u16),
}

/// What a listening node hears on its channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Feedback {
    /// Nobody transmitted and Eve did not jam.
    Silence,
    /// Exactly one node transmitted, and Eve did not jam: clean reception.
    Message(Payload),
    /// Collision (≥ 2 transmitters) or jamming — indistinguishable.
    Noise,
}

/// One channel's tally for the slot.
#[derive(Clone, Copy, Debug)]
struct Tally {
    ch: u64,
    /// Broadcasts on `ch` this slot, saturated at 2; 0 marks a free entry.
    count: u8,
    /// The first broadcast's payload: what a lone broadcast delivers.
    first: Payload,
}

const FREE: Tally = Tally {
    ch: 0,
    count: 0,
    first: Payload::Data,
};

/// Table size of a new board: up to 32 busy channels fit before it grows.
const MIN_TABLE: usize = 64;

/// Accumulates the broadcasts of one slot and answers listener queries.
///
/// Usage per slot: `clear`, any number of `add_broadcast`, then any number
/// of queries (`outcome`, `busy_channels`); there is no resolve step in
/// between. Both `add_broadcast` and `outcome` are O(1) expected: the board
/// is an open-addressing table whose length is a power of two, probed
/// linearly from index `ch & mask` (`mask` = length − 1), and holding per
/// busy channel its count (saturated at 2) and first payload.
///
/// * The index is the channel's low bits because every protocol draws its
///   channels uniformly, so the low bits are uniform too; no hash is needed.
///   Correctness never depends on the index, only the probe length does: a
///   lookup walks from the home index to the channel's entry or to a free
///   entry, and the board keeps its load at most ½, so a free entry is
///   always reached.
/// * The table grows (doubling, on demand) and never shrinks, so its length
///   is at most `max(64, 4b)` for the largest number `b` of distinct busy
///   channels in one slot. `clear` frees only the entries the slot filled,
///   through the list of their indices, so it costs one write per busy
///   channel, not the table length.
#[derive(Debug)]
pub struct ChannelBoard {
    /// Open-addressing table; its length is a power of two.
    table: Vec<Tally>,
    /// Indices of this slot's filled entries, in fill order.
    filled: Vec<usize>,
    /// Broadcasts recorded this slot.
    broadcasts: usize,
}

impl Default for ChannelBoard {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelBoard {
    pub fn new() -> Self {
        Self {
            table: vec![FREE; MIN_TABLE],
            filled: Vec::new(),
            broadcasts: 0,
        }
    }

    /// Forget the previous slot.
    #[inline]
    pub fn clear(&mut self) {
        for &i in &self.filled {
            self.table[i].count = 0;
        }
        self.filled.clear();
        self.broadcasts = 0;
    }

    /// Index of `ch`'s entry, or of the free entry where it would go.
    #[inline]
    fn find(&self, ch: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut i = ch as usize & mask;
        loop {
            let e = &self.table[i];
            if e.count == 0 || e.ch == ch {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Record that some node broadcasts `payload` on `ch` this slot.
    #[inline]
    pub fn add_broadcast(&mut self, ch: u64, payload: Payload) {
        self.broadcasts += 1;
        let mut i = self.find(ch);
        if self.table[i].count != 0 {
            self.table[i].count = 2;
            return;
        }
        if 2 * (self.filled.len() + 1) > self.table.len() {
            self.grow();
            i = self.find(ch);
        }
        self.table[i] = Tally {
            ch,
            count: 1,
            first: payload,
        };
        self.filled.push(i);
    }

    /// Double the table and re-insert this slot's entries.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let len = 2 * self.table.len();
        let old = std::mem::replace(&mut self.table, vec![FREE; len]);
        let mut filled = std::mem::take(&mut self.filled);
        for slot in &mut filled {
            let e = old[*slot];
            *slot = self.find(e.ch);
            self.table[*slot] = e;
        }
        self.filled = filled;
    }

    /// Number of broadcasts recorded this slot.
    #[inline]
    pub fn broadcast_count(&self) -> usize {
        self.broadcasts
    }

    /// What does a listener on channel `ch` hear, given whether Eve jams it?
    #[inline]
    pub fn outcome(&self, ch: u64, jammed: bool) -> Feedback {
        if jammed {
            return Feedback::Noise;
        }
        let e = &self.table[self.find(ch)];
        match e.count {
            0 => Feedback::Silence,
            1 => Feedback::Message(e.first),
            _ => Feedback::Noise,
        }
    }

    /// Append the distinct channels that carried at least one transmission
    /// this slot (sorted ascending) — the public band activity an adaptive
    /// adversary's sensor sees. The only query that sorts, and only the
    /// slot's busy channels.
    pub fn busy_channels(&self, out: &mut Vec<u64>) {
        let start = out.len();
        out.extend(self.filled.iter().map(|&i| self.table[i].ch));
        out[start..].sort_unstable();
    }

    /// Number of channels carrying exactly one (un-jammed, hence decodable)
    /// broadcast — the "good channel" count of Claim 4.1.1, before accounting
    /// for jamming. Diagnostic for tests and experiments.
    pub fn singleton_channels(&self) -> usize {
        self.filled
            .iter()
            .filter(|&&i| self.table[i].count == 1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn silence_on_untouched_channel() {
        let mut b = ChannelBoard::new();
        b.clear();
        assert_eq!(b.outcome(3, false), Feedback::Silence);
    }

    #[test]
    fn single_broadcast_is_received() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(5, Payload::Data);
        assert_eq!(b.outcome(5, false), Feedback::Message(Payload::Data));
        assert_eq!(b.outcome(4, false), Feedback::Silence);
    }

    #[test]
    fn beacon_payload_is_distinguished() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(1, Payload::Beacon);
        assert_eq!(b.outcome(1, false), Feedback::Message(Payload::Beacon));
    }

    #[test]
    fn collision_is_noise() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(2, Payload::Data);
        b.add_broadcast(2, Payload::Data);
        assert_eq!(b.outcome(2, false), Feedback::Noise);
    }

    #[test]
    fn collision_of_data_and_beacon_is_noise() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(2, Payload::Data);
        b.add_broadcast(2, Payload::Beacon);
        assert_eq!(b.outcome(2, false), Feedback::Noise);
    }

    #[test]
    fn jamming_overrides_everything() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(7, Payload::Data);
        assert_eq!(
            b.outcome(7, true),
            Feedback::Noise,
            "jam over single broadcast"
        );
        assert_eq!(b.outcome(8, true), Feedback::Noise, "jam over silence");
    }

    #[test]
    fn channels_are_independent() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(0, Payload::Data);
        b.add_broadcast(1, Payload::Data);
        b.add_broadcast(1, Payload::Data);
        assert_eq!(b.outcome(0, false), Feedback::Message(Payload::Data));
        assert_eq!(b.outcome(1, false), Feedback::Noise);
        assert_eq!(b.outcome(2, false), Feedback::Silence);
    }

    #[test]
    fn unsorted_insertion_order_does_not_matter() {
        let mut b = ChannelBoard::new();
        b.clear();
        for ch in [9u64, 3, 9, 1, 3, 3] {
            b.add_broadcast(ch, Payload::Data);
        }
        assert_eq!(b.outcome(1, false), Feedback::Message(Payload::Data));
        assert_eq!(b.outcome(3, false), Feedback::Noise);
        assert_eq!(b.outcome(9, false), Feedback::Noise);
    }

    #[test]
    fn busy_channels_sorted_and_deduped() {
        let mut b = ChannelBoard::new();
        b.clear();
        for ch in [9u64, 3, 9, 1, 3] {
            b.add_broadcast(ch, Payload::Data);
        }
        let mut busy = Vec::new();
        b.busy_channels(&mut busy);
        assert_eq!(busy, vec![1, 3, 9]);
    }

    #[test]
    fn singleton_channel_count() {
        let mut b = ChannelBoard::new();
        b.clear();
        for ch in [1u64, 2, 2, 3, 4, 4, 4, 5] {
            b.add_broadcast(ch, Payload::Data);
        }
        // Singletons: 1, 3, 5.
        assert_eq!(b.singleton_channels(), 3);
    }

    #[test]
    fn clear_resets_the_slot() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(1, Payload::Data);
        b.clear();
        assert_eq!(b.outcome(1, false), Feedback::Silence);
        assert_eq!(b.broadcast_count(), 0);
    }

    /// The sort-and-search board the tally replaced, kept as the reference
    /// the tally is checked against: collect every broadcast, sort by
    /// channel once per slot (`resolve`), and answer a query with one
    /// binary search plus a look at the next entry.
    #[derive(Default)]
    struct SortedBoard {
        bcasts: Vec<(u64, Payload)>,
    }

    impl SortedBoard {
        fn clear(&mut self) {
            self.bcasts.clear();
        }

        fn add_broadcast(&mut self, ch: u64, payload: Payload) {
            self.bcasts.push((ch, payload));
        }

        fn resolve(&mut self) {
            self.bcasts.sort_unstable_by_key(|&(ch, _)| ch);
        }

        fn outcome(&self, ch: u64, jammed: bool) -> Feedback {
            if jammed {
                return Feedback::Noise;
            }
            let start = self.bcasts.partition_point(|&(c, _)| c < ch);
            match &self.bcasts[start..] {
                [(c, _), (next, _), ..] if *c == ch && *next == ch => Feedback::Noise,
                [(c, payload), ..] if *c == ch => Feedback::Message(*payload),
                _ => Feedback::Silence,
            }
        }

        fn busy_channels(&self, out: &mut Vec<u64>) {
            let mut last: Option<u64> = None;
            for &(ch, _) in &self.bcasts {
                if last != Some(ch) {
                    out.push(ch);
                    last = Some(ch);
                }
            }
        }

        fn singleton_channels(&self) -> usize {
            let mut count = 0;
            let mut i = 0;
            while i < self.bcasts.len() {
                let ch = self.bcasts[i].0;
                let mut j = i + 1;
                while j < self.bcasts.len() && self.bcasts[j].0 == ch {
                    j += 1;
                }
                if j - i == 1 {
                    count += 1;
                }
                i = j;
            }
            count
        }
    }

    /// 12 000 random slots through one reused board: channel counts from 1
    /// to 2⁴⁰, 0–300 broadcasts with forced collisions, all three payload
    /// kinds, and queries on busy and silent channels, jammed and not. The
    /// tally must answer every query exactly as the sorted reference does.
    #[test]
    fn tally_matches_the_sorted_reference() {
        let mut rng = Xoshiro256::seeded(0xB0A2D);
        let mut board = ChannelBoard::new();
        let mut reference = SortedBoard::default();
        let (mut busy, mut busy_ref) = (Vec::new(), Vec::new());
        let mut sent: Vec<u64> = Vec::new();
        let mut queries = 0u64;
        for slot in 0..12_000 {
            let bits = rng.gen_range(41);
            let channels = rng.gen_range(1 << bits) + 1;
            board.clear();
            reference.clear();
            sent.clear();
            for _ in 0..rng.gen_range(301) {
                // One broadcast in four reuses an earlier channel of the
                // slot, so collisions happen even among 2^40 channels.
                let ch = if !sent.is_empty() && rng.gen_range(4) == 0 {
                    sent[rng.gen_range(sent.len() as u64) as usize]
                } else {
                    rng.gen_range(channels)
                };
                let payload = match rng.gen_range(3) {
                    0 => Payload::Data,
                    1 => Payload::Beacon,
                    _ => Payload::Msg(rng.gen_range(1 << 16) as u16),
                };
                board.add_broadcast(ch, payload);
                reference.add_broadcast(ch, payload);
                sent.push(ch);
            }
            reference.resolve();
            assert_eq!(board.broadcast_count(), sent.len(), "slot {slot}");
            assert_eq!(
                board.singleton_channels(),
                reference.singleton_channels(),
                "slot {slot}"
            );
            busy.clear();
            busy_ref.clear();
            board.busy_channels(&mut busy);
            reference.busy_channels(&mut busy_ref);
            assert_eq!(busy, busy_ref, "slot {slot}");
            // Every busy channel, plus 16 random ones (silent unless the
            // band is small).
            let mut probes = sent.clone();
            probes.extend((0..16).map(|_| rng.gen_range(channels)));
            for ch in probes {
                let jammed = rng.gen_range(4) == 0;
                assert_eq!(
                    board.outcome(ch, jammed),
                    reference.outcome(ch, jammed),
                    "slot {slot}: channel {ch} of {channels}, jammed {jammed}"
                );
                queries += 1;
            }
        }
        assert!(queries > 1_000_000, "{queries} queries");
        assert!(
            board.table.len() >= 8 * MIN_TABLE,
            "the board grew through the run: {} entries",
            board.table.len()
        );
    }
}
