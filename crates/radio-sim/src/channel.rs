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
//! The board is *sparse*: it stores only the channels that were actually
//! broadcast on in this slot (expected `O(n·p)`, typically a handful), so the
//! simulator never allocates per-channel state even when a protocol phase
//! uses millions of channels (as `MultiCastAdv` can in late epochs).

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

/// Accumulates the broadcasts of one slot and answers listener queries.
///
/// Usage per slot: `clear`, any number of `add_broadcast`, one `resolve`,
/// then any number of `outcome` queries.
#[derive(Debug, Default)]
pub struct ChannelBoard {
    /// (channel, payload) per broadcast; sorted by channel after `resolve`.
    bcasts: Vec<(u64, Payload)>,
    resolved: bool,
}

impl ChannelBoard {
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the previous slot.
    #[inline]
    pub fn clear(&mut self) {
        self.bcasts.clear();
        self.resolved = false;
    }

    /// Record that some node broadcasts `payload` on `ch` this slot.
    #[inline]
    pub fn add_broadcast(&mut self, ch: u64, payload: Payload) {
        debug_assert!(!self.resolved, "add_broadcast after resolve");
        self.bcasts.push((ch, payload));
    }

    /// Number of broadcasts recorded this slot.
    #[inline]
    pub fn broadcast_count(&self) -> usize {
        self.bcasts.len()
    }

    /// Sort the board; must be called before `outcome`.
    #[inline]
    pub fn resolve(&mut self) {
        self.bcasts.sort_unstable_by_key(|&(ch, _)| ch);
        self.resolved = true;
    }

    /// What does a listener on channel `ch` hear, given whether Eve jams it?
    #[inline]
    pub fn outcome(&self, ch: u64, jammed: bool) -> Feedback {
        debug_assert!(self.resolved, "outcome before resolve");
        if jammed {
            return Feedback::Noise;
        }
        // One search for the first broadcast on `ch`; the entry after it
        // tells a lone broadcast from a collision.
        let start = self.bcasts.partition_point(|&(c, _)| c < ch);
        match &self.bcasts[start..] {
            [(c, _), (next, _), ..] if *c == ch && *next == ch => Feedback::Noise,
            [(c, payload), ..] if *c == ch => Feedback::Message(*payload),
            _ => Feedback::Silence,
        }
    }

    /// Append the distinct channels that carried at least one transmission
    /// this slot (sorted ascending) — the public band activity an adaptive
    /// adversary's sensor sees. Must be called after `resolve`.
    pub fn busy_channels(&self, out: &mut Vec<u64>) {
        debug_assert!(self.resolved);
        let mut last: Option<u64> = None;
        for &(ch, _) in &self.bcasts {
            if last != Some(ch) {
                out.push(ch);
                last = Some(ch);
            }
        }
    }

    /// Number of channels carrying exactly one (un-jammed, hence decodable)
    /// broadcast — the "good channel" count of Claim 4.1.1, before accounting
    /// for jamming. Diagnostic for tests and experiments.
    pub fn singleton_channels(&self) -> usize {
        debug_assert!(self.resolved);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_on_untouched_channel() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.resolve();
        assert_eq!(b.outcome(3, false), Feedback::Silence);
    }

    #[test]
    fn single_broadcast_is_received() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(5, Payload::Data);
        b.resolve();
        assert_eq!(b.outcome(5, false), Feedback::Message(Payload::Data));
        assert_eq!(b.outcome(4, false), Feedback::Silence);
    }

    #[test]
    fn beacon_payload_is_distinguished() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(1, Payload::Beacon);
        b.resolve();
        assert_eq!(b.outcome(1, false), Feedback::Message(Payload::Beacon));
    }

    #[test]
    fn collision_is_noise() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(2, Payload::Data);
        b.add_broadcast(2, Payload::Data);
        b.resolve();
        assert_eq!(b.outcome(2, false), Feedback::Noise);
    }

    #[test]
    fn collision_of_data_and_beacon_is_noise() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(2, Payload::Data);
        b.add_broadcast(2, Payload::Beacon);
        b.resolve();
        assert_eq!(b.outcome(2, false), Feedback::Noise);
    }

    #[test]
    fn jamming_overrides_everything() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(7, Payload::Data);
        b.resolve();
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
        b.resolve();
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
        b.resolve();
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
        b.resolve();
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
        b.resolve();
        // Singletons: 1, 3, 5.
        assert_eq!(b.singleton_channels(), 3);
    }

    #[test]
    fn clear_resets_the_slot() {
        let mut b = ChannelBoard::new();
        b.clear();
        b.add_broadcast(1, Payload::Data);
        b.resolve();
        b.clear();
        b.resolve();
        assert_eq!(b.outcome(1, false), Feedback::Silence);
        assert_eq!(b.broadcast_count(), 0);
    }
}
