//! Arrival-time bucket queues (a small timing wheel) for in-flight flits.
//!
//! The engine's inboxes used to be flat `Vec<(Cycle, ...)>`s scanned
//! linearly every cycle with `swap_remove` — O(pending) timestamp compares
//! per cycle per node, and same-cycle entries were delivered in an order
//! that depended on compaction history. The wheel replaces the scan with an
//! O(due) bucket drain keyed on `arrival % capacity`:
//!
//! * `push` is O(1); the wheel grows (power-of-two capacity) whenever an
//!   arrival lands beyond the current horizon, so any `cycle + latency` is
//!   accepted.
//! * `drain_due_into` empties exactly the bucket for the current cycle, in
//!   **push order** — FIFO within a cycle is a documented guarantee (see
//!   `fifo_within_cycle` below and the engine's delivery phase), where the
//!   old `swap_remove` compaction could reorder same-cycle flits.
//! * Buckets are reused `Vec`s, so steady-state operation allocates nothing.
//!
//! Invariant: every entry's arrival cycle is `>= base` (the next cycle to
//! be drained) and `< base + capacity`, so a bucket only ever holds entries
//! for a single cycle.

use noc_types::Cycle;

/// Minimum bucket count; covers the default hop latencies (≤ 2–3 cycles)
/// without growth.
const MIN_SLOTS: usize = 8;

/// A timing wheel holding `(arrival, payload)` entries.
#[derive(Clone, Debug)]
pub struct Inbox<T> {
    /// `slots[c & (slots.len() - 1)]` holds the entries due at cycle `c`.
    slots: Vec<Vec<(Cycle, T)>>,
    /// Total buffered entries.
    len: usize,
    /// The earliest cycle that has not been drained yet.
    base: Cycle,
}

impl<T> Default for Inbox<T> {
    fn default() -> Self {
        Inbox::new()
    }
}

impl<T> Inbox<T> {
    pub fn new() -> Inbox<T> {
        Inbox {
            slots: (0..MIN_SLOTS).map(|_| Vec::new()).collect(),
            len: 0,
            base: 0,
        }
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot_of(&self, arrival: Cycle) -> usize {
        (arrival & (self.slots.len() as Cycle - 1)) as usize
    }

    /// Queues `item` for delivery at `arrival`. Arrivals must not predate
    /// the wheel's current cycle (`base`): the engine always schedules at
    /// least one cycle ahead (`router_latency >= 1`).
    pub fn push(&mut self, arrival: Cycle, item: T) {
        debug_assert!(
            arrival >= self.base,
            "arrival {arrival} before wheel base {}",
            self.base
        );
        if arrival - self.base >= self.slots.len() as Cycle {
            self.grow(arrival);
        }
        let s = self.slot_of(arrival);
        self.slots[s].push((arrival, item));
        self.len += 1;
    }

    /// Doubles capacity until `arrival` fits, re-bucketing every entry.
    /// Same-cycle entries stay together in one bucket in their original
    /// order, so FIFO-within-cycle survives growth.
    fn grow(&mut self, arrival: Cycle) {
        let needed = (arrival - self.base + 1).next_power_of_two() as usize;
        let old = std::mem::replace(
            &mut self.slots,
            (0..needed.max(MIN_SLOTS * 2)).map(|_| Vec::new()).collect(),
        );
        for bucket in old {
            for (c, item) in bucket {
                let s = self.slot_of(c);
                self.slots[s].push((c, item));
            }
        }
    }

    /// Moves every entry due at `now` into `out`, preserving push order, and
    /// advances the wheel. Must be called with non-decreasing `now` (the
    /// engine drains every cycle).
    pub fn drain_due_into(&mut self, now: Cycle, out: &mut Vec<T>) {
        debug_assert!(now >= self.base.saturating_sub(1) || self.len == 0);
        self.base = now + 1;
        let s = self.slot_of(now);
        let bucket = &mut self.slots[s];
        self.len -= bucket.len();
        for (c, item) in bucket.drain(..) {
            debug_assert_eq!(c, now, "stale entry in wheel bucket");
            out.push(item);
        }
    }

    /// Visits every entry due exactly at `at` (a future cycle); entries for
    /// which `f` returns `Some(new_arrival)` are re-timed to that cycle.
    /// Used by TFC's express bypass, which accelerates in-flight head flits.
    /// Re-timed entries append to their new bucket in visit order.
    pub fn retime_due_at<F: FnMut(&T) -> Option<Cycle>>(&mut self, at: Cycle, mut f: F) {
        let s = self.slot_of(at);
        let mut moved: Vec<(Cycle, T)> = Vec::new();
        let bucket = &mut self.slots[s];
        let mut k = 0;
        while k < bucket.len() {
            debug_assert_eq!(bucket[k].0, at, "stale entry in wheel bucket");
            match f(&bucket[k].1) {
                Some(new_arrival) => {
                    let (_, item) = bucket.remove(k);
                    moved.push((new_arrival, item));
                }
                None => k += 1,
            }
        }
        self.len -= moved.len();
        for (c, item) in moved {
            self.push(c, item);
        }
    }

    /// Iterates all buffered entries as `(arrival, &payload)`. Order across
    /// cycles is unspecified; within one cycle it is push order.
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, &T)> {
        self.slots
            .iter()
            .flat_map(|b| b.iter().map(|(c, item)| (*c, item)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_at_exact_cycles() {
        let mut w: Inbox<u32> = Inbox::new();
        w.push(3, 30);
        w.push(1, 10);
        w.push(2, 20);
        let mut out = Vec::new();
        for now in 0..=3 {
            w.drain_due_into(now, &mut out);
        }
        assert_eq!(out, vec![10, 20, 30]);
        assert!(w.is_empty());
    }

    #[test]
    fn fifo_within_cycle() {
        // Same-cycle entries come out in push order — the guarantee the
        // old swap_remove compaction did not give.
        let mut w: Inbox<u32> = Inbox::new();
        for i in 0..10 {
            w.push(5, i);
        }
        let mut out = Vec::new();
        for now in 0..=5 {
            w.drain_due_into(now, &mut out);
        }
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn grows_past_the_initial_horizon() {
        let mut w: Inbox<u32> = Inbox::new();
        w.push(2, 2);
        w.push(100, 100); // far beyond MIN_SLOTS
        w.push(7, 7);
        assert_eq!(w.len(), 3);
        let mut out = Vec::new();
        for now in 0..=100 {
            w.drain_due_into(now, &mut out);
        }
        assert_eq!(out, vec![2, 7, 100]);
    }

    #[test]
    fn growth_preserves_same_cycle_order() {
        let mut w: Inbox<u32> = Inbox::new();
        for i in 0..4 {
            w.push(6, i);
        }
        w.push(200, 999); // forces growth and re-bucketing
        let mut out = Vec::new();
        for now in 0..=6 {
            w.drain_due_into(now, &mut out);
        }
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn retime_moves_matching_entries() {
        let mut w: Inbox<&'static str> = Inbox::new();
        w.push(4, "slow");
        w.push(4, "fast");
        w.push(4, "slow2");
        w.retime_due_at(4, |s| if *s == "fast" { Some(2) } else { None });
        let mut at2 = Vec::new();
        let mut out = Vec::new();
        for now in 0..=4 {
            w.drain_due_into(now, &mut out);
            if now == 2 {
                at2 = out.clone();
            }
        }
        assert_eq!(at2, vec!["fast"]);
        assert_eq!(out, vec!["fast", "slow", "slow2"]);
        assert!(w.is_empty());
    }

    #[test]
    fn steady_state_reuses_buckets() {
        let mut w: Inbox<u64> = Inbox::new();
        let mut out = Vec::new();
        for now in 0..1000u64 {
            w.push(now + 2, now);
            w.drain_due_into(now, &mut out);
        }
        assert_eq!(out.len(), 998);
        assert_eq!(w.len(), 2);
        assert_eq!(w.slots.len(), MIN_SLOTS, "no growth for small horizons");
    }
}

/// Property tests: the wheel must be observationally identical to the naive
/// flat-`Vec` inbox it replaced — same delivery cycles, same FIFO order
/// within a cycle — under arbitrary interleavings of pushes and drains,
/// including horizons that force growth and schedules that wrap the wheel
/// many times over.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        /// Random schedule vs the naive model. Each op either pushes an
        /// entry `0..24` cycles ahead of the current cycle (beyond the
        /// 8-slot minimum wheel, so growth and re-bucketing happen
        /// constantly) or drains the current cycle and advances — i.e.
        /// pushes interleave with drains exactly as in the engine's cycle
        /// loop. The model is a push-ordered `Vec` drained by a stable
        /// linear scan, so comparing full output sequences checks both
        /// delivery cycles and FIFO-within-cycle.
        fn wheel_matches_naive_vec_model(ops in prop::collection::vec(0u64..32, 1..300)) {
            let mut w: Inbox<usize> = Inbox::new();
            let mut model: Vec<(Cycle, usize)> = Vec::new();
            let mut now: Cycle = 0;
            let mut next_id = 0usize;
            let mut got: Vec<usize> = Vec::new();
            let mut want: Vec<usize> = Vec::new();
            let drain_model = |model: &mut Vec<(Cycle, usize)>, now: Cycle,
                                   want: &mut Vec<usize>| {
                let mut i = 0;
                while i < model.len() {
                    if model[i].0 == now {
                        want.push(model.remove(i).1);
                    } else {
                        i += 1;
                    }
                }
            };
            for op in ops {
                if op >= 24 {
                    w.drain_due_into(now, &mut got);
                    drain_model(&mut model, now, &mut want);
                    prop_assert_eq!(&got, &want, "divergence at cycle {}", now);
                    prop_assert_eq!(w.len(), model.len());
                    now += 1;
                } else {
                    let arrival = now + op;
                    w.push(arrival, next_id);
                    model.push((arrival, next_id));
                    next_id += 1;
                }
            }
            // Flush: drain far enough to deliver every pending entry.
            for _ in 0..32 {
                w.drain_due_into(now, &mut got);
                drain_model(&mut model, now, &mut want);
                now += 1;
            }
            prop_assert_eq!(got, want);
            prop_assert!(w.is_empty());
            prop_assert!(model.is_empty());
        }

        #[test]
        /// Same-cycle FIFO survives arbitrary growth points: entries pushed
        /// for one cycle interleave with far-future pushes (each forcing a
        /// re-bucketing) and still drain in push order.
        fn fifo_within_cycle_survives_growth(
            (target, far) in (1u64..16, prop::collection::vec(16u64..4096, 0..8)),
        ) {
            let mut w: Inbox<u64> = Inbox::new();
            let mut far_it = far.iter();
            for i in 0..12u64 {
                w.push(target, i);
                if let Some(&f) = far_it.next() {
                    w.push(target + f, 1000 + f); // may trigger growth
                }
            }
            let mut out = Vec::new();
            let mut same_cycle = Vec::new();
            for now in 0..=target {
                out.clear();
                w.drain_due_into(now, &mut out);
                if now == target {
                    same_cycle = out.clone();
                }
            }
            prop_assert_eq!(same_cycle, (0..12u64).collect::<Vec<_>>());
        }

        #[test]
        /// `retime_due_at` conserves entries: whatever subset is
        /// accelerated, every id is delivered exactly once, accelerated
        /// ones at their new cycle.
        fn retime_delivers_every_entry_once(
            (at, delta, mask) in (2u64..20, 1u64..5, 0u32..256),
        ) {
            let mut w: Inbox<u32> = Inbox::new();
            for i in 0..8u32 {
                w.push(at, i);
            }
            let early = at - delta.min(at - 1);
            w.retime_due_at(at, |&i| {
                if mask & (1 << i) != 0 { Some(early) } else { None }
            });
            prop_assert_eq!(w.len(), 8);
            let mut delivered: Vec<(Cycle, u32)> = Vec::new();
            let mut out = Vec::new();
            for now in 0..=at {
                out.clear();
                w.drain_due_into(now, &mut out);
                delivered.extend(out.iter().map(|&i| (now, i)));
            }
            prop_assert!(w.is_empty());
            let mut ids: Vec<u32> = delivered.iter().map(|&(_, i)| i).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..8u32).collect::<Vec<_>>());
            for (cycle, i) in delivered {
                let expect = if mask & (1 << i) != 0 { early } else { at };
                prop_assert_eq!(cycle, expect, "id {} at wrong cycle", i);
            }
        }
    }
}
