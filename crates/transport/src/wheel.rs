//! Hashed timer wheel for endpoint deadlines.
//!
//! An engine alone on its thread could sleep in
//! `recv_batch(next_deadline - now)` — the timeout living in the
//! blocking call. A run-to-completion executor lane cannot block per
//! endpoint, so deadlines move into an explicit structure: a
//! single-level hashed wheel (Varghese & Lauck) with per-timer
//! generation counters, the classic kernel-TCP design.
//!
//! Semantics the executor relies on:
//!
//! * **Never early.** A deadline is rounded *up* to tick granularity,
//!   so `fire` happens at the first `advance(now)` with
//!   `now ≥ deadline` — Jacobson's RTO estimate is preserved modulo
//!   one tick of added (never subtracted) latency, exactly like a
//!   kernel's jiffies-granular TCP timer.
//! * **O(1) schedule/cancel.** Cancel just bumps the timer's
//!   generation; the stale bucket entry is dropped lazily when its
//!   tick is swept. Rescheduling (the common case: every accepted
//!   result re-arms the engine's timer) is cancel + schedule.
//! * **Cascade counting.** A deadline more than `n_buckets` ticks out
//!   wraps around the wheel; when its bucket is swept early the entry
//!   is re-inserted ("cascaded") rather than fired. Cascades are
//!   counted and surfaced through `ReactorStats` — a high rate means
//!   the wheel is mis-sized for the RTO distribution.

use switchml_core::config::TimeNs;

#[derive(Debug, Clone, Copy)]
struct Entry {
    id: usize,
    gen: u64,
    deadline_tick: u64,
}

/// A single-level hashed timer wheel over a fixed set of timer ids
/// `0..n_timers` (one per engine in the reactor).
#[derive(Debug)]
pub struct TimerWheel {
    tick_ns: TimeNs,
    buckets: Vec<Vec<Entry>>,
    /// Last tick whose bucket has been swept.
    cursor_tick: u64,
    /// Current generation per timer id; bucket entries with an older
    /// generation are dead.
    gens: Vec<u64>,
    /// Armed deadline per timer id (None = disarmed), for O(n) but
    /// branch-cheap `next_deadline` over a small timer population.
    deadlines: Vec<Option<TimeNs>>,
    cascades: u64,
    /// The bucket being swept, moved out so its entries can be fired or
    /// re-inserted; kept between sweeps, so a sweep allocates nothing.
    carry: Vec<Entry>,
}

impl TimerWheel {
    /// A wheel for timer ids `0..n_timers`, with the given tick
    /// granularity and bucket count. `tick_ns` must be nonzero.
    pub fn new(n_timers: usize, tick_ns: TimeNs, n_buckets: usize) -> Self {
        assert!(tick_ns > 0, "tick granularity must be nonzero");
        assert!(n_buckets > 0, "wheel needs at least one bucket");
        TimerWheel {
            tick_ns,
            buckets: vec![Vec::new(); n_buckets],
            cursor_tick: 0,
            gens: vec![0; n_timers],
            deadlines: vec![None; n_timers],
            cascades: 0,
            carry: Vec::new(),
        }
    }

    fn tick_of(&self, deadline_ns: TimeNs) -> u64 {
        // Round up: a timer must never fire before its deadline. Also
        // floor at cursor+1 so a deadline in a tick already swept (or
        // exactly at the cursor) fires on the next sweep instead of
        // being orphaned in a bucket the cursor has passed.
        (deadline_ns.div_ceil(self.tick_ns)).max(self.cursor_tick + 1)
    }

    /// Arm (or re-arm) timer `id` to fire at `deadline_ns`. Any
    /// previously armed deadline for `id` is implicitly cancelled.
    pub fn schedule(&mut self, id: usize, deadline_ns: TimeNs) {
        self.gens[id] += 1;
        self.deadlines[id] = Some(deadline_ns);
        let deadline_tick = self.tick_of(deadline_ns);
        let b = (deadline_tick % self.buckets.len() as u64) as usize;
        self.buckets[b].push(Entry {
            id,
            gen: self.gens[id],
            deadline_tick,
        });
    }

    /// Disarm timer `id`. O(1): the bucket entry dies by generation.
    pub fn cancel(&mut self, id: usize) {
        self.gens[id] += 1;
        self.deadlines[id] = None;
    }

    /// Is timer `id` currently armed?
    pub fn is_armed(&self, id: usize) -> bool {
        self.deadlines[id].is_some()
    }

    /// Add a timer id, `n_timers` before the call; it starts disarmed.
    pub fn add_timer(&mut self) {
        self.gens.push(0);
        self.deadlines.push(None);
    }

    /// Timer `id`'s armed deadline, if any.
    pub fn deadline(&self, id: usize) -> Option<TimeNs> {
        self.deadlines[id]
    }

    /// Earliest armed deadline, if any — the reactor's idle-sleep
    /// bound, playing the role the blocking `recv_timeout` played in
    /// the threaded runner.
    pub fn next_deadline(&self) -> Option<TimeNs> {
        self.deadlines.iter().flatten().min().copied()
    }

    /// Sweep every tick up to `now_ns`, calling `fire(id)` for each
    /// timer whose deadline has passed. Fired timers are disarmed;
    /// `fire` may re-`schedule` them (the reactor does, with the
    /// engine's backed-off RTO). Returns the number fired.
    pub fn advance(&mut self, now_ns: TimeNs, mut fire: impl FnMut(usize)) -> usize {
        let now_tick = now_ns / self.tick_ns;
        if now_tick <= self.cursor_tick {
            return 0;
        }
        let n_buckets = self.buckets.len() as u64;
        // After one full revolution every bucket has been swept once;
        // sweeping a bucket twice in one advance is pure waste.
        let first = if now_tick - self.cursor_tick >= n_buckets {
            now_tick - n_buckets + 1
        } else {
            self.cursor_tick + 1
        };
        let mut fired = 0;
        let mut carry = std::mem::take(&mut self.carry);
        for tick in first..=now_tick {
            let b = (tick % n_buckets) as usize;
            // Drain in place; live-but-future entries go back in.
            carry.clear();
            carry.append(&mut self.buckets[b]);
            for e in carry.drain(..) {
                if e.gen != self.gens[e.id] {
                    continue; // cancelled or rescheduled
                }
                if e.deadline_tick > now_tick {
                    // Wrapped around the wheel: not due yet.
                    self.cascades += 1;
                    self.buckets[b].push(e);
                    continue;
                }
                // Disarm before firing so `fire` can re-schedule.
                self.gens[e.id] += 1;
                self.deadlines[e.id] = None;
                fired += 1;
                fire(e.id);
            }
        }
        self.carry = carry;
        self.cursor_tick = now_tick;
        fired
    }

    /// Entries re-inserted because their deadline lay a full wheel
    /// revolution (or more) ahead of the sweep that found them.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Tick granularity, nanoseconds.
    pub fn tick_ns(&self) -> TimeNs {
        self.tick_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchml_core::config::RtoPolicy;
    use switchml_core::packet::PoolVersion;
    use switchml_core::worker::engine::{EngineConfig, ResultOutcome, SlotEngine};

    fn fired_ids(w: &mut TimerWheel, now: TimeNs) -> Vec<usize> {
        let mut v = Vec::new();
        w.advance(now, |id| v.push(id));
        v
    }

    #[test]
    fn fires_at_deadline_never_early() {
        let mut w = TimerWheel::new(4, 100, 256);
        w.schedule(0, 350);
        // 350ns rounds up to tick 4 (= 400ns): nothing at 300.
        assert_eq!(fired_ids(&mut w, 300), vec![]);
        assert!(w.is_armed(0));
        assert_eq!(fired_ids(&mut w, 400), vec![0]);
        assert!(!w.is_armed(0));
        // One-shot: nothing left.
        assert_eq!(fired_ids(&mut w, 10_000), vec![]);
    }

    #[test]
    fn rounding_to_tick_granularity() {
        let mut w = TimerWheel::new(2, 100, 16);
        w.schedule(0, 101); // tick 2 → 200ns
        w.schedule(1, 200); // exact multiple stays at tick 2
        assert_eq!(fired_ids(&mut w, 199), vec![]);
        let mut at_200 = fired_ids(&mut w, 200);
        at_200.sort_unstable();
        assert_eq!(at_200, vec![0, 1]);
    }

    #[test]
    fn deadline_in_the_past_fires_on_next_sweep() {
        let mut w = TimerWheel::new(1, 100, 16);
        assert_eq!(fired_ids(&mut w, 1_000), vec![]); // cursor at tick 10
        w.schedule(0, 500); // already past: floored to tick 11
        assert_eq!(w.next_deadline(), Some(500));
        assert_eq!(fired_ids(&mut w, 1_100), vec![0]);
    }

    #[test]
    fn cancel_suppresses_fire() {
        let mut w = TimerWheel::new(2, 100, 16);
        w.schedule(0, 300);
        w.schedule(1, 300);
        w.cancel(0);
        assert!(!w.is_armed(0));
        assert_eq!(w.next_deadline(), Some(300));
        assert_eq!(fired_ids(&mut w, 1_000), vec![1]);
    }

    #[test]
    fn reschedule_moves_the_deadline() {
        let mut w = TimerWheel::new(1, 100, 16);
        w.schedule(0, 300);
        w.schedule(0, 900); // supersedes: the tick-3 entry is stale
        assert_eq!(fired_ids(&mut w, 500), vec![]);
        assert_eq!(w.next_deadline(), Some(900));
        assert_eq!(fired_ids(&mut w, 900), vec![0]);
        assert_eq!(w.cascades(), 0);
    }

    #[test]
    fn wrapped_deadline_cascades_then_fires() {
        // 8 buckets × 100ns tick = one revolution per 800ns. A timer
        // 2.5 revolutions out must cascade (be re-inserted), not fire,
        // when its bucket is swept early.
        let mut w = TimerWheel::new(1, 100, 8);
        w.schedule(0, 2_000); // tick 20, bucket 4
        assert_eq!(fired_ids(&mut w, 800), vec![]); // sweeps bucket 4 at tick 4
        assert!(w.cascades() >= 1);
        assert!(w.is_armed(0));
        assert_eq!(fired_ids(&mut w, 1_600), vec![]); // tick 12: cascade again
        assert_eq!(fired_ids(&mut w, 2_000), vec![0]);
    }

    /// A timer whose entry has already been cascade-reinserted must
    /// still die to `cancel` — the re-inserted entry carries the old
    /// generation and may not fire, and the id must stay reusable.
    #[test]
    fn cancel_after_cascade_reinsert_never_fires() {
        let mut w = TimerWheel::new(1, 100, 8);
        w.schedule(0, 2_000); // tick 20, bucket 4 — 2.5 revolutions out
        assert_eq!(fired_ids(&mut w, 800), vec![]); // bucket 4 swept at tick 4
        assert!(w.cascades() >= 1, "entry was not cascade-reinserted");
        // Cancel while the entry sits re-inserted in its bucket.
        w.cancel(0);
        assert!(!w.is_armed(0));
        assert_eq!(w.next_deadline(), None);
        // Sweeping far past the original deadline must not resurrect it.
        assert_eq!(fired_ids(&mut w, 4_000), vec![]);
        // The id stays usable: a fresh schedule fires normally, once.
        w.schedule(0, 4_500);
        assert_eq!(fired_ids(&mut w, 4_500), vec![0]);
        assert_eq!(fired_ids(&mut w, 10_000), vec![]);
    }

    /// A deadline exactly one revolution ahead hashes into the bucket
    /// the cursor just swept — the wrap boundary. Round-up-never-early
    /// must hold across it: tick-by-tick sweeps over the intervening
    /// revolution fire nothing, and the entry fires on the first sweep
    /// of its bucket (no cascade — a cascade would mean the wheel
    /// visited it a lap early).
    #[test]
    fn exactly_one_revolution_ahead_fires_on_time_not_a_lap_early() {
        // 8 buckets × 100ns tick: one revolution per 800ns.
        let mut w = TimerWheel::new(1, 100, 8);
        assert_eq!(fired_ids(&mut w, 300), vec![]); // cursor at tick 3
        w.schedule(0, 300 + 800); // tick 11 = bucket 3, cursor's bucket
        for now in (400..1_100).step_by(100) {
            assert_eq!(fired_ids(&mut w, now), vec![], "fired early at {now}ns");
            assert!(w.is_armed(0));
        }
        assert_eq!(fired_ids(&mut w, 1_100), vec![0]);
        assert_eq!(w.cascades(), 0);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn advance_is_bounded_by_one_revolution() {
        // A huge time jump must not sweep each bucket more than once,
        // and everything due must still fire exactly once.
        let mut w = TimerWheel::new(8, 100, 8);
        for id in 0..8 {
            w.schedule(id, 100 * (id as u64 + 1));
        }
        let mut fired = fired_ids(&mut w, 1_000_000_000);
        fired.sort_unstable();
        assert_eq!(fired, (0..8).collect::<Vec<_>>());
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn next_deadline_tracks_minimum() {
        let mut w = TimerWheel::new(3, 100, 16);
        assert_eq!(w.next_deadline(), None);
        w.schedule(0, 900);
        w.schedule(1, 400);
        w.schedule(2, 700);
        assert_eq!(w.next_deadline(), Some(400));
        w.cancel(1);
        assert_eq!(w.next_deadline(), Some(700));
        fired_ids(&mut w, 700);
        assert_eq!(w.next_deadline(), Some(900));
    }

    /// Karn's rule survives the move from blocking timeouts to the
    /// wheel: a result that lands *after* a wheel-fired retransmission
    /// must not become an RTT sample.
    #[test]
    fn karn_rule_no_rtt_sample_after_wheel_retransmission() {
        let rto = 1_000_000; // 1ms
        let mut eng = SlotEngine::new(EngineConfig {
            wid: 0,
            k: 4,
            slot_base: 0,
            n_slots: 1,
            chunk_base: 0,
            n_chunks: 2,
            rto: Some(rto),
            rto_policy: RtoPolicy::Adaptive {
                min_ns: 100_000,
                max_ns: 8_000_000,
            },
        })
        .unwrap();
        let mut w = TimerWheel::new(1, 50_000, 256);

        // t=0: first window goes out; arm the wheel from the engine's
        // own deadline, exactly as the reactor does.
        let descs = eng.start(0);
        assert_eq!(descs.len(), 1);
        w.schedule(0, eng.next_deadline().unwrap());

        // The result is lost. Sweep past the RTO: the wheel fires, the
        // engine retransmits (tainting the slot), and the timer is
        // re-armed at the backed-off deadline.
        let now = rto + 50_000;
        let mut retx = Vec::new();
        w.advance(now, |_id| retx.extend(eng.expired(now)));
        assert_eq!(retx.len(), 1);
        assert!(retx[0].retransmission);
        w.schedule(0, eng.next_deadline().unwrap());

        // The (re)transmission's result finally arrives. Karn's rule:
        // ambiguous attribution, so no RTT sample.
        let later = now + 300_000;
        match eng.on_result(0, PoolVersion::V0, 0, later).unwrap() {
            ResultOutcome::Accepted { next, .. } => assert!(next.is_some()),
            other => panic!("expected acceptance, got {other:?}"),
        }
        let st = eng.stats();
        assert_eq!(st.rtt_samples, 0, "Karn violated: tainted RTT sampled");
        assert!(st.karn_discards >= 1);
        assert_eq!(st.retx, 1);

        // The follow-up chunk's clean round trip *does* sample.
        w.schedule(0, eng.next_deadline().unwrap());
        let clean = later + 200_000;
        match eng.on_result(0, PoolVersion::V1, 4, clean).unwrap() {
            ResultOutcome::Accepted { next, .. } => assert!(next.is_none()),
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert_eq!(eng.stats().rtt_samples, 1);
        // Engine done; the reactor would cancel its wheel slot.
        w.cancel(0);
        assert_eq!(w.next_deadline(), None);
    }
}
