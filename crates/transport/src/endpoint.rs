//! The one data-plane executor. Every data-plane state machine — a
//! switch shard, a worker engine, a §6 leaf, the tenant switch and a
//! tenant worker — is an [`Endpoint`]: frames and timer expiries in,
//! frames staged into a [`TxBatch`] out. Scripted events (a kill, a
//! restart, a heartbeat, a rendezvous) are its own deadlines.
//!
//! A [`Lane`] is one thread's share: `(endpoint, port)` seats of one
//! type (static dispatch), one [`TimerWheel`] (a deadline fires at the
//! first tick at or after it), one [`IdleBackoff`] and one
//! [`BurstBuf`]/[`TxBatch`]; [`Lane::step`] is the loop body, written
//! once. A lane parks in a timed receive (at most [`PARK`], bounded by
//! its next deadline) only when it holds one seat of a type that parks
//! ([`Endpoint::PARKS`]); every other lane polls and waits in
//! [`IdleBackoff`]. [`run`] places lanes on threads.

use crate::port::{BurstBuf, IdleBackoff, Port, PortStats, TxBatch, PARK};
use crate::reactor::ReactorStats;
use crate::wheel::TimerWheel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};
use switchml_core::config::TimeNs;
use switchml_core::error::{Error, Result};

/// Timer-wheel tick: rounding adds at most one to any RTO the runners
/// allow (≥ 70 µs on real transports). 256 buckets span 12.8 ms, above
/// the RTO range, so only heavy exponential backoff cascades.
pub(crate) const WHEEL_TICK_NS: TimeNs = 50_000;
const WHEEL_BUCKETS: usize = 256;

/// Nanoseconds on the clock started at `t0`.
fn clock(t0: Instant) -> TimeNs {
    t0.elapsed().as_nanos() as TimeNs
}

/// A data-plane state machine. Nothing on the wire may fail a call: an
/// `Err` is an invariant break, and stops the run.
pub trait Endpoint {
    /// A lane holding one endpoint of this type alone parks.
    const PARKS: bool = false;
    /// A worker: its lane is a reactor thread, whose polls, receives
    /// and timer fires [`ReactorStats`] counts. Other lanes add waits.
    const ENGINE: bool = false;
    /// Its frames need `now`; a lane of switches reads no clock per burst.
    const TIMED: bool = true;

    /// Handle one frame from endpoint `from`, received at `now`; returns
    /// whether its deadlines may have moved (or it is done).
    fn on_frame(
        &mut self,
        from: usize,
        frame: &[u8],
        now: TimeNs,
        txb: &mut TxBatch,
    ) -> Result<bool>;
    /// [`Endpoint::next_deadline`] has passed.
    fn on_timer(&mut self, _now: TimeNs, _txb: &mut TxBatch) -> Result<()> {
        Ok(())
    }
    /// When [`Endpoint::on_timer`] next has work, on the run's clock.
    fn next_deadline(&self) -> Option<TimeNs> {
        None
    }
    /// Finished for good: polled no more. A switch never is.
    fn is_done(&self) -> bool {
        false
    }
    /// Bytes of the largest frame it receives.
    fn frame_capacity(&self) -> usize;
    /// Who it is and how far it got, for a failed run's error.
    fn progress(&self) -> String {
        std::any::type_name::<Self>().into()
    }
    /// Called before each poll of its port.
    #[inline]
    fn before_poll(&mut self) {}
    /// Its port is polled again while bursts come back full: an endpoint
    /// every peer reports to (the controller) keeps up with them however
    /// long a pass of its lane takes.
    fn drains(&self) -> bool {
        false
    }
}

/// What one [`Lane::step`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A frame arrived or a timer fired.
    Progress,
    /// Nothing to do before this deadline (`None`: none armed).
    WaitUntil(Option<TimeNs>),
}

/// A seat's port: open while its endpoint runs; closed once the
/// endpoint is done (a killed worker's socket is released at once),
/// down to its last counters.
enum Wire<P> {
    Open(P),
    Closed(PortStats),
}

impl<P: Port> Wire<P> {
    fn stats(&self) -> PortStats {
        match self {
            Wire::Open(port) => port.stats(),
            Wire::Closed(stats) => *stats,
        }
    }
}

/// One thread's endpoints, their timers and their buffers.
pub struct Lane<E, P> {
    /// `(endpoint, its port)`; `None` once taken out.
    seats: Vec<Option<(E, Wire<P>)>>,
    live: usize,
    wheel: TimerWheel,
    fired: Vec<usize>,
    idle: IdleBackoff,
    rxb: BurstBuf,
    txb: TxBatch,
    burst: usize,
    t0: Instant,
    stats: ReactorStats,
}

impl<E: Endpoint, P: Port> Lane<E, P> {
    /// An empty lane on the clock started at `t0`, receiving up to
    /// `burst` frames per poll.
    pub fn new(t0: Instant, burst: usize) -> Self {
        Lane {
            seats: Vec::new(),
            live: 0,
            wheel: TimerWheel::new(0, WHEEL_TICK_NS, WHEEL_BUCKETS),
            fired: Vec::new(),
            idle: IdleBackoff::new(),
            rxb: BurstBuf::new(burst, 0),
            txb: TxBatch::new(0),
            burst,
            t0,
            stats: ReactorStats {
                threads: E::ENGINE as u64,
                ..ReactorStats::default()
            },
        }
    }

    /// Seat `ep` on `port`, its deadline armed; returns its seat index.
    pub fn add(&mut self, ep: E, port: P) -> usize {
        let cap = ep.frame_capacity();
        if cap > self.txb.frame_cap() {
            (self.rxb, self.txb) = (BurstBuf::new(self.burst, cap), TxBatch::new(cap));
        }
        self.wheel.add_timer();
        self.fired = Vec::with_capacity(self.seats.len() + 1);
        self.stats.engines += E::ENGINE as u64;
        self.live += 1;
        self.seats.push(Some((ep, Wire::Open(port))));
        self.rearm(self.seats.len() - 1);
        self.seats.len() - 1
    }

    /// Take seat `i` out of the lane, its port closed: the endpoint and
    /// the port's counters.
    pub fn take(&mut self, i: usize) -> Option<(E, PortStats)> {
        let (ep, wire) = self.seats.get_mut(i)?.take()?;
        self.wheel.cancel(i);
        self.live -= matches!(wire, Wire::Open(_)) as usize;
        Some((ep, wire.stats()))
    }

    /// Seat `i`'s endpoint, to read what it has noted between steps. Its
    /// deadline is not re-read: whatever is done through this must not
    /// move it.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut E> {
        Some(&mut self.seats.get_mut(i)?.as_mut()?.0)
    }

    fn parks(&self) -> bool {
        E::PARKS && self.seats.len() == 1
    }

    /// The loop body: one burst receive per live seat (more while a
    /// draining seat's come back full), the clock read once per burst
    /// and one flush; then one sweep of the wheel, one flush per fired
    /// seat.
    pub fn step(&mut self) -> Result<Step> {
        let park = match self.parks() {
            false => Duration::ZERO,
            true => match self.wheel.next_deadline() {
                Some(d) => PARK.min(Duration::from_nanos(d.saturating_sub(clock(self.t0)))),
                None => PARK,
            },
        };
        let mut progress = false;
        for i in 0..self.seats.len() {
            while let Some((ep, Wire::Open(port))) = &mut self.seats[i] {
                ep.before_poll();
                self.stats.polls += 1;
                if port.recv_batch(&mut self.rxb, park) == 0 {
                    break;
                }
                self.stats.rx_batches += 1;
                progress = true;
                let (now, mut moved) = (if E::TIMED { clock(self.t0) } else { 0 }, false);
                for (from, frame) in self.rxb.iter() {
                    moved |= ep.on_frame(from, frame, now, &mut self.txb)?;
                }
                self.txb.flush(port);
                let again = self.rxb.is_full() && ep.drains();
                if moved {
                    self.rearm(i);
                }
                if !again {
                    break;
                }
            }
        }

        // A lane with no deadline armed (a switch) reads no clock here.
        let next = self.wheel.next_deadline();
        let now = next.map_or(0, |_| clock(self.t0));
        let fired = &mut self.fired;
        fired.clear();
        let n = next.map_or(0, |_| self.wheel.advance(now, |i| fired.push(i)));
        for k in 0..n {
            self.fire(self.fired[k], now)?;
        }
        self.stats.timer_fires += n as u64;
        Ok(match progress || n > 0 {
            true => Step::Progress,
            false => Step::WaitUntil(next),
        })
    }

    /// Fire seat `i`'s timer at `now`, flush what it staged, re-arm it.
    fn fire(&mut self, i: usize, now: TimeNs) -> Result<()> {
        if let Some((ep, Wire::Open(port))) = &mut self.seats[i] {
            ep.on_timer(now, &mut self.txb)?;
            self.txb.flush(port);
            self.rearm(i);
        }
        Ok(())
    }

    /// Mirror seat `i`'s earliest deadline on the wheel, or retire it
    /// and close its port.
    #[inline]
    fn rearm(&mut self, i: usize) {
        let Some((ep, wire @ Wire::Open(_))) = &mut self.seats[i] else {
            return;
        };
        if ep.is_done() {
            *wire = Wire::Closed(wire.stats());
            self.live -= 1;
            self.wheel.cancel(i);
            return;
        }
        let due = ep.next_deadline();
        if self.wheel.deadline(i) != due {
            match due {
                Some(d) => self.wheel.schedule(i, d),
                None => self.wheel.cancel(i),
            }
        }
    }

    /// Wait after a step: a polling lane spins or naps in
    /// [`IdleBackoff`] toward the step's deadline; a parking lane has
    /// already waited in its receive.
    pub fn settle(&mut self, step: Step) {
        match step {
            Step::Progress => self.idle.progress(),
            Step::WaitUntil(_) if self.parks() => {}
            Step::WaitUntil(t) => self.idle.idle(t.map(|t| t.saturating_sub(clock(self.t0)))),
        }
    }

    /// A worker lane's counters; any other lane's waits alone.
    pub fn stats(&self) -> ReactorStats {
        let mut stats = self.idle.waits();
        if E::ENGINE {
            stats.merge(self.stats);
            stats.cascades = self.wheel.cascades();
        }
        stats
    }

    /// Run on the calling thread until every seat is done, the run's
    /// stop flag is up, its budget is spent or an endpoint fails.
    fn drive(&mut self, run: &RunState) {
        // Deadlines already due at the start (an engine's first window)
        // fire now, not at the wheel's first tick.
        let now = clock(self.t0);
        for i in 0..self.seats.len() {
            let due = |(ep, _): &(E, Wire<P>)| ep.next_deadline().is_some_and(|d| d <= now);
            if self.seats[i].as_ref().is_some_and(due) {
                if let Err(e) = self.fire(i, now) {
                    return run.fail(e);
                }
            }
        }
        while self.live > 0 && !run.stop.load(Ordering::Acquire) {
            if Instant::now() > run.deadline {
                run.expired.store(true, Ordering::Release);
                return run.stop.store(true, Ordering::Release);
            }
            match self.step() {
                Ok(step) => self.settle(step),
                Err(e) => return run.fail(e),
            }
        }
    }
}

/// What every thread of one run shares.
struct RunState {
    deadline: Instant,
    stop: AtomicBool,
    /// Some thread outlived the wall-clock budget.
    expired: AtomicBool,
    totals: Mutex<Totals>,
}

/// A lane running on a thread of its own.
pub type Placed<'scope, E, P> = ScopedJoinHandle<'scope, Lane<E, P>>;

#[derive(Default)]
struct Totals {
    failed: Option<Error>,
    reactor: ReactorStats,
    ports: PortStats,
    unfinished: Vec<String>,
}

impl RunState {
    /// Keep the first endpoint error and stop every thread.
    fn fail(&self, e: Error) {
        let mut totals = self.totals.lock().expect("run state");
        totals.failed.get_or_insert(e);
        self.stop.store(true, Ordering::Release);
    }

    /// Fold a finished lane into the run's counters; on a spent budget,
    /// name its unfinished endpoints.
    fn absorb<E: Endpoint, P: Port>(&self, lane: &Lane<E, P>) {
        let mut totals = self.totals.lock().expect("run state");
        totals.reactor.merge(lane.stats());
        for (ep, wire) in lane.seats.iter().flatten() {
            totals.ports.merge(wire.stats());
            if self.expired.load(Ordering::Acquire) && !ep.is_done() {
                totals.unfinished.push(ep.progress());
            }
        }
    }

    /// The first endpoint error, else the spent budget naming every
    /// unfinished endpoint.
    fn status(&self, totals: &mut Totals) -> Result<()> {
        match totals.failed.take() {
            Some(e) => Err(e),
            None if self.expired.load(Ordering::Acquire) => Err(Error::ProtocolViolation(format!(
                "the run exceeded the wall-clock budget; unfinished: {}",
                totals.unfinished.join(", ")
            ))),
            None => Ok(()),
        }
    }
}

/// One run's placement: see [`run`].
pub struct Executor<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    run: Arc<RunState>,
    /// The instant the run's clock reads zero.
    pub t0: Instant,
}

impl<'scope> Executor<'scope, '_> {
    /// Build seats on one new thread and run them there, so what they
    /// write per burst is that thread's own memory. A build error fails
    /// the run.
    pub fn place<E, P, B>(&self, burst: usize, build: B) -> Placed<'scope, E, P>
    where
        E: Endpoint + Send + 'scope,
        P: Port + 'scope,
        B: FnOnce() -> Result<Vec<(E, P)>> + Send + 'scope,
    {
        let (run, t0) = (Arc::clone(&self.run), self.t0);
        self.scope.spawn(move || {
            let mut lane = Lane::new(t0, burst);
            let seats = build().map_err(|e| run.fail(e)).unwrap_or_default();
            for (ep, port) in seats {
                lane.add(ep, port);
            }
            lane.drive(&run);
            lane
        })
    }

    /// Deal `seats` round-robin onto at most `n` new threads (seat `i` to
    /// thread `i mod n`), so one slow thread delays every worker a little
    /// instead of one worker a lot.
    pub fn deal<E, P>(
        &self,
        burst: usize,
        seats: Vec<(E, P)>,
        n: usize,
    ) -> Vec<Placed<'scope, E, P>>
    where
        E: Endpoint + Send + 'scope,
        P: Port + 'scope,
    {
        let n = n.min(seats.len()).max(1);
        let mut dealt: Vec<Vec<_>> = (0..n).map(|_| Vec::new()).collect();
        for (i, seat) in seats.into_iter().enumerate() {
            dealt[i % n].push(seat);
        }
        (dealt.into_iter())
            .map(|seats| self.place(burst, move || Ok(seats)))
            .collect()
    }

    /// Raise the run's stop flag: threads of never-done endpoints return.
    pub fn stop(&self) {
        self.run.stop.store(true, Ordering::Release);
    }

    /// Wait for `placed` threads and hand their endpoints back, lane by
    /// lane, folding their counters and their ports' into the run's.
    pub fn join<E: Endpoint, P: Port>(&self, placed: Vec<Placed<'scope, E, P>>) -> Vec<E> {
        let mut out = Vec::new();
        for handle in placed {
            let lane = handle.join().expect("a data-plane thread panicked");
            self.run.absorb(&lane);
            out.extend(lane.seats.into_iter().flatten().map(|(ep, _)| ep));
        }
        out
    }
}

/// What a [`run`] came to besides its body's result: the first endpoint
/// error or the spent budget naming every unfinished endpoint; every
/// joined lane's [`Lane::stats`] and every joined seat's port counters.
pub struct Ran {
    pub status: Result<()>,
    pub reactor: ReactorStats,
    pub ports: PortStats,
    pub wall: Duration,
}

/// Run `body` with an [`Executor`] for a run of at most `max_wall`:
/// `body` places lanes, joins them and stops never-done endpoints.
/// Threads still running when it returns are stopped and waited for.
pub fn run<'env, R>(
    max_wall: Duration,
    body: impl for<'scope> FnOnce(&Executor<'scope, 'env>) -> R,
) -> (R, Ran) {
    let t0 = Instant::now();
    let (stop, expired, totals) = Default::default();
    let run = Arc::new(RunState {
        deadline: t0 + max_wall,
        stop,
        expired,
        totals,
    });
    let out = std::thread::scope(|scope| {
        let run = Arc::clone(&run);
        let ex = Executor { scope, run, t0 };
        let out = body(&ex);
        ex.stop();
        out
    });
    let mut totals = std::mem::take(&mut *run.totals.lock().expect("run state"));
    let ran = Ran {
        status: run.status(&mut totals),
        reactor: totals.reactor,
        ports: totals.ports,
        wall: t0.elapsed(),
    };
    (out, ran)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{channel_fabric, ChannelPort};
    use crate::faulty::ScriptedPort;
    use std::collections::VecDeque;

    type Scripted = ScriptedPort<ChannelPort>;

    /// A scripted fabric of `n` endpoints with no stall and no death.
    fn fabric(n: usize) -> Vec<Scripted> {
        (channel_fabric(n).into_iter())
            .map(|p| ScriptedPort::new(p, Duration::ZERO, None))
            .collect()
    }

    /// A toy endpoint: it fires at each of `deadlines` in turn, logging
    /// `(deadline, now)`, is done after `done_after` frames (never if
    /// `None`), fails on a frame reading `boom`, raises `stop` once its
    /// deadlines run out, and drains its port if `drains`.
    #[derive(Default)]
    struct Toy<const PARKS: bool> {
        deadlines: VecDeque<TimeNs>,
        fired: Vec<(TimeNs, TimeNs)>,
        frames: usize,
        done_after: Option<usize>,
        stop: Option<Arc<RunState>>,
        drains: bool,
    }

    impl<const PARKS: bool> Endpoint for Toy<PARKS> {
        const PARKS: bool = PARKS;

        fn on_frame(&mut self, _: usize, frame: &[u8], _: TimeNs, _: &mut TxBatch) -> Result<bool> {
            if frame == b"boom" {
                return Err(Error::ProtocolViolation("the toy broke".into()));
            }
            self.frames += 1;
            Ok(true)
        }

        fn on_timer(&mut self, now: TimeNs, _: &mut TxBatch) -> Result<()> {
            let due = self.deadlines.pop_front().expect("fired with nothing due");
            self.fired.push((due, now));
            if let (true, Some(run)) = (self.deadlines.is_empty(), &self.stop) {
                run.stop.store(true, Ordering::Release);
            }
            Ok(())
        }

        fn next_deadline(&self) -> Option<TimeNs> {
            self.deadlines.front().copied()
        }

        fn is_done(&self) -> bool {
            self.done_after.is_some_and(|n| self.frames >= n)
        }

        fn frame_capacity(&self) -> usize {
            16
        }

        fn progress(&self) -> String {
            format!("toy {} frames", self.frames)
        }

        fn drains(&self) -> bool {
            self.drains
        }
    }

    fn lane<const PARKS: bool>(seats: Vec<(Toy<PARKS>, Scripted)>) -> Lane<Toy<PARKS>, Scripted> {
        let mut lane = Lane::new(Instant::now(), 8);
        for (toy, port) in seats {
            lane.add(toy, port);
        }
        lane
    }

    fn run_state(max_wall: Duration) -> Arc<RunState> {
        let (stop, expired, totals) = Default::default();
        let deadline = Instant::now() + max_wall;
        Arc::new(RunState {
            deadline,
            stop,
            expired,
            totals,
        })
    }

    fn verdict(run: &RunState) -> Result<()> {
        run.status(&mut run.totals.lock().unwrap())
    }

    #[test]
    fn deadlines_fire_at_or_after_their_time_never_before() {
        let mut ports = fabric(1);
        let toy = Toy::<false> {
            deadlines: [0, 300_000, 1_000_000, 1_050_000].into(),
            ..Toy::default()
        };
        let mut lane = lane(vec![(toy, ports.remove(0))]);
        while !lane.seats[0].as_ref().unwrap().0.deadlines.is_empty() {
            let step = lane.step().unwrap();
            lane.settle(step);
        }
        let toy = &lane.seats[0].as_ref().unwrap().0;
        assert_eq!(toy.fired.len(), 4);
        for &(due, now) in &toy.fired {
            assert!(now >= due, "fired at {now} for {due}");
        }
    }

    /// One step takes one burst from a seat, or, from a draining seat,
    /// bursts until one comes back short.
    #[test]
    fn a_draining_seat_is_polled_until_a_burst_comes_back_short() {
        for (drains, frames, polls) in [(false, 8, 1), (true, 20, 3)] {
            let mut ports = fabric(2);
            for _ in 0..20 {
                ports[1].send(0, b"a");
            }
            let toy = Toy::<false> {
                drains,
                ..Toy::default()
            };
            let mut lane = lane(vec![(toy, ports.remove(0))]);
            assert_eq!(lane.step().unwrap(), Step::Progress);
            assert_eq!(lane.seats[0].as_ref().unwrap().0.frames, frames);
            assert_eq!(lane.stats.polls, polls, "drains: {drains}");
        }
    }

    #[test]
    fn a_thread_whose_endpoints_are_done_stops() {
        let mut ports = fabric(3);
        let once = || Toy::<false> {
            done_after: Some(1),
            ..Toy::default()
        };
        ports[0].send(1, b"a");
        ports[0].send(2, b"b");
        let seats = ports.drain(1..).map(|p| (once(), p)).collect();
        let mut lane = lane(seats);
        let run = run_state(Duration::from_secs(5));
        lane.drive(&run);
        assert_eq!(lane.live, 0);
        assert!(!run.stop.load(Ordering::Acquire), "nothing stopped the run");
        verdict(&run).unwrap();
    }

    /// A port that raises `closed` when it is dropped, and reports a
    /// counter of its own.
    struct Closes {
        inner: Scripted,
        closed: Arc<AtomicBool>,
    }

    impl Drop for Closes {
        fn drop(&mut self) {
            self.closed.store(true, Ordering::Release);
        }
    }

    impl Port for Closes {
        fn n_endpoints(&self) -> usize {
            self.inner.n_endpoints()
        }
        fn index(&self) -> usize {
            self.inner.index()
        }
        fn send(&mut self, to: usize, data: &[u8]) {
            self.inner.send(to, data);
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
            self.inner.recv_timeout(timeout)
        }
        fn stats(&self) -> PortStats {
            PortStats {
                send_errors: 7,
                ..PortStats::default()
            }
        }
    }

    #[test]
    fn a_done_endpoint_closes_its_port_and_keeps_its_counters() {
        let mut ports = fabric(2);
        ports[1].send(0, b"a");
        let closed = Arc::new(AtomicBool::new(false));
        let port = Closes {
            inner: ports.remove(0),
            closed: Arc::clone(&closed),
        };
        let once = Toy::<false> {
            done_after: Some(1),
            ..Toy::default()
        };
        let mut lane = Lane::new(Instant::now(), 8);
        lane.add(once, port);
        assert_eq!(lane.step().unwrap(), Step::Progress);
        assert!(closed.load(Ordering::Acquire), "still open when done");
        assert_eq!(lane.live, 0);
        let (toy, stats) = lane.take(0).expect("seated");
        assert!(toy.is_done());
        assert_eq!(stats.send_errors, 7, "the closed port's counters");
    }

    #[test]
    fn a_never_done_endpoint_stops_on_the_stop_flag() {
        let mut ports = fabric(1);
        let run = run_state(Duration::from_secs(5));
        let switch = Toy::<false> {
            deadlines: [1_000_000].into(),
            stop: Some(Arc::clone(&run)),
            ..Toy::default()
        };
        let mut lane = lane(vec![(switch, ports.remove(0))]);
        lane.drive(&run);
        assert_eq!(lane.live, 1, "still not done");
        assert_eq!(lane.seats[0].as_ref().unwrap().0.fired.len(), 1);
        verdict(&run).unwrap();
    }

    /// A port that logs the receive timeout it is asked to wait.
    struct Waits {
        inner: ChannelPort,
        log: Arc<Mutex<Vec<Duration>>>,
    }

    impl Port for Waits {
        fn n_endpoints(&self) -> usize {
            self.inner.n_endpoints()
        }
        fn index(&self) -> usize {
            self.inner.index()
        }
        fn send(&mut self, to: usize, data: &[u8]) {
            self.inner.send(to, data);
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
            self.log.lock().unwrap().push(timeout);
            self.inner.recv_timeout(timeout)
        }
    }

    /// The receive timeouts one step of a lane of `n` toys asks for.
    fn waits<const PARKS: bool>(n: usize) -> Vec<Duration> {
        let log = Arc::default();
        let mut lane: Lane<Toy<PARKS>, ScriptedPort<Waits>> = Lane::new(Instant::now(), 1);
        for inner in channel_fabric(n) {
            let port = Waits {
                inner,
                log: Arc::clone(&log),
            };
            lane.add(
                Toy::default(),
                ScriptedPort::new(port, Duration::ZERO, None),
            );
        }
        assert!(matches!(lane.step().unwrap(), Step::WaitUntil(None)));
        let log = log.lock().unwrap().clone();
        log
    }

    #[test]
    fn the_park_rule_is_the_endpoint_type_and_the_count() {
        assert_eq!(
            waits::<true>(1),
            vec![PARK],
            "a lone parking endpoint parks"
        );
        assert_eq!(waits::<true>(2), vec![Duration::ZERO; 2], "two poll");
        assert_eq!(
            waits::<false>(1),
            vec![Duration::ZERO],
            "a polling type polls"
        );
    }

    #[test]
    fn an_endpoint_error_stops_the_run_and_is_returned() {
        let mut ports = fabric(2);
        ports[1].send(0, b"boom");
        let mut lane = lane(vec![(Toy::<false>::default(), ports.remove(0))]);
        let run = run_state(Duration::from_secs(5));
        lane.drive(&run);
        assert!(run.stop.load(Ordering::Acquire), "the run stopped");
        let err = verdict(&run).unwrap_err();
        assert!(err.to_string().contains("the toy broke"), "{err}");
    }

    #[test]
    fn a_spent_budget_names_every_unfinished_endpoint() {
        let mut ports = fabric(2);
        let seats = (ports.drain(..).enumerate())
            .map(|(i, p)| {
                let toy = Toy::<false> {
                    done_after: Some(1),
                    frames: i,
                    ..Toy::default()
                };
                (toy, p)
            })
            .collect();
        let mut lane = lane(seats);
        let run = run_state(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        lane.drive(&run);
        run.absorb(&lane);
        let err = verdict(&run).unwrap_err().to_string();
        assert!(err.contains("exceeded the wall-clock budget"), "{err}");
        assert!(err.ends_with("unfinished: toy 0 frames"), "{err}");
    }
}
