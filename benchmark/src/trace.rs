//! In-memory span recorder for the traced pipeline.
//!
//! A span wraps one stage over one burst (≤ 32 calls into a layer), so
//! its two clock reads amortise over the burst. Spans stay in memory
//! until the run ends; a stage's **self time** is its spans' duration
//! minus what their child spans cover.

use serde_json::{json, Value};
use std::time::Instant;

/// The stages the pipeline records: one per public function (or small
/// group) of a layer, named `<layer>.<what>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// Root span of a round; its self time is the loop's own remainder
    /// (`driver.self`: staging copies, bookkeeping, the clock reads).
    Driver,
    Quantize,
    Dequantize,
    EncodeUpdate,
    Parse,
    LoadElems,
    DecodeOwned,
    EncodeOwned,
    OnView,
    MultiJobOnPacket,
    OnResult,
    Expired,
    Send,
    Recv,
    /// A poll that returned nothing (kept apart so it cannot inflate
    /// `port.recv_ns_per_pkt`).
    RecvEmpty,
    WheelSchedule,
    WheelAdvance,
    /// The loop napping until the next timer: time nobody worked.
    Idle,
}

pub const N_STAGES: usize = Stage::Idle as usize + 1;

impl Stage {
    #[cfg(test)]
    pub const ALL: [Stage; N_STAGES] = [
        Stage::Driver,
        Stage::Quantize,
        Stage::Dequantize,
        Stage::EncodeUpdate,
        Stage::Parse,
        Stage::LoadElems,
        Stage::DecodeOwned,
        Stage::EncodeOwned,
        Stage::OnView,
        Stage::MultiJobOnPacket,
        Stage::OnResult,
        Stage::Expired,
        Stage::Send,
        Stage::Recv,
        Stage::RecvEmpty,
        Stage::WheelSchedule,
        Stage::WheelAdvance,
        Stage::Idle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Driver => "driver.self",
            Stage::Quantize => "quant.quantize",
            Stage::Dequantize => "quant.dequantize",
            Stage::EncodeUpdate => "packet.encode_update",
            Stage::Parse => "packet.parse",
            Stage::LoadElems => "packet.load_elems",
            Stage::DecodeOwned => "packet.decode_owned",
            Stage::EncodeOwned => "packet.encode_owned",
            Stage::OnView => "switch.on_view",
            Stage::MultiJobOnPacket => "switch.multijob_on_packet",
            Stage::OnResult => "engine.on_result",
            Stage::Expired => "engine.expired",
            Stage::Send => "port.send",
            Stage::Recv => "port.recv",
            Stage::RecvEmpty => "port.recv_empty",
            Stage::WheelSchedule => "wheel.schedule_cancel",
            Stage::WheelAdvance => "wheel.advance",
            Stage::Idle => "driver.idle",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub stage: Stage,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// The round this span belongs to: spans of one round share it.
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls (packets, timers…) the span covers.
    pub count: u32,
}

/// Handle of an open span; `end` must be called in LIFO order.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    round: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Spans reserved up front, so that growing the vector never lands
/// inside a measured stage.
const RESERVED_SPANS: usize = 1 << 17;

impl Tracer {
    /// A recorder; with `on == false` every call is a branch and
    /// nothing else, which is how `trace.overhead_frac` is measured.
    pub fn new(on: bool) -> Self {
        let spans = Vec::with_capacity(if on { RESERVED_SPANS } else { 0 });
        Tracer {
            on,
            epoch: Instant::now(),
            round: 0,
            spans,
            stack: Vec::with_capacity(8),
        }
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            stage: Stage::Driver,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close `open` as `stage` having covered `count` calls.
    #[inline]
    pub fn end(&mut self, open: Open, stage: Stage, count: usize) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close in LIFO order");
        let s = &mut self.spans[open.0 as usize];
        s.stage = stage;
        s.end_ns = end_ns;
        s.count = count as u32;
    }

    /// Close `open` as `stage` and open its successor at the same
    /// instant: adjacent stages share one clock read.
    #[inline]
    pub fn lap(&mut self, open: &mut Open, stage: Stage, count: usize) {
        if !self.on {
            return;
        }
        let now = self.now();
        let s = &mut self.spans[open.0 as usize];
        s.stage = stage;
        s.end_ns = now;
        s.count = count as u32;
        let parent = s.parent;
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            stage: Stage::Driver,
            parent,
            round: self.round,
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        *self.stack.last_mut().expect("lap on an open span") = idx;
        open.0 = idx;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as one JSON document (for `--spans-out`).
    pub fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.stage.name(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
                    "round": s.round,
                    "count": s.count
                })
            })
            .collect();
        Value::Array(rows)
    }
}

/// Per-stage totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotal {
    /// Duration minus the part covered by child spans, summed.
    pub self_ns: u64,
    /// Calls covered, summed.
    pub count: u64,
    pub spans: u64,
}

impl StageTotal {
    /// Self nanoseconds per covered call; 0 when the stage never ran.
    pub fn ns_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// What an empty span measures on this host: the clock read that sits
/// inside every span's interval. Smallest of many tries.
pub fn clock_cost_ns() -> u64 {
    let mut tr = Tracer::new(true);
    for _ in 0..2000 {
        let o = tr.begin();
        tr.end(o, Stage::Idle, 0);
    }
    tr.spans()
        .iter()
        .map(|s| s.end_ns - s.start_ns)
        .min()
        .unwrap_or(0)
}

/// Self time per stage. Children of one parent never overlap (spans
/// close in LIFO order on one thread), so the part of a span its
/// children cover is the sum of their durations. `clock_ns` (see
/// [`clock_cost_ns`]) is taken off every span's own time, so that a
/// stage of one short call is not reported as one clock read.
pub fn self_times(spans: &[Span], clock_ns: u64) -> [StageTotal; N_STAGES] {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut totals = [StageTotal::default(); N_STAGES];
    for (s, self_ns) in spans.iter().zip(own) {
        let t = &mut totals[s.stage as usize];
        t.self_ns += self_ns.saturating_sub(clock_ns);
        t.count += u64::from(s.count);
        t.spans += 1;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, parent: u32, start_ns: u64, end_ns: u64, count: u32) -> Span {
        Span {
            stage,
            parent,
            round: 0,
            start_ns,
            end_ns,
            count,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // driver [0,1000] ─┬─ advance [100,500] ── expired [200,300]
        //                  ├─ send    [500,700]
        //                  └─ send    [700,750]
        let spans = [
            span(Stage::Driver, NO_PARENT, 0, 1000, 1),
            span(Stage::WheelAdvance, 0, 100, 500, 1),
            span(Stage::Expired, 1, 200, 300, 4),
            span(Stage::Send, 0, 500, 700, 32),
            span(Stage::Send, 0, 700, 750, 8),
        ];
        let t = self_times(&spans, 0);
        // The grandchild is subtracted from its parent only, not twice.
        assert_eq!(t[Stage::Driver as usize].self_ns, 1000 - 400 - 200 - 50);
        assert_eq!(t[Stage::WheelAdvance as usize].self_ns, 300);
        assert_eq!(t[Stage::Expired as usize].self_ns, 100);
        assert_eq!(
            t[Stage::Send as usize],
            StageTotal {
                self_ns: 250,
                count: 40,
                spans: 2
            }
        );
        assert_eq!(t[Stage::Send as usize].ns_per_call(), 6.25);
        // Self times partition the root's duration.
        assert_eq!(t.iter().map(|s| s.self_ns).sum::<u64>(), 1000);
        assert_eq!(t[Stage::Parse as usize].ns_per_call(), 0.0);
        // The clock's cost comes off every span once, never below zero.
        let c = self_times(&spans, 60);
        assert_eq!(c[Stage::Send as usize].self_ns, 250 - 60 - 50);
        assert_eq!(c[Stage::Expired as usize].self_ns, 40);
    }

    #[test]
    fn tracer_records_parents_in_lifo_order_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.set_round(3);
        let root = tr.begin();
        let a = tr.begin();
        let b = tr.begin();
        tr.end(b, Stage::Expired, 2);
        tr.end(a, Stage::WheelAdvance, 1);
        let c = tr.begin();
        tr.end(c, Stage::Send, 32);
        tr.end(root, Stage::Driver, 1);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (0, 1, 0));
        assert_eq!(s[2].stage, Stage::Expired);
        assert!(s.iter().all(|x| x.round == 3 && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        let mut o = off.begin();
        off.lap(&mut o, Stage::Recv, 1);
        off.end(o, Stage::Send, 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn lap_chains_siblings_on_one_clock_read() {
        let mut tr = Tracer::new(true);
        let root = tr.begin();
        let mut o = tr.begin();
        tr.lap(&mut o, Stage::Recv, 32);
        tr.lap(&mut o, Stage::Parse, 32);
        let inner = tr.begin();
        tr.end(inner, Stage::Expired, 1);
        tr.end(o, Stage::OnView, 32);
        tr.end(root, Stage::Driver, 1);
        let s = tr.spans();
        let stages: Vec<Stage> = s.iter().map(|x| x.stage).collect();
        assert_eq!(
            stages,
            [
                Stage::Driver,
                Stage::Recv,
                Stage::Parse,
                Stage::OnView,
                Stage::Expired
            ]
        );
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent, s[4].parent),
            (0, 0, 0, 3)
        );
        assert_eq!(s[1].end_ns, s[2].start_ns);
        assert_eq!(s[2].end_ns, s[3].start_ns);
    }

    #[test]
    fn stage_table_is_consistent() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_STAGES);
    }
}
