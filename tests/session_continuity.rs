//! Continuous streaming across iterations (Appendix B): the same
//! switch pools serve many all-reduce sessions, with workers carrying
//! pool-version parity forward. Exercised here in lockstep against a
//! single persistent `ReliableSwitch`, including a session whose chunk
//! count leaves slots at *mixed* parities, and with losses in between.

use switchml::core::config::Protocol;
use switchml::core::packet::PacketView;
use switchml::core::switch::reliable::ReliableSwitch;
use switchml::core::switch::WireAction;
use switchml::core::worker::engine::SendDescriptor;
use switchml::core::worker::stream::TensorStream;
use switchml::core::worker::Worker;

fn proto(n: usize) -> Protocol {
    Protocol {
        n_workers: n,
        k: 4,
        pool_size: 4,
        scaling_factor: 1000.0,
        ..Protocol::default()
    }
}

/// `w`'s update frames for `descs`.
fn frames(w: &mut Worker, descs: Vec<SendDescriptor>) -> Vec<Vec<u8>> {
    (descs.into_iter())
        .map(|d| {
            let mut frame = Vec::new();
            w.encode_update(d, &mut frame).unwrap();
            frame
        })
        .collect()
}

/// Deliver result `r` to `w`; its follow-up frame, if any.
fn on_result(w: &mut Worker, r: &[u8]) -> Vec<Vec<u8>> {
    let next = w.on_view(&PacketView::parse(r).unwrap(), 0);
    frames(w, next.into_iter().collect())
}

/// Drive all workers against the switch in lockstep until done.
fn drive(switch: &mut ReliableSwitch, workers: &mut [Worker]) {
    let mut inflight: Vec<Vec<u8>> = Vec::new();
    for w in workers.iter_mut() {
        let descs = w.start_sends(0);
        inflight.extend(frames(w, descs));
    }
    let mut r = Vec::new();
    let mut guard = 0;
    while let Some(frame) = inflight.pop() {
        guard += 1;
        assert!(guard < 100_000, "did not converge");
        match switch
            .on_view(&PacketView::parse(&frame).unwrap(), &mut r)
            .unwrap()
        {
            WireAction::Multicast => {
                for w in workers.iter_mut() {
                    inflight.extend(on_result(w, &r));
                }
            }
            WireAction::Unicast(wid) => {
                inflight.extend(on_result(&mut workers[wid as usize], &r));
            }
            WireAction::Drop => {}
        }
    }
    assert!(workers.iter().all(|w| w.is_done()));
}

#[test]
fn ten_sessions_share_one_switch() {
    let n = 3;
    let p = proto(n);
    let mut switch = ReliableSwitch::new(&p).unwrap();

    // Session sizes chosen so slots end at different parities: 5
    // chunks over 4 slots → slot 0 runs 2 phases, slots 1–3 run 1.
    let sizes = [20usize, 20, 12, 28, 4, 36, 20, 8, 24, 16];
    let mut workers: Vec<Worker> = (0..n)
        .map(|w| {
            let data: Vec<f32> = (0..sizes[0]).map(|i| (w + i) as f32).collect();
            let stream = TensorStream::from_f32(vec![data], p.mode, p.scaling_factor, p.k).unwrap();
            Worker::new(w as u16, &p, stream).unwrap()
        })
        .collect();

    for (session, &elems) in sizes.iter().enumerate() {
        drive(&mut switch, &mut workers);
        // Verify this session's sums.
        for w in workers.iter() {
            let got = w.stream().result_tensors_f32(1).unwrap();
            for (i, &x) in got[0].iter().enumerate() {
                let expect: f32 = (0..n).map(|ww| (session * 100 + ww + i) as f32).sum();
                assert!(
                    (x - expect).abs() < 0.01,
                    "session {session} elem {i}: {x} vs {expect}"
                );
            }
        }
        // Continue into the next session (if any) with fresh tensors.
        if session + 1 < sizes.len() {
            let next_elems = sizes[session + 1];
            workers = workers
                .drain(..)
                .enumerate()
                .map(|(w, worker)| {
                    let data: Vec<f32> = (0..next_elems)
                        .map(|i| ((session + 1) * 100 + w + i) as f32)
                        .collect();
                    let stream =
                        TensorStream::from_f32(vec![data], p.mode, p.scaling_factor, p.k).unwrap();
                    let (_results, next) = worker.into_next_session(stream).unwrap();
                    next
                })
                .collect();
        }
        let _ = elems;
    }
    // The one switch aggregated every session's chunks.
    let total_chunks: u64 = sizes.iter().map(|&e| e.div_ceil(4) as u64).sum();
    assert_eq!(switch.stats().completions, total_chunks);
}

#[test]
fn fresh_worker_against_dirty_switch_gets_stale_data() {
    // Negative control: WITHOUT version continuation, fresh workers'
    // V0 updates against a switch whose V0 pools hold completed phases
    // at the *same offsets* are treated as duplicates — the switch
    // serves the previous session's cached aggregates, and the workers
    // cannot tell (same ver/idx/off). Silent data corruption: exactly
    // the failure `into_next_session` exists to prevent.
    let n = 2;
    let p = proto(n);
    let mut switch = ReliableSwitch::new(&p).unwrap();
    let mk = |w: usize, base: usize| {
        // 16 elems = 4 chunks over 4 slots: one V0 phase per slot.
        let data: Vec<f32> = (0..16).map(|i| (base + w + i) as f32).collect();
        let stream = TensorStream::from_f32(vec![data], p.mode, p.scaling_factor, p.k).unwrap();
        Worker::new(w as u16, &p, stream).unwrap()
    };
    let mut workers: Vec<Worker> = (0..n).map(|w| mk(w, 0)).collect();
    drive(&mut switch, &mut workers);

    // Naive fresh workers (V0 again) with DIFFERENT data (base 50).
    let mut fresh: Vec<Worker> = (0..n).map(|w| mk(w, 50)).collect();
    drive(&mut switch, &mut fresh); // completes — but with what data?

    let got = fresh[0].stream().result_tensors_f32(1).unwrap();
    let fresh_expect: f32 = (0..n).map(|ww| (50 + ww) as f32).sum(); // elem 0
    let stale_session1: f32 = (0..n).map(|ww| ww as f32).sum();
    assert!(
        (got[0][0] - stale_session1).abs() < 0.01,
        "expected the stale session-1 aggregate, got {}",
        got[0][0]
    );
    assert!(
        (got[0][0] - fresh_expect).abs() > 1.0,
        "naive pool reuse silently returned wrong (stale) data — \
         which is the point of this negative control"
    );
    // And the switch never even aggregated the new contributions.
    assert_eq!(switch.stats().completions, 4, "only session 1 completed");
    assert!(
        switch.stats().result_retx >= 4,
        "all served from stale cache"
    );
}
