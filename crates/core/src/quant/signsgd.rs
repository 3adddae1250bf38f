//! signSGD with majority vote, over the SwitchML integer aggregator.
//!
//! The paper surveys gradient-compression schemes that pair naturally
//! with in-network aggregation (§3.7: signSGD \[6\], signSGD with
//! majority vote \[7\], 1-bit SGD \[51\], TernGrad \[59\]). Majority-vote
//! signSGD is the cleanest fit: each worker transmits only the *sign*
//! of each gradient component (±1), the switch's integer addition
//! computes the vote tally for free, and each worker applies
//! `sign(Σ signs)` — no scaling factor, no overflow concern (the tally
//! is bounded by n), and per \[7\] the vote confers Byzantine fault
//! tolerance. This module provides the encode/decode halves; the
//! switch in the middle is the unmodified integer aggregator.

/// Encode a gradient as its elementwise sign: +1 for x ≥ 0, −1
/// otherwise (signSGD's convention; NaN maps to +1 to stay in-band).
pub fn sign_encode(grad: &[f32], out: &mut Vec<i32>) {
    out.clear();
    out.reserve(grad.len());
    out.extend(grad.iter().map(|&x| if x < 0.0 { -1 } else { 1 }));
}

/// Decode an aggregated vote tally into the majority sign per element:
/// +1, −1, or 0 on an exact tie.
pub fn majority_decode(tally: &[i32], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(tally.len());
    out.extend(tally.iter().map(|&t| match t.cmp(&0) {
        std::cmp::Ordering::Greater => 1.0,
        std::cmp::Ordering::Less => -1.0,
        std::cmp::Ordering::Equal => 0.0,
    }));
}

/// The vote tally is always within ±n: the only overflow condition,
/// trivially satisfied for any realistic worker count (cf. Theorem 2's
/// far tighter bound for magnitude aggregation).
pub fn tally_bound(n_workers: usize) -> i32 {
    n_workers as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_signs() {
        let mut out = Vec::new();
        sign_encode(&[1.5, -0.25, 0.0, -1e-30, f32::NAN], &mut out);
        assert_eq!(out, vec![1, -1, 1, -1, 1]);
    }

    #[test]
    fn majority_vote() {
        let mut out = Vec::new();
        majority_decode(&[3, -2, 0, 1], &mut out);
        assert_eq!(out, vec![1.0, -1.0, 0.0, 1.0]);
    }

    #[test]
    fn end_to_end_vote_through_switch() {
        use crate::config::Protocol;
        use crate::packet::{Packet, Payload, PoolVersion};
        use crate::switch::basic::BasicSwitch;
        use crate::switch::{Feed, SwitchAction};
        // 5 workers vote on 4 components; workers 0–2 say [+,−,+,−],
        // workers 3–4 disagree on everything.
        let p = Protocol {
            n_workers: 5,
            k: 4,
            pool_size: 1,
            ..Protocol::default()
        };
        let mut sw = BasicSwitch::new(&p).unwrap();
        let mut result = None;
        for w in 0..5u16 {
            let grad: Vec<f32> = if w < 3 {
                vec![0.7, -0.1, 2.0, -9.0]
            } else {
                vec![-0.7, 0.1, -2.0, 9.0]
            };
            let mut signs = Vec::new();
            sign_encode(&grad, &mut signs);
            if let SwitchAction::Multicast(r) = sw
                .feed(Packet::update(w, PoolVersion::V0, 0, 0, signs))
                .unwrap()
            {
                // Move the tally out of the result packet — no copy.
                result = match r.payload {
                    Payload::I32(v) => Some(v),
                    other => panic!("expected i32 payload, got {other:?}"),
                };
            }
        }
        let tally = result.expect("vote completed");
        assert_eq!(tally, vec![1, -1, 1, -1]); // 3 − 2 each way
        let mut majority = Vec::new();
        majority_decode(&tally, &mut majority);
        assert_eq!(majority, vec![1.0, -1.0, 1.0, -1.0]);
        assert!(tally.iter().all(|&t| t.abs() <= tally_bound(5)));
    }
}
