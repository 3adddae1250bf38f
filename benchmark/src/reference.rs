//! The reference oracle: what every worker of every round must hold,
//! bit for bit. Computed once per seed in set-up, sequentially, from
//! the same quantize/dequantize kernels the program uses and a plain
//! saturating i32 sum — integer aggregation is order-independent, so
//! any interleaving the transports produce must land on these bits.

use switchml_core::quant::fixed::{dequantize_chunk, quantize_chunk};

/// Elements quantized per kernel call; any size gives the same bits.
const BLOCK: usize = 4096;

/// The aggregated tensor for `inputs` (one tensor per worker) at
/// scaling factor `f`.
pub fn expected(inputs: &[Vec<f32>], f: f64) -> Vec<f32> {
    let elems = inputs[0].len();
    let mut sum = vec![0i32; elems];
    let mut q = vec![0i32; BLOCK];
    for t in inputs {
        assert_eq!(t.len(), elems, "workers disagree on the tensor length");
        for (src, acc) in t.chunks(BLOCK).zip(sum.chunks_mut(BLOCK)) {
            quantize_chunk(src, f, &mut q[..src.len()]);
            for (a, &v) in acc.iter_mut().zip(&q) {
                *a = a.saturating_add(v);
            }
        }
    }
    let mut out = vec![0f32; elems];
    for (src, dst) in sum.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
        dequantize_chunk(src, f, dst);
    }
    out
}

/// Where a worker's result first departs from the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    pub worker: usize,
    /// First differing element, or the shorter length on a size mismatch.
    pub index: usize,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} differs from the reference at element {}",
            self.worker, self.index
        )
    }
}

/// Bit-for-bit comparison of one worker's result.
pub fn check_worker(worker: usize, got: &[f32], want: &[f32]) -> Result<(), Mismatch> {
    if got.len() != want.len() {
        return Err(Mismatch {
            worker,
            index: got.len().min(want.len()),
        });
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(index) => Err(Mismatch { worker, index }),
        None => Ok(()),
    }
}

/// Every worker of a runner's `results` (one tensor per worker) against
/// the reference; the first mismatch wins.
pub fn check_all(results: &[Vec<Vec<f32>>], want: &[f32]) -> Result<(), Mismatch> {
    for (worker, tensors) in results.iter().enumerate() {
        match tensors.as_slice() {
            [t] => check_worker(worker, t, want)?,
            _ => return Err(Mismatch { worker, index: 0 }),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use switchml_core::agg::allreduce;
    use switchml_core::config::Protocol;

    /// The oracle agrees with the program's own sequential in-process
    /// all-reduce — two independent routes to the same bits.
    #[test]
    fn oracle_matches_in_process_allreduce() {
        let ins = inputs::tensors(3, 0, 4, 5000);
        let proto = Protocol {
            n_workers: 4,
            k: 32,
            pool_size: 16,
            scaling_factor: inputs::SCALING_FACTOR,
            ..Protocol::default()
        };
        let updates: Vec<Vec<Vec<f32>>> = ins.iter().map(|t| vec![t.clone()]).collect();
        let want = allreduce(&updates, &proto).unwrap();
        let got = expected(&ins, inputs::SCALING_FACTOR);
        assert_eq!(want.len(), 1);
        check_worker(0, &got, &want[0]).unwrap();
    }

    #[test]
    fn mismatch_names_worker_and_first_index() {
        let want = vec![1.0f32, 2.0, 3.0];
        let mut bad = want.clone();
        bad[1] = f32::from_bits(2.0f32.to_bits() + 1);
        let results = vec![vec![want.clone()], vec![bad]];
        assert_eq!(
            check_all(&results, &want),
            Err(Mismatch {
                worker: 1,
                index: 1
            })
        );
        assert_eq!(
            check_worker(4, &want[..2], &want),
            Err(Mismatch {
                worker: 4,
                index: 2
            })
        );
        // -0.0 == 0.0 as floats but not as bits: the oracle is bitwise.
        assert!(check_worker(0, &[-0.0], &[0.0]).is_err());
    }
}
