//! The data-parallel training engine.
//!
//! One gradient step splits its batch into **microbatches of a fixed size**
//! (a pure function of the row list — never of the worker count), runs each
//! microbatch's forward + backward on a worker thread with a per-worker
//! reusable arena [`Tape`], and reduces the per-microbatch [`GradBuffer`]s
//! into the store **in ascending microbatch order**. Because every
//! microbatch gradient is computed independently and the reduction tree is
//! pinned, a training run is bit-identical under any worker count — the
//! same contract the batched completion sampler already honours.
//!
//! Steady-state allocation behaviour: tapes keep their node/value/grad
//! arenas across steps ([`Tape::reset`]), and gradient buffers cycle
//! through a pool, so after warm-up a step of an unchanged shape performs
//! no heap allocation in the engine itself.

use std::sync::Mutex;

use restore_util::parallel_map_with;

use crate::params::{GradBuffer, ParamStore};
use crate::tape::Tape;

/// Data-parallel gradient stepper: owns one reusable [`Tape`] per worker
/// and a recycled pool of [`GradBuffer`]s.
pub struct TrainEngine {
    tapes: Vec<Tape>,
    pool: Vec<GradBuffer>,
}

impl TrainEngine {
    /// An engine with `workers` worker slots (`0` is clamped to 1).
    pub fn new(workers: usize) -> Self {
        Self {
            tapes: (0..workers.max(1)).map(|_| Tape::new()).collect(),
            pool: Vec::new(),
        }
    }

    /// Runs one data-parallel gradient step over `rows`, split into
    /// microbatches of `micro` rows.
    ///
    /// `f(tape, store, chunk, grads)` computes one microbatch's forward and
    /// backward pass — recording on `tape` (already reset), reading
    /// parameters from `store`, accumulating parameter gradients into
    /// `grads` — and returns the microbatch's *summed* (unnormalized) loss.
    /// The engine reduces all gradient buffers into `store`'s resident
    /// gradients in ascending microbatch order and returns the summed loss;
    /// the caller normalizes, clips, and steps the optimizer.
    ///
    /// On error the partial reduction is discarded (resident gradients are
    /// zeroed) and the first microbatch error is returned.
    pub fn step<E, F>(
        &mut self,
        store: &mut ParamStore,
        rows: &[usize],
        micro: usize,
        f: F,
    ) -> Result<f64, E>
    where
        E: Send,
        F: Fn(&mut Tape, &ParamStore, &[usize], &mut GradBuffer) -> Result<f64, E> + Sync,
    {
        let micro = micro.max(1);
        let jobs: Vec<&[usize]> = rows.chunks(micro).collect();
        let pool = Mutex::new(std::mem::take(&mut self.pool));
        let results = {
            let store = &*store;
            parallel_map_with(jobs, &mut self.tapes, |tape, chunk| {
                let mut grads = {
                    let mut pool = pool.lock().unwrap();
                    pool.pop().unwrap_or_else(|| GradBuffer::new(store))
                };
                grads.zero();
                tape.reset();
                f(tape, store, chunk, &mut grads).map(|loss_sum| (loss_sum, grads))
            })
        };
        self.pool = pool.into_inner().unwrap();

        let mut loss_sum = 0.0f64;
        let mut first_err = None;
        for res in results {
            match res {
                Ok((l, g)) => {
                    if first_err.is_none() {
                        loss_sum += l;
                        store.accumulate_from(&g);
                    }
                    self.pool.push(g);
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            store.zero_grads();
            return Err(e);
        }
        Ok(loss_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::Forward;
    use crate::loss::{block_cross_entropy_sums, BlockLayout};
    use crate::made::{AttrSpec, Made, MadeConfig};
    use crate::optim::Adam;
    use crate::tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::convert::Infallible;
    use std::sync::Arc;

    fn training_setup(seed: u64) -> (Made, ParamStore, Vec<Vec<u32>>, BlockLayout) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let cards = [5usize, 7, 4];
        let attrs = cards.iter().map(|&c| AttrSpec::new(c, 4)).collect();
        let made = Made::new(
            MadeConfig::new(attrs).with_hidden(vec![24, 24]),
            &mut store,
            &mut rng,
        );
        let n = 96;
        let tokens: Vec<Vec<u32>> = cards
            .iter()
            .map(|&c| {
                (0..n as u32)
                    .map(|r| (r * 7 + c as u32) % c as u32)
                    .collect()
            })
            .collect();
        let layout = made.layout().clone();
        (made, store, tokens, layout)
    }

    fn train_steps(workers: usize, micro: usize, steps: usize) -> ParamStore {
        let (made, mut store, tokens, layout) = training_setup(5);
        let mut engine = TrainEngine::new(workers);
        let mut adam = Adam::new(&store, 1e-2);
        let rows: Vec<usize> = (0..tokens[0].len()).collect();
        let w_total = (tokens.len() * rows.len()) as f64;
        let norm = 1.0 / w_total as f32;
        for _ in 0..steps {
            let made = &made;
            let tokens = &tokens;
            let layout = &layout;
            engine
                .step(&mut store, &rows, micro, |tape, store, chunk, grads| {
                    let btoks: Vec<Vec<u32>> = tokens
                        .iter()
                        .map(|col| chunk.iter().map(|&r| col[r]).collect())
                        .collect();
                    let arc: Vec<Arc<Vec<u32>>> = btoks.iter().cloned().map(Arc::new).collect();
                    let mut f = tape.ctx(store);
                    let logits = made.forward(&mut f, store, &arc, None);
                    let sums = block_cross_entropy_sums(f.value(logits), layout, &btoks, None);
                    let mut dl = sums.dlogits;
                    dl.scale_assign(norm);
                    tape.backward_with(logits, dl, store, grads);
                    Ok::<f64, Infallible>(sums.loss_sum)
                })
                .unwrap();
            store.clip_grad_norm(5.0);
            adam.step(&mut store);
        }
        store
    }

    /// The tentpole contract: parameters after training are bit-identical
    /// under any worker count, because microbatch gradients are independent
    /// and the reduction order is pinned.
    #[test]
    fn worker_count_never_changes_the_parameters() {
        let base = train_steps(1, 16, 6);
        for workers in [2, 4, 8] {
            let other = train_steps(workers, 16, 6);
            assert_eq!(base.len(), other.len());
            for id in 0..base.len() {
                assert_eq!(
                    base.value(id),
                    other.value(id),
                    "param {id} diverged at {workers} workers"
                );
            }
        }
    }

    /// Splitting the batch into microbatches must match the mathematically
    /// equivalent full-batch gradient closely (not bitwise — the reduction
    /// tree differs — but far beyond statistical noise).
    #[test]
    fn microbatched_gradient_matches_full_batch() {
        let a = train_steps(1, 96, 4); // one microbatch = the whole batch
        let b = train_steps(1, 16, 4);
        for id in 0..a.len() {
            for (x, y) in a.value(id).data().iter().zip(b.value(id).data()) {
                assert!(
                    (x - y).abs() < 1e-4,
                    "param {id} drifted: {x} vs {y} (full vs microbatched)"
                );
            }
        }
    }

    /// Errors abort the step and leave the resident gradients clean.
    #[test]
    fn errors_discard_the_partial_reduction() {
        let (_, mut store, tokens, _) = training_setup(6);
        let mut engine = TrainEngine::new(2);
        let rows: Vec<usize> = (0..tokens[0].len()).collect();
        let err = engine.step(&mut store, &rows, 8, |_tape, store, chunk, grads| {
            if chunk[0] >= 40 {
                Err("boom")
            } else {
                grads.accumulate(
                    0,
                    &Matrix::filled(store.value(0).rows(), store.value(0).cols(), 1.0),
                );
                Ok(1.0)
            }
        });
        assert_eq!(err.unwrap_err(), "boom");
        assert_eq!(store.grad_norm(), 0.0, "partial gradients leaked");
    }
}
