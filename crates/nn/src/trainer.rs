use crate::{accuracy, softmax_cross_entropy, Layer, Mode, Sequential, Sgd};
use deepn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters for a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimizer settings.
    pub sgd: Sgd,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// RNG seed for shuffling (weights are seeded per-layer).
    pub seed: u64,
    /// Record test accuracy after every epoch (needed for the paper's
    /// Fig. 2(b) epoch curves; costs one evaluation pass per epoch).
    pub track_epochs: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 32,
            sgd: Sgd::new(0.05),
            lr_decay: 0.9,
            seed: 0xDEE9,
            track_epochs: false,
        }
    }
}

/// Per-epoch and final metrics produced by [`Trainer::fit`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingHistory {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Test accuracy per epoch (empty unless
    /// [`TrainConfig::track_epochs`] is set, except the final entry).
    pub test_accuracy: Vec<f64>,
}

impl TrainingHistory {
    /// Test accuracy after the final epoch.
    ///
    /// # Panics
    ///
    /// Panics if the history is empty (training never ran).
    pub fn final_test_accuracy(&self) -> f64 {
        *self
            .test_accuracy
            .last()
            .expect("training produced no evaluation")
    }
}

/// Stacks CHW image tensors (selected by `indices`) into one NCHW batch.
///
/// # Panics
///
/// Panics if images have differing shapes or `indices` is empty.
pub fn stack_batch(images: &[Tensor], indices: &[usize]) -> Tensor {
    assert!(!indices.is_empty(), "empty batch");
    let first = &images[indices[0]];
    let dims = first.shape().dims();
    assert_eq!(dims.len(), 3, "stack_batch expects CHW images");
    let per = first.len();
    let mut out = Tensor::zeros(&[indices.len(), dims[0], dims[1], dims[2]]);
    for (bi, &i) in indices.iter().enumerate() {
        assert_eq!(
            images[i].shape().dims(),
            dims,
            "inconsistent image shapes in batch"
        );
        out.data_mut()[bi * per..(bi + 1) * per].copy_from_slice(images[i].data());
    }
    out
}

/// Mini-batch SGD training driver.
///
/// Deterministic given the config seed and per-layer weight seeds: the same
/// inputs always produce the same trained network, which the experiment
/// pipeline relies on for apples-to-apples compression comparisons.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` on `(train_x, train_y)` and evaluates on
    /// `(test_x, test_y)`, returning the loss/accuracy history.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or labels mismatch images.
    pub fn fit(
        &self,
        net: &mut Sequential,
        train_x: &[Tensor],
        train_y: &[usize],
        test_x: &[Tensor],
        test_y: &[usize],
    ) -> TrainingHistory {
        assert!(!train_x.is_empty(), "empty training set");
        assert_eq!(train_x.len(), train_y.len(), "train label mismatch");
        assert_eq!(test_x.len(), test_y.len(), "test label mismatch");
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..train_x.len()).collect();
        let mut sgd = self.config.sgd;
        let mut history = TrainingHistory::default();
        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let x = stack_batch(train_x, chunk);
                let labels: Vec<usize> = chunk.iter().map(|&i| train_y[i]).collect();
                let logits = net.forward(&x, Mode::Train);
                let (loss, grad) = softmax_cross_entropy(&logits, &labels);
                net.zero_grads();
                net.backward(&grad);
                sgd.step(net);
                epoch_loss += f64::from(loss);
                batches += 1;
            }
            history
                .train_loss
                .push((epoch_loss / batches as f64) as f32);
            let last = epoch + 1 == self.config.epochs;
            if self.config.track_epochs || last {
                history
                    .test_accuracy
                    .push(self.evaluate(net, test_x, test_y));
            }
            sgd.lr *= self.config.lr_decay;
        }
        history
    }

    /// Test-set top-1 accuracy of `net`, evaluated in inference mode on a
    /// shared reference (no mutation, safe to call concurrently).
    ///
    /// Samples are forwarded in parallel on the `deepn-parallel` pool in
    /// groups of at most `batch_size`, and predictions reassembled in
    /// sample order. A group's own matmuls run inline on its pool worker,
    /// so the groups alone must balance the load: they are also no larger
    /// than [`deepn_parallel::chunk_size_for`], which gives every thread
    /// several. Inference is per-sample independent, so the result is
    /// bit-identical to the sequential batch loop at any `DEEPN_THREADS`.
    pub fn evaluate(&self, net: &Sequential, test_x: &[Tensor], test_y: &[usize]) -> f64 {
        assert_eq!(test_x.len(), test_y.len(), "test label mismatch");
        if test_x.is_empty() {
            return 0.0;
        }
        let idx: Vec<usize> = (0..test_x.len()).collect();
        let group = deepn_parallel::chunk_size_for(deepn_parallel::global(), idx.len())
            .min(self.config.batch_size.max(1));
        let batches: Vec<&[usize]> = idx.chunks(group).collect();
        let preds: Vec<usize> = deepn_parallel::par_map_collect(&batches, |_, chunk| {
            let x = stack_batch(test_x, chunk);
            net.infer(&x).argmax_rows()
        })
        .into_iter()
        .flatten()
        .collect();
        accuracy(&preds, test_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, Relu};

    fn toy_problem() -> (Vec<Tensor>, Vec<usize>) {
        // Class 0: top-half bright; class 1: bottom-half bright.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let cls = i % 2;
            let mut t = Tensor::zeros(&[1, 4, 4]);
            let jitter = (i as f32) * 0.001;
            for y in 0..4 {
                for x in 0..4 {
                    let bright = if cls == 0 { y < 2 } else { y >= 2 };
                    t.set(&[0, y, x], if bright { 0.9 + jitter } else { 0.1 });
                }
            }
            xs.push(t);
            ys.push(cls);
        }
        (xs, ys)
    }

    fn toy_net() -> Sequential {
        let mut net = Sequential::new();
        net.push(Flatten::new());
        net.push(Dense::new(16, 8, 21));
        net.push(Relu::new());
        net.push(Dense::new(8, 2, 22));
        net
    }

    #[test]
    fn trainer_learns_separable_toy_data() {
        let (xs, ys) = toy_problem();
        let mut net = toy_net();
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let h = Trainer::new(cfg).fit(&mut net, &xs, &ys, &xs, &ys);
        assert!(h.final_test_accuracy() > 0.95, "{h:?}");
        assert!(h.train_loss.first() > h.train_loss.last());
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = toy_problem();
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        let mut n1 = toy_net();
        let mut n2 = toy_net();
        let h1 = Trainer::new(cfg.clone()).fit(&mut n1, &xs, &ys, &xs, &ys);
        let h2 = Trainer::new(cfg).fit(&mut n2, &xs, &ys, &xs, &ys);
        assert_eq!(h1, h2);
    }

    #[test]
    fn track_epochs_records_every_epoch() {
        let (xs, ys) = toy_problem();
        let mut net = toy_net();
        let cfg = TrainConfig {
            epochs: 4,
            track_epochs: true,
            ..TrainConfig::default()
        };
        let h = Trainer::new(cfg).fit(&mut net, &xs, &ys, &xs, &ys);
        assert_eq!(h.test_accuracy.len(), 4);
        assert_eq!(h.train_loss.len(), 4);
    }

    #[test]
    fn evaluate_predicts_like_one_batch_at_a_time() {
        let net = crate::zoo::mini_alexnet(3, 8, 8, 4, 7);
        let xs: Vec<Tensor> = (0..37)
            .map(|i| {
                let data = (0..3 * 8 * 8)
                    .map(|j| ((i * 31 + j * 17) % 23) as f32 / 23.0)
                    .collect();
                Tensor::from_vec(data, &[3, 8, 8])
            })
            .collect();
        let idx: Vec<usize> = (0..xs.len()).collect();
        let batch_size = 16;
        let reference: Vec<usize> = idx
            .chunks(batch_size)
            .flat_map(|chunk| net.infer(&stack_batch(&xs, chunk)).argmax_rows())
            .collect();
        assert!(
            reference.iter().any(|&p| p != reference[0]),
            "the probe net must not predict one class for every sample"
        );
        // Labelled with the reference predictions, accuracy is 1 exactly
        // when every regrouped prediction matches.
        let trainer = Trainer::new(TrainConfig {
            batch_size,
            ..TrainConfig::default()
        });
        assert_eq!(trainer.evaluate(&net, &xs, &reference), 1.0);
        let wrong: Vec<usize> = reference.iter().map(|&p| (p + 1) % 4).collect();
        assert_eq!(trainer.evaluate(&net, &xs, &wrong), 0.0);
    }

    #[test]
    fn stack_batch_orders_images() {
        let a = Tensor::full(&[1, 2, 2], 1.0);
        let b = Tensor::full(&[1, 2, 2], 2.0);
        let batch = stack_batch(&[a, b], &[1, 0]);
        assert_eq!(batch.shape().dims(), &[2, 1, 2, 2]);
        assert_eq!(batch.data()[0], 2.0);
        assert_eq!(batch.data()[4], 1.0);
    }
}
