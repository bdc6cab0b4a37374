//! The compress → train → test pipeline behind every figure of the paper.
//!
//! A *case* fixes a compression scheme for the training images and another
//! for the test images. The paper's motivation section (Fig. 2) defines:
//!
//! - **CASE 1**: train on high-quality (QF = 100) images, test on
//!   compressed images;
//! - **CASE 2**: train on compressed images, test on high-quality images.
//!
//! The evaluation figures (6–8) train and test on the *same* compressed
//! dataset, which [`run_symmetric`] provides.

use crate::bands::{BandKind, Segmentation};
use crate::baselines::CompressionScheme;
use crate::CoreError;
use deepn_codec::{QuantTable, QuantTablePair, RgbImage};
use deepn_dataset::ImageSet;
use deepn_nn::{zoo, Sequential, TrainConfig, Trainer, TrainingHistory};
use deepn_tensor::Tensor;

/// Experiment size, selected by the `DEEPN_SCALE` environment variable
/// (`fast` for CI/tests, anything else = full benchmark configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small datasets and few epochs; seconds per case.
    Fast,
    /// The full benchmark configuration used to regenerate the figures.
    Full,
}

impl Scale {
    /// Reads `DEEPN_SCALE` (`"fast"` → [`Scale::Fast`], default
    /// [`Scale::Full`]).
    pub fn from_env() -> Self {
        match std::env::var("DEEPN_SCALE").as_deref() {
            Ok("fast") => Scale::Fast,
            _ => Scale::Full,
        }
    }

    /// The dataset recipe for this scale.
    pub fn dataset_spec(&self) -> deepn_dataset::DatasetSpec {
        match self {
            Scale::Fast => {
                let mut spec = deepn_dataset::DatasetSpec::tiny();
                spec.train_per_class = 12;
                spec.test_per_class = 6;
                spec
            }
            Scale::Full => deepn_dataset::DatasetSpec::imagenet_standin(),
        }
    }

    /// Training epochs for this scale.
    pub fn epochs(&self) -> usize {
        match self {
            Scale::Fast => 4,
            Scale::Full => 8,
        }
    }
}

/// Configuration of one training run inside an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Zoo model name (see [`deepn_nn::zoo::MODEL_NAMES`]).
    pub model: String,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed for weights and shuffling.
    pub seed: u64,
    /// Record per-epoch test accuracy (Fig. 2(b)).
    pub track_epochs: bool,
    /// SGD learning rate. Deep plain stacks without normalization (the
    /// VGG-style model) need a smaller rate than the default 0.05.
    pub lr: f32,
}

impl ExperimentConfig {
    /// MiniAlexNet (the paper's workhorse model) at the given scale.
    pub fn alexnet(scale: Scale) -> Self {
        ExperimentConfig {
            model: "MiniAlexNet".to_owned(),
            epochs: scale.epochs(),
            batch_size: 32,
            seed: 0xDEE9,
            track_epochs: false,
            lr: 0.05,
        }
    }

    /// Same config with a different zoo model, adjusting the learning rate
    /// to the model's stable range.
    #[must_use]
    pub fn with_model(mut self, model: &str) -> Self {
        self.model = model.to_owned();
        if model == "MiniVgg" {
            // Plain deep stack without normalization: diverges at 0.05.
            self.lr = 0.015;
        }
        self
    }
}

/// Outcome of one case: final accuracy, the training history, and the
/// compressed byte counts that feed the CR and power figures.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Final test-set top-1 accuracy.
    pub accuracy: f64,
    /// Per-epoch metrics.
    pub history: TrainingHistory,
    /// Total compressed size of the training images under the train scheme.
    pub train_bytes: usize,
    /// Total compressed size of the test images under the test scheme.
    pub test_bytes: usize,
}

/// A cache of decoded (round-tripped) image sets keyed by a scheme+dataset
/// fingerprint, letting figure pipelines skip the serial re-encode of every
/// image when the same scheme/dataset pair recurs (across cases within one
/// run, or across process restarts when backed by the artifact store).
///
/// `deepn-store` provides the persistent filesystem implementation; the
/// trait lives here so the experiment pipeline can consume it without a
/// dependency cycle.
pub trait RoundTripCache {
    /// Returns the cached decoded images and total compressed byte count
    /// for `key`, if present.
    fn load(&mut self, key: &str) -> Option<(Vec<RgbImage>, usize)>;

    /// Stores a decoded set under `key`. Failures must be swallowed (a
    /// cache is an optimization, never a correctness dependency).
    fn store(&mut self, key: &str, images: &[RgbImage], compressed_bytes: usize);
}

/// A no-op cache: every lookup misses, every store is dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl RoundTripCache for NoCache {
    fn load(&mut self, _key: &str) -> Option<(Vec<RgbImage>, usize)> {
        None
    }

    fn store(&mut self, _key: &str, _images: &[RgbImage], _compressed_bytes: usize) {}
}

/// The architecture/geometry needed to rebuild a cached trained model —
/// what a persistent [`ModelCache`] must record alongside the weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRecipe {
    /// Zoo architecture name.
    pub arch: String,
    /// Input channels.
    pub in_channels: usize,
    /// Input image height.
    pub height: usize,
    /// Input image width.
    pub width: usize,
    /// Output class count.
    pub classes: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

/// A cache of **trained** models keyed by the experiment's
/// (config, train scheme, train data) fingerprint, letting pipeline
/// reruns skip the training stage entirely. Training is deterministic, so
/// a cached model is byte-for-byte the model a rerun would produce.
///
/// `deepn-store` provides the persistent filesystem implementation
/// (`FsModelCache`); the trait lives here, like [`RoundTripCache`], so
/// the pipeline can consume it without a dependency cycle.
pub trait ModelCache {
    /// Returns the cached trained model for `key`, if present.
    fn load(&mut self, key: &str) -> Option<Sequential>;

    /// Stores a trained model under `key`. Failures must be swallowed (a
    /// cache is an optimization, never a correctness dependency).
    fn store(&mut self, key: &str, recipe: &ModelRecipe, net: &Sequential);
}

/// A no-op model cache: every lookup misses, every store is dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoModelCache;

impl ModelCache for NoModelCache {
    fn load(&mut self, _key: &str) -> Option<Sequential> {
        None
    }

    fn store(&mut self, _key: &str, _recipe: &ModelRecipe, _net: &Sequential) {}
}

/// A stable fingerprint of everything that determines a trained model:
/// the experiment config (model, epochs, batch size, seed, learning
/// rate), the training labels and class count (identical images under a
/// different labeling are a different model), and the [`cache_key`] of
/// the compression scheme + training images.
pub fn model_cache_key(
    cfg: &ExperimentConfig,
    train_scheme: &CompressionScheme,
    train_images: &[RgbImage],
    train_labels: &[usize],
    class_count: usize,
) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut h, cfg.model.as_bytes());
    fnv1a(&mut h, &(cfg.epochs as u64).to_le_bytes());
    fnv1a(&mut h, &(cfg.batch_size as u64).to_le_bytes());
    fnv1a(&mut h, &cfg.seed.to_le_bytes());
    fnv1a(&mut h, &cfg.lr.to_le_bytes());
    fnv1a(&mut h, &(class_count as u64).to_le_bytes());
    for &label in train_labels {
        fnv1a(&mut h, &(label as u64).to_le_bytes());
    }
    format!(
        "model-{}-{h:016x}-{}",
        cfg.model,
        cache_key(train_scheme, train_images)
    )
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// A stable fingerprint of `(scheme, images)` usable as a cache key across
/// processes: the scheme's full configuration (including designed table
/// values) plus an FNV-1a hash of every image's dimensions and pixels.
pub fn cache_key(scheme: &CompressionScheme, images: &[RgbImage]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    match scheme {
        CompressionScheme::Jpeg(qf) => fnv1a(&mut h, &[1, *qf]),
        CompressionScheme::RmHf(n) => {
            fnv1a(&mut h, &[2]);
            fnv1a(&mut h, &(*n as u64).to_le_bytes());
        }
        CompressionScheme::SameQ(q) => {
            fnv1a(&mut h, &[3]);
            fnv1a(&mut h, &q.to_le_bytes());
        }
        CompressionScheme::Deepn(tables) => {
            fnv1a(&mut h, &[4]);
            for table in [&tables.luma, &tables.chroma] {
                for v in table.values() {
                    fnv1a(&mut h, &v.to_le_bytes());
                }
            }
        }
    }
    let mut ih: u64 = 0xcbf2_9ce4_8422_2325;
    for img in images {
        fnv1a(&mut ih, &(img.width() as u64).to_le_bytes());
        fnv1a(&mut ih, &(img.height() as u64).to_le_bytes());
        fnv1a(&mut ih, img.as_bytes());
    }
    format!("{scheme}-{h:016x}-{ih:016x}").replace(['/', ' ', '(', ')', '='], "_")
}

/// [`CompressionScheme::round_trip_set`] through a [`RoundTripCache`]:
/// returns the cached decode when the fingerprint hits, otherwise
/// round-trips and populates the cache.
///
/// # Errors
///
/// Codec errors from a cache-miss round trip.
pub fn round_trip_set_cached(
    scheme: &CompressionScheme,
    images: &[RgbImage],
    cache: &mut dyn RoundTripCache,
) -> Result<(Vec<RgbImage>, usize), CoreError> {
    let key = cache_key(scheme, images);
    if let Some(hit) = cache.load(&key) {
        return Ok(hit);
    }
    let (decoded, bytes) = scheme.round_trip_set(images)?;
    cache.store(&key, &decoded, bytes);
    Ok((decoded, bytes))
}

/// Converts decoded images to normalized CHW tensors for the DNN,
/// centered on zero (`[-0.5, 0.5]`), which keeps the first conv layer's
/// pre-activations balanced and makes small-data training markedly more
/// stable.
pub fn to_tensors(images: &[RgbImage]) -> Vec<Tensor> {
    images
        .iter()
        .map(|img| {
            let mut chw = img.to_chw_f32();
            for v in &mut chw {
                *v -= 0.5;
            }
            Tensor::from_vec(chw, &[3, img.height(), img.width()])
        })
        .collect()
}

/// Total compressed size of `images` under `scheme`.
///
/// # Errors
///
/// Codec errors from compression.
pub fn dataset_bytes(scheme: &CompressionScheme, images: &[RgbImage]) -> Result<usize, CoreError> {
    Ok(scheme.compressed_sizes(images)?.iter().sum())
}

/// Compression rate of `scheme` relative to the paper's reference
/// ("Original" = QF 100 JPEG), over the same images. CR(Original) = 1.
///
/// # Errors
///
/// Codec errors from compression.
pub fn compression_rate(scheme: &CompressionScheme, images: &[RgbImage]) -> Result<f64, CoreError> {
    let reference = dataset_bytes(&CompressionScheme::original(), images)?;
    let target = dataset_bytes(scheme, images)?;
    if target == 0 {
        return Err(CoreError::EmptyInput("no images to compress".into()));
    }
    Ok(reference as f64 / target as f64)
}

/// Builds the zoo model named in `cfg` for the image geometry of `set`.
fn build_model(cfg: &ExperimentConfig, set: &ImageSet) -> Sequential {
    let img = &set.images()[0];
    zoo::by_name(
        &cfg.model,
        3,
        img.height(),
        img.width(),
        set.class_count(),
        cfg.seed,
    )
}

/// Trains on `train_scheme`-compressed images, tests on
/// `test_scheme`-compressed images (the general form covering CASE 1,
/// CASE 2, and the symmetric evaluation runs).
///
/// # Errors
///
/// Codec errors while round-tripping either split.
pub fn run_case(
    cfg: &ExperimentConfig,
    set: &ImageSet,
    train_scheme: &CompressionScheme,
    test_scheme: &CompressionScheme,
) -> Result<CaseOutcome, CoreError> {
    run_case_cached_with_models(
        cfg,
        set,
        train_scheme,
        test_scheme,
        &mut NoCache,
        &mut NoModelCache,
    )
}

/// [`run_case`] with the compress→decode step routed through a
/// [`RoundTripCache`], so repeated figure runs over the same scheme and
/// dataset skip the serial per-image round trip, and the training stage
/// through a [`ModelCache`]: a hit skips training and only re-evaluates
/// the cached model on the test split (training is deterministic, so the
/// accuracy is identical to a fresh run's final entry).
///
/// The model cache is bypassed when `cfg.track_epochs` is set — per-epoch
/// curves require the actual training trajectory.
///
/// # Errors
///
/// As [`run_case`].
pub fn run_case_cached_with_models(
    cfg: &ExperimentConfig,
    set: &ImageSet,
    train_scheme: &CompressionScheme,
    test_scheme: &CompressionScheme,
    cache: &mut dyn RoundTripCache,
    models: &mut dyn ModelCache,
) -> Result<CaseOutcome, CoreError> {
    let (train_imgs, train_labels) = set.train();
    let (test_imgs, test_labels) = set.test();
    let (train_dec, train_bytes) = round_trip_set_cached(train_scheme, train_imgs, cache)?;
    let (test_dec, test_bytes) = round_trip_set_cached(test_scheme, test_imgs, cache)?;
    let test_x = to_tensors(&test_dec);
    let key = model_cache_key(
        cfg,
        train_scheme,
        train_imgs,
        train_labels,
        set.class_count(),
    );
    if !cfg.track_epochs {
        if let Some(net) = models.load(&key) {
            let trainer = Trainer::new(TrainConfig {
                batch_size: cfg.batch_size,
                ..TrainConfig::default()
            });
            let accuracy = trainer.evaluate(&net, &test_x, test_labels);
            return Ok(CaseOutcome {
                accuracy,
                history: TrainingHistory {
                    train_loss: Vec::new(),
                    test_accuracy: vec![accuracy],
                },
                train_bytes,
                test_bytes,
            });
        }
    }
    let train_x = to_tensors(&train_dec);
    let mut net = build_model(cfg, set);
    let trainer = Trainer::new(TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        seed: cfg.seed,
        track_epochs: cfg.track_epochs,
        sgd: deepn_nn::Sgd::new(cfg.lr),
        ..TrainConfig::default()
    });
    let history = trainer.fit(&mut net, &train_x, train_labels, &test_x, test_labels);
    if !cfg.track_epochs {
        let img = &set.images()[0];
        let recipe = ModelRecipe {
            arch: cfg.model.clone(),
            in_channels: 3,
            height: img.height(),
            width: img.width(),
            classes: set.class_count(),
            seed: cfg.seed,
        };
        models.store(&key, &recipe, &net);
    }
    Ok(CaseOutcome {
        accuracy: history.final_test_accuracy(),
        history,
        train_bytes,
        test_bytes,
    })
}

/// Trains **and** tests on the same compression scheme — how the paper's
/// Figs. 6–8 evaluate each candidate.
///
/// # Errors
///
/// As [`run_case`].
pub fn run_symmetric(
    cfg: &ExperimentConfig,
    set: &ImageSet,
    scheme: &CompressionScheme,
) -> Result<CaseOutcome, CoreError> {
    run_case(cfg, set, scheme, scheme)
}

/// [`run_symmetric`] through a [`RoundTripCache`] and a [`ModelCache`]
/// (see [`run_case_cached_with_models`]).
///
/// # Errors
///
/// As [`run_case`].
pub fn run_symmetric_cached_with_models(
    cfg: &ExperimentConfig,
    set: &ImageSet,
    scheme: &CompressionScheme,
    cache: &mut dyn RoundTripCache,
    models: &mut dyn ModelCache,
) -> Result<CaseOutcome, CoreError> {
    run_case_cached_with_models(cfg, set, scheme, scheme, cache, models)
}

/// Trains a model once on `scheme`-compressed training data and returns it
/// together with the tensors/labels needed for later evaluations — the
/// shape of the Fig. 5 band-sensitivity sweep, which reuses one model
/// across dozens of test-time quantization settings.
///
/// # Errors
///
/// As [`run_case`].
pub fn train_model(
    cfg: &ExperimentConfig,
    set: &ImageSet,
    scheme: &CompressionScheme,
) -> Result<Sequential, CoreError> {
    let (train_imgs, train_labels) = set.train();
    let (train_dec, _) = scheme.round_trip_set(train_imgs)?;
    let train_x = to_tensors(&train_dec);
    let mut net = build_model(cfg, set);
    let trainer = Trainer::new(TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        seed: cfg.seed,
        track_epochs: false,
        sgd: deepn_nn::Sgd::new(cfg.lr),
        ..TrainConfig::default()
    });
    // Evaluate on the training data only for the mandatory final entry.
    let _ = trainer.fit(&mut net, &train_x, train_labels, &train_x, train_labels);
    Ok(net)
}

/// Test accuracy of an already-trained model on `scheme`-compressed test
/// images.
///
/// # Errors
///
/// As [`run_case`].
pub fn evaluate_model(
    net: &Sequential,
    set: &ImageSet,
    scheme: &CompressionScheme,
) -> Result<f64, CoreError> {
    let (test_imgs, test_labels) = set.test();
    let (test_dec, _) = scheme.round_trip_set(test_imgs)?;
    let test_x = to_tensors(&test_dec);
    let trainer = Trainer::new(TrainConfig::default());
    Ok(trainer.evaluate(net, &test_x, test_labels))
}

/// Quantization tables that probe a single band group: every band in
/// `kind` (under `segmentation`) gets `step`, every other band gets step 1
/// — the paper's Fig. 5 methodology ("only varying the quantization steps
/// of interested frequency bands ... all the others are assigned with
/// minimized quantization steps").
///
/// # Panics
///
/// Panics if `step == 0`.
pub fn band_probe_tables(segmentation: &Segmentation, kind: BandKind, step: u16) -> QuantTablePair {
    assert!(step > 0, "quantization step must be positive");
    let mut values = [1u16; 64];
    for band in segmentation.bands_of(kind) {
        values[band] = step;
    }
    let table = QuantTable::new(values).expect("steps are positive");
    QuantTablePair {
        luma: table.clone(),
        chroma: table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepn_dataset::DatasetSpec;

    fn fast_cfg() -> ExperimentConfig {
        ExperimentConfig {
            model: "MiniAlexNet".to_owned(),
            epochs: 8,
            batch_size: 16,
            seed: 7,
            track_epochs: false,
            lr: 0.05,
        }
    }

    fn fast_set() -> ImageSet {
        let mut spec = DatasetSpec::tiny();
        spec.train_per_class = 16;
        spec.test_per_class = 6;
        ImageSet::generate(&spec, 21)
    }

    #[test]
    fn original_compression_rate_is_one() {
        let set = fast_set();
        let cr = compression_rate(&CompressionScheme::original(), set.images()).expect("cr");
        assert!((cr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggressive_jpeg_has_higher_cr() {
        let set = fast_set();
        let cr20 = compression_rate(&CompressionScheme::Jpeg(20), set.images()).expect("20");
        let cr80 = compression_rate(&CompressionScheme::Jpeg(80), set.images()).expect("80");
        assert!(cr20 > cr80, "{cr20} vs {cr80}");
        assert!(cr80 > 1.0);
    }

    #[test]
    fn symmetric_case_learns_something() {
        let outcome =
            run_symmetric(&fast_cfg(), &fast_set(), &CompressionScheme::original()).expect("runs");
        // 4 classes -> chance is 0.25; the model must beat it clearly.
        assert!(outcome.accuracy > 0.4, "accuracy {}", outcome.accuracy);
        assert!(outcome.train_bytes > 0 && outcome.test_bytes > 0);
    }

    #[test]
    fn train_once_evaluate_many() {
        let set = fast_set();
        let cfg = fast_cfg();
        let net = train_model(&cfg, &set, &CompressionScheme::original()).expect("train");
        let acc_hi = evaluate_model(&net, &set, &CompressionScheme::original()).expect("hi");
        let acc_crushed =
            evaluate_model(&net, &set, &CompressionScheme::SameQ(200)).expect("crushed");
        // Destroying nearly all frequency content cannot help accuracy.
        assert!(acc_crushed <= acc_hi + 0.101, "{acc_crushed} vs {acc_hi}");
    }

    #[test]
    fn cached_round_trip_matches_uncached() {
        use std::collections::HashMap;

        #[derive(Default)]
        struct MemCache {
            map: HashMap<String, (Vec<RgbImage>, usize)>,
            hits: usize,
        }
        impl RoundTripCache for MemCache {
            fn load(&mut self, key: &str) -> Option<(Vec<RgbImage>, usize)> {
                let hit = self.map.get(key).cloned();
                if hit.is_some() {
                    self.hits += 1;
                }
                hit
            }
            fn store(&mut self, key: &str, images: &[RgbImage], compressed_bytes: usize) {
                self.map
                    .insert(key.to_owned(), (images.to_vec(), compressed_bytes));
            }
        }

        let set = fast_set();
        let scheme = CompressionScheme::Jpeg(60);
        let mut cache = MemCache::default();
        let (a, na) = round_trip_set_cached(&scheme, set.images(), &mut cache).expect("miss");
        let (b, nb) = round_trip_set_cached(&scheme, set.images(), &mut cache).expect("hit");
        assert_eq!(cache.hits, 1);
        assert_eq!((a.len(), na), (b.len(), nb));
        let (c, nc) = scheme.round_trip_set(set.images()).expect("direct");
        assert_eq!(a, c);
        assert_eq!(na, nc);
        // Distinct schemes and datasets never share a key.
        let other = ImageSet::generate(&DatasetSpec::tiny(), 99);
        assert_ne!(
            cache_key(&scheme, set.images()),
            cache_key(&CompressionScheme::Jpeg(61), set.images())
        );
        assert_ne!(
            cache_key(&scheme, set.images()),
            cache_key(&scheme, other.images())
        );
    }

    #[test]
    fn model_cache_hit_skips_training_and_matches_accuracy() {
        #[derive(Default)]
        struct MemModels {
            map: std::collections::HashMap<String, (ModelRecipe, Vec<deepn_nn::ParamExport>)>,
            hits: usize,
            stores: usize,
        }
        impl ModelCache for MemModels {
            fn load(&mut self, key: &str) -> Option<Sequential> {
                let (recipe, params) = self.map.get(key)?;
                let mut net = deepn_nn::zoo::by_name(
                    &recipe.arch,
                    recipe.in_channels,
                    recipe.height,
                    recipe.width,
                    recipe.classes,
                    recipe.seed,
                );
                net.load_params(params.clone()).ok()?;
                self.hits += 1;
                Some(net)
            }
            fn store(&mut self, key: &str, recipe: &ModelRecipe, net: &Sequential) {
                self.stores += 1;
                self.map
                    .insert(key.to_owned(), (recipe.clone(), net.save_params()));
            }
        }

        let set = fast_set();
        let cfg = fast_cfg();
        let scheme = CompressionScheme::Jpeg(70);
        let mut models = MemModels::default();
        let cold = run_symmetric_cached_with_models(&cfg, &set, &scheme, &mut NoCache, &mut models)
            .expect("cold");
        assert_eq!((models.hits, models.stores), (0, 1));
        let warm = run_symmetric_cached_with_models(&cfg, &set, &scheme, &mut NoCache, &mut models)
            .expect("warm");
        assert_eq!((models.hits, models.stores), (1, 1));
        // Deterministic training: the cached model evaluates to exactly
        // the accuracy the fresh run reported.
        assert_eq!(cold.accuracy, warm.accuracy);
        assert!(warm.history.train_loss.is_empty(), "hit must skip training");
        // A different scheme, config, or labeling is a different key.
        let (imgs, labels) = set.train();
        let classes = set.class_count();
        assert_ne!(
            model_cache_key(&cfg, &scheme, imgs, labels, classes),
            model_cache_key(&cfg, &CompressionScheme::Jpeg(71), imgs, labels, classes)
        );
        let mut other = cfg.clone();
        other.epochs += 1;
        assert_ne!(
            model_cache_key(&cfg, &scheme, imgs, labels, classes),
            model_cache_key(&other, &scheme, imgs, labels, classes)
        );
        let mut relabeled = labels.to_vec();
        relabeled.swap(0, 1);
        assert_ne!(
            model_cache_key(&cfg, &scheme, imgs, labels, classes),
            model_cache_key(&cfg, &scheme, imgs, &relabeled, classes)
        );
    }

    #[test]
    fn band_probe_tables_touch_only_target_group() {
        let seg = Segmentation::position_based();
        let t = band_probe_tables(&seg, BandKind::High, 40);
        let mut high = 0;
        let mut unit = 0;
        for &v in t.luma.values() {
            if v == 40 {
                high += 1;
            } else if v == 1 {
                unit += 1;
            }
        }
        assert_eq!(high, 36);
        assert_eq!(unit, 28);
    }

    #[test]
    fn scale_from_env_defaults_full() {
        // (Does not set the variable: other tests may run concurrently.)
        let s = Scale::Full;
        assert!(s.epochs() >= Scale::Fast.epochs());
        assert!(s.dataset_spec().total_images() > Scale::Fast.dataset_spec().total_images());
    }
}
