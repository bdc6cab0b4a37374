//! The acceptance flow, in process: design tables from a dataset, persist
//! them with the store, load them in a freshly started service, and
//! round-trip a batch byte-identically through the TCP protocol; persist
//! a model the same way and check the service classifies like it.

use deepn::core::{DeepnTableBuilder, PlmParams};
use deepn::dataset::{DatasetSpec, ImageSet};
use deepn::serve::{Client, Server, ServerConfig};
use deepn::store::{self, StoredModel};
use deepn_codec::{Decoder, Encoder, QuantTablePair};
use std::time::Duration;

#[test]
fn persisted_tables_serve_byte_identical_round_trips() {
    let dir = std::env::temp_dir().join(format!("deepn-accept-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("tables.deepn");

    // `deepn build-table`: design and persist annealed/PLM tables.
    let set = ImageSet::generate(&DatasetSpec::tiny(), 0xDEE9);
    let tables = DeepnTableBuilder::new(PlmParams::paper())
        .build(set.images())
        .expect("design tables");
    store::save(&tables, &path).expect("persist tables");

    // `deepn serve`: a separate start loads the artifact, not the builder.
    let loaded: QuantTablePair = store::load(&path).expect("load tables");
    assert_eq!(tables, loaded);
    let server = Server::bind(
        "127.0.0.1:0",
        loaded.clone(),
        None,
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();

    // A client's batch round trip, byte-identical both ways.
    let mut client = Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
    let images = &set.images()[..6];
    let streams = client.encode_batch(images).expect("encode");
    let decoded = client.decode_batch(&streams).expect("decode");
    let encoder = Encoder::with_tables(loaded);
    let local_decoder = Decoder::new();
    for ((img, stream), dec) in images.iter().zip(&streams).zip(&decoded) {
        let local_stream = encoder.encode(img).expect("local encode");
        assert_eq!(&local_stream, stream, "service encode differs");
        let local_dec = local_decoder.decode(&local_stream).expect("local decode");
        assert_eq!(&local_dec, dec, "service decode differs");
    }

    client.shutdown().expect("shutdown");
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persisted_model_classifies_like_the_local_network() {
    let dir = std::env::temp_dir().join(format!("deepn-classify-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("model.deepn");

    // `deepn train` without the training: an untrained zoo network is
    // enough to compare the service's inference with the local one.
    let set = ImageSet::generate(&DatasetSpec::tiny(), 0xDEE9);
    let img = &set.images()[0];
    let (h, w, classes, seed) = (img.height(), img.width(), set.class_count(), 4);
    let net = deepn::nn::zoo::mini_alexnet(3, h, w, classes, seed);
    let stored = StoredModel::from_network("MiniAlexNet", 3, h, w, classes, seed, &net);
    store::save(&stored, &path).expect("persist model");

    // `deepn serve --model`: the service runs the artifact, not `net`.
    let loaded: StoredModel = store::load(&path).expect("load model");
    let served = loaded.instantiate().expect("instantiate");
    let handle = Server::bind(
        "127.0.0.1:0",
        QuantTablePair::standard(75),
        Some(served),
        ServerConfig::default(),
    )
    .expect("bind")
    .spawn();

    let images = &set.images()[..16];
    let tensors = deepn::core::experiment::to_tensors(images);
    let indices: Vec<usize> = (0..tensors.len()).collect();
    let local = net.predict(&deepn::nn::stack_batch(&tensors, &indices));
    assert!(
        local.iter().any(|&label| label != local[0]),
        "constant labels cannot tell two input mappings apart: {local:?}"
    );
    let mut client = Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
    assert_eq!(
        client.classify(images).expect("classify"),
        local,
        "service labels differ from the local model"
    );

    client.shutdown().expect("shutdown");
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
