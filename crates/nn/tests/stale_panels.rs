//! The batched kernels read panel-packed copies of the weights, derived
//! from the row-major weights the per-record step reads. A copy that missed
//! a weight write would make the two paths disagree; these tests write the
//! weights the two ways a model's weights change after construction — an
//! optimizer step and deserialization — and check that every round width
//! still decides exactly like the per-record step.

use icsad_nn::{LstmClassifier, ModelConfig, Sequence, Trainer, TrainingConfig};

const INPUT_DIM: usize = 11;

/// Two layers so both a recurrent and a dense-input `W` panel exist; 40
/// hidden units (160 gate columns) and 37 classes span several panels
/// plus ragged tails.
fn model() -> LstmClassifier {
    LstmClassifier::new(&ModelConfig {
        input_dim: INPUT_DIM,
        hidden_dims: vec![40, 40],
        num_classes: 37,
        seed: 23,
    })
}

fn one_hot(i: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; INPUT_DIM];
    v[i % INPUT_DIM] = 1.0;
    v
}

/// Steps widths 1..=9 a few timesteps through gather +
/// `forward_batch_gathered_logits` + scatter and every lane alone through
/// `step_logits`, comparing the logits bit for bit.
fn assert_batched_matches_per_record(model: &LstmClassifier, what: &str) {
    let nc = model.num_classes();
    for width in 1..=9 {
        let mut states: Vec<_> = (0..width).map(|_| model.new_state()).collect();
        let mut ref_states = states.clone();
        let mut scratch = model.batch_scratch();
        model.reserve_lanes(&mut scratch, width);
        let mut logits = vec![0.0f32; width * nc];
        let mut single = vec![0.0f32; nc];
        for t in 0..4 {
            let xs: Vec<f32> = (0..width)
                .flat_map(|lane| one_hot(lane * 3 + t * 5))
                .collect();
            for (i, state) in states.iter().enumerate() {
                model.gather_lane(&mut scratch, i, state);
            }
            model.forward_batch_gathered_logits(&mut scratch, width, &xs, &mut logits);
            for (i, state) in states.iter_mut().enumerate() {
                model.scatter_lane(&scratch, i, state);
            }
            for (lane, state) in ref_states.iter_mut().enumerate() {
                model.step_logits(
                    state,
                    &xs[lane * INPUT_DIM..(lane + 1) * INPUT_DIM],
                    &mut single,
                );
                let got: Vec<u32> = logits[lane * nc..(lane + 1) * nc]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let want: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{what}: width {width} lane {lane} step {t}");
            }
        }
    }
}

#[test]
fn batched_step_tracks_an_optimizer_step() {
    let mut model = model();
    let before = model.to_bytes();
    // Three 16-step sequences in 8-step chunks: six chunks, one minibatch,
    // so `fit` takes exactly one optimizer step.
    let sequences: Vec<Sequence> = (0..3)
        .map(|s| {
            Sequence::new(
                (0..16)
                    .map(|t| (one_hot(s + t), (s * 7 + t) % 37))
                    .collect(),
            )
        })
        .collect();
    let mut trainer = Trainer::new(TrainingConfig {
        epochs: 1,
        chunk_len: 8,
        batch_chunks: 64,
        learning_rate: 0.05,
        num_threads: 1,
        ..TrainingConfig::default()
    });
    trainer.fit(&mut model, &sequences);
    assert_ne!(model.to_bytes(), before, "the step must move the weights");
    assert_batched_matches_per_record(&model, "after an optimizer step");
}

#[test]
fn batched_step_tracks_deserialized_weights() {
    let mut trained = model();
    let sequences = vec![Sequence::new(
        (0..24).map(|t| (one_hot(t * 2), (t * 5) % 37)).collect(),
    )];
    Trainer::new(TrainingConfig {
        epochs: 1,
        chunk_len: 8,
        num_threads: 1,
        ..TrainingConfig::default()
    })
    .fit(&mut trained, &sequences);
    // `from_bytes` builds a fresh model (with its own initial weights and
    // panels) and then overwrites the weights with the trained ones.
    let loaded = LstmClassifier::from_bytes(&trained.to_bytes()).expect("round trip");
    assert_eq!(loaded.to_bytes(), trained.to_bytes());
    assert_batched_matches_per_record(&loaded, "after from_bytes");
}
