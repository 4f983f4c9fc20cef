//! Criterion bench: LSTM forward step, batched round step and BPTT training
//! cost — the compute behind the paper's Fig. 6 training budget (50 epochs
//! in ~35 min) and the per-package LSTM check of §VIII-A.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use icsad_nn::{LstmClassifier, ModelConfig};

fn model(hidden: Vec<usize>, classes: usize) -> LstmClassifier {
    LstmClassifier::new(&ModelConfig {
        input_dim: 120,
        hidden_dims: hidden,
        num_classes: classes,
        seed: 1,
    })
}

fn one_hot_input(t: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; 120];
    v[t % 120] = 1.0;
    v[(t * 7) % 120] = 1.0;
    v
}

fn bench_lstm(c: &mut Criterion) {
    // The paper's architecture: 2x256 over ~613 classes.
    let paper = model(vec![256, 256], 613);
    let mut state = paper.new_state();
    let mut probs = vec![0.0f32; 613];
    let mut t = 0usize;
    c.bench_function("lstm_step_2x256_613cls", |b| {
        b.iter(|| {
            t += 1;
            paper.step(&mut state, black_box(&one_hot_input(t)), &mut probs);
            black_box(probs[0])
        })
    });

    // One engine round at the paper scale: gather `w` lanes' states, then
    // step them together through the batched kernels. Widths 1, 4 and 18
    // cover a lone lane, a narrow paced round and a fleet-replay round.
    for width in [1usize, 4, 18] {
        let states: Vec<_> = (0..width).map(|_| paper.new_state()).collect();
        let xs: Vec<f32> = (0..width).flat_map(one_hot_input).collect();
        let mut scratch = paper.batch_scratch();
        paper.reserve_lanes(&mut scratch, width);
        let mut logits = vec![0.0f32; width * 613];
        c.bench_function(&format!("lstm_forward_batch_2x256_w{width}"), |b| {
            b.iter(|| {
                for (i, state) in states.iter().enumerate() {
                    paper.gather_lane(&mut scratch, i, state);
                }
                paper.forward_batch_gathered_logits(
                    &mut scratch,
                    width,
                    black_box(&xs),
                    &mut logits,
                );
                black_box(logits[0])
            })
        });
    }

    // The workspace default: 2x64.
    let small = model(vec![64, 64], 613);
    let mut sstate = small.new_state();
    c.bench_function("lstm_step_2x64_613cls", |b| {
        b.iter(|| {
            t += 1;
            small.step(&mut sstate, black_box(&one_hot_input(t)), &mut probs);
            black_box(probs[0])
        })
    });

    // Training: one 32-step truncated-BPTT chunk, forward + backward.
    let inputs: Vec<Vec<f32>> = (0..32).map(one_hot_input).collect();
    let targets: Vec<usize> = (0..32).map(|i| (i * 13) % 613).collect();
    let mut grads = small.zero_gradients();
    c.bench_function("lstm_bptt_chunk32_2x64", |b| {
        b.iter(|| {
            grads.zero();
            black_box(small.train_sequence(
                black_box(&inputs),
                black_box(&targets),
                &mut grads,
                1.0 / 32.0,
            ))
        })
    });

    let mut pgrads = paper.zero_gradients();
    c.bench_function("lstm_bptt_chunk32_2x256", |b| {
        b.iter(|| {
            pgrads.zero();
            black_box(paper.train_sequence(
                black_box(&inputs),
                black_box(&targets),
                &mut pgrads,
                1.0 / 32.0,
            ))
        })
    });
}

criterion_group!(benches, bench_lstm);
criterion_main!(benches);
