//! Property-based tests for the RL substrate.

use mobirescue_rl::nn::Mlp;
use mobirescue_rl::qscore::{QScore, QScoreConfig};
use mobirescue_rl::replay::{ReplayBuffer, Transition};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Gradient check on arbitrary small architectures and inputs.
    #[test]
    fn backprop_matches_finite_differences(
        seed in 0u64..500,
        hidden in 2usize..6,
        x in prop::collection::vec(-2.0f64..2.0, 3),
    ) {
        let mut mlp = Mlp::new(&[3, hidden, 1], seed);
        let target = 0.7;
        let cache = mlp.forward(&x);
        let err = cache.output()[0] - target;
        mlp.zero_grad();
        mlp.backward(&cache, &[err]);
        let mut grads = Vec::new();
        mlp.visit_params_mut(|_, _, g| grads.push(g));
        let loss = |m: &Mlp| {
            let y = m.predict(&x)[0];
            0.5 * (y - target) * (y - target)
        };
        let eps = 1e-6;
        for k in (0..grads.len()).step_by(5) {
            let mut plus = mlp.clone();
            plus.visit_params_mut(|i, w, _| if i == k { *w += eps });
            let mut minus = mlp.clone();
            minus.visit_params_mut(|i, w, _| if i == k { *w -= eps });
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            prop_assert!((numeric - grads[k]).abs() < 1e-4,
                "param {k}: numeric {numeric} vs analytic {}", grads[k]);
        }
    }

    /// The replay buffer never exceeds capacity and always retains the most
    /// recent item.
    #[test]
    fn replay_bounds(capacity in 1usize..20, pushes in 1usize..80) {
        let mut buf = ReplayBuffer::new(capacity);
        for i in 0..pushes {
            buf.push(Transition {
                state: vec![i as f64],
                action: 0,
                reward: i as f64,
                next_state: vec![],
                next_valid: vec![],
                done: true,
            });
        }
        prop_assert_eq!(buf.len(), pushes.min(capacity));
        let mut rng = StdRng::seed_from_u64(0);
        let sample = buf.sample(&mut rng, 64);
        // Every sampled reward is one of the last `capacity` pushes.
        let floor = pushes.saturating_sub(capacity) as f64;
        prop_assert!(sample.iter().all(|t| t.reward >= floor));
    }

    /// QScore's greedy choice is consistent with its own Q values.
    #[test]
    fn qscore_best_is_argmax(
        seed in 0u64..100,
        candidates in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 3), 1..10),
    ) {
        let mut cfg = QScoreConfig::new(3);
        cfg.seed = seed;
        let q = QScore::new(cfg);
        let best = q.best(&candidates);
        let best_q = q.q(&candidates[best]);
        for c in &candidates {
            prop_assert!(q.q(c) <= best_q + 1e-12);
        }
    }

    /// Persisting a network is byte-stable: save → load → save produces the
    /// identical text over arbitrary architectures and perturbed weights
    /// (the serving hot-swap path relies on this).
    #[test]
    fn persist_save_load_save_is_byte_stable(
        seed in 0u64..200,
        input in 1usize..6,
        hidden in prop::collection::vec(1usize..8, 0..3),
        scale in -3.0f64..3.0,
    ) {
        let mut dims = vec![input];
        dims.extend_from_slice(&hidden);
        dims.push(1);
        let mut net = Mlp::new(&dims, seed);
        // Stretch weights away from the tidy init so the text covers
        // long/short float spellings, negative zeros included.
        net.visit_params_mut(|i, w, _| *w *= scale * (i as f64 + 0.5));
        let text = mobirescue_rl::persist::mlp_to_text(&net);
        let reloaded =
            mobirescue_rl::persist::mlp_from_text(&text).expect("own output parses");
        prop_assert_eq!(mobirescue_rl::persist::mlp_to_text(&reloaded), text);
        prop_assert_eq!(reloaded.layer_dims(), net.layer_dims());
    }
}
