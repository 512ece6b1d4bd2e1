//! Q-learning over *action features* (a scoring network).
//!
//! Instead of one output head per discrete action, the network scores a
//! feature vector describing a `(state, action)` pair; the policy picks the
//! best-scored candidate. With shared weights across actions the learner
//! generalizes across zones/teams from very little data — the property the
//! dispatch policy needs, since one day of disaster provides only a few
//! hundred rounds.

use crate::adam::Adam;
use crate::nn::Mlp;
use crate::replay::PairReplay;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Hyperparameters of the scoring learner.
#[derive(Debug, Clone, PartialEq)]
pub struct QScoreConfig {
    /// Dimension of one `(state, action)` feature vector.
    pub feature_dim: usize,
    /// Hidden layers of the scoring network.
    pub hidden: Vec<usize>,
    /// TD discount γ.
    pub gamma: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Minibatch size per learning step.
    pub batch_size: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Transitions required before learning starts.
    pub min_replay: usize,
    /// Sync the target network every this many learning steps.
    pub target_sync_every: u64,
    /// Initial exploration rate.
    pub eps_start: f64,
    /// Final exploration rate.
    pub eps_end: f64,
    /// Acting steps over which ε anneals linearly.
    pub eps_decay_steps: u64,
    /// RNG / init seed.
    pub seed: u64,
}

impl QScoreConfig {
    /// Defaults for a small dispatch problem.
    pub fn new(feature_dim: usize) -> Self {
        Self {
            feature_dim,
            hidden: vec![32, 32],
            gamma: 0.9,
            lr: 1e-3,
            batch_size: 32,
            replay_capacity: 50_000,
            min_replay: 200,
            target_sync_every: 200,
            eps_start: 0.5,
            eps_end: 0.02,
            eps_decay_steps: 5_000,
            seed: 0,
        }
    }
}

/// One stored transition: the chosen pair's features, the observed reward,
/// and the feature vectors of every candidate in the next state.
#[derive(Debug, Clone, PartialEq)]
pub struct PairTransition {
    /// Features of the chosen `(state, action)` pair.
    pub features: Vec<f64>,
    /// Reward observed after acting.
    pub reward: f64,
    /// Candidate features available in the next state (empty = terminal).
    pub next_candidates: Vec<Vec<f64>>,
}

/// A Q-network over action features with replay and a target network.
#[derive(Debug)]
pub struct QScore {
    config: QScoreConfig,
    online: Mlp,
    target: Mlp,
    adam: Adam,
    replay: PairReplay,
    rng: StdRng,
    act_steps: u64,
    learn_steps: u64,
}

impl QScore {
    /// Creates the learner.
    ///
    /// # Panics
    ///
    /// Panics if `feature_dim`, `batch_size` or `replay_capacity` is zero.
    pub fn new(config: QScoreConfig) -> Self {
        assert!(config.feature_dim > 0, "feature dimension must be positive");
        assert!(config.batch_size > 0, "batch size must be positive");
        let replay = PairReplay::new(config.replay_capacity);
        let mut dims = vec![config.feature_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let online = Mlp::new(&dims, config.seed);
        let mut target = Mlp::new(&dims, config.seed.wrapping_add(1));
        target.copy_params_from(&online);
        let adam = Adam::new(&online, config.lr);
        let rng = StdRng::seed_from_u64(config.seed ^ 0x7173_636f_7265);
        Self {
            config,
            online,
            target,
            adam,
            replay,
            rng,
            act_steps: 0,
            learn_steps: 0,
        }
    }

    /// Rebuilds a learner around an already-trained scoring network (e.g.
    /// one loaded through [`crate::persist::mlp_from_text`]) — the model
    /// hot-swap path of a serving runtime. The target network starts
    /// synced to `online`, the replay buffer empty, and `config.hidden` is
    /// overwritten with the loaded network's actual hidden sizes.
    ///
    /// # Panics
    ///
    /// Panics if the network's input dimension differs from
    /// `config.feature_dim`, its output is not a single score, or
    /// `config.replay_capacity` is zero.
    pub fn from_mlp(mut config: QScoreConfig, online: Mlp) -> Self {
        assert_eq!(
            online.input_dim(),
            config.feature_dim,
            "network input dimension must match the feature dimension"
        );
        assert_eq!(
            online.output_dim(),
            1,
            "scoring network must output one value"
        );
        let dims = online.layer_dims();
        config.hidden = dims[1..dims.len() - 1].to_vec();
        let target = online.clone();
        let adam = Adam::new(&online, config.lr);
        let replay = PairReplay::new(config.replay_capacity);
        let rng = StdRng::seed_from_u64(config.seed ^ 0x7173_636f_7265);
        Self {
            config,
            online,
            target,
            adam,
            replay,
            rng,
            act_steps: 0,
            learn_steps: 0,
        }
    }

    /// The online scoring network (checkpointing / persistence).
    pub fn online(&self) -> &Mlp {
        &self.online
    }

    /// The configuration.
    pub fn config(&self) -> &QScoreConfig {
        &self.config
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        let f = (self.act_steps as f64 / self.config.eps_decay_steps as f64).min(1.0);
        self.config.eps_start + (self.config.eps_end - self.config.eps_start) * f
    }

    /// Q-value of one pair.
    pub fn q(&self, features: &[f64]) -> f64 {
        self.online.predict(features)[0]
    }

    /// Index of the best-scored candidate.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn best(&self, candidates: &[Vec<f64>]) -> usize {
        assert!(!candidates.is_empty(), "no candidates to score");
        candidates
            .iter()
            .enumerate()
            .max_by(|a, b| {
                self.q(a.1)
                    .partial_cmp(&self.q(b.1))
                    .expect("Q values are never NaN")
            })
            .map(|(i, _)| i)
            .expect("non-empty candidates")
    }

    /// ε-greedy selection among candidates.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn act(&mut self, candidates: &[Vec<f64>]) -> usize {
        assert!(!candidates.is_empty(), "no candidates to score");
        self.act_steps += 1;
        if self.rng.random::<f64>() < self.epsilon() {
            self.rng.random_range(0..candidates.len())
        } else {
            self.best(candidates)
        }
    }

    /// Stores a transition (ring buffer).
    pub fn store(&mut self, t: PairTransition) {
        self.replay.push(t);
    }

    /// Stores and, once warmed up, learns. Returns the TD loss if a step
    /// happened.
    pub fn observe(&mut self, t: PairTransition) -> Option<f64> {
        self.store(t);
        (self.replay.len() >= self.config.min_replay.max(self.config.batch_size))
            .then(|| self.learn_step())
    }

    /// One minibatch TD step ([`td_update`] on a uniform replay sample);
    /// returns the mean squared TD error.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been stored yet.
    pub fn learn_step(&mut self) -> f64 {
        assert!(!self.replay.is_empty(), "nothing to learn from");
        let batch = self.replay.sample(&mut self.rng, self.config.batch_size);
        let loss = td_update(
            &mut self.online,
            &self.target,
            &mut self.adam,
            self.config.gamma,
            &batch,
        );
        self.learn_steps += 1;
        if self
            .learn_steps
            .is_multiple_of(self.config.target_sync_every)
        {
            self.target.copy_params_from(&self.online);
        }
        loss
    }

    /// Learning steps performed so far.
    pub fn learn_steps(&self) -> u64 {
        self.learn_steps
    }

    /// Acting steps performed so far.
    pub fn act_steps(&self) -> u64 {
        self.act_steps
    }
}

/// One minibatch DQN update: regresses `online`'s score of each chosen
/// pair toward `r + γ·max_c target(c)` over the next state's candidates
/// (`r` alone when there are none), then applies one Adam step. Returns
/// the batch's mean squared TD error. Shared by [`QScore::learn_step`] and
/// the serve runtime's online trainer; callers own batch sampling and the
/// target-sync cadence.
///
/// # Panics
///
/// Panics if `batch` is empty or `adam` was built for another network.
pub fn td_update(
    online: &mut Mlp,
    target: &Mlp,
    adam: &mut Adam,
    gamma: f64,
    batch: &[&PairTransition],
) -> f64 {
    online.zero_grad();
    let mut loss = 0.0;
    for t in batch {
        let target_q = if t.next_candidates.is_empty() {
            t.reward
        } else {
            let best_next = t
                .next_candidates
                .iter()
                .map(|c| target.predict(c)[0])
                .fold(f64::NEG_INFINITY, f64::max);
            t.reward + gamma * best_next
        };
        let cache = online.forward(&t.features);
        let err = cache.output()[0] - target_q;
        loss += err * err;
        online.backward(&cache, &[err]);
    }
    adam.step(online, batch.len());
    loss / batch.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Candidates are `(value, noise)` pairs; reward equals the value. The
    /// learner must score by the first feature.
    #[test]
    fn learns_to_rank_by_value_feature() {
        let mut cfg = QScoreConfig::new(2);
        cfg.eps_decay_steps = 800;
        cfg.min_replay = 32;
        cfg.seed = 5;
        let mut q = QScore::new(cfg);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1_500 {
            let candidates: Vec<Vec<f64>> = (0..4)
                .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
                .collect();
            let a = q.act(&candidates);
            let reward = candidates[a][0];
            q.observe(PairTransition {
                features: candidates[a].clone(),
                reward,
                next_candidates: Vec::new(),
            });
        }
        // Greedy choice must pick the max-value candidate.
        let test: Vec<Vec<f64>> = vec![vec![0.1, 0.9], vec![0.9, 0.1], vec![0.5, 0.5]];
        assert_eq!(q.best(&test), 1);
        assert!(q.learn_steps() > 0);
    }

    #[test]
    fn epsilon_anneals_with_acting() {
        let mut cfg = QScoreConfig::new(1);
        cfg.eps_decay_steps = 10;
        let mut q = QScore::new(cfg);
        assert_eq!(q.epsilon(), 0.5);
        for _ in 0..20 {
            let _ = q.act(&[vec![0.0]]);
        }
        assert!((q.epsilon() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn bootstrapped_targets_propagate_value() {
        // Two-step chain: choosing "go" (feature 1) leads to a next state
        // whose candidates include a high-reward option; "stop" ends with
        // zero. Q(go) must exceed Q(stop).
        let mut cfg = QScoreConfig::new(1);
        cfg.min_replay = 16;
        cfg.gamma = 0.9;
        cfg.seed = 2;
        let mut q = QScore::new(cfg);
        for _ in 0..800 {
            q.observe(PairTransition {
                features: vec![1.0],
                reward: 0.0,
                next_candidates: vec![vec![2.0]],
            });
            q.observe(PairTransition {
                features: vec![2.0],
                reward: 1.0,
                next_candidates: Vec::new(),
            });
            q.observe(PairTransition {
                features: vec![0.0],
                reward: 0.0,
                next_candidates: Vec::new(),
            });
        }
        assert!(
            q.q(&[1.0]) > q.q(&[0.0]) + 0.3,
            "go {} stop {}",
            q.q(&[1.0]),
            q.q(&[0.0])
        );
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn empty_candidates_rejected() {
        let mut q = QScore::new(QScoreConfig::new(1));
        let _ = q.act(&[]);
    }
}
