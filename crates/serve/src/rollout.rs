//! Guarded model rollout: admission → shadow → canary → watch/rollback.
//!
//! A checkpoint hot-swap that *succeeds* structurally can still be a
//! disaster operationally — a NaN-riddled net, a policy trained against the
//! wrong feature layout, or an adversarially bad Q-function would drive
//! real dispatch on every shard at once. This module gates candidate
//! bundles behind a promotion pipeline in front of
//! [`ModelRegistry`](crate::ModelRegistry):
//!
//! 1. **admission** — structural validation at submit time ([`admit`]):
//!    both artifacts must parse, every weight must be finite, the policy's
//!    layer shapes must match `FEATURE_DIM → 1`, and outputs on a
//!    deterministic probe batch must be sane. Failures are typed
//!    [`RolloutError`]s; nothing reaches the registry.
//! 2. **shadow** — the candidate runs side-by-side for K epochs on the same
//!    epoch inputs without affecting dispatch, accumulating the paper
//!    reward `r = α·N^q − β·T^d − γ·N^m` against the incumbent.
//! 3. **canary** — tentative promotion to a configurable subset of shards,
//!    with a windowed reward comparison against the control shards.
//! 4. **watch / auto-rollback** — after full promotion the fleet reward is
//!    watched for a window; any gate failure or regression atomically
//!    restores the pinned previous version and bumps
//!    `rollouts_rolled_back`.
//!
//! The state machine lives in
//! [`DispatchService`](crate::DispatchService) (`submit_rollout`,
//! `rollout_status`, `rollout_counters`); this module holds the typed
//! pieces plus the pure admission and reward functions.

use crate::registry::ModelBundle;
use mobirescue_core::predictor::RequestPredictor;
use mobirescue_core::rl_dispatch::{RlDispatchConfig, FEATURE_DIM};
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::persist::{mlp_from_text, mlp_to_text, probe_mlp};
use mobirescue_sim::{EpochReport, SimConfig};
use std::sync::Arc;

/// Which artifact of a candidate bundle an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// The SVM request predictor.
    Svm,
    /// The DQN dispatch policy.
    Dqn,
}

impl std::fmt::Display for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Artifact::Svm => write!(f, "svm"),
            Artifact::Dqn => write!(f, "dqn"),
        }
    }
}

/// Typed rejection from the rollout pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RolloutError {
    /// Another rollout is already in flight; finish or roll it back first.
    InFlight,
    /// The candidate carries neither a predictor nor a policy.
    EmptyCandidate,
    /// An artifact's checkpoint text failed to parse.
    Parse {
        /// Which artifact failed.
        artifact: Artifact,
        /// The parser's message.
        message: String,
    },
    /// An artifact parsed but failed the structural admission probe
    /// (non-finite weights, wrong shapes, insane probe outputs).
    Probe {
        /// Which artifact failed.
        artifact: Artifact,
        /// The probe's message.
        message: String,
    },
}

impl std::fmt::Display for RolloutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RolloutError::InFlight => write!(f, "a rollout is already in flight"),
            RolloutError::EmptyCandidate => {
                write!(f, "candidate bundle is empty (no predictor, no policy)")
            }
            RolloutError::Parse { artifact, message } => {
                write!(f, "{artifact} checkpoint failed to parse: {message}")
            }
            RolloutError::Probe { artifact, message } => {
                write!(f, "{artifact} checkpoint failed admission probe: {message}")
            }
        }
    }
}

impl std::error::Error for RolloutError {}

/// Gate parameters for the promotion pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutConfig {
    /// Shadow epochs before the candidate may touch any shard (0 skips the
    /// stage).
    pub shadow_epochs: u32,
    /// Slack added to the candidate's shadow reward before comparing
    /// against the incumbent (`cand + slack >= inc` passes).
    pub shadow_slack: f64,
    /// Canary epochs before fleet-wide promotion (0 skips the stage).
    pub canary_epochs: u32,
    /// Number of shards (`0..canary_shards`) serving the candidate during
    /// the canary stage; the rest are controls.
    pub canary_shards: usize,
    /// Slack added to the canary shards' mean per-shard-epoch reward before
    /// comparing against the control shards.
    pub canary_slack: f64,
    /// Post-promotion watch epochs; a fleet-reward regression beyond
    /// `watch_slack` against the pre-rollout baseline triggers rollback
    /// (0 skips the stage).
    pub watch_epochs: u32,
    /// Tolerated fleet-reward drop per epoch during the watch window.
    pub watch_slack: f64,
    /// `|output|` sanity bound for the admission probe batch.
    pub probe_bound: f64,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        Self {
            shadow_epochs: 2,
            shadow_slack: 0.0,
            canary_epochs: 2,
            canary_shards: 1,
            canary_slack: 0.0,
            watch_epochs: 2,
            watch_slack: 0.0,
            probe_bound: 1e6,
        }
    }
}

/// Stage of an in-flight rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutStage {
    /// Candidate scores epochs side-by-side; incumbent serves everywhere.
    Shadow,
    /// Candidate serves the canary shards; incumbent serves the controls.
    Canary,
    /// Candidate is fully promoted; fleet reward is watched for regression.
    Watch,
}

impl std::fmt::Display for RolloutStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RolloutStage::Shadow => write!(f, "shadow"),
            RolloutStage::Canary => write!(f, "canary"),
            RolloutStage::Watch => write!(f, "watch"),
        }
    }
}

/// Public view of an in-flight rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutStatus {
    /// Current stage.
    pub stage: RolloutStage,
    /// Epochs completed within the current stage.
    pub epochs_done: u32,
    /// The version the candidate holds (tentative before promotion, actual
    /// during the watch stage).
    pub version: u64,
}

/// Lifetime counters for the rollout pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RolloutCounters {
    /// Candidates that passed admission.
    pub admitted: u64,
    /// Candidates rejected at admission.
    pub rejected: u64,
    /// Candidates rolled back by a shadow, canary, or watch gate.
    pub rolled_back: u64,
}

/// An admitted candidate plus the checkpoint texts it was built from (kept
/// for snapshot persistence: rollout state must survive `mrserve` restore).
#[derive(Debug, Clone)]
pub(crate) struct CandidateBundle {
    /// The parsed bundle, carrying its tentative post-promotion version.
    pub bundle: Arc<ModelBundle>,
    /// Normalized predictor checkpoint text, if the candidate has one.
    pub predictor_text: Option<String>,
    /// Normalized policy checkpoint text, if the candidate has one.
    pub policy_text: Option<String>,
}

/// Serialized-state backbone of the service's rollout state machine.
#[derive(Debug, Clone)]
pub(crate) enum RolloutInFlight {
    /// Accumulating shadow rewards.
    Shadow {
        /// Epochs scored so far.
        done: u32,
        /// Candidate's accumulated shadow reward.
        cand_total: f64,
        /// Incumbent's accumulated primary reward over the same epochs.
        inc_total: f64,
        /// The admitted candidate.
        candidate: CandidateBundle,
    },
    /// Candidate serving the canary shards.
    Canary {
        /// Epochs served so far.
        done: u32,
        /// Accumulated reward over canary shard-epochs.
        canary_total: f64,
        /// Accumulated reward over control shard-epochs.
        control_total: f64,
        /// Candidate build failures observed on canary shards.
        failures: u64,
        /// The admitted candidate.
        candidate: CandidateBundle,
    },
    /// Fully promoted; watching for regression.
    Watch {
        /// Epochs watched so far.
        done: u32,
        /// Accumulated fleet reward during the watch window.
        total: f64,
        /// Mean pre-rollout fleet reward (None when no history existed).
        baseline: Option<f64>,
        /// The pinned previous bundle, restored verbatim on rollback.
        prior: Arc<ModelBundle>,
    },
}

impl RolloutInFlight {
    /// The public status view.
    pub(crate) fn status(&self) -> RolloutStatus {
        match self {
            RolloutInFlight::Shadow {
                done, candidate, ..
            } => RolloutStatus {
                stage: RolloutStage::Shadow,
                epochs_done: *done,
                version: candidate.bundle.version,
            },
            RolloutInFlight::Canary {
                done, candidate, ..
            } => RolloutStatus {
                stage: RolloutStage::Canary,
                epochs_done: *done,
                version: candidate.bundle.version,
            },
            RolloutInFlight::Watch { done, prior, .. } => RolloutStatus {
                stage: RolloutStage::Watch,
                epochs_done: *done,
                version: prior.version + 1,
            },
        }
    }
}

/// Admission gate: parse and structurally validate a candidate's checkpoint
/// texts. `probe_bound` caps `|output|` on the policy's probe batch.
///
/// # Errors
///
/// Returns a typed [`RolloutError`]; an empty candidate, a parse failure,
/// or a probe failure — each naming the offending artifact.
pub fn admit(
    predictor_text: Option<&str>,
    policy_text: Option<&str>,
    probe_bound: f64,
) -> Result<(Option<RequestPredictor>, Option<Mlp>), RolloutError> {
    if predictor_text.is_none() && policy_text.is_none() {
        return Err(RolloutError::EmptyCandidate);
    }
    let predictor = match predictor_text {
        Some(text) => {
            let p = RequestPredictor::from_text(text).map_err(|message| RolloutError::Parse {
                artifact: Artifact::Svm,
                message,
            })?;
            p.probe().map_err(|message| RolloutError::Probe {
                artifact: Artifact::Svm,
                message,
            })?;
            Some(p)
        }
        None => None,
    };
    let policy = match policy_text {
        Some(text) => {
            let net = mlp_from_text(text).map_err(|e| RolloutError::Parse {
                artifact: Artifact::Dqn,
                message: e.to_string(),
            })?;
            if net.input_dim() != FEATURE_DIM || net.output_dim() != 1 {
                return Err(RolloutError::Probe {
                    artifact: Artifact::Dqn,
                    message: format!(
                        "policy network is {}→{}, dispatcher needs {FEATURE_DIM}→1",
                        net.input_dim(),
                        net.output_dim()
                    ),
                });
            }
            probe_mlp(&net, probe_bound).map_err(|e| RolloutError::Probe {
                artifact: Artifact::Dqn,
                message: e.to_string(),
            })?;
            Some(net)
        }
        None => None,
    };
    Ok((predictor, policy))
}

/// The paper's Equation 5 reward for one served epoch,
/// `r = α·N^q − β·T^d − γ·N^m`: rescues picked up this epoch, minus the
/// waiting-time cost of the queue (each waiting request waits one dispatch
/// period, in hours), minus the in-motion cost of teams still serving.
pub fn epoch_reward(rl: &RlDispatchConfig, sim: &SimConfig, report: &EpochReport) -> f64 {
    let period_h = f64::from(sim.dispatch_period_s) / 3600.0;
    rl.alpha * f64::from(report.picked_up)
        - rl.beta * (report.waiting_at_tick as f64) * period_h
        - rl.gamma_weight * (report.serving_at_tick as f64)
}

/// How a checkpoint delivery is poisoned before it reaches the admission
/// gate (a corrupted training job, a bad export, or an adversarially
/// regressed policy). The `serve` demo and the chaos harnesses deliver
/// these to prove the gates hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPoison {
    /// The policy parses but carries a NaN weight — admission must reject.
    NanWeights,
    /// The policy's input layer disagrees with `FEATURE_DIM` — admission
    /// must reject.
    WrongDims,
    /// A structurally valid policy that pins every team on stand-by,
    /// tanking the paper reward — only the shadow gate can catch it.
    RewardTank,
}

/// The checkpoint text a poisoning of `kind` substitutes for the submitted
/// policy. Deterministic per kind.
pub fn poisoned_policy_text(kind: CheckpointPoison) -> String {
    match kind {
        CheckpointPoison::NanWeights => {
            let mut net = Mlp::new(&[FEATURE_DIM, 4, 1], 0x6e616e);
            net.visit_params_mut(|i, w, _| {
                if i == 5 {
                    *w = f64::NAN;
                }
            });
            mlp_to_text(&net)
        }
        CheckpointPoison::WrongDims => mlp_to_text(&Mlp::new(&[FEATURE_DIM + 1, 4, 1], 0x646d73)),
        CheckpointPoison::RewardTank => reward_tank_policy_text(),
    }
}

/// A structurally valid policy that passes every admission check yet tanks
/// the paper reward: a single linear layer whose only non-zero weight
/// (1000, well under the probe bound) sits on the stand-by feature flag, so
/// standing by always out-scores every rescue candidate and no team is
/// ever dispatched.
pub fn reward_tank_policy_text() -> String {
    let mut net = Mlp::new(&[FEATURE_DIM, 1], 0);
    net.visit_params_mut(|i, w, _| {
        *w = if i == FEATURE_DIM - 1 { 1_000.0 } else { 0.0 };
    });
    mlp_to_text(&net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_accepts_a_healthy_policy() {
        let net = Mlp::new(&[FEATURE_DIM, 8, 1], 5);
        let (pred, policy) = admit(None, Some(&mlp_to_text(&net)), 1e6).expect("admits");
        assert!(pred.is_none());
        assert_eq!(
            policy.expect("policy parsed").num_params(),
            net.num_params()
        );
    }

    #[test]
    fn admission_rejects_empty_parse_shape_and_poison() {
        match admit(None, None, 1e6) {
            Err(RolloutError::EmptyCandidate) => {}
            other => panic!("expected EmptyCandidate, got {:?}", other.map(|_| ())),
        }

        match admit(None, Some("garbage"), 1e6) {
            Err(RolloutError::Parse { artifact, .. }) => assert_eq!(artifact, Artifact::Dqn),
            other => panic!("expected Dqn parse error, got {other:?}"),
        }

        let wrong = Mlp::new(&[FEATURE_DIM + 1, 4, 1], 0);
        match admit(None, Some(&mlp_to_text(&wrong)), 1e6) {
            Err(RolloutError::Probe { artifact, message }) => {
                assert_eq!(artifact, Artifact::Dqn);
                assert!(message.contains("dispatcher needs"), "{message}");
            }
            other => panic!("expected Dqn shape error, got {other:?}"),
        }

        let mut nan = Mlp::new(&[FEATURE_DIM, 4, 1], 0);
        nan.visit_params_mut(|i, w, _| {
            if i == 3 {
                *w = f64::NAN;
            }
        });
        match admit(None, Some(&mlp_to_text(&nan)), 1e6) {
            Err(RolloutError::Probe { artifact, message }) => {
                assert_eq!(artifact, Artifact::Dqn);
                assert!(message.contains("not finite"), "{message}");
            }
            other => panic!("expected Dqn probe error, got {other:?}"),
        }

        match admit(Some("not a predictor"), None, 1e6) {
            Err(RolloutError::Parse { artifact, .. }) => assert_eq!(artifact, Artifact::Svm),
            other => panic!("expected Svm parse error, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_the_artifact() {
        let e = RolloutError::Probe {
            artifact: Artifact::Dqn,
            message: "parameter 3 is not finite".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("dqn") && msg.contains("admission probe"),
            "{msg}"
        );
        assert!(RolloutError::InFlight.to_string().contains("in flight"));
    }

    #[test]
    fn reward_follows_equation_five() {
        let rl = RlDispatchConfig::default();
        let sim = SimConfig::paper(6);
        let report = EpochReport {
            epoch: 0,
            start_s: 0,
            waiting_at_tick: 4,
            serving_at_tick: 3,
            picked_up: 2,
            delivered: 1,
        };
        let period_h = f64::from(sim.dispatch_period_s) / 3600.0;
        let expect = rl.alpha * 2.0 - rl.beta * 4.0 * period_h - rl.gamma_weight * 3.0;
        assert_eq!(epoch_reward(&rl, &sim, &report), expect);
    }
}
