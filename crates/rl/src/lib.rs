//! Reinforcement-learning substrate for the MobiRescue dispatcher
//! (Section IV-C), implemented from scratch.
//!
//! The paper trains a DNN-based RL policy (citing Pensieve) whose state is
//! the predicted request distribution plus team positions, whose action is a
//! destination per team, and whose reward is `αN^q − βT^d − γN^m`. The
//! pieces live here, free of any ML dependency:
//!
//! * [`nn`] — dense MLP with explicit backpropagation (gradient-checked);
//! * [`adam`] — Adam and SGD optimizers;
//! * [`replay`] — bounded experience replay;
//! * [`dqn`] — Double-DQN agent with target network and action masking;
//! * [`qscore`] — Q-learning over action features (the dispatcher's
//!   policy head: shared weights across destination zones).

#![warn(missing_docs)]

pub mod adam;
pub mod dqn;
pub mod nn;
pub mod persist;
pub mod qscore;
pub mod replay;

pub use adam::{Adam, Sgd};
pub use dqn::{DqnAgent, DqnConfig};
pub use nn::{ForwardCache, Mlp};
pub use persist::{mlp_from_text, mlp_to_text, ParseNetworkError};
pub use qscore::{PairTransition, QScore, QScoreConfig};
pub use replay::{pair_from_line, pair_to_line, PairReplay, ReplayBuffer, Transition};
