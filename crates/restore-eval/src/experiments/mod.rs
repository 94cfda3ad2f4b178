//! Experiment runners, one module per paper experiment.

pub(crate) mod confidence;
pub(crate) mod exp1;
pub(crate) mod exp2;
pub(crate) mod exp3;
pub(crate) mod exp4;
