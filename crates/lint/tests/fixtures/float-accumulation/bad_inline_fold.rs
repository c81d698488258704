//! An f64 sum folded straight over a HashMap's values: the iteration
//! order — and therefore the rounding — varies run to run.

use std::collections::HashMap;

pub fn total_weight(weights: HashMap<u64, f64>) -> f64 {
    weights.values().sum::<f64>() //~ float-accumulation
    //~^ nondeterministic-iteration
}
