// Fixture: a for-loop over a HashSet observes hasher order, and the
// float accumulation makes the order bit-visible in the sum.
use std::collections::HashSet;

pub fn weight_sum(seen: &HashSet<u64>) -> f64 {
    let mut acc = 0.0;
    for id in seen { //~ nondeterministic-iteration
        acc += (*id as f64).sqrt(); //~ float-accumulation
    }
    acc
}
