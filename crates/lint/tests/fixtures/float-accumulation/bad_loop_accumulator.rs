//! A loop-carried f64 accumulator over a HashSet: same hash-order
//! nondeterminism as the inline fold, spelled as a for loop.

use std::collections::HashMap;

pub fn energy(cells: HashMap<u32, f64>) -> f64 {
    let mut acc = 0.0;
    for (_, v) in &cells { //~ nondeterministic-iteration
        acc += v; //~ float-accumulation
    }
    acc
}
