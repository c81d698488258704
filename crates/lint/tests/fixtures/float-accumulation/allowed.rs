//! A justified hash-order float fold: the values are exact small
//! integers, so addition order cannot change the result.

use std::collections::HashMap;

pub fn count_mass(m: HashMap<u64, f64>) -> f64 {
    // vp-lint: allow(float-accumulation, nondeterministic-iteration) — values are exact small integers; addition is order-insensitive
    m.values().sum::<f64>()
}
