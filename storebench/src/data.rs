//! Workload inputs: the twelve fig-10 dataset shapes from
//! `datasets::gens`, each seeded from the benchmark seed.
//!
//! The store only ever sees the generated integers. Float shapes are
//! scaled by `10^decimals` and rounded, the same conversion the paper
//! applies before running integer encoders on float data.

use datasets::gens;

enum Gen {
    Int(fn(usize, u64) -> Vec<i64>),
    Float(fn(usize, u64) -> Vec<f64>, i32),
}

/// Figure 10a column order, integer sets first.
const SHAPES: [(&str, Gen); 12] = [
    ("EE", Gen::Int(gens::epm_education)),
    ("MT", Gen::Int(gens::metro_traffic)),
    ("VC", Gen::Int(gens::vehicle_charge)),
    ("CS", Gen::Int(gens::cs_sensors)),
    ("TC", Gen::Int(gens::th_climate)),
    ("TT", Gen::Int(gens::ty_transport)),
    ("YE", Gen::Float(gens::yz_electricity, 1)),
    ("GM", Gen::Float(gens::gw_magnetic, 2)),
    ("UE", Gen::Float(gens::usgs_earthquakes, 1)),
    ("CV", Gen::Int(gens::cyber_vehicle)),
    ("TF", Gen::Int(gens::ty_fuel)),
    ("NS", Gen::Float(gens::nifty_stocks, 2)),
];

/// One named input series.
pub struct Series {
    pub name: &'static str,
    pub values: Vec<i64>,
}

/// SplitMix64 finalizer: spreads one seed into independent-looking
/// per-series seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates all twelve shapes with `n` values each. Series `i` uses
/// generator seed `mix(seed ^ mix(i))`, so one benchmark seed fixes
/// every input.
pub fn generate(seed: u64, n: usize) -> Vec<Series> {
    SHAPES
        .iter()
        .enumerate()
        .map(|(i, (name, gen))| {
            let s = mix(seed ^ mix(i as u64));
            let values = match gen {
                Gen::Int(f) => f(n, s),
                Gen::Float(f, decimals) => {
                    let scale = 10f64.powi(*decimals);
                    f(n, s).iter().map(|v| (v * scale).round() as i64).collect()
                }
            };
            Series { name, values }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate(7, 500);
        let b = generate(7, 500);
        let c = generate(8, 500);
        assert_eq!(a.len(), 12);
        for i in 0..12 {
            assert_eq!(a[i].values, b[i].values);
            assert_eq!(a[i].values.len(), 500);
        }
        assert!((0..12).any(|i| a[i].values != c[i].values));
    }
}
