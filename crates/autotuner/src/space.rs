//! The parameter search space: named continuous ranges with
//! normalization into the unit cube.

use rand::Rng;
use serde::{Deserialize, Serialize};

use sdfm_types::error::SdfmError;

/// One parameter's range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamRange {
    /// Parameter name (reporting only).
    pub name: String,
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl ParamRange {
    /// Creates a validated range.
    ///
    /// # Errors
    ///
    /// [`SdfmError::InvalidParameter`] unless `lo < hi` and both finite.
    pub fn new(name: impl Into<String>, lo: f64, hi: f64) -> Result<Self, SdfmError> {
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(SdfmError::invalid_parameter(format!(
                "range [{lo}, {hi}] must be finite and increasing"
            )));
        }
        Ok(ParamRange {
            name: name.into(),
            lo,
            hi,
        })
    }

    /// Maps a raw value into `[0, 1]` (clamping).
    pub fn normalize(&self, v: f64) -> f64 {
        ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    /// Maps a unit value back into the range.
    pub fn denormalize(&self, u: f64) -> f64 {
        self.lo + u.clamp(0.0, 1.0) * (self.hi - self.lo)
    }
}

/// A multi-dimensional search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    dims: Vec<ParamRange>,
}

impl SearchSpace {
    /// Creates a space.
    ///
    /// # Errors
    ///
    /// [`SdfmError::EmptyInput`] when no dimensions are given.
    pub fn new(dims: Vec<ParamRange>) -> Result<Self, SdfmError> {
        if dims.is_empty() {
            return Err(SdfmError::empty_input("search space needs dimensions"));
        }
        Ok(SearchSpace { dims })
    }

    /// The control plane's production space: `K ∈ [50, 100]` (percentile)
    /// and `S ∈ [0, 7200]` seconds of warmup.
    pub fn agent_params() -> Self {
        SearchSpace {
            dims: vec![
                ParamRange {
                    name: "k_percentile".into(),
                    lo: 50.0,
                    hi: 100.0,
                },
                ParamRange {
                    name: "s_warmup_secs".into(),
                    lo: 0.0,
                    hi: 7_200.0,
                },
            ],
        }
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// The ranges.
    pub fn ranges(&self) -> &[ParamRange] {
        &self.dims
    }

    /// Normalizes a point into the unit cube.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn normalize(&self, point: &[f64]) -> Vec<f64> {
        assert_eq!(point.len(), self.dims(), "dimension mismatch");
        point
            .iter()
            .zip(&self.dims)
            .map(|(v, r)| r.normalize(*v))
            .collect()
    }

    /// Denormalizes a unit-cube point.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn denormalize(&self, unit: &[f64]) -> Vec<f64> {
        assert_eq!(unit.len(), self.dims(), "dimension mismatch");
        unit.iter()
            .zip(&self.dims)
            .map(|(u, r)| r.denormalize(*u))
            .collect()
    }

    /// Samples a uniform random point (raw units).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.dims
            .iter()
            .map(|r| rng.gen_range(r.lo..=r.hi))
            .collect()
    }

    /// A full-factorial grid with `per_dim` points per dimension
    /// (endpoints included), in raw units.
    ///
    /// # Panics
    ///
    /// Panics when `per_dim < 2`.
    pub fn grid(&self, per_dim: usize) -> Vec<Vec<f64>> {
        assert!(per_dim >= 2, "grid needs at least the endpoints");
        let mut points: Vec<Vec<f64>> = vec![vec![]];
        for r in &self.dims {
            let mut next = Vec::with_capacity(points.len() * per_dim);
            for p in &points {
                for i in 0..per_dim {
                    let u = i as f64 / (per_dim - 1) as f64;
                    let mut q = p.clone();
                    q.push(r.denormalize(u));
                    next.push(q);
                }
            }
            points = next;
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalize_roundtrip() {
        let r = ParamRange::new("x", 10.0, 20.0).unwrap();
        assert_eq!(r.normalize(15.0), 0.5);
        assert_eq!(r.denormalize(0.5), 15.0);
        assert_eq!(r.normalize(5.0), 0.0, "clamps below");
        assert_eq!(r.normalize(25.0), 1.0, "clamps above");
    }

    #[test]
    fn validation() {
        assert!(ParamRange::new("x", 1.0, 1.0).is_err());
        assert!(ParamRange::new("x", 2.0, 1.0).is_err());
        assert!(ParamRange::new("x", f64::NAN, 1.0).is_err());
        assert!(SearchSpace::new(vec![]).is_err());
    }

    #[test]
    fn agent_space_matches_paper_knobs() {
        let s = SearchSpace::agent_params();
        assert_eq!(s.dims(), 2);
        assert_eq!(s.ranges()[0].name, "k_percentile");
        assert_eq!(s.ranges()[1].hi, 7_200.0);
    }

    #[test]
    fn space_normalization() {
        let s = SearchSpace::agent_params();
        let p = vec![75.0, 3_600.0];
        let u = s.normalize(&p);
        assert_eq!(u, vec![0.5, 0.5]);
        assert_eq!(s.denormalize(&u), p);
    }

    #[test]
    fn sampling_stays_in_bounds() {
        let s = SearchSpace::agent_params();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = s.sample(&mut rng);
            assert!((50.0..=100.0).contains(&p[0]));
            assert!((0.0..=7_200.0).contains(&p[1]));
        }
    }

    #[test]
    fn grid_is_full_factorial() {
        let s = SearchSpace::agent_params();
        let g = s.grid(3);
        assert_eq!(g.len(), 9);
        assert!(g.contains(&vec![50.0, 0.0]));
        assert!(g.contains(&vec![100.0, 7_200.0]));
        assert!(g.contains(&vec![75.0, 3_600.0]));
    }
}
