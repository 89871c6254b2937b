//! Small fixed maps keyed by ISP category / ISP group.

use plsim_net::{Isp, IspGroup};
use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// A value per ISP category, in [`Isp::ALL`] order (slot `isp as usize`).
///
/// # Examples
///
/// ```
/// use plsim_analysis::PerIsp;
/// use plsim_net::Isp;
///
/// let mut counts: PerIsp<u64> = PerIsp::default();
/// counts[Isp::Tele] += 3;
/// counts[Isp::Cnc] += 1;
/// assert_eq!(counts.total(), 4);
/// assert!((counts.fraction(Isp::Tele) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PerIsp<T>(pub [T; 5]);

impl<T> Index<Isp> for PerIsp<T> {
    type Output = T;

    fn index(&self, isp: Isp) -> &T {
        &self.0[isp as usize]
    }
}

impl<T> IndexMut<Isp> for PerIsp<T> {
    fn index_mut(&mut self, isp: Isp) -> &mut T {
        &mut self.0[isp as usize]
    }
}

impl<T> PerIsp<T> {
    /// Iterates `(Isp, &value)` in figure order.
    pub fn iter(&self) -> impl Iterator<Item = (Isp, &T)> {
        Isp::ALL.iter().copied().zip(self.0.iter())
    }
}

impl PerIsp<u64> {
    /// Sum over all categories.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Fraction of the total in `isp` (0 when the total is zero).
    #[must_use]
    pub fn fraction(&self, isp: Isp) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self[isp] as f64 / total as f64
        }
    }
}

/// A value per coarse ISP group (TELE / CNC / OTHER), in
/// [`IspGroup::ALL`] order (slot `group as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PerGroup<T>(pub [T; 3]);

impl<T> Index<IspGroup> for PerGroup<T> {
    type Output = T;

    fn index(&self, g: IspGroup) -> &T {
        &self.0[g as usize]
    }
}

impl<T> IndexMut<IspGroup> for PerGroup<T> {
    fn index_mut(&mut self, g: IspGroup) -> &mut T {
        &mut self.0[g as usize]
    }
}

impl<T> PerGroup<T> {
    /// Builds with one value per group from the closure (for `T` without
    /// a meaningful `Default`, e.g. a quantile sketch).
    pub fn from_fn(mut f: impl FnMut() -> T) -> Self {
        PerGroup(std::array::from_fn(|_| f()))
    }

    /// Iterates `(IspGroup, &value)` in figure order.
    pub fn iter(&self) -> impl Iterator<Item = (IspGroup, &T)> {
        IspGroup::ALL.iter().copied().zip(self.0.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trips_every_isp() {
        let mut p: PerIsp<u64> = PerIsp::default();
        for (i, isp) in Isp::ALL.iter().enumerate() {
            p[*isp] = i as u64 + 1;
        }
        assert_eq!(p.total(), 15);
        for (i, isp) in Isp::ALL.iter().enumerate() {
            assert_eq!(p[*isp], i as u64 + 1);
        }
    }

    #[test]
    fn fraction_handles_empty() {
        let p: PerIsp<u64> = PerIsp::default();
        assert_eq!(p.fraction(Isp::Tele), 0.0);
    }

    #[test]
    fn group_indexing_works() {
        let mut g: PerGroup<Vec<f64>> = PerGroup::default();
        g[IspGroup::Other].push(1.0);
        assert_eq!(g[IspGroup::Other].len(), 1);
        assert!(g[IspGroup::Tele].is_empty());
    }
}
