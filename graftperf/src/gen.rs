//! Seeded input generation. Every input the program receives is drawn
//! here, from `--seed`, before any timed window opens.

use graft_rng::SmallRng;

/// How references are spread over a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spread {
    /// 80% of references go to 20% of the domain.
    Skewed,
    /// Every element is equally likely.
    Uniform,
}

/// A seeded stream of choices over `0..domain` with a fixed spread.
/// The hot fifth is a random subset, not the low ids.
pub struct Chooser {
    rng: SmallRng,
    perm: Vec<u64>,
    spread: Spread,
}

impl Chooser {
    /// A chooser over `domain` elements.
    pub fn new(seed: u64, domain: u64, spread: Spread) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut perm: Vec<u64> = (0..domain).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.bounded_u64(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        Chooser { rng, perm, spread }
    }

    /// The elements the skewed spread favours.
    pub fn hot_set(&self) -> &[u64] {
        &self.perm[..self.hot_len()]
    }

    fn hot_len(&self) -> usize {
        (self.perm.len() / 5).max(1)
    }

    /// The next choice.
    pub fn next(&mut self) -> u64 {
        let n = self.perm.len() as u64;
        let i = match self.spread {
            Spread::Uniform => self.rng.bounded_u64(n),
            Spread::Skewed => {
                let hot = self.hot_len() as u64;
                if self.rng.gen_f64() < 0.8 || hot == n {
                    self.rng.bounded_u64(hot)
                } else {
                    hot + self.rng.bounded_u64(n - hot)
                }
            }
        };
        self.perm[i as usize]
    }

    /// The next `n` choices.
    pub fn take(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next()).collect()
    }

    /// A uniform draw below `bound`, from the same stream.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.rng.bounded_u64(bound)
    }

    /// A uniform draw in [0, 1).
    pub fn unit(&mut self) -> f64 {
        self.rng.gen_f64()
    }
}

/// Seeded bytes.
pub fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Poisson arrival offsets (ns from the window start) at `rate` per
/// second for `window_ns`.
pub fn poisson(seed: u64, rate: f64, window_ns: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * window_ns as f64 / 1e9) as usize + 16);
    loop {
        t += -(1.0 - rng.gen_f64()).ln() / rate * 1e9;
        if t >= window_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Derives an independent stream seed for one input of one run.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Chooser::new(3, 100, Spread::Skewed).take(50);
        let b = Chooser::new(3, 100, Spread::Skewed).take(50);
        assert_eq!(a, b);
        assert_ne!(a, Chooser::new(4, 100, Spread::Skewed).take(50));
        assert_eq!(
            poisson(1, 1000.0, 1_000_000_000),
            poisson(1, 1000.0, 1_000_000_000)
        );
    }

    #[test]
    fn skew_puts_most_references_on_the_hot_fifth() {
        let mut c = Chooser::new(9, 1000, Spread::Skewed);
        let hot: std::collections::HashSet<u64> = c.hot_set().iter().copied().collect();
        let picks = c.take(10_000);
        let on_hot = picks.iter().filter(|p| hot.contains(p)).count();
        assert!((7_500..8_500).contains(&on_hot), "{on_hot}");
    }

    #[test]
    fn poisson_rate_is_close_to_the_target() {
        let n = poisson(5, 10_000.0, 1_000_000_000).len();
        assert!((9_500..10_500).contains(&n), "{n}");
    }
}
