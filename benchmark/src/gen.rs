//! Seeded inputs: every random choice of a run derives from `--seed`.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Independent generator for one purpose (`stream`) of a run.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17))
}

/// Poisson arrivals: due times in nanoseconds from the phase origin, at
/// `rate` per second, up to `horizon_ns`.
pub fn poisson_schedule(rng: &mut StdRng, rate: f64, horizon_ns: u64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate * horizon_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // u in (0, 1]: 53 random bits, never zero.
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate * 1e9;
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// Uniform key choice for `n` operations over `keys` keys.
pub fn key_sequence(rng: &mut StdRng, keys: usize, n: usize) -> Vec<u32> {
    (0..n)
        .map(|_| (rng.next_u64() % keys as u64) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs_and_other_seeds_differ() {
        let sched = |seed| poisson_schedule(&mut rng_for(seed, 3), 4000.0, 1_000_000_000);
        let keys = |seed| key_sequence(&mut rng_for(seed, 4), 8, 512);
        assert_eq!(sched(7), sched(7));
        assert_eq!(keys(7), keys(7));
        assert_ne!(sched(7), sched(8));
        assert_ne!(keys(7), keys(8));
        // Streams of one seed are independent too.
        assert_ne!(
            key_sequence(&mut rng_for(7, 4), 8, 512),
            key_sequence(&mut rng_for(7, 5), 8, 512)
        );
    }

    #[test]
    fn schedule_is_ascending_at_the_asked_rate() {
        let s = sched_len(4000.0);
        assert!((3800..4200).contains(&s), "{s} arrivals in 1 s at 4000/s");
        let due = poisson_schedule(&mut rng_for(1, 0), 500.0, 2_000_000_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 2_000_000_000);
    }

    fn sched_len(rate: f64) -> usize {
        poisson_schedule(&mut rng_for(11, 0), rate, 1_000_000_000).len()
    }

    #[test]
    fn keys_cover_the_range() {
        let k = key_sequence(&mut rng_for(5, 0), 8, 1000);
        assert!(k.iter().all(|&i| i < 8));
        assert!((0..8).all(|i| k.contains(&i)));
    }
}
