//! The one timing form of this crate: a claim's variants run interleaved,
//! once each per round in rotated order, so a slow stretch of the host
//! lands on every variant alike, and ratios are taken round by round.

use std::time::Instant;

/// A timed call on its round's input; returns the seconds it ran.
pub type Variant<'a, I> = Box<dyn FnMut(&mut I) -> f64 + 'a>;

/// `f` as a variant; its result is dropped after the clock stops.
#[allow(clippy::disallowed_methods, reason = "the harness's one timer")]
pub fn variant<'a, I, R>(mut f: impl FnMut(&mut I) -> R + 'a) -> Variant<'a, I> {
    Box::new(move |input| {
        let start = Instant::now();
        let _out = std::hint::black_box(f(input));
        start.elapsed().as_secs_f64()
    })
}

/// `rounds` rounds of the `n` `variants`, each on the input `prepare` makes
/// for its round (untimed) and starting at variant `round % n`, so each
/// variant runs first in ⌊rounds / n⌋ or ⌈rounds / n⌉ of them; ratios are
/// to `variants[baseline]`.
pub fn paired<I>(
    rounds: usize,
    baseline: usize,
    mut prepare: impl FnMut() -> I,
    mut variants: Vec<Variant<'_, I>>,
) -> Vec<Timing> {
    let n = variants.len();
    let mut samples = vec![Vec::with_capacity(rounds); n];
    for round in 0..rounds {
        let mut input = prepare();
        for k in (round..round + n).map(|k| k % n) {
            samples[k].push(variants[k](&mut input));
        }
    }
    report(samples, baseline)
}

/// One variant's samples (seconds, in round order), its best, its
/// quartiles and its per-round ratio to the baseline.
#[derive(Debug, Clone)]
pub struct Timing {
    pub samples: Vec<f64>,
    pub best: f64,
    pub q: [f64; 3],
    pub ratio: Ratio,
}

/// The statistics of each variant's samples against `samples[baseline]`.
pub fn report(samples: Vec<Vec<f64>>, baseline: usize) -> Vec<Timing> {
    let base = samples[baseline].clone();
    let timing = |samples: Vec<f64>| Timing {
        best: samples.iter().copied().fold(f64::INFINITY, f64::min),
        q: quartiles(&samples),
        ratio: Ratio::of(&samples, &base),
        samples,
    };
    samples.into_iter().map(timing).collect()
}

/// A per-round ratio `num[r] / den[r]`: its quartiles, and the rounds
/// `num` ran faster (`wins`) and slower (`losses`); a tie is neither.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub q: [f64; 3],
    pub wins: usize,
    pub losses: usize,
}

impl Ratio {
    /// The ratio of `num` to `den`, two variants' samples of the same rounds.
    pub fn of(num: &[f64], den: &[f64]) -> Ratio {
        assert_eq!(num.len(), den.len(), "one sample a round each");
        let pairs = || num.iter().zip(den);
        Ratio {
            q: quartiles(&pairs().map(|(n, d)| n / d).collect::<Vec<_>>()),
            wins: pairs().filter(|(n, d)| n < d).count(),
            losses: pairs().filter(|(n, d)| n > d).count(),
        }
    }
}

/// Lower quartile, median and upper quartile of `v`, each interpolated
/// linearly between the order statistics around it.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let at = p * (s.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (at - lo as f64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn ratios_and_wins_are_per_round_and_a_tie_is_neither() {
        let r = Ratio::of(&[1.0, 2.0, 3.0, 8.0], &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(r.q, [0.875, 1.25, 2.125]);
        assert_eq!((r.wins, r.losses), (1, 2));
        let t = report(vec![vec![2.0, 4.0, 6.0], vec![1.0, 4.0, 3.0]], 0);
        assert_eq!(
            (t[0].ratio.q, t[0].ratio.wins, t[0].ratio.losses),
            ([1.0; 3], 0, 0)
        );
        assert_eq!((t[1].best, t[1].q[1], t[1].ratio.q[1]), (1.0, 3.0, 0.5));
        assert_eq!((t[1].ratio.wins, t[1].ratio.losses), (2, 0));
    }

    #[test]
    fn rotation_gives_each_variant_the_first_slot_evenly() {
        for (rounds, n) in [(10, 3), (9, 3), (7, 4), (2, 5)] {
            // Per round, the variants in the order they ran.
            let order = std::cell::RefCell::new(Vec::<Vec<usize>>::new());
            let variants = (0..n)
                .map(|k| {
                    let order = &order;
                    variant(move |_: &mut ()| order.borrow_mut().last_mut().unwrap().push(k))
                })
                .collect();
            paired(rounds, 0, || order.borrow_mut().push(Vec::new()), variants);
            let mut first = vec![0; n];
            for round in order.into_inner() {
                let mut sorted = round.clone();
                sorted.sort();
                assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "every variant once");
                first[round[0]] += 1;
            }
            let (lo, hi) = (rounds / n, rounds.div_ceil(n));
            assert!(first.iter().all(|&f| f == lo || f == hi), "{first:?}");
        }
    }

    #[test]
    fn every_round_prepares_once_and_runs_every_variant_on_its_input() {
        let mut prepared = 0;
        let t = paired(
            4,
            0,
            || {
                prepared += 1;
                Vec::new()
            },
            vec![
                variant(|seen: &mut Vec<char>| seen.push('a')),
                variant(|seen: &mut Vec<char>| {
                    assert!(seen.len() <= 1, "a round's input is its own");
                    seen.push('b')
                }),
            ],
        );
        assert_eq!(prepared, 4);
        assert!(t.iter().all(|v| v.samples.len() == 4 && v.best >= 0.0));
    }
}
