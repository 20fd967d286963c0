//! Oracles: what every op's result is checked against. Written here, from
//! the problem definitions, and never calling the tiled runtime, the
//! compiler or the solvers in `dpgen-problems` — an oracle that shared code
//! with the system under test would agree with its bugs. All of them stream
//! (two rows / two layers), so the process's peak RSS stays the system's.

/// Length of the longest common subsequence, two-row dynamic program.
pub fn lcs_len(a: &[u8], b: &[u8]) -> i64 {
    let mut prev = vec![0i64; b.len() + 1];
    let mut cur = vec![0i64; b.len() + 1];
    for &ca in a {
        for (j, &cb) in b.iter().enumerate() {
            cur[j + 1] = if ca == cb {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// `V(0,0,0,0)` of the 2-arm Bernoulli bandit with horizon `n` and
/// Beta(`a_i`, `b_i`) priors (the paper's Section II), computed layer by
/// layer over the number of trials spent: a state with `t` trials spent
/// depends only on states with `t + 1`, so two layers suffice. The
/// arithmetic is written in the order the recurrence is stated, which is
/// also what the kernel does, but the oracle is compared with a tolerance
/// (see [`close`]) so it does not depend on that.
pub fn bandit2_value(n: i64, prior1: (f64, f64), prior2: (f64, f64)) -> f64 {
    let side = (n + 2) as usize;
    let at = |s1: i64, f1: i64, s2: i64| (s1 as usize * side + f1 as usize) * side + s2 as usize;
    // Indexed by (s1, f1, s2); f2 is implied by the layer's trial total.
    let mut next = vec![0f64; side * side * side];
    let mut cur = vec![0f64; side * side * side];
    for total in (0..=n).rev() {
        for s1 in 0..=total {
            for f1 in 0..=total - s1 {
                for s2 in 0..=total - s1 - f1 {
                    let f2 = total - s1 - f1 - s2;
                    cur[at(s1, f1, s2)] = if total == n {
                        (s1 + s2) as f64
                    } else {
                        let p1 = (prior1.0 + s1 as f64) / (prior1.0 + prior1.1 + (s1 + f1) as f64);
                        let p2 = (prior2.0 + s2 as f64) / (prior2.0 + prior2.1 + (s2 + f2) as f64);
                        let v1 =
                            p1 * next[at(s1 + 1, f1, s2)] + (1.0 - p1) * next[at(s1, f1 + 1, s2)];
                        // A pull of arm 2 that fails leaves (s1, f1, s2)
                        // unchanged and only raises f2.
                        let v2 = p2 * next[at(s1, f1, s2 + 1)] + (1.0 - p2) * next[at(s1, f1, s2)];
                        v1.max(v2)
                    };
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    next[at(0, 0, 0)]
}

/// Floating-point agreement: relative error below 1e-12.
pub fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-12 * want.abs().max(1.0)
}

/// Binomial coefficient (exact; panics on overflow, which no benchmark
/// size approaches).
pub fn binomial(n: u64, k: u64) -> u64 {
    assert!(k <= n, "binomial({n}, {k})");
    let k = k.min(n - k);
    let mut c: u128 = 1;
    for i in 0..k {
        c = c * (n - i) as u128 / (i + 1) as u128;
    }
    u64::try_from(c).expect("binomial fits u64")
}

/// Lattice points of the simplex `x_1 + … + x_d <= n`, `x_i >= 0`.
pub fn simplex_points(d: u64, n: u64) -> u64 {
    binomial(n + d, d)
}

/// 64-bit FNV-1a, for comparing emitted C source across ops.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Structural check of an emitted C program: nonempty, names the problem,
/// and braces and parentheses balance (the repo's own convention for
/// emitted code, which cannot be compiled here: no MPI toolchain).
pub fn c_source_plausible(src: &str, problem: &str) -> bool {
    let count = |c: char| src.matches(c).count();
    src.contains(problem)
        && src.contains("#include <mpi.h>")
        && count('{') > 0
        && count('{') == count('}')
        && count('(') == count(')')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcs_known_values() {
        assert_eq!(lcs_len(b"ABCBDAB", b"BDCABA"), 4);
        assert_eq!(lcs_len(b"", b"ACGT"), 0);
        assert_eq!(lcs_len(b"ACGT", b"ACGT"), 4);
        assert_eq!(lcs_len(b"AAAA", b"CCCC"), 0);
    }

    /// Brute force over all policies is exponential; instead check the
    /// small horizons whose values are known in closed form for uniform
    /// priors: N = 1 gives 1/2, N = 2 gives 1/2 + max over the second pull
    /// = 1/2 + (1/2 * 2/3 + 1/2 * 1/2) = 13/12.
    #[test]
    fn bandit_small_horizons() {
        let u = (1.0, 1.0);
        assert!(close(bandit2_value(0, u, u), 0.0));
        assert!(close(bandit2_value(1, u, u), 0.5));
        assert!(close(bandit2_value(2, u, u), 13.0 / 12.0));
    }

    #[test]
    fn bandit_is_monotone_in_the_horizon_and_beats_one_arm() {
        let u = (1.0, 1.0);
        let mut last = 0.0;
        for n in 1..12 {
            let v = bandit2_value(n, u, u);
            // Playing one arm blindly earns n/2; adapting earns more.
            assert!(v >= n as f64 / 2.0 && v > last, "n={n} v={v}");
            last = v;
        }
    }

    #[test]
    fn closed_forms() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(84, 4), 1_929_501);
        assert_eq!(simplex_points(4, 80), 1_929_501);
        assert_eq!(simplex_points(2, 3), 10);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn c_source_check_rejects_truncated_output() {
        let ok = "/* p */\n#include <mpi.h>\nint main(void) { return 0; }\n";
        assert!(c_source_plausible(ok, "p"));
        assert!(!c_source_plausible(&ok[..ok.len() - 3], "p"));
        assert!(!c_source_plausible(ok, "q"));
    }
}
