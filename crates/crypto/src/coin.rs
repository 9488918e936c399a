//! The common coin: shared randomness for leader election.
//!
//! DAG-Rider (and our asymmetric variant) elects one wave leader through a
//! *common coin* `chooseLeader_i(w)` with three properties:
//!
//! * **Matching** — all (wise) processes obtain the same value for wave `w`;
//! * **Unpredictability** — the adversary cannot bias its schedule on coin
//!   values of unfinished waves;
//! * **Termination** — the coin always outputs.
//!
//! The paper instantiates this with the asymmetric common coin of Alpos et
//! al., which rests on threshold cryptography. Following the substitution
//! policy of `DESIGN.md` (§4), this crate provides a **trusted-dealer
//! simulation**: the coin value for wave `w` is `SHA-256(seed ‖ w)`, mapped
//! uniformly onto the process set. Matching holds because the seed is shared;
//! unpredictability holds in the simulation because adversarial schedulers
//! are seeded independently of (and fixed before) the coin seed; termination
//! is immediate. Nothing enforces DAG-Rider's reveal discipline (query the
//! coin for wave `w` only once the wave finished), and one caller could not
//! follow it: delivered-state transfer checks a segment's leader against the
//! coin for waves the receiver never finished. The simulated coin allows
//! this because no scheduler reads it.

use asym_quorum::ProcessId;

use crate::{Digest, Sha256};

/// A trusted-dealer common coin producing one uniformly distributed process
/// id per wave.
///
/// # Examples
///
/// ```
/// use asym_crypto::CommonCoin;
///
/// let coin = CommonCoin::new(7, 10);
/// // Matching: every holder of the same seed sees the same leader.
/// assert_eq!(coin.leader(3), CommonCoin::new(7, 10).leader(3));
/// assert!(coin.leader(3).index() < 10);
/// ```
#[derive(Clone, Debug)]
pub struct CommonCoin {
    seed: u64,
    n: usize,
}

impl CommonCoin {
    /// Creates a coin for a system of `n` processes from a dealer seed.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(seed: u64, n: usize) -> Self {
        assert!(n > 0, "coin needs a non-empty process set");
        CommonCoin { seed, n }
    }

    /// Number of processes the coin draws from.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Raw 256-bit coin value for `wave`.
    pub fn value(&self, wave: u64) -> Digest {
        let mut h = Sha256::new();
        h.update(b"asym-dag-rider/coin/v1");
        h.update(&self.seed.to_be_bytes());
        h.update(&wave.to_be_bytes());
        h.finalize()
    }

    /// The elected leader of `wave`: `value(wave) mod n`.
    ///
    /// The modulo bias is at most `n / 2^128` — negligible for any realistic
    /// `n` (the paper only needs uniformity for the `c(Q)/|P|` commit-rate
    /// bound of Lemma 4.4).
    pub fn leader(&self, wave: u64) -> ProcessId {
        ProcessId::new((self.value(wave).to_u128() % self.n as u128) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_across_instances() {
        let a = CommonCoin::new(99, 30);
        let b = CommonCoin::new(99, 30);
        for w in 0..100 {
            assert_eq!(a.leader(w), b.leader(w));
            assert_eq!(a.value(w), b.value(w));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = CommonCoin::new(1, 30);
        let b = CommonCoin::new(2, 30);
        let same = (0..64).filter(|w| a.leader(*w) == b.leader(*w)).count();
        assert!(same < 16, "independent seeds should rarely agree ({same}/64)");
    }

    #[test]
    fn leaders_in_range_and_roughly_uniform() {
        let coin = CommonCoin::new(42, 10);
        let mut counts = [0usize; 10];
        let draws = 10_000;
        for w in 0..draws {
            let l = coin.leader(w).index();
            assert!(l < 10);
            counts[l] += 1;
        }
        // Each process should get ~1000 draws; allow generous slack (±35%).
        for (i, c) in counts.iter().enumerate() {
            assert!((650..=1350).contains(c), "process {i} drawn {c} times out of {draws}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty process set")]
    fn zero_process_coin_rejected() {
        let _ = CommonCoin::new(0, 0);
    }
}
