//! Minimal randomness abstraction used throughout the workspace.
//!
//! `spfe-math` stays dependency-free, so instead of depending on `rand` it
//! defines the tiny [`RandomSource`] trait. Cryptographic implementations
//! (ChaCha20 seeded from the OS) live in `spfe-crypto`; this module only
//! provides [`XorShiftRng`], a fast deterministic generator for tests and
//! non-cryptographic workload generation.

/// A source of uniformly random 64-bit words.
///
/// Implementors must produce independent, uniformly distributed outputs; for
/// cryptographic protocols use a cryptographically secure implementation
/// (e.g. `spfe_crypto::ChaChaRng`).
pub trait RandomSource {
    /// Returns the next random 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Fills `buf` with random bytes.
    fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: zero bound");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniformly random boolean.
    fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

impl<R: RandomSource + ?Sized> RandomSource for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// One generator drawn from by several owners in turn.
///
/// A protocol's client and server state machines each own a
/// [`RandomSource`]; running them in one process over a shared
/// `&SharedRng` makes them draw from the caller's generator in exactly
/// the order the parties act, so an in-memory run consumes the same
/// stream as a sequential execution of both parties.
#[derive(Debug)]
pub struct SharedRng<'a, R: ?Sized>(std::cell::RefCell<&'a mut R>);

impl<'a, R: RandomSource + ?Sized> SharedRng<'a, R> {
    /// Shares `rng`.
    pub fn new(rng: &'a mut R) -> Self {
        SharedRng(std::cell::RefCell::new(rng))
    }
}

impl<R: RandomSource + ?Sized> RandomSource for &SharedRng<'_, R> {
    fn next_u64(&mut self) -> u64 {
        self.0.borrow_mut().next_u64()
    }
    fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.0.borrow_mut().fill_bytes(buf);
    }
    fn next_below(&mut self, bound: u64) -> u64 {
        self.0.borrow_mut().next_below(bound)
    }
    fn next_bool(&mut self) -> bool {
        self.0.borrow_mut().next_bool()
    }
}

/// A xorshift64* generator: fast and deterministic. **Not** cryptographically
/// secure; use only for tests, simulations, and workload generation.
///
/// # Examples
///
/// ```
/// use spfe_math::{RandomSource, XorShiftRng};
/// let mut rng = XorShiftRng::new(1);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct XorShiftRng {
    state: u64,
}

impl XorShiftRng {
    /// Creates a generator from a seed (zero seeds are remapped).
    pub fn new(seed: u64) -> Self {
        XorShiftRng {
            state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
        }
    }
}

impl RandomSource for XorShiftRng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShiftRng::new(99);
        let mut b = XorShiftRng::new(99);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut rng = XorShiftRng::new(0);
        assert_ne!(rng.next_u64(), 0);
    }

    #[test]
    fn next_below_in_range() {
        let mut rng = XorShiftRng::new(3);
        for bound in [1u64, 2, 7, 1000, u64::MAX] {
            for _ in 0..20 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = XorShiftRng::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
