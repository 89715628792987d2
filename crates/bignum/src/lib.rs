//! Arbitrary-precision unsigned integers for SPE search-space accounting.
//!
//! The SPE paper's Table 1 reports enumeration-set sizes on the order of
//! `10^163`, far beyond `u128`. This crate provides [`BigUint`], a small,
//! dependency-free big integer sufficient for the counting needs of the
//! workspace: addition, subtraction, multiplication, exponentiation,
//! division by machine words, decimal parsing/printing and base-10
//! magnitude estimation.
//!
//! # Examples
//!
//! ```
//! use spe_bignum::BigUint;
//!
//! let naive = BigUint::from(5u64).pow(5); // 5^5 fillings of Figure 2
//! assert_eq!(naive.to_string(), "3125");
//! assert_eq!(naive.log10().floor(), 3.0);
//! ```

#![forbid(unsafe_code)]

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, MulAssign, Sub, SubAssign};
use std::str::FromStr;

/// Number of bits in one limb.
const LIMB_BITS: u32 = 32;

/// An arbitrary-precision unsigned integer.
///
/// Stored as base-2^32 limbs in little-endian order with no trailing zero
/// limbs (the canonical representation of zero is an empty limb vector).
///
/// # Examples
///
/// ```
/// use spe_bignum::BigUint;
///
/// let a = BigUint::from(10u64).pow(20);
/// let b = &a * &a;
/// assert_eq!(b.to_string().len(), 41); // 10^40 has 41 digits
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u32>,
}

impl BigUint {
    /// The value `0`.
    ///
    /// ```
    /// assert!(spe_bignum::BigUint::zero().is_zero());
    /// ```
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    ///
    /// ```
    /// assert_eq!(spe_bignum::BigUint::one(), 1u64.into());
    /// ```
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` if the value is zero.
    ///
    /// ```
    /// use spe_bignum::BigUint;
    /// assert!(BigUint::from(0u64).is_zero());
    /// assert!(!BigUint::from(7u64).is_zero());
    /// ```
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of significant bits (zero has zero bits).
    ///
    /// ```
    /// use spe_bignum::BigUint;
    /// assert_eq!(BigUint::from(8u64).bits(), 4);
    /// assert_eq!(BigUint::zero().bits(), 0);
    /// ```
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * LIMB_BITS as u64 + (32 - top.leading_zeros()) as u64
            }
        }
    }

    /// Converts to `u64` if the value fits.
    ///
    /// ```
    /// use spe_bignum::BigUint;
    /// assert_eq!(BigUint::from(42u64).to_u64(), Some(42));
    /// assert_eq!(BigUint::from(2u64).pow(100).to_u64(), None);
    /// ```
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | (self.limbs[1] as u64) << 32),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 4 {
            return None;
        }
        let mut v: u128 = 0;
        for (i, &l) in self.limbs.iter().enumerate() {
            v |= (l as u128) << (32 * i as u32);
        }
        Some(v)
    }

    /// Lossy conversion to `f64` (`f64::INFINITY` when too large).
    ///
    /// ```
    /// use spe_bignum::BigUint;
    /// assert_eq!(BigUint::from(1u64 << 40).to_f64(), (1u64 << 40) as f64);
    /// ```
    pub fn to_f64(&self) -> f64 {
        let bits = self.bits();
        if bits == 0 {
            return 0.0;
        }
        if bits <= 64 {
            return self.to_u64().expect("fits in u64") as f64;
        }
        // Take the top limbs as a 64-bit mantissa and scale by the
        // remaining binary exponent.
        let top_limb = self.limbs.len() - 1;
        let mut mantissa: u64 = 0;
        let mut taken = 0u32;
        let mut idx = top_limb as isize;
        while taken < 64 && idx >= 0 {
            mantissa = (mantissa << 32) | self.limbs[idx as usize] as u64;
            taken += 32;
            idx -= 1;
        }
        let top_bits = 32 - self.limbs[top_limb].leading_zeros();
        let mantissa_bits = (taken - 32 + top_bits) as i64;
        let shift = bits as i64 - mantissa_bits;
        mantissa as f64 * 2f64.powi(shift as i32)
    }

    /// Approximate base-10 logarithm. Returns `0.0` for zero, which has no
    /// magnitude to report.
    ///
    /// ```
    /// use spe_bignum::BigUint;
    /// let x = BigUint::from(10u64).pow(163);
    /// assert!((x.log10() - 163.0).abs() < 1e-6);
    /// ```
    pub fn log10(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let bits = self.bits();
        if bits <= 64 {
            return (self.to_u64().expect("fits in u64") as f64).log10();
        }
        let f = self.to_f64();
        if f.is_finite() {
            f.log10()
        } else {
            // Mantissa-and-exponent path for values beyond f64 range.
            let top_limb = self.limbs.len() - 1;
            let mut mantissa: u64 = 0;
            let mut idx = top_limb as isize;
            let mut taken = 0;
            while taken < 2 && idx >= 0 {
                mantissa = (mantissa << 32) | self.limbs[idx as usize] as u64;
                idx -= 1;
                taken += 1;
            }
            let used_bits = 32 * taken as u64 - self.limbs[top_limb].leading_zeros() as u64;
            (mantissa as f64).log10() + (bits - used_bits) as f64 * 2f64.log10()
        }
    }

    /// Checked subtraction; returns `None` when `other > self`.
    ///
    /// ```
    /// use spe_bignum::BigUint;
    /// let a = BigUint::from(10u64);
    /// assert_eq!(a.checked_sub(&BigUint::from(4u64)), Some(BigUint::from(6u64)));
    /// assert_eq!(a.checked_sub(&BigUint::from(11u64)), None);
    /// ```
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i64;
            let b = *other.limbs.get(i).unwrap_or(&0) as i64;
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u32);
        }
        debug_assert_eq!(borrow, 0, "comparison guaranteed no borrow");
        let mut r = BigUint { limbs: out };
        r.normalize();
        Some(r)
    }

    /// Multiplies by a machine word in place.
    ///
    /// ```
    /// use spe_bignum::BigUint;
    /// let mut v = BigUint::one();
    /// v.mul_word(1_000_000_007);
    /// assert_eq!(v.to_u64(), Some(1_000_000_007));
    /// ```
    pub fn mul_word(&mut self, w: u64) {
        if w == 0 || self.is_zero() {
            self.limbs.clear();
            return;
        }
        let (lo, hi) = (w as u32 as u64, w >> 32);
        if hi == 0 {
            let mut carry: u64 = 0;
            for l in &mut self.limbs {
                let v = *l as u64 * lo + carry;
                *l = v as u32;
                carry = v >> 32;
            }
            while carry > 0 {
                self.limbs.push(carry as u32);
                carry >>= 32;
            }
        } else {
            let rhs = BigUint::from(w);
            let prod = &*self * &rhs;
            *self = prod;
        }
    }

    /// Divides by a machine word, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    ///
    /// ```
    /// use spe_bignum::BigUint;
    /// let (q, r) = BigUint::from(1001u64).divmod_word(10);
    /// assert_eq!((q.to_u64(), r), (Some(100), 1));
    /// ```
    pub fn divmod_word(&self, w: u64) -> (BigUint, u64) {
        assert!(w != 0, "division by zero");
        if w <= u32::MAX as u64 {
            let mut out = vec![0u32; self.limbs.len()];
            let mut rem: u64 = 0;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 32) | self.limbs[i] as u64;
                out[i] = (cur / w) as u32;
                rem = cur % w;
            }
            let mut q = BigUint { limbs: out };
            q.normalize();
            (q, rem)
        } else {
            let mut out = vec![0u32; self.limbs.len()];
            let mut rem: u128 = 0;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 32) | self.limbs[i] as u128;
                out[i] = (cur / w as u128) as u32;
                rem = cur % w as u128;
            }
            let mut q = BigUint { limbs: out };
            q.normalize();
            (q, rem as u64)
        }
    }

    /// Raises `self` to the power `exp` by binary exponentiation.
    ///
    /// ```
    /// use spe_bignum::BigUint;
    /// assert_eq!(BigUint::from(2u64).pow(10).to_u64(), Some(1024));
    /// assert_eq!(BigUint::from(7u64).pow(0).to_u64(), Some(1));
    /// ```
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Renders the value in scientific notation with three significant
    /// digits, e.g. `5.24e163`, matching the paper's Table 1 style. Values
    /// with at most seven digits are printed exactly.
    ///
    /// ```
    /// use spe_bignum::BigUint;
    /// assert_eq!(BigUint::from(1234u64).to_scientific(), "1234");
    /// assert_eq!(BigUint::from(10u64).pow(163).to_scientific(), "1.00e163");
    /// ```
    pub fn to_scientific(&self) -> String {
        let s = self.to_string();
        if s.len() <= 7 {
            return s;
        }
        let exp = s.len() - 1;
        let lead = &s[..1];
        let frac = &s[1..3];
        format!("{lead}.{frac}e{exp}")
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        let mut r = BigUint { limbs: vec![v] };
        r.normalize();
        r
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        let mut r = BigUint {
            limbs: vec![v as u32, (v >> 32) as u32],
        };
        r.normalize();
        r
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        let mut r = BigUint {
            limbs: vec![
                v as u32,
                (v >> 32) as u32,
                (v >> 64) as u32,
                (v >> 96) as u32,
            ],
        };
        r.normalize();
        r
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        BigUint::from(v as u64)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut out = Vec::with_capacity(long.limbs.len() + 1);
        let mut carry: u64 = 0;
        for i in 0..long.limbs.len() {
            let s = long.limbs[i] as u64 + *short.limbs.get(i).unwrap_or(&0) as u64 + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        BigUint { limbs: out }
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        &self + &rhs
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = &*self + rhs;
    }
}

impl AddAssign for BigUint {
    fn add_assign(&mut self, rhs: BigUint) {
        *self = &*self + &rhs;
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics on underflow; use [`BigUint::checked_sub`] to handle it.
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = &*self - rhs;
    }
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = out[i + j] as u64 + a as u64 * b as u64 + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut k = i + rhs.limbs.len();
            while carry > 0 {
                let cur = out[k] as u64 + carry;
                out[k] = cur as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        &self * &rhs
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = &*self * rhs;
    }
}

impl Sum for BigUint {
    fn sum<I: Iterator<Item = BigUint>>(iter: I) -> BigUint {
        let mut acc = BigUint::zero();
        for x in iter {
            acc += &x;
        }
        acc
    }
}

impl<'a> Sum<&'a BigUint> for BigUint {
    fn sum<I: Iterator<Item = &'a BigUint>>(iter: I) -> BigUint {
        let mut acc = BigUint::zero();
        for x in iter {
            acc += x;
        }
        acc
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divmod_word(1_000_000_000);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::new();
        for (i, c) in chunks.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&c.to_string());
            } else {
                s.push_str(&format!("{c:09}"));
            }
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

/// Error returned when parsing a [`BigUint`] from a malformed string.
///
/// ```
/// use spe_bignum::BigUint;
/// assert!("12x".parse::<BigUint>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError {
    offending: char,
}

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid digit {:?} in big integer literal",
            self.offending
        )
    }
}

impl std::error::Error for ParseBigUintError {}

impl FromStr for BigUint {
    type Err = ParseBigUintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseBigUintError { offending: ' ' });
        }
        let mut acc = BigUint::zero();
        for ch in s.chars() {
            let d = ch.to_digit(10).ok_or(ParseBigUintError { offending: ch })?;
            acc.mul_word(10);
            acc += &BigUint::from(d);
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_display() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::one().to_string(), "1");
    }

    #[test]
    fn add_small() {
        let a = BigUint::from(123u64);
        let b = BigUint::from(877u64);
        assert_eq!((&a + &b).to_u64(), Some(1000));
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        let s = &a + &b;
        assert_eq!(s.to_u128(), Some(u64::MAX as u128 + 1));
    }

    #[test]
    fn mul_matches_u128() {
        let a = BigUint::from(0xDEAD_BEEF_u64);
        let b = BigUint::from(0xFEED_FACE_CAFE_u64);
        assert_eq!(
            (&a * &b).to_u128(),
            Some(0xDEAD_BEEF_u128 * 0xFEED_FACE_CAFE_u128)
        );
    }

    #[test]
    fn pow_and_display_large() {
        let p = BigUint::from(10u64).pow(30);
        assert_eq!(p.to_string(), format!("1{}", "0".repeat(30)));
    }

    #[test]
    fn sub_roundtrip() {
        let a = BigUint::from(10u64).pow(25);
        let b = BigUint::from(987654321u64);
        let d = &a - &b;
        assert_eq!(&d + &b, a);
    }

    #[test]
    fn checked_sub_underflow() {
        let a = BigUint::from(1u64);
        let b = BigUint::from(2u64);
        assert_eq!(a.checked_sub(&b), None);
    }

    #[test]
    fn divmod_small_word() {
        let a = BigUint::from(12345678901234567890u128);
        let (q, r) = a.divmod_word(97);
        assert_eq!(
            (q.to_u128(), r as u128),
            (
                Some(12345678901234567890u128 / 97),
                12345678901234567890u128 % 97
            )
        );
    }

    #[test]
    fn divmod_large_word() {
        let a = BigUint::from(10u64).pow(40);
        let w = u64::MAX - 12;
        let (q, r) = a.divmod_word(w);
        let recomposed = &(&q * &BigUint::from(w)) + &BigUint::from(r);
        assert_eq!(recomposed, a);
    }

    #[test]
    fn parse_display_roundtrip() {
        let s = "987654321098765432109876543210987654321";
        let v: BigUint = s.parse().expect("valid literal");
        assert_eq!(v.to_string(), s);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigUint>().is_err());
        assert!("1a2".parse::<BigUint>().is_err());
    }

    #[test]
    fn ordering() {
        let a = BigUint::from(10u64).pow(10);
        let b = BigUint::from(10u64).pow(11);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn to_f64_small_and_large() {
        assert_eq!(BigUint::from(12345u64).to_f64(), 12345.0);
        let big = BigUint::from(2u64).pow(80);
        let expect = 2f64.powi(80);
        assert!((big.to_f64() - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn log10_of_powers_of_ten() {
        for e in [1u32, 5, 20, 100, 163] {
            let v = BigUint::from(10u64).pow(e);
            assert!(
                (v.log10() - e as f64).abs() < 1e-6,
                "log10(10^{e}) = {}",
                v.log10()
            );
        }
    }

    #[test]
    fn log10_beyond_f64_range() {
        let v = BigUint::from(10u64).pow(400);
        assert!((v.log10() - 400.0).abs() < 1e-4);
    }

    #[test]
    fn scientific_notation() {
        let v: BigUint = "52400000000000000000".parse().expect("valid");
        assert_eq!(v.to_scientific(), "5.24e19");
        assert_eq!(BigUint::from(99u64).to_scientific(), "99");
    }

    #[test]
    fn sum_iterator() {
        let total: BigUint = (1u64..=100).map(BigUint::from).sum();
        assert_eq!(total.to_u64(), Some(5050));
    }

    #[test]
    fn mul_word_in_place() {
        let mut v = BigUint::from(1u64);
        for _ in 0..25 {
            v.mul_word(10);
        }
        assert_eq!(v.to_string(), format!("1{}", "0".repeat(25)));
    }

    #[test]
    fn mul_word_with_high_bits() {
        let mut v = BigUint::from(3u64);
        v.mul_word(u64::MAX);
        assert_eq!(v.to_u128(), Some(3u128 * u64::MAX as u128));
    }

    #[test]
    fn bits_counts() {
        assert_eq!(BigUint::from(1u64).bits(), 1);
        assert_eq!(BigUint::from(255u64).bits(), 8);
        assert_eq!(BigUint::from(256u64).bits(), 9);
        assert_eq!(BigUint::from(2u64).pow(200).bits(), 201);
    }
}
