//! Fixed-width little-endian limb arithmetic on `[u64; L]` arrays.
//!
//! Every routine here is `const fn` where the const evaluator allows it so
//! that per-field Montgomery constants can be derived at compile time by the
//! [`define_prime_field!`](crate::define_prime_field) macro. The same
//! routines back the runtime [`MontCtx`](crate::mont::MontCtx) used by
//! tooling (primality testing, parameter validation).
//!
//! Conventions:
//! * limb order is little-endian (`a[0]` is least significant);
//! * all modular routines assume operands are already reduced (`< modulus`)
//!   unless stated otherwise;
//! * reduction steps use branchless conditional subtraction so the memory
//!   access pattern does not depend on secret values. Exponentiation is
//!   provided in variable-time form only (see [`crate::field`] for the
//!   side-channel discussion).

/// Add with carry: returns `(sum, carry)` for `a + b + carry`.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// Subtract with borrow: returns `(diff, borrow)` for `a - b - borrow`,
/// where `borrow` is `0` or `1` on input and output.
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// Multiply-accumulate: returns `(lo, hi)` of `acc + a * b + carry`.
#[inline(always)]
pub const fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = acc as u128 + (a as u128) * (b as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a + b`, returning the sum and the outgoing carry bit.
pub const fn add_carry<const L: usize>(a: &[u64; L], b: &[u64; L]) -> ([u64; L], u64) {
    let mut out = [0u64; L];
    let mut carry = 0u64;
    let mut i = 0;
    while i < L {
        let (s, c) = adc(a[i], b[i], carry);
        out[i] = s;
        carry = c;
        i += 1;
    }
    (out, carry)
}

/// `a - b`, returning the difference and the outgoing borrow bit.
pub const fn sub_borrow<const L: usize>(a: &[u64; L], b: &[u64; L]) -> ([u64; L], u64) {
    let mut out = [0u64; L];
    let mut borrow = 0u64;
    let mut i = 0;
    while i < L {
        let (d, bo) = sbb(a[i], b[i], borrow);
        out[i] = d;
        borrow = bo;
        i += 1;
    }
    (out, borrow)
}

/// Three-way comparison. Returns `-1`, `0`, or `1`.
pub const fn cmp<const L: usize>(a: &[u64; L], b: &[u64; L]) -> i32 {
    let mut i = L;
    while i > 0 {
        i -= 1;
        if a[i] < b[i] {
            return -1;
        }
        if a[i] > b[i] {
            return 1;
        }
    }
    0
}

/// True iff every limb is zero.
pub const fn is_zero<const L: usize>(a: &[u64; L]) -> bool {
    let mut acc = 0u64;
    let mut i = 0;
    while i < L {
        acc |= a[i];
        i += 1;
    }
    acc == 0
}

/// Branchless select: returns `b` if `choice == 1`, `a` if `choice == 0`.
#[inline(always)]
pub const fn select<const L: usize>(a: &[u64; L], b: &[u64; L], choice: u64) -> [u64; L] {
    let mask = choice.wrapping_neg(); // 0 or all-ones
    let mut out = [0u64; L];
    let mut i = 0;
    while i < L {
        out[i] = (a[i] & !mask) | (b[i] & mask);
        i += 1;
    }
    out
}

/// Modular addition for reduced operands: `(a + b) mod m`.
///
/// Correct even when the modulus occupies the full `64·L` bits (the carry
/// bit out of the raw addition is folded into the conditional subtraction).
pub const fn add_mod<const L: usize>(a: &[u64; L], b: &[u64; L], m: &[u64; L]) -> [u64; L] {
    let (sum, carry) = add_carry(a, b);
    let (diff, borrow) = sub_borrow(&sum, m);
    // If the raw addition overflowed, the subtraction of m is definitely
    // needed (sum >= 2^{64L} > m). Otherwise it is needed iff sum >= m,
    // i.e. iff the trial subtraction did not borrow.
    let need = carry | (1 - borrow);
    select(&sum, &diff, need & 1)
}

/// Modular subtraction for reduced operands: `(a - b) mod m`.
pub const fn sub_mod<const L: usize>(a: &[u64; L], b: &[u64; L], m: &[u64; L]) -> [u64; L] {
    let (diff, borrow) = sub_borrow(a, b);
    let (fixed, _) = add_carry(&diff, m);
    select(&diff, &fixed, borrow)
}

/// Modular negation for a reduced operand: `(-a) mod m`.
pub const fn neg_mod<const L: usize>(a: &[u64; L], m: &[u64; L]) -> [u64; L] {
    let (diff, _) = sub_borrow(m, a);
    let zero = [0u64; L];
    let az = if is_zero(a) { 1u64 } else { 0u64 };
    select(&diff, &zero, az)
}

/// Modular doubling for a reduced operand.
pub const fn double_mod<const L: usize>(a: &[u64; L], m: &[u64; L]) -> [u64; L] {
    add_mod(a, a, m)
}

/// `-m[0]^{-1} mod 2^64` — the Montgomery reduction constant.
///
/// # Panics
///
/// Panics (at compile time when used in const context) if `m0` is even.
pub const fn mont_n0inv(m0: u64) -> u64 {
    assert!(m0 & 1 == 1, "montgomery modulus must be odd");
    // Newton iteration: each step doubles the number of correct low bits.
    let mut inv = m0; // correct to 3 bits for odd m0 (actually to 2^3)
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// Montgomery multiplication (CIOS): returns `a · b · R^{-1} mod m` where
/// `R = 2^{64·L}`. Operands must be reduced; the result is reduced.
pub const fn mont_mul<const L: usize>(
    a: &[u64; L],
    b: &[u64; L],
    m: &[u64; L],
    n0inv: u64,
) -> [u64; L] {
    // t holds L+2 limbs of running state: t[0..L], t_hi, t_top.
    let mut t = [0u64; L];
    let mut t_hi = 0u64;
    let mut t_top = 0u64;

    let mut i = 0;
    while i < L {
        // t += a[i] * b
        let mut carry = 0u64;
        let mut j = 0;
        while j < L {
            let (lo, hi) = mac(t[j], a[i], b[j], carry);
            t[j] = lo;
            carry = hi;
            j += 1;
        }
        let (lo, c2) = adc(t_hi, carry, 0);
        t_hi = lo;
        t_top += c2;

        // reduce: u = t[0] * n0inv; t += u * m; t >>= 64
        let u = t[0].wrapping_mul(n0inv);
        let (_, mut carry) = mac(t[0], u, m[0], 0);
        let mut j = 1;
        while j < L {
            let (lo, hi) = mac(t[j], u, m[j], carry);
            t[j - 1] = lo;
            carry = hi;
            j += 1;
        }
        let (lo, c2) = adc(t_hi, carry, 0);
        t[L - 1] = lo;
        t_hi = t_top + c2;
        t_top = 0;
        i += 1;
    }

    // Final reduction: the invariant guarantees t < 2m, with t_hi the
    // 2^{64L} bit.
    let (diff, borrow) = sub_borrow(&t, m);
    let need = t_hi | (1 - borrow);
    select(&t, &diff, need & 1)
}

/// Montgomery squaring: symmetric schoolbook square ([`wide_sqr`], about
/// half the limb products of a general multiply) followed by one
/// [`mont_reduce_wide`]. Returns exactly `mont_mul(a, a, m, n0inv)` —
/// both paths end on the canonical representative.
/// Callers must pass `L2 = 2·L` explicitly (const-generic arithmetic
/// cannot derive it); the field macro monomorphises both from `$limbs`.
pub const fn mont_sqr<const L: usize, const L2: usize>(
    a: &[u64; L],
    m: &[u64; L],
    n0inv: u64,
) -> [u64; L] {
    let wide: Wide<L2> = wide_sqr(a);
    mont_reduce_wide(&wide.lo, wide.hi, m, n0inv)
}

/// An **unreduced** double-width Montgomery accumulator: the value
/// `lo + hi·2^{64·L2}` where `lo` is `L2 = 2L` little-endian limbs and
/// `hi` an explicit overflow limb.
///
/// A product of two reduced Montgomery operands (`< p`) always fits in
/// `lo`; `hi` buys headroom to *accumulate* many such products (and
/// modulus-squared complements for lazy subtraction) before paying a
/// single [`mont_reduce_wide`]. With `p ≈ 2^{64·L−1}` (the 0x8000…
/// supersingular moduli) each accumulated term is at most `p² ≈ 2^{128·L}/4`,
/// so `hi` overflows only after ~2⁶⁶ additions — far beyond any
/// accumulation the `F_{p²}` tower performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wide<const L2: usize> {
    /// Low `2L` limbs, little-endian.
    pub lo: [u64; L2],
    /// Overflow beyond `2^{64·L2}`.
    pub hi: u64,
}

impl<const L2: usize> Wide<L2> {
    /// The zero accumulator.
    pub const fn zero() -> Self {
        Self {
            lo: [0u64; L2],
            hi: 0,
        }
    }
}

/// Full double-width schoolbook product `a·b` (no reduction).
///
/// `L2` must equal `2·L` (compile-time asserted); the result's `hi` is
/// always zero but is carried so products feed directly into the
/// accumulator algebra ([`wide_add`], [`wide_sub_from`]).
pub const fn wide_mul<const L: usize, const L2: usize>(a: &[u64; L], b: &[u64; L]) -> Wide<L2> {
    assert!(L2 == 2 * L, "wide product needs exactly 2L limbs");
    let mut t = [0u64; L2];
    let mut i = 0;
    while i < L {
        let mut carry = 0u64;
        let mut j = 0;
        while j < L {
            let (lo, hi) = mac(t[i + j], a[i], b[j], carry);
            t[i + j] = lo;
            carry = hi;
            j += 1;
        }
        t[i + L] = carry;
        i += 1;
    }
    Wide { lo: t, hi: 0 }
}

/// Double-width **squaring**: computes the `i < j` cross products once,
/// doubles them with a shift, and adds the diagonal squares — `L(L+1)/2`
/// limb multiplications instead of the `L²` of [`wide_mul`].
pub const fn wide_sqr<const L: usize, const L2: usize>(a: &[u64; L]) -> Wide<L2> {
    assert!(L2 == 2 * L, "wide square needs exactly 2L limbs");
    let mut t = [0u64; L2];
    // Cross terms a[i]·a[j] for i < j, accumulated at positions i+j.
    let mut i = 0;
    while i < L {
        let mut carry = 0u64;
        let mut j = i + 1;
        while j < L {
            let (lo, hi) = mac(t[i + j], a[i], a[j], carry);
            t[i + j] = lo;
            carry = hi;
            j += 1;
        }
        if i + L < L2 {
            t[i + L] = carry;
        }
        i += 1;
    }
    // Double the cross terms (shift left one bit; the square fits 2L limbs,
    // so the outgoing bit is provably zero).
    let mut shifted_out = 0u64;
    let mut k = 0;
    while k < L2 {
        let next_out = t[k] >> 63;
        t[k] = (t[k] << 1) | shifted_out;
        shifted_out = next_out;
        k += 1;
    }
    // Add the diagonal squares a[i]² at positions 2i.
    let mut carry = 0u64;
    let mut i = 0;
    while i < L {
        let (lo, hi) = mac(t[2 * i], a[i], a[i], carry);
        t[2 * i] = lo;
        let (lo2, c2) = adc(t[2 * i + 1], hi, 0);
        t[2 * i + 1] = lo2;
        carry = c2;
        i += 1;
    }
    Wide { lo: t, hi: 0 }
}

/// Accumulator addition `a + b` (carries into `hi`).
pub const fn wide_add<const L2: usize>(a: &Wide<L2>, b: &Wide<L2>) -> Wide<L2> {
    let (lo, carry) = add_carry(&a.lo, &b.lo);
    Wide {
        lo,
        hi: a.hi + b.hi + carry,
    }
}

/// Lazy subtraction of a **single product** from an accumulator:
/// `a + (m² − b)` where `m2` is the squared modulus as `2L` limbs.
/// Because `b` is one product of reduced operands, `b ≤ (p−1)² < p² = m²`,
/// so the complement never borrows and the result's residue class mod `p`
/// equals `a − b`.
pub const fn wide_sub_from<const L2: usize>(
    a: &Wide<L2>,
    b: &Wide<L2>,
    m2: &[u64; L2],
) -> Wide<L2> {
    let (comp, borrow) = sub_borrow(m2, &b.lo);
    assert!(borrow == 0 && b.hi == 0, "lazy subtrahend must be a single product < m²");
    let (lo, carry) = add_carry(&a.lo, &comp);
    Wide {
        lo,
        hi: a.hi + carry,
    }
}

/// Add a Montgomery-form field element `x` (as `L` limbs) **shifted by
/// `R = 2^{64·L}`** into the accumulator: `a + x·R`. Since `REDC` divides
/// by `R`, this folds a fully-reduced addend into an unreduced product sum
/// for free: `REDC(ā·b̄ + x̄·R) = (a·b + x)·R mod p`.
pub const fn wide_add_shifted<const L2: usize>(a: &Wide<L2>, x: &[u64]) -> Wide<L2> {
    let l = L2 / 2;
    assert!(x.len() == l, "shifted addend must be L limbs");
    let mut lo = a.lo;
    let mut carry = 0u64;
    let mut i = 0;
    while i < l {
        let (s, c) = adc(lo[l + i], x[i], carry);
        lo[l + i] = s;
        carry = c;
        i += 1;
    }
    Wide {
        lo,
        hi: a.hi + carry,
    }
}

/// Generalized Montgomery reduction of an unreduced accumulator:
/// returns `(lo + hi·2^{64·L2}) · R^{-1} mod m`, fully reduced
/// (canonical), for **any** accumulator value — not just the `T < p·R`
/// bound of textbook REDC.
///
/// SOS shape: `L` rounds of `u = t[i]·n0inv; t += u·m << 64i`, carries
/// propagated through the upper limbs into the overflow word, then a
/// trailing subtract-while-≥m loop. The loop runs at most
/// `⌈T / (R·m)⌉ + 1` times — bounded by half the number of accumulated
/// products, independent of how small `m` is relative to `R` (variable
/// time, consistent with this crate's vartime arithmetic posture).
pub const fn mont_reduce_wide<const L: usize, const L2: usize>(
    lo: &[u64; L2],
    hi: u64,
    m: &[u64; L],
    n0inv: u64,
) -> [u64; L] {
    assert!(L2 == 2 * L, "wide reduction needs exactly 2L limbs");
    let mut t = *lo;
    let mut t_hi = hi;
    let mut i = 0;
    while i < L {
        let u = t[i].wrapping_mul(n0inv);
        let mut carry = 0u64;
        let mut j = 0;
        while j < L {
            let (lo_, hi_) = mac(t[i + j], u, m[j], carry);
            t[i + j] = lo_;
            carry = hi_;
            j += 1;
        }
        // Propagate into the upper half and, past it, the overflow word.
        let mut k = i + L;
        while k < L2 && carry != 0 {
            let (s, c) = adc(t[k], carry, 0);
            t[k] = s;
            carry = c;
            k += 1;
        }
        t_hi += carry;
        i += 1;
    }
    // The reduced value is the upper half plus the overflow word.
    let mut r = [0u64; L];
    let mut i = 0;
    while i < L {
        r[i] = t[i + L];
        i += 1;
    }
    loop {
        if t_hi == 0 && cmp(&r, m) < 0 {
            return r;
        }
        let (d, borrow) = sub_borrow(&r, m);
        r = d;
        t_hi -= borrow;
    }
}

/// `2^{64·L} mod m`, i.e. the Montgomery representation of 1.
pub const fn compute_r<const L: usize>(m: &[u64; L]) -> [u64; L] {
    // Start from m-complement trick: 2^{64L} mod m == (2^{64L} - m) mod m
    // because m < 2^{64L} <= 2m (top limb of m need not be set, so instead
    // compute by repeated doubling of 1, 64·L times).
    let mut acc = [0u64; L];
    acc[0] = 1;
    // Reduce the initial 1 (always < m for m > 1).
    let mut i = 0;
    while i < 64 * L {
        acc = double_mod(&acc, m);
        i += 1;
    }
    acc
}

/// `2^{128·L} mod m`, the constant used to convert into Montgomery form.
pub const fn compute_r2<const L: usize>(m: &[u64; L]) -> [u64; L] {
    let r = compute_r(m);
    let mut acc = r;
    let mut i = 0;
    while i < 64 * L {
        acc = double_mod(&acc, m);
        i += 1;
    }
    acc
}

/// Parse a hex string (optionally prefixed by `0x`) into limbs.
///
/// # Panics
///
/// Panics if the value does not fit in `L` limbs or a non-hex character is
/// encountered. Intended for compile-time parsing of hardcoded parameters.
pub const fn parse_hex<const L: usize>(s: &str) -> [u64; L] {
    let bytes = s.as_bytes();
    let mut start = 0;
    if bytes.len() >= 2 && bytes[0] == b'0' && (bytes[1] == b'x' || bytes[1] == b'X') {
        start = 2;
    }
    let mut out = [0u64; L];
    let mut i = start;
    while i < bytes.len() {
        let c = bytes[i];
        let digit = match c {
            b'0'..=b'9' => (c - b'0') as u64,
            b'a'..=b'f' => (c - b'a' + 10) as u64,
            b'A'..=b'F' => (c - b'A' + 10) as u64,
            b'_' => {
                i += 1;
                continue;
            }
            _ => panic!("invalid hex digit in field constant"),
        };
        // out = out * 16 + digit
        assert!(out[L - 1] >> 60 == 0, "hex constant does not fit in L limbs");
        let mut j = L;
        while j > 1 {
            j -= 1;
            out[j] = (out[j] << 4) | (out[j - 1] >> 60);
        }
        out[0] = (out[0] << 4) | digit;
        i += 1;
    }
    out
}

/// Number of significant bits (position of the highest set bit).
pub const fn bits<const L: usize>(a: &[u64; L]) -> u32 {
    let mut i = L;
    while i > 0 {
        i -= 1;
        if a[i] != 0 {
            return i as u32 * 64 + (64 - a[i].leading_zeros());
        }
    }
    0
}

/// Test bit `k` (little-endian numbering).
#[inline]
pub const fn bit<const L: usize>(a: &[u64; L], k: u32) -> bool {
    let limb = (k / 64) as usize;
    if limb >= L {
        return false;
    }
    (a[limb] >> (k % 64)) & 1 == 1
}

/// Number of significant bits of a little-endian limb **slice** (the
/// dynamically-sized counterpart of [`bits`], for exponents that arrive as
/// `&[u64]` — cofactors, scalar canonical limbs, subgroup orders).
pub const fn bits_slice(a: &[u64]) -> u32 {
    let mut i = a.len();
    while i > 0 {
        i -= 1;
        if a[i] != 0 {
            return i as u32 * 64 + (64 - a[i].leading_zeros());
        }
    }
    0
}

/// Extract the `width`-bit window starting at bit `bit_pos` (little-endian
/// numbering) from a limb slice, spanning limb boundaries and zero-padding
/// past the top. `width` must be at most 32 so the window always fits a
/// `usize` even with the cross-limb carry. This is the digit-decoding
/// primitive shared by windowed exponentiation (fixed-base combs, sliding
/// windows, Straus interleaving).
#[inline]
pub const fn window(a: &[u64], bit_pos: usize, width: usize) -> usize {
    assert!(width >= 1 && width <= 32, "window width out of range");
    let limb = bit_pos / 64;
    if limb >= a.len() {
        return 0;
    }
    let shift = bit_pos % 64;
    let mask = (1u64 << width) - 1;
    let mut w = (a[limb] >> shift) & mask;
    // Bits spilling into the next limb (if the window straddles a boundary).
    if shift + width > 64 && limb + 1 < a.len() {
        w |= (a[limb + 1] << (64 - shift)) & mask;
    }
    w as usize
}

/// Width-`w` non-adjacent form (wNAF) of a little-endian limb slice.
///
/// Returns signed digits `d_i` with `value = Σ d_i · 2^i`, where every
/// nonzero digit is odd, `|d_i| < 2^{w−1}`, and a nonzero digit is
/// followed by at least `w − 1` zeros. Digit order is little-endian
/// (index = bit position); the result has at most `bits_slice(a) + 1`
/// entries. This is the recoding behind signed-window exponentiation:
/// in groups where inversion is cheap (curve point negation) it cuts the
/// expected nonzero-digit density from `1 − 2^{−w}` per window to
/// `1/(w+1)` per bit while halving the table to odd multiples only.
///
/// Word-scanning: the recoder reads a `w`-bit [`window`] at the current
/// position (across limb boundaries) plus a pending carry, and after each
/// nonzero digit jumps `w` bits at once — the `w − 1` digits that follow
/// are zero by construction. The digits are exactly those of the textbook
/// bit-serial recoding (kept as the test reference), which subtracts the
/// digit and shifts the whole limb vector once per bit.
///
/// # Panics
///
/// Panics if `w` is outside `2..=8` (digits must fit an `i8`).
pub fn wnaf_digits(a: &[u64], w: usize) -> Vec<i8> {
    assert!((2..=8).contains(&w), "wnaf width out of range");
    let nbits = bits_slice(a) as usize;
    let mut digits = vec![0i8; nbits + 1];
    let half = 1usize << (w - 1);
    let full = 1usize << w;
    // `carry` is the 1 a negative digit adds at the next position; the
    // value still to recode is `(a >> pos) + carry`.
    let (mut pos, mut carry, mut len) = (0usize, 0usize, 0usize);
    while pos < nbits || carry != 0 {
        let win = window(a, pos, w) + carry;
        if win & 1 == 0 {
            // Even (a window of all ones plus the carry is 2^w): digit 0,
            // and the carry moves up with the position.
            pos += 1;
            continue;
        }
        // Centered residue mods 2^w: odd, in (−2^{w−1}, 2^{w−1}).
        let d = if win >= half {
            carry = 1;
            win as i64 - full as i64
        } else {
            carry = 0;
            win as i64
        };
        digits[pos] = d as i8;
        len = pos + 1;
        pos += w;
    }
    digits.truncate(len);
    digits
}

/// Bit-serial wNAF recoding: subtract the digit, then shift the whole limb
/// vector right by one bit per position. The word-scanning [`wnaf_digits`]
/// must match it digit for digit.
#[cfg(test)]
fn wnaf_digits_reference(a: &[u64], w: usize) -> Vec<i8> {
    assert!((2..=8).contains(&w), "wnaf width out of range");
    let mut e = a.to_vec();
    let mut digits = Vec::with_capacity(bits_slice(a) as usize + 1);
    let half = 1i64 << (w - 1);
    let full = 1i64 << w;
    let mask = (full - 1) as u64;
    while bits_slice(&e) != 0 {
        if e[0] & 1 == 1 {
            // Centered residue mods 2^w: odd, in (−2^{w−1}, 2^{w−1}).
            let low = (e[0] & mask) as i64;
            let d = if low >= half { low - full } else { low };
            if d > 0 {
                // d ≤ low ≤ e, so the borrow chain always terminates.
                let (diff, mut borrow) = sbb(e[0], d as u64, 0);
                e[0] = diff;
                let mut i = 1;
                while borrow != 0 {
                    let (diff, bo) = sbb(e[i], 0, borrow);
                    e[i] = diff;
                    borrow = bo;
                    i += 1;
                }
            } else {
                let (sum, mut carry) = adc(e[0], (-d) as u64, 0);
                e[0] = sum;
                let mut i = 1;
                while carry != 0 && i < e.len() {
                    let (sum, c) = adc(e[i], 0, carry);
                    e[i] = sum;
                    carry = c;
                    i += 1;
                }
                if carry != 0 {
                    e.push(carry);
                }
            }
            digits.push(d as i8);
        } else {
            digits.push(0);
        }
        // e is now even; shift out the processed bit.
        for i in 0..e.len() {
            e[i] >>= 1;
            if i + 1 < e.len() {
                e[i] |= e[i + 1] << 63;
            }
        }
    }
    digits
}

/// Logical right shift by one bit.
pub const fn shr1<const L: usize>(a: &[u64; L]) -> [u64; L] {
    let mut out = [0u64; L];
    let mut i = 0;
    while i < L {
        out[i] = a[i] >> 1;
        if i + 1 < L {
            out[i] |= a[i + 1] << 63;
        }
        i += 1;
    }
    out
}

/// Wrapping subtraction of a small `u64` constant (used to build `p - 2` and
/// similar exponents from a modulus).
pub const fn sub_u64<const L: usize>(a: &[u64; L], b: u64) -> [u64; L] {
    let mut out = *a;
    let (d, mut borrow) = sbb(out[0], b, 0);
    out[0] = d;
    let mut i = 1;
    while i < L && borrow != 0 {
        let (d, bo) = sbb(out[i], 0, borrow);
        out[i] = d;
        borrow = bo;
        i += 1;
    }
    assert!(borrow == 0, "sub_u64 underflow");
    out
}

/// Wrapping addition of a small `u64` constant.
pub const fn add_u64<const L: usize>(a: &[u64; L], b: u64) -> [u64; L] {
    let mut out = *a;
    let (s, mut carry) = adc(out[0], b, 0);
    out[0] = s;
    let mut i = 1;
    while i < L && carry != 0 {
        let (s, c) = adc(out[i], 0, carry);
        out[i] = s;
        carry = c;
        i += 1;
    }
    assert!(carry == 0, "add_u64 overflow");
    out
}

/// Logical right shift by one of an `L+1`-bit value `(carry, a)`.
const fn shr1_with_carry<const L: usize>(a: &[u64; L], carry: u64) -> [u64; L] {
    let mut out = shr1(a);
    out[L - 1] |= carry << 63;
    out
}

/// Modular inverse via the binary extended-GCD algorithm.
///
/// `a` is a **canonical** (non-Montgomery) value reduced mod the odd modulus
/// `m`. Returns `None` when `a` is zero (for prime `m`, every nonzero value
/// is invertible). Variable-time.
pub fn inv_mod<const L: usize>(a: &[u64; L], m: &[u64; L]) -> Option<[u64; L]> {
    if is_zero(a) {
        return None;
    }
    debug_assert!(m[0] & 1 == 1, "modulus must be odd");
    let mut u = *a;
    let mut v = *m;
    let mut x1 = [0u64; L];
    x1[0] = 1;
    let mut x2 = [0u64; L];

    let one = x1;
    while cmp(&u, &one) != 0 && cmp(&v, &one) != 0 {
        while u[0] & 1 == 0 {
            u = shr1(&u);
            if x1[0] & 1 == 0 {
                x1 = shr1(&x1);
            } else {
                let (s, c) = add_carry(&x1, m);
                x1 = shr1_with_carry(&s, c);
            }
        }
        while v[0] & 1 == 0 {
            v = shr1(&v);
            if x2[0] & 1 == 0 {
                x2 = shr1(&x2);
            } else {
                let (s, c) = add_carry(&x2, m);
                x2 = shr1_with_carry(&s, c);
            }
        }
        if cmp(&u, &v) >= 0 {
            (u, _) = sub_borrow(&u, &v);
            x1 = sub_mod(&x1, &x2, m);
        } else {
            (v, _) = sub_borrow(&v, &u);
            x2 = sub_mod(&x2, &x1, m);
        }
    }
    Some(if cmp(&u, &one) == 0 { x1 } else { x2 })
}

/// Convert limbs to canonical big-endian bytes (`8·L` bytes).
pub fn to_bytes_be<const L: usize>(a: &[u64; L]) -> Vec<u8> {
    let mut out = Vec::with_capacity(L * 8);
    for i in (0..L).rev() {
        out.extend_from_slice(&a[i].to_be_bytes());
    }
    out
}

/// Parse big-endian bytes into limbs. Input longer than `8·L` bytes is
/// rejected (returns `None`); shorter input is zero-padded on the left.
#[allow(clippy::needless_range_loop)]
pub fn from_bytes_be<const L: usize>(bytes: &[u8]) -> Option<[u64; L]> {
    if bytes.len() > L * 8 {
        return None;
    }
    let mut padded = vec![0u8; L * 8 - bytes.len()];
    padded.extend_from_slice(bytes);
    let mut out = [0u64; L];
    for i in 0..L {
        let start = (L - 1 - i) * 8;
        let mut limb = [0u8; 8];
        limb.copy_from_slice(&padded[start..start + 8]);
        out[i] = u64::from_be_bytes(limb);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: [u64; 2] = [0xffff_ffff_ffff_fff1, 0x7fff_ffff_ffff_ffff]; // odd, not prime; fine for limb tests

    #[test]
    fn adc_sbb_roundtrip() {
        let (s, c) = adc(u64::MAX, 1, 0);
        assert_eq!((s, c), (0, 1));
        let (d, b) = sbb(0, 1, 0);
        assert_eq!((d, b), (u64::MAX, 1));
        let (d, b) = sbb(5, 3, 1);
        assert_eq!((d, b), (1, 0));
    }

    #[test]
    fn mac_full_range() {
        // acc + a*b + carry with everything maxed must not overflow u128 math
        let (lo, hi) = mac(u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        // u64::MAX + u64::MAX^2 + u64::MAX = 2^128 - 1 exactly
        assert_eq!(lo, u64::MAX);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn add_sub_mod_inverse_each_other() {
        let a = [7u64, 9u64];
        let b = [11u64, 3u64];
        let s = add_mod(&a, &b, &M);
        let back = sub_mod(&s, &b, &M);
        assert_eq!(back, a);
    }

    #[test]
    fn add_mod_handles_full_width_modulus() {
        // modulus with top bit set
        let m: [u64; 1] = [0xffff_ffff_ffff_ffc5]; // prime 2^64 - 59
        let a = [m[0] - 1];
        let s = add_mod(&a, &a, &m);
        // (m-1)+(m-1) = 2m-2 ≡ m-2
        assert_eq!(s, [m[0] - 2]);
    }

    #[test]
    fn neg_mod_zero_is_zero() {
        let z = [0u64, 0u64];
        assert_eq!(neg_mod(&z, &M), z);
        let a = [5u64, 0u64];
        let n = neg_mod(&a, &M);
        assert_eq!(add_mod(&a, &n, &M), z);
    }

    #[test]
    fn n0inv_is_correct() {
        for m0 in [1u64, 3, 0xffff_ffff_ffff_ffc5, 0x9c7b_55f3_3f4a_5557] {
            let inv = mont_n0inv(m0);
            assert_eq!(m0.wrapping_mul(inv.wrapping_neg()), 1);
        }
    }

    #[test]
    fn mont_mul_matches_u128_reference() {
        // Single-limb field: p = 2^61 - 1 (Mersenne prime)
        let p: [u64; 1] = [(1u64 << 61) - 1];
        let n0 = mont_n0inv(p[0]);
        let r2 = compute_r2(&p);
        let to_mont = |x: u64| mont_mul(&[x], &r2, &p, n0);
        let from_mont = |x: [u64; 1]| mont_mul(&x, &[1], &p, n0)[0];
        for (a, b) in [(3u64, 5u64), (1 << 60, 12345), (p[0] - 1, p[0] - 1)] {
            let am = to_mont(a);
            let bm = to_mont(b);
            let cm = mont_mul(&am, &bm, &p, n0);
            let c = from_mont(cm);
            let expect = ((a as u128 * b as u128) % p[0] as u128) as u64;
            assert_eq!(c, expect, "a={a} b={b}");
        }
    }

    #[test]
    fn mont_mul_full_width_modulus() {
        // p = 2^64 - 59 (top bit set), exercises the extra-carry path.
        let p: [u64; 1] = [0xffff_ffff_ffff_ffc5];
        let n0 = mont_n0inv(p[0]);
        let r2 = compute_r2(&p);
        let a = p[0] - 1;
        let am = mont_mul(&[a], &r2, &p, n0);
        let sq = mont_mul(&am, &am, &p, n0);
        let out = mont_mul(&sq, &[1], &p, n0)[0];
        // (p-1)^2 ≡ 1 mod p
        assert_eq!(out, 1);
    }

    #[test]
    fn parse_hex_roundtrip() {
        let v: [u64; 2] = parse_hex("0x5ed5e420ff583487");
        assert_eq!(v, [0x5ed5_e420_ff58_3487, 0]);
        let v: [u64; 2] = parse_hex("42ae6467338a04eeeb");
        assert_eq!(v, [0xae64_6733_8a04_eeeb, 0x42]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn parse_hex_overflow_panics() {
        let _: [u64; 1] = parse_hex("10000000000000000");
    }

    #[test]
    fn bits_and_bit() {
        let v: [u64; 2] = [0, 1];
        assert_eq!(bits(&v), 65);
        assert!(bit(&v, 64));
        assert!(!bit(&v, 63));
        assert!(!bit(&v, 200));
        assert_eq!(bits(&[0u64, 0]), 0);
    }

    #[test]
    fn bits_slice_matches_array_bits() {
        assert_eq!(bits_slice(&[0, 1]), bits(&[0u64, 1]));
        assert_eq!(bits_slice(&[]), 0);
        assert_eq!(bits_slice(&[0, 0, 0]), 0);
        assert_eq!(bits_slice(&[0x8000_0000_0000_0000]), 64);
        assert_eq!(bits_slice(&[u64::MAX, u64::MAX, 1]), 129);
    }

    #[test]
    fn window_extracts_digits() {
        let v = [0xfedc_ba98_7654_3210u64, 0x0123_4567_89ab_cdefu64];
        // Aligned nibbles read straight out of the hex digits.
        assert_eq!(window(&v, 0, 4), 0x0);
        assert_eq!(window(&v, 4, 4), 0x1);
        assert_eq!(window(&v, 60, 4), 0xf);
        assert_eq!(window(&v, 64, 4), 0xf);
        assert_eq!(window(&v, 124, 4), 0x0);
        // Cross-limb window: bits 62..67 = top two bits of limb0 (11) plus
        // low three bits of limb1 (111) -> 0b11111.
        assert_eq!(window(&v, 62, 5), 0b11111);
        // Past the end: zero-padded.
        assert_eq!(window(&v, 128, 4), 0);
        assert_eq!(window(&v, 120, 8), 0x01);
        // Reference check against per-bit extraction for many positions.
        for pos in 0..130 {
            for width in [1usize, 2, 3, 5, 7, 8] {
                let mut expect = 0usize;
                for k in (0..width).rev() {
                    let b = pos + k;
                    let limb = b / 64;
                    let set = limb < v.len() && (v[limb] >> (b % 64)) & 1 == 1;
                    expect = (expect << 1) | usize::from(set);
                }
                assert_eq!(window(&v, pos, width), expect, "pos={pos} width={width}");
            }
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let v: [u64; 2] = [0x0123_4567_89ab_cdef, 0xfeed];
        let b = to_bytes_be(&v);
        assert_eq!(b.len(), 16);
        assert_eq!(from_bytes_be::<2>(&b), Some(v));
        // short input zero-pads
        assert_eq!(from_bytes_be::<2>(&[1]), Some([1, 0]));
        // long input rejected
        assert_eq!(from_bytes_be::<1>(&[0; 9]), None);
    }

    #[test]
    fn shr1_and_sub_u64() {
        let v: [u64; 2] = [1, 1];
        assert_eq!(shr1(&v), [0x8000_0000_0000_0000, 0]);
        assert_eq!(sub_u64(&[0, 1], 1), [u64::MAX, 0]);
        assert_eq!(add_u64(&[u64::MAX, 0], 1), [0, 1]);
    }

    #[test]
    fn wide_mul_matches_u128_reference() {
        for (a, b) in [
            (0u64, 0u64),
            (1, u64::MAX),
            (u64::MAX, u64::MAX),
            (0xdead_beef_1234_5678, 0x9abc_def0_8765_4321),
        ] {
            let w: Wide<2> = wide_mul(&[a], &[b]);
            let expect = a as u128 * b as u128;
            assert_eq!(w.lo, [expect as u64, (expect >> 64) as u64]);
            assert_eq!(w.hi, 0);
            let sq: Wide<2> = wide_sqr(&[a]);
            assert_eq!(sq, wide_mul(&[a], &[a]), "square a={a}");
        }
    }

    #[test]
    fn wide_sqr_matches_wide_mul_multilimb() {
        let vals: [[u64; 2]; 4] = [
            [0, 0],
            [u64::MAX, u64::MAX],
            [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210],
            [1, u64::MAX],
        ];
        for a in vals {
            let sq: Wide<4> = wide_sqr(&a);
            assert_eq!(sq, wide_mul(&a, &a), "a={a:?}");
        }
    }

    #[test]
    fn mont_sqr_matches_mont_mul() {
        let p: [u64; 1] = [0xffff_ffff_ffff_ffc5];
        let n0 = mont_n0inv(p[0]);
        for a in [0u64, 1, 59, p[0] - 1, 0x1234_5678_9abc_def0] {
            assert_eq!(
                mont_sqr::<1, 2>(&[a], &p, n0),
                mont_mul(&[a], &[a], &p, n0),
                "a={a}"
            );
        }
        let p2: [u64; 2] = [0xae64_6733_8a04_eeeb, 0x42]; // Toy 71-bit modulus
        let n02 = mont_n0inv(p2[0]);
        for a in [[0u64, 0], [1, 0], [0xae64_6733_8a04_eeea, 0x42], [u64::MAX, 0x41]] {
            assert_eq!(
                mont_sqr::<2, 4>(&a, &p2, n02),
                mont_mul(&a, &a, &p2, n02),
                "a={a:?}"
            );
        }
    }

    #[test]
    fn mont_reduce_wide_accumulated_sum_matches_reduced_path() {
        // Full-width single-limb modulus: products approach R², so a few
        // accumulated terms push the sum past 2^128 into the overflow limb.
        let p: [u64; 1] = [0xffff_ffff_ffff_ffc5];
        let n0 = mont_n0inv(p[0]);
        let terms: [(u64, u64); 5] = [
            (p[0] - 1, p[0] - 1),
            (p[0] - 1, p[0] - 2),
            (0x1234_5678_9abc_def0, p[0] - 1),
            (p[0] - 3, p[0] - 59),
            (1, 1),
        ];
        let mut acc = Wide::<2>::zero();
        let mut expect = [0u64; 1];
        for (a, b) in terms {
            acc = wide_add(&acc, &wide_mul(&[a], &[b]));
            expect = add_mod(&expect, &mont_mul(&[a], &[b], &p, n0), &p);
        }
        assert!(acc.hi > 0, "test should exercise the overflow limb");
        assert_eq!(mont_reduce_wide(&acc.lo, acc.hi, &p, n0), expect);
    }

    #[test]
    fn wide_sub_from_is_exact_subtraction() {
        let p: [u64; 1] = [0xffff_ffff_ffff_ffc5];
        let n0 = mont_n0inv(p[0]);
        let m2: Wide<2> = wide_mul(&p, &p);
        let a = [p[0] - 1];
        let b = [0x9999_8888_7777_6666];
        let prod_a = wide_mul(&a, &a);
        let prod_b = wide_mul(&b, &b);
        let diff = wide_sub_from(&prod_a, &prod_b, &m2.lo);
        let expect = sub_mod(
            &mont_mul(&a, &a, &p, n0),
            &mont_mul(&b, &b, &p, n0),
            &p,
        );
        assert_eq!(mont_reduce_wide(&diff.lo, diff.hi, &p, n0), expect);
    }

    #[test]
    fn wide_add_shifted_folds_reduced_addend() {
        // REDC(a·b + x·R) must equal mont_mul(a,b) + x.
        let p: [u64; 2] = [0xae64_6733_8a04_eeeb, 0x42];
        let n0 = mont_n0inv(p[0]);
        let a = [0x1111_2222_3333_4444u64, 0x12];
        let b = [0x5555_6666_7777_8888u64, 0x3f];
        let x = [0xaaaa_bbbb_cccc_ddddu64, 0x01];
        let w: Wide<4> = wide_add_shifted(&wide_mul(&a, &b), &x);
        let expect = add_mod(&mont_mul(&a, &b, &p, n0), &x, &p);
        assert_eq!(mont_reduce_wide(&w.lo, w.hi, &p, n0), expect);
    }

    #[test]
    fn wnaf_digits_reconstruct_and_satisfy_naf_property() {
        // Deterministic value grid: small constants, limb-boundary
        // straddlers, and saturated two-limb values.
        let values: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![2],
            vec![7],
            vec![0xdead_beef],
            vec![u64::MAX],
            vec![u64::MAX, 1],
            vec![u64::MAX, 0x3fff_ffff_ffff],
            vec![0x0123_4567_89ab_cdef, 0x1fff_ffff_ffff],
        ];
        for v in &values {
            for w in 2..=8usize {
                let digits = wnaf_digits(v, w);
                assert_eq!(
                    digits,
                    wnaf_digits_reference(v, w),
                    "reference v={v:?} w={w}"
                );
                assert!(digits.len() <= bits_slice(v) as usize + 1, "len w={w}");
                // Reconstruct Σ d_i 2^i in i128 (all grid values fit).
                let value = v.iter().rev().fold(0i128, |acc, &l| (acc << 64) | l as i128);
                let mut recon = 0i128;
                for (i, &d) in digits.iter().enumerate() {
                    recon += (d as i128) << i;
                }
                assert_eq!(recon, value, "reconstruct v={v:?} w={w}");
                let half = 1i16 << (w - 1);
                for (i, &d) in digits.iter().enumerate() {
                    if d == 0 {
                        continue;
                    }
                    assert!(d % 2 != 0, "digit parity");
                    assert!((d as i16).abs() < half, "digit magnitude w={w}");
                    for (j, &dj) in digits.iter().enumerate().take(i + w).skip(i + 1) {
                        assert_eq!(dj, 0, "naf spacing w={w} i={i} j={j}");
                    }
                }
            }
        }
    }

    /// The shared 256-bit scalar modulus of the SS parameter sets and the
    /// TOY scalar modulus, little-endian. Canonical scalars stay below
    /// them, but the recoder takes any limbs, so values around them are
    /// recoded too.
    const R256: [u64; 4] = [
        0x9d59_f778_aec3_3793,
        0xd2f4_8907_cb57_039e,
        0x66c8_d7ba_aa67_6515,
        0x9c7b_55f3_3f4a_5556,
    ];
    const R_TOY: u64 = 0x5ed5_e420_ff58_3487;

    mod wnaf_recoder {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn word_scan_matches_bit_serial(
                limbs in proptest::collection::vec(any::<u64>(), 1..5),
                shape in 0u8..4,
                ones in any::<u8>(),
                w in 2usize..=8,
            ) {
                let v: Vec<u64> = match shape {
                    // Saturate a random subset of limbs (carry chains).
                    1 => limbs
                        .iter()
                        .enumerate()
                        .map(|(i, &l)| if (ones >> i) & 1 == 1 { u64::MAX } else { l })
                        .collect(),
                    // r − 1, r or r + 1 for the 256-bit scalar modulus…
                    2 => add_u64(&sub_u64(&R256, 1), limbs[0] % 3).to_vec(),
                    // … and for the one-limb TOY scalar modulus.
                    3 => vec![R_TOY - 1 + limbs[0] % 3],
                    _ => limbs,
                };
                prop_assert_eq!(wnaf_digits(&v, w), wnaf_digits_reference(&v, w));
            }
        }
    }

    #[test]
    fn compute_r_small() {
        // p = 97: 2^64 mod 97
        let p: [u64; 1] = [97];
        let r = compute_r(&p);
        let expect = ((1u128 << 64) % 97) as u64;
        assert_eq!(r[0], expect);
        let r2 = compute_r2(&p);
        let expect2 = {
            let r128 = (1u128 << 64) % 97;
            ((r128 * r128) % 97) as u64
        };
        assert_eq!(r2[0], expect2);
    }
}
