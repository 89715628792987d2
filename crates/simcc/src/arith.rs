//! C's integer rules, written once for every engine (DESIGN §3).
//!
//! Every engine holds a scalar as an `i64`. [`binary`] and [`unary`] say
//! what C makes of an operator on such values, as an [`Outcome`] that
//! keeps undefined results apart from defined ones. Each engine reads the
//! outcome its own way, in one small function: the reference interpreter
//! flags every undefined result (`interp::checked`), the VM wraps like
//! the target machine (`vm::wrapped`), and the constant folder folds
//! what the machine would compute and leaves the rest for run time
//! (`passes::folded`).

use spe_minic::ast::{BinaryOp, UnaryOp};

/// What C makes of an operator on `i64` operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// A defined result.
    Value(i64),
    /// Signed overflow (`i64::MIN / -1`, `i64::MIN % -1` and
    /// `-i64::MIN` among them) or a left shift of a negative value; the
    /// wrapped result.
    Overflow(i64),
    /// A shift by a count outside `0..64`; the result of shifting by the
    /// count's low six bits, as the machine does.
    ShiftRange(i64),
    /// Division or remainder by zero.
    DivByZero,
}

/// `Value(v)`, or `Overflow(v)` when the operation overflowed.
fn flagged((v, overflowed): (i64, bool)) -> Outcome {
    if overflowed {
        Outcome::Overflow(v)
    } else {
        Outcome::Value(v)
    }
}

/// What C makes of `x op y`. `&&` and `||` take both operands as
/// evaluated; an engine that short-circuits does so before it asks.
pub(crate) fn binary(op: BinaryOp, x: i64, y: i64) -> Outcome {
    let truth = |b: bool| Outcome::Value(b as i64);
    match op {
        BinaryOp::Add => flagged(x.overflowing_add(y)),
        BinaryOp::Sub => flagged(x.overflowing_sub(y)),
        BinaryOp::Mul => flagged(x.overflowing_mul(y)),
        BinaryOp::Div | BinaryOp::Rem if y == 0 => Outcome::DivByZero,
        BinaryOp::Div => flagged(x.overflowing_div(y)),
        BinaryOp::Rem => flagged(x.overflowing_rem(y)),
        BinaryOp::Shl | BinaryOp::Shr => {
            let v = if op == BinaryOp::Shl {
                x.wrapping_shl(y as u32)
            } else {
                x.wrapping_shr(y as u32)
            };
            if !(0..64).contains(&y) {
                Outcome::ShiftRange(v)
            } else if op == BinaryOp::Shl && x < 0 {
                Outcome::Overflow(v)
            } else {
                Outcome::Value(v)
            }
        }
        BinaryOp::Lt => truth(x < y),
        BinaryOp::Gt => truth(x > y),
        BinaryOp::Le => truth(x <= y),
        BinaryOp::Ge => truth(x >= y),
        BinaryOp::Eq => truth(x == y),
        BinaryOp::Ne => truth(x != y),
        BinaryOp::BitAnd => Outcome::Value(x & y),
        BinaryOp::BitOr => Outcome::Value(x | y),
        BinaryOp::BitXor => Outcome::Value(x ^ y),
        BinaryOp::LogAnd => truth(x != 0 && y != 0),
        BinaryOp::LogOr => truth(x != 0 || y != 0),
    }
}

/// What C makes of `op x` for the operators that act on a value: `-`,
/// `!` and `~`.
///
/// # Panics
///
/// Panics on `*`, `&`, `++` and `--`, which act on a pointer or an
/// lvalue: the engines handle them before they reach the table.
pub(crate) fn unary(op: UnaryOp, x: i64) -> Outcome {
    match op {
        UnaryOp::Neg => flagged(x.overflowing_neg()),
        UnaryOp::Not => Outcome::Value((x == 0) as i64),
        UnaryOp::BitNot => Outcome::Value(!x),
        UnaryOp::Deref | UnaryOp::Addr | UnaryOp::PreInc | UnaryOp::PreDec => {
            unreachable!("`{}` is not an operator on a value", op.as_str())
        }
    }
}

/// The exit status of a program whose `main` returns `v`: its low 8 bits.
pub(crate) fn exit_status(v: i64) -> i64 {
    v & 0xff
}

/// The line `printf(fmt, args…)` writes: `fmt`, then `:` and the
/// comma-joined arguments when there are any.
pub(crate) fn printf_line(fmt: &str, args: &[String]) -> String {
    if args.is_empty() {
        fmt.to_owned()
    } else {
        format!("{fmt}:{}", args.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{self, Ub};
    use crate::passes;
    use crate::vm;

    /// The three tables this one replaced, verbatim: the reference's
    /// checked one, the folder's and the VM's wrapping ones.
    mod replaced {
        use crate::interp::Ub;
        use crate::vm::Trap;
        use spe_minic::ast::BinaryOp;

        pub fn arith(op: BinaryOp, x: i64, y: i64) -> Result<i64, Ub> {
            Ok(match op {
                BinaryOp::Add => x.checked_add(y).ok_or(Ub::Overflow)?,
                BinaryOp::Sub => x.checked_sub(y).ok_or(Ub::Overflow)?,
                BinaryOp::Mul => x.checked_mul(y).ok_or(Ub::Overflow)?,
                BinaryOp::Div => {
                    if y == 0 {
                        return Err(Ub::DivByZero);
                    }
                    x.checked_div(y).ok_or(Ub::Overflow)?
                }
                BinaryOp::Rem => {
                    if y == 0 {
                        return Err(Ub::DivByZero);
                    }
                    x.checked_rem(y).ok_or(Ub::Overflow)?
                }
                BinaryOp::Lt => (x < y) as i64,
                BinaryOp::Gt => (x > y) as i64,
                BinaryOp::Le => (x <= y) as i64,
                BinaryOp::Ge => (x >= y) as i64,
                BinaryOp::Eq => (x == y) as i64,
                BinaryOp::Ne => (x != y) as i64,
                BinaryOp::BitAnd => x & y,
                BinaryOp::BitOr => x | y,
                BinaryOp::BitXor => x ^ y,
                BinaryOp::Shl => {
                    if !(0..64).contains(&y) || x < 0 {
                        return Err(Ub::Overflow);
                    }
                    x.checked_shl(y as u32).ok_or(Ub::Overflow)?
                }
                BinaryOp::Shr => {
                    if !(0..64).contains(&y) {
                        return Err(Ub::Overflow);
                    }
                    x >> y
                }
                BinaryOp::LogAnd | BinaryOp::LogOr => unreachable!("short-circuited earlier"),
            })
        }

        pub fn const_arith(op: BinaryOp, x: i64, y: i64) -> Option<i64> {
            Some(match op {
                BinaryOp::Add => x.wrapping_add(y),
                BinaryOp::Sub => x.wrapping_sub(y),
                BinaryOp::Mul => x.wrapping_mul(y),
                BinaryOp::Div => {
                    if y == 0 {
                        return None;
                    }
                    x.wrapping_div(y)
                }
                BinaryOp::Rem => {
                    if y == 0 {
                        return None;
                    }
                    x.wrapping_rem(y)
                }
                BinaryOp::Lt => (x < y) as i64,
                BinaryOp::Gt => (x > y) as i64,
                BinaryOp::Le => (x <= y) as i64,
                BinaryOp::Ge => (x >= y) as i64,
                BinaryOp::Eq => (x == y) as i64,
                BinaryOp::Ne => (x != y) as i64,
                BinaryOp::BitAnd => x & y,
                BinaryOp::BitOr => x | y,
                BinaryOp::BitXor => x ^ y,
                BinaryOp::Shl => {
                    if !(0..64).contains(&y) {
                        return None;
                    }
                    x.wrapping_shl(y as u32)
                }
                BinaryOp::Shr => {
                    if !(0..64).contains(&y) {
                        return None;
                    }
                    x.wrapping_shr(y as u32)
                }
                BinaryOp::LogAnd => ((x != 0) && (y != 0)) as i64,
                BinaryOp::LogOr => ((x != 0) || (y != 0)) as i64,
            })
        }

        pub fn vm_arith(op: BinaryOp, a: i64, b: i64) -> Result<i64, Trap> {
            Ok(match op {
                BinaryOp::Add => a.wrapping_add(b),
                BinaryOp::Sub => a.wrapping_sub(b),
                BinaryOp::Mul => a.wrapping_mul(b),
                BinaryOp::Div => {
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    a.wrapping_div(b)
                }
                BinaryOp::Rem => {
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    a.wrapping_rem(b)
                }
                BinaryOp::Lt => (a < b) as i64,
                BinaryOp::Gt => (a > b) as i64,
                BinaryOp::Le => (a <= b) as i64,
                BinaryOp::Ge => (a >= b) as i64,
                BinaryOp::Eq => (a == b) as i64,
                BinaryOp::Ne => (a != b) as i64,
                BinaryOp::BitAnd => a & b,
                BinaryOp::BitOr => a | b,
                BinaryOp::BitXor => a ^ b,
                BinaryOp::Shl => a.wrapping_shl((b & 63) as u32),
                BinaryOp::Shr => a.wrapping_shr((b & 63) as u32),
                BinaryOp::LogAnd => ((a != 0) && (b != 0)) as i64,
                BinaryOp::LogOr => ((a != 0) || (b != 0)) as i64,
            })
        }
    }

    const OPS: [BinaryOp; 18] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Rem,
        BinaryOp::Lt,
        BinaryOp::Gt,
        BinaryOp::Le,
        BinaryOp::Ge,
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::BitAnd,
        BinaryOp::BitOr,
        BinaryOp::BitXor,
        BinaryOp::Shl,
        BinaryOp::Shr,
        BinaryOp::LogAnd,
        BinaryOp::LogOr,
    ];

    /// Where C's integer rules change: zero and ±1, ±2, the shift counts
    /// around 32 and 64, the 32- and 64-bit boundaries, and the ends of
    /// `i64`.
    const EDGES: [i64; 20] = [
        0,
        1,
        -1,
        2,
        -2,
        31,
        32,
        63,
        -63,
        64,
        -64,
        65,
        1 << 31,
        -(1 << 31),
        1 << 32,
        -(1 << 32),
        i64::MIN,
        i64::MIN + 1,
        i64::MAX - 1,
        i64::MAX,
    ];

    #[test]
    fn every_engine_reads_the_table_as_its_replaced_table_computed() {
        for op in OPS {
            for x in EDGES {
                for y in EDGES {
                    let outcome = binary(op, x, y);
                    let case = format!("{x} {} {y} gives {outcome:?}", op.as_str());
                    // The reference short-circuits `&&` and `||` before
                    // it reads the table.
                    if !matches!(op, BinaryOp::LogAnd | BinaryOp::LogOr) {
                        assert_eq!(
                            interp::checked(outcome),
                            replaced::arith(op, x, y),
                            "{case}"
                        );
                    }
                    assert_eq!(
                        passes::folded(outcome),
                        replaced::const_arith(op, x, y),
                        "{case}"
                    );
                    assert_eq!(vm::wrapped(outcome), replaced::vm_arith(op, x, y), "{case}");
                }
            }
        }
        // The grid reaches each undefined case the engines part on.
        let min = i64::MIN;
        assert_eq!(binary(BinaryOp::Div, min, -1), Outcome::Overflow(min));
        assert_eq!(binary(BinaryOp::Rem, min, -1), Outcome::Overflow(0));
        assert_eq!(binary(BinaryOp::Shl, 1, 64), Outcome::ShiftRange(1));
        assert_eq!(binary(BinaryOp::Shr, -64, -1), Outcome::ShiftRange(-1));
        assert_eq!(binary(BinaryOp::Shl, -1, 1), Outcome::Overflow(-2));
    }

    #[test]
    fn unary_operators_read_as_the_engines_computed_them() {
        for x in EDGES {
            let neg = unary(UnaryOp::Neg, x);
            // The reference and the folder take a defined result only,
            // as `checked_neg` did; the VM and global initializers wrap.
            assert_eq!(interp::checked(neg), x.checked_neg().ok_or(Ub::Overflow));
            let defined = match neg {
                Outcome::Value(v) => Some(v),
                _ => None,
            };
            assert_eq!(defined, x.checked_neg(), "-({x})");
            assert_eq!(passes::folded(neg), Some(x.wrapping_neg()), "-({x})");
            assert_eq!(vm::wrapped(neg), Ok(x.wrapping_neg()), "-({x})");
            assert_eq!(unary(UnaryOp::BitNot, x), Outcome::Value(!x));
            assert_eq!(unary(UnaryOp::Not, x), Outcome::Value((x == 0) as i64));
        }
        assert_eq!(unary(UnaryOp::Neg, i64::MIN), Outcome::Overflow(i64::MIN));
    }
}
