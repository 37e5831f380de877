//! Predicates as data: the `f_q` of a query `⟨K_q, T_q, f_q⟩` (paper
//! §II-A) as a small postfix program over a tuple's key, timestamp and
//! payload bytes.
//!
//! An [`Expr`] is built with ordinary operators —
//! `(Expr::key() % 2).equals(0)`, `(Expr::payload(7, 1) & 0xF0).equals(0xF0)`,
//! `Expr::payload(0, 4).equals(taxi)` — and crosses the wire as its op list,
//! so a predicate filters where the tuples are, whatever plane carries it.
//!
//! Values are `Option<u64>`. Reading past the payload's end, a remainder by
//! zero and a shift by 64 or more yield `None`, and `None` propagates through
//! every operator. A tuple passes when the program yields a non-zero value.

use crate::codec::{Decoder, Encoder, Wire};
use crate::error::Result;
use crate::tuple::Tuple;
use std::cell::RefCell;

crate::wire_enum! {
    /// One instruction: a leaf pushes a value; an operator pops its
    /// operands, the right one on top, and pushes its result. Each row is
    /// `wire tag, operands popped => op`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Op as "expression op", fn arity(&self) -> usize {
        0, 0 => Key,
        1, 0 => Ts,
        2, 0 => Payload { offset: u32, width: u8 },
        3, 0 => Const(u64),
        4, 2 => BitAnd,
        5, 2 => Shr,
        6, 2 => Rem,
        7, 2 => Eq,
        8, 2 => Lt,
        9, 2 => Le,
        10, 2 => And,
        11, 2 => Or,
        12, 1 => Not,
    }
}

thread_local! {
    /// The operand stack [`Expr::eval`] reuses on this thread. `eval` calls
    /// no code that could evaluate again, so it is never borrowed twice.
    static STACK: RefCell<Vec<Option<u64>>> = const { RefCell::new(Vec::new()) };
}

/// A predicate over one tuple, as plain data (module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expr {
    /// Postfix: never empty, never underflows, leaves exactly one value.
    ops: Vec<Op>,
}

impl Expr {
    /// The tuple's key.
    pub fn key() -> Self {
        Self { ops: vec![Op::Key] }
    }

    /// The tuple's timestamp.
    pub fn ts() -> Self {
        Self { ops: vec![Op::Ts] }
    }

    /// The little-endian unsigned integer of `width` bytes (1, 2, 4 or 8)
    /// at payload byte `offset`; `None` when it reads past the payload.
    ///
    /// # Panics
    /// On any other width.
    pub fn payload(offset: u32, width: u8) -> Self {
        assert!(matches!(width, 1 | 2 | 4 | 8), "payload width {width}");
        Self::leaf(Op::Payload { offset, width })
    }

    /// `self == rhs`, as 1 or 0.
    pub fn equals(self, rhs: impl Into<Expr>) -> Self {
        self.binary(rhs, Op::Eq)
    }

    /// `self < rhs`, as 1 or 0.
    pub fn lt(self, rhs: impl Into<Expr>) -> Self {
        self.binary(rhs, Op::Lt)
    }

    /// `self <= rhs`, as 1 or 0.
    pub fn le(self, rhs: impl Into<Expr>) -> Self {
        self.binary(rhs, Op::Le)
    }

    /// Both non-zero, as 1 or 0.
    pub fn and(self, rhs: impl Into<Expr>) -> Self {
        self.binary(rhs, Op::And)
    }

    /// Either non-zero, as 1 or 0.
    pub fn or(self, rhs: impl Into<Expr>) -> Self {
        self.binary(rhs, Op::Or)
    }

    /// The program's value on `t`. Evaluation runs on this thread's
    /// operand stack, which keeps its capacity between calls: once it has
    /// grown to a program's depth, evaluating allocates nothing.
    pub fn eval(&self, t: &Tuple) -> Option<u64> {
        STACK.with_borrow_mut(|stack| {
            stack.clear();
            for &op in &self.ops {
                // A checked program never underflows; were it to, `flatten`
                // makes the missing operand `None` rather than a panic.
                let v = match op {
                    Op::Key => Some(t.key),
                    Op::Ts => Some(t.ts),
                    Op::Payload { offset, width } => {
                        let at = offset as usize;
                        let bytes = t.payload.get(at..at + usize::from(width));
                        bytes.map(|b| b.iter().rev().fold(0, |v, &x| v << 8 | u64::from(x)))
                    }
                    Op::Const(v) => Some(v),
                    Op::Not => stack.pop().flatten().map(|a| u64::from(a == 0)),
                    _ => {
                        let (b, a) = (stack.pop().flatten(), stack.pop().flatten());
                        a.zip(b).and_then(|(a, b)| apply(op, a, b))
                    }
                };
                stack.push(v);
            }
            stack.pop().flatten()
        })
    }

    /// Whether `t` passes: the program yields a non-zero value.
    pub fn accepts(&self, t: &Tuple) -> bool {
        matches!(self.eval(t), Some(v) if v != 0)
    }

    fn leaf(op: Op) -> Self {
        Self { ops: vec![op] }
    }

    fn binary(self, rhs: impl Into<Expr>, op: Op) -> Self {
        let mut ops = self.ops;
        ops.extend(rhs.into().ops);
        ops.push(op);
        Self { ops }
    }
}

fn apply(op: Op, a: u64, b: u64) -> Option<u64> {
    Some(match op {
        Op::BitAnd => a & b,
        Op::Shr => a.checked_shr(u32::try_from(b).ok()?)?,
        Op::Rem => a.checked_rem(b)?,
        Op::Eq => u64::from(a == b),
        Op::Lt => u64::from(a < b),
        Op::Le => u64::from(a <= b),
        Op::And => u64::from(a != 0 && b != 0),
        Op::Or => u64::from(a != 0 || b != 0),
        _ => return None,
    })
}

/// A constant.
impl From<u64> for Expr {
    fn from(v: u64) -> Self {
        Self::leaf(Op::Const(v))
    }
}

macro_rules! expr_operators {
    ($($trait:ident::$method:ident => $op:ident),*) => {$(
        impl<R: Into<Expr>> std::ops::$trait<R> for Expr {
            type Output = Expr;

            fn $method(self, rhs: R) -> Expr {
                self.binary(rhs, Op::$op)
            }
        }
    )*};
}

expr_operators!(BitAnd::bitand => BitAnd, Shr::shr => Shr, Rem::rem => Rem);

/// Zero as 1, anything else as 0.
impl std::ops::Not for Expr {
    type Output = Expr;

    fn not(mut self) -> Expr {
        self.ops.push(Op::Not);
        self
    }
}

/// The op list, postfix: a `u32` count, then each op's tag and operands.
/// Decoding is a loop, never a recursion, and refuses as `Corrupt` a
/// program that underflows its stack, does not end at exactly one value,
/// or reads a payload width other than 1, 2, 4 or 8.
impl Wire for Expr {
    const MIN_LEN: usize = 4 + 1;

    fn encode(&self, out: &mut impl Encoder) {
        self.ops.encode(out);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let ops = Vec::<Op>::decode(dec)?;
        let mut depth = 0usize;
        for op in &ops {
            if let Op::Payload { width, .. } = op {
                if !matches!(width, 1 | 2 | 4 | 8) {
                    return Err(dec.corrupt(format!("expression reads payload width {width}")));
                }
            }
            depth = depth
                .checked_sub(op.arity())
                .ok_or_else(|| dec.corrupt("expression underflows its stack"))?
                + 1;
        }
        if depth != 1 {
            return Err(dec.corrupt(format!("expression ends at {depth} values, not 1")));
        }
        Ok(Self { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: &Expr) -> Expr {
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let mut dec = Decoder::new(&buf, "test");
        let back = Expr::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        back
    }

    #[test]
    fn the_repository_predicates_evaluate_as_their_closures_did() {
        let even = (Expr::key() % 2).equals(0);
        assert!(even.accepts(&Tuple::bare(4, 0)) && !even.accepts(&Tuple::bare(5, 0)));
        let block = (Expr::payload(7, 1) & 0xF0).equals(0xF0);
        assert!(block.accepts(&Tuple::new(0, 0, vec![0, 0, 0, 0, 0, 0, 0, 0xF3])));
        assert!(
            !block.accepts(&Tuple::new(0, 0, vec![0xF0; 7])),
            "short payload"
        );
        let taxi = Expr::payload(0, 4).equals(0x0403_0201);
        assert!(taxi.accepts(&Tuple::new(0, 0, vec![1, 2, 3, 4, 9])));
        assert_eq!(
            Expr::payload(1, 8).eval(&Tuple::new(0, 0, vec![0; 8])),
            None
        );
        assert_eq!(
            Expr::payload(0, 8).eval(&Tuple::new(0, 0, vec![0xFF; 8])),
            Some(u64::MAX)
        );
    }

    #[test]
    fn none_propagates_through_every_operator() {
        let t = Tuple::bare(10, 3);
        assert_eq!((Expr::key() % 0).eval(&t), None);
        assert_eq!((Expr::key() >> 64).eval(&t), None);
        assert_eq!((Expr::key() >> 3).eval(&t), Some(1));
        let none = || Expr::payload(0, 1);
        for e in [
            none().equals(1),
            Expr::from(1).or(none()),
            Expr::from(0).and(none()),
            !none(),
            none().lt(5) & 1,
        ] {
            assert_eq!(e.eval(&t), None, "{e:?}");
            assert!(!e.accepts(&t));
        }
        let both = Expr::ts().le(3).and(Expr::key().lt(11)).or(!Expr::key());
        assert_eq!(both.eval(&t), Some(1));
    }

    #[test]
    fn expressions_round_trip_and_bad_programs_are_corrupt() {
        let e = (Expr::payload(3, 2) & 0xFF)
            .equals(Expr::ts() % 7)
            .or(!Expr::key());
        assert_eq!(roundtrip(&e), e);
        let program = |ops: &[Op]| {
            let mut buf = Vec::new();
            ops.to_vec().encode(&mut buf);
            Expr::decode(&mut Decoder::new(&buf, "test"))
        };
        for bad in [
            &[][..],
            &[Op::Key, Op::Key],
            &[Op::Key, Op::Eq],
            &[Op::Not],
            &[Op::Payload {
                offset: 0,
                width: 3,
            }],
        ] {
            let err = program(bad).unwrap_err();
            assert!(
                matches!(err, crate::WwError::Corrupt { .. }),
                "{bad:?}: {err}"
            );
        }
        assert!(program(&[Op::Key, Op::Const(1), Op::Eq]).is_ok());
    }
}
