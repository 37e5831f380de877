//! `Expr::eval` runs once per tuple of a filtered rectangle, so its steady
//! state must not touch the allocator. A counting global allocator tallies
//! the allocations each thread makes; after one warm-up call per program,
//! evaluating any number of tuples must add none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use waterwheel_core::{Expr, Tuple};

struct Counting;

thread_local! {
    /// Allocations made by this thread. A const-initialised `Cell` has no
    /// destructor and allocates nothing, so the allocator may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn eval_allocates_nothing_after_warm_up() {
    let programs = [
        // An attribute equality, as an attribute query writes it.
        Expr::payload(0, 1).equals(5),
        // Every operator, and a stack four values deep.
        (Expr::payload(3, 2) & 0xFF)
            .equals(Expr::ts() % 7)
            .or(!Expr::key())
            .and((Expr::key() >> 3).lt(Expr::ts().le(Expr::payload(0, 8)))),
        // `None` from a short payload, propagated to the top.
        Expr::payload(40, 8).equals(1).or(Expr::key().equals(0)),
    ];
    let tuples: Vec<Tuple> = (0..256u64)
        .map(|i| Tuple::new(i * 31, i, vec![i as u8; (i % 12) as usize]))
        .collect();
    let mut passed = 0u64;
    for program in &programs {
        program.eval(&tuples[0]);
        let before = allocs();
        for t in &tuples {
            passed += u64::from(program.accepts(t));
            std::hint::black_box(program.eval(t));
        }
        assert_eq!(allocs() - before, 0, "{program:?}");
    }
    // The programs did filter: some tuples passed, not all.
    assert!(passed > 0 && passed < 3 * tuples.len() as u64, "{passed}");
}
