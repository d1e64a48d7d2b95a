//! `Request::parse` runs on serve's I/O loop for every request, so its
//! allocation count must not grow with the number of inputs: number tokens
//! stay borrowed slices of the frame and decode straight to f32.

use advcomp_serve::protocol::Request;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Counts this thread's allocations; `realloc` counts via its default.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_to_parse(n: usize) -> usize {
    let req = Request::Predict {
        id: "r1".into(),
        input: (0..n).map(|i| i as f32 / 7.0).collect(),
        probs: false,
        attack: None,
    };
    let payload = req.to_payload();
    let before = ALLOCS.with(Cell::get);
    let parsed = Request::parse(&payload).unwrap();
    let count = ALLOCS.with(Cell::get) - before;
    assert_eq!(parsed, req);
    count
}

#[test]
fn predict_parse_allocates_nothing_per_number() {
    let (small, digit) = (allocs_to_parse(8), allocs_to_parse(784));
    // Only the token array's doublings (8 -> 1024) may add allocations.
    assert!(
        digit <= small + 10,
        "784 inputs: {digit}, 8 inputs: {small}"
    );
}
