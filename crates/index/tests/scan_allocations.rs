//! Allocation count of a hot leaf scan.
//!
//! A cached leaf ([`DecodedLeaf`]) scanned with a warmed [`ScanScratch`]
//! allocates the answer `Vec` and one block holding the survivors'
//! payload bytes — nothing else, in every payload mode — and nothing at
//! all when no row survives. The global allocator here counts the
//! allocations (and records the sizes) made on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use waterwheel_core::{KeyInterval, TimeInterval, Tuple};
use waterwheel_index::columnar::{encode_leaf, DecodedLeaf, ScanScratch};

const KEPT_SIZES: usize = 8;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static SIZES: Cell<[usize; KEPT_SIZES]> = const { Cell::new([0; KEPT_SIZES]) };
}

struct Counting;

impl Counting {
    fn note(size: usize) {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let n = ALLOCS.get();
                if n < KEPT_SIZES {
                    let mut sizes = SIZES.get();
                    sizes[n] = size;
                    SIZES.set(sizes);
                }
                ALLOCS.set(n + 1);
            }
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialized thread-locals without destructors, so noting an
// allocation never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as for `alloc`; `ptr` came from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread, and the sizes of the first
/// few. Its result is dropped outside the count.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, Vec<usize>, T) {
    ALLOCS.set(0);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    let n = ALLOCS.get();
    (n, SIZES.get()[..n.min(KEPT_SIZES)].to_vec(), out)
}

const ROWS: u64 = 146;

/// Row `i` has key `i` and a timestamp that alternates between two
/// values, so a time window can pick every other row.
fn ts_of(i: u64) -> u64 {
    1_000 + (i % 2) * 10_000
}

fn leaf(payload: impl Fn(u64) -> Vec<u8>) -> Vec<Tuple> {
    (0..ROWS)
        .map(|i| Tuple::new(i, ts_of(i), payload(i)))
        .collect()
}

/// The payload mode byte of an image: the block is the image's last
/// field, u32-length-prefixed, right after the mode.
fn payload_mode(image: &[u8]) -> u8 {
    let n = image.len();
    let body = (0..n - 5)
        .find(|&b| image[n - b - 4..n - b] == (b as u32).to_le_bytes())
        .expect("a length prefix");
    image[n - body - 5]
}

#[test]
fn a_hot_scan_allocates_the_answer_and_one_payload_block() {
    // Raw: written without compression. LZ: compressible but ragged, so
    // no stride to shuffle by. Shuffle-LZ: 30-byte records whose high
    // bytes are constant.
    let raw = leaf(|i| vec![i as u8; 16]);
    let lz = leaf(|i| b"abcdefgh".repeat(2 + (i % 3) as usize));
    let shuffled = leaf(|i| {
        let mut p = (i as u32).to_le_bytes().to_vec();
        p.extend_from_slice(&(7_000_000 + i as u32 * 3).to_le_bytes());
        p.resize(30, 0);
        p
    });
    let cases = [
        ("raw", encode_leaf(&raw, false), &raw, 0u8),
        ("lz", encode_leaf(&lz, true), &lz, 1),
        ("shuffle-lz", encode_leaf(&shuffled, true), &shuffled, 2),
    ];
    let mut scratch = ScanScratch::new();
    for (name, image, entries, mode) in &cases {
        assert_eq!(payload_mode(image), *mode, "{name} image mode");
        let leaf = DecodedLeaf::decode(image, ROWS as u32, true, &mut scratch).unwrap();
        let everything = (KeyInterval::full(), TimeInterval::full());
        // Warm the scratch on this leaf's shape.
        leaf.scan(&everything.0, &everything.1, &mut scratch)
            .unwrap();

        let row = 77u64;
        let one = (KeyInterval::new(row, row), TimeInterval::full());
        let even = (KeyInterval::full(), TimeInterval::new(ts_of(0), ts_of(0)));
        let none = (KeyInterval::new(ROWS, u64::MAX), TimeInterval::full());
        for (window, survivors) in [
            (&everything, ROWS as usize),
            (&one, 1),
            (&even, ROWS.div_ceil(2) as usize),
        ] {
            let (n, sizes, got) =
                allocations(|| leaf.scan(&window.0, &window.1, &mut scratch).unwrap());
            assert_eq!(got.len(), survivors, "{name}");
            assert_eq!(n, 2, "{name}, {survivors} survivors: sizes {sizes:?}");
        }

        // One survivor: the answer holds one tuple, the block that row's
        // payload plus the Arc's two counts, padded to their alignment.
        let (_, sizes, got) = allocations(|| leaf.scan(&one.0, &one.1, &mut scratch).unwrap());
        assert_eq!(got, [entries[row as usize].clone()]);
        let payload = entries[row as usize].payload.len();
        let header = 2 * std::mem::size_of::<usize>();
        let block = (header + payload).next_multiple_of(std::mem::align_of::<usize>());
        let mut want = vec![std::mem::size_of::<Tuple>(), block];
        let mut sizes = sizes;
        sizes.sort_unstable();
        want.sort_unstable();
        assert_eq!(sizes, want, "{name}: one survivor's allocation sizes");

        let (n, _, got) = allocations(|| leaf.scan(&none.0, &none.1, &mut scratch).unwrap());
        assert!(got.is_empty());
        assert_eq!(n, 0, "{name}: a scan with no survivor allocates nothing");
    }
}
